//! Deterministic pseudo-random number generation for reproducible simulations.
//!
//! Every stochastic choice in the simulator — identifier assignment, start-phase
//! jitter, peer selection, message drops, churn — is driven by [`SimRng`], a small
//! Xoshiro256** generator seeded through SplitMix64. Given the same seed, a
//! simulation run is bit-for-bit reproducible across platforms and releases, which
//! is what lets `bss-bench` publish `(seed, series)` pairs — `bss-bench ablation`,
//! whose ablation C compares oracle and NEWSCAST sampling, for one — and CI pin
//! them byte for byte in `ci/golden/`.
//!
//! The generator is intentionally *not* cryptographically secure; it only needs to
//! be statistically good and fast.

/// A deterministic pseudo-random number generator (Xoshiro256** seeded via
/// SplitMix64).
///
/// # Example
///
/// ```rust
/// use bss_util::rng::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// let die = a.range_u64(1, 7);
/// assert!((1..7).contains(&die));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    finalise(*state)
}

/// SplitMix64's output function: a bijection on 64-bit words in which every
/// input bit flips about half of the output bits.
#[inline]
fn finalise(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One raw draw reduced into `0..span` without modulo bias: kept when its
/// block of `span` values ends below 2^64, which is `value < u64::MAX -
/// u64::MAX % span` without the second division; `None` asks for a redraw.
#[inline]
fn reduce(value: u64, span: u64) -> Option<u64> {
    let offset = value % span;
    (value - offset).checked_add(span).map(|_| offset)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Different seeds give independent-looking streams; the same seed always gives
    /// the same stream.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let mut state = [0u64; 4];
        for slot in &mut state {
            *slot = splitmix64(&mut sm);
        }
        // Xoshiro must not be seeded with the all-zero state; SplitMix64 cannot
        // produce four consecutive zeros, but be defensive anyway.
        if state == [0, 0, 0, 0] {
            state[0] = 1;
        }
        SimRng { state }
    }

    /// The generator of stream `stream`, item `index` under `seed`: the three
    /// words folded through the SplitMix64 finaliser, then [`SimRng::seed_from`].
    ///
    /// A counter-based family: item `i` of stream `t` is reached without
    /// drawing items `0..i`, so independent items — one lookup of one cycle,
    /// say — can draw on any thread in any order and still draw the same
    /// numbers. For a fixed seed and stream, distinct indices give distinct
    /// keys.
    ///
    /// ```rust
    /// use bss_util::rng::SimRng;
    ///
    /// let mut a = SimRng::keyed(7, 3, 12);
    /// assert_eq!(a.next_u64(), SimRng::keyed(7, 3, 12).next_u64());
    /// ```
    pub fn keyed(seed: u64, stream: u64, index: u64) -> Self {
        Self::seed_from(finalise(finalise(finalise(seed) ^ stream) ^ index))
    }

    /// Returns the next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Returns a uniformly random value in the half-open range `[low, high)`.
    ///
    /// Modulo with rejection: a raw draw is kept only when its whole block of
    /// `high - low` consecutive values fits below `u64::MAX`, so every result
    /// is equally likely.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high`.
    #[inline]
    pub fn range_u64(&mut self, low: u64, high: u64) -> u64 {
        assert!(low < high, "empty range {low}..{high}");
        let span = high - low;
        low + self.bounded(span)
    }

    /// Returns a uniformly random index in `0..len`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot pick an index from an empty collection");
        self.bounded(len as u64) as usize
    }

    #[inline]
    fn bounded(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        loop {
            if let Some(offset) = reduce(self.next_u64(), span) {
                return offset;
            }
        }
    }

    /// Returns a uniformly random `f64` in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit_f64() < p
        }
    }

    /// Shuffles `slice` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Draws `count` elements from `slice` uniformly at random *without*
    /// replacement (partial Fisher–Yates over indices). When `count >= slice.len()`
    /// a shuffled copy of the whole slice is returned.
    pub fn sample<T: Clone>(&mut self, slice: &[T], count: usize) -> Vec<T> {
        if count >= slice.len() {
            let mut all = slice.to_vec();
            self.shuffle(&mut all);
            return all;
        }
        let mut indices: Vec<usize> = (0..slice.len()).collect();
        self.sample_in_place(&mut indices, count);
        indices.iter().map(|&i| slice[i].clone()).collect()
    }

    /// [`sample`](Self::sample) over an owned buffer: reorders `items` so that
    /// they start with the draw and truncates them to it. The draws depend
    /// only on the lengths, so both forms consume the same stream.
    pub fn sample_in_place<T>(&mut self, items: &mut Vec<T>, count: usize) {
        let n = items.len();
        if count >= n {
            self.shuffle(items);
            return;
        }
        for i in 0..count {
            let j = i + self.index(n - i);
            items.swap(i, j);
        }
        items.truncate(count);
    }

    /// Fills `drawn` with the positions [`sample`](Self::sample) draws from
    /// a slice as long as `identity`, which must hold `0..identity.len()`.
    /// The draw swaps them to the front and back again: it costs O(`count`),
    /// not O(length), and leaves `identity` as it found it.
    pub fn sample_positions(
        &mut self,
        identity: &mut [usize],
        count: usize,
        drawn: &mut Vec<usize>,
    ) {
        drawn.clear();
        let n = identity.len();
        if count >= n {
            drawn.extend_from_slice(identity);
            self.shuffle(drawn);
            return;
        }
        for i in 0..count {
            let j = i + self.index(n - i);
            identity.swap(i, j);
            drawn.push(j);
        }
        // Undone in reverse: no later step touches position `i`, so it still
        // holds step `i`'s draw, which replaces `j` in `drawn`.
        for i in (0..count).rev() {
            let j = drawn[i];
            drawn[i] = identity[i];
            identity.swap(i, j);
        }
    }

    /// Generates `count` *distinct* uniformly random `u64` values.
    ///
    /// Used to assign unique node identifiers; with 64-bit identifiers collisions
    /// are astronomically unlikely but we guarantee uniqueness anyway because the
    /// convergence oracle assumes distinct identifiers.
    pub fn distinct_u64(&mut self, count: usize) -> Vec<u64> {
        use std::collections::HashSet;
        let mut seen = HashSet::with_capacity(count);
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let v = self.next_u64();
            if seen.insert(v) {
                out.push(v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let collisions = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(collisions, 0);
    }

    #[test]
    fn range_stays_in_bounds_and_covers_values() {
        let mut rng = SimRng::seed_from(11);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            let v = rng.range_u64(10, 16);
            assert!((10..16).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in range should appear");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn range_rejects_empty() {
        SimRng::seed_from(0).range_u64(5, 5);
    }

    #[test]
    fn unit_f64_in_unit_interval_and_roughly_uniform() {
        let mut rng = SimRng::seed_from(13);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = rng.unit_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }

    #[test]
    fn chance_extremes_and_statistics() {
        let mut rng = SimRng::seed_from(17);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
        let hits = (0..10_000).filter(|_| rng.chance(0.2)).count();
        let rate = hits as f64 / 10_000.0;
        assert!((rate - 0.2).abs() < 0.02, "empirical rate {rate}");
    }

    #[test]
    fn choose_and_shuffle_behave() {
        let mut rng = SimRng::seed_from(19);
        let mut data: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut data);
        let mut sorted = data.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(data, (0..100).collect::<Vec<_>>(), "shuffle should permute");
    }

    #[test]
    fn sample_without_replacement() {
        let mut rng = SimRng::seed_from(23);
        let items: Vec<u32> = (0..50).collect();
        let picked = rng.sample(&items, 10);
        assert_eq!(picked.len(), 10);
        let unique: std::collections::HashSet<_> = picked.iter().collect();
        assert_eq!(unique.len(), 10, "sample must not repeat elements");
        // Asking for more than available returns everything.
        let all = rng.sample(&items, 100);
        assert_eq!(all.len(), 50);
    }

    #[test]
    fn sampling_in_place_draws_what_sample_draws() {
        let items: Vec<u32> = (0..30).collect();
        for count in [0, 1, 7, 29, 30, 31] {
            let mut copied = SimRng::seed_from(41);
            let mut in_place = copied.clone();
            let mut buffer = items.clone();
            in_place.sample_in_place(&mut buffer, count);
            assert_eq!(buffer, copied.sample(&items, count), "count {count}");
            assert_eq!(in_place, copied, "count {count}");
        }
    }

    #[test]
    fn sampling_positions_draws_what_sample_draws() {
        for length in [0, 1, 2, 30] {
            let positions: Vec<usize> = (0..length).collect();
            let mut identity = positions.clone();
            for count in [0, 1, 7, 29, 30, 31] {
                let mut copied = SimRng::seed_from(43 + count as u64);
                let mut drawing = copied.clone();
                let mut drawn = vec![usize::MAX];
                drawing.sample_positions(&mut identity, count, &mut drawn);
                assert_eq!(drawn, copied.sample(&positions, count), "{length}, {count}");
                assert_eq!(
                    (drawing, &identity),
                    (copied, &positions),
                    "{length}, {count}"
                );
            }
        }
    }

    #[test]
    fn distinct_u64_yields_unique_values() {
        let mut rng = SimRng::seed_from(29);
        let ids = rng.distinct_u64(1000);
        let unique: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(unique.len(), 1000);
    }

    #[test]
    fn one_division_reduction_keeps_exactly_the_two_division_draws() {
        // The rule `bounded` used before: keep a draw below the last whole
        // multiple of `span` under `u64::MAX`.
        let two_divisions = |value: u64, span: u64| {
            let zone = u64::MAX - u64::MAX % span;
            (value < zone || zone == 0).then_some(value % span)
        };
        let mut rng = SimRng::seed_from(37);
        let mut spans = vec![1, 2, 3, 1 << 63, (1 << 63) + 1, u64::MAX];
        spans.extend((0..64).map(|bit| 1u64 << bit));
        spans.extend((0..256).map(|_| (rng.next_u64() >> rng.index(64)).max(1)));
        for span in spans {
            let zone = u64::MAX - u64::MAX % span;
            let mut values = vec![zone.wrapping_sub(1), zone, u64::MAX, 0, span - 1, span];
            values.extend((0..16).map(|_| rng.next_u64()));
            for value in values {
                assert_eq!(
                    reduce(value, span),
                    two_divisions(value, span),
                    "value {value} span {span}"
                );
            }
        }
    }

    #[test]
    fn a_key_names_one_stream_and_its_neighbours_differ() {
        let first = |seed, stream, index| SimRng::keyed(seed, stream, index).next_u64();
        let mut a = SimRng::keyed(5, 40, 17);
        let mut b = SimRng::keyed(5, 40, 17);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut seen = std::collections::HashSet::new();
        for stream in 0..64 {
            for index in 0..64 {
                assert!(seen.insert(first(5, stream, index)), "({stream}, {index})");
            }
        }
        assert_ne!(
            first(5, 40, 17),
            first(6, 40, 17),
            "the seed is part of the key"
        );
        // Swapping stream and index names another stream.
        assert_ne!(first(5, 3, 4), first(5, 4, 3));
    }

    #[test]
    fn index_covers_all_positions() {
        let mut rng = SimRng::seed_from(31);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.index(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
