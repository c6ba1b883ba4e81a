//! A fixed piece of work the harness times next to everything it gates, so
//! that seconds can be reported at the speed of one reference host.
//!
//! The benchmark runs on a few cores of a shared host, and what the host
//! gives it moves in regimes that last from seconds to tens of minutes: with
//! the guest idle, the same rep took 4.5 s and 7.9 s half an hour apart. A
//! dependent chain of multiplications kept its speed through it and the
//! guest's steal counter stayed low, while sorting and cache-resident pointer
//! chasing slowed by half — another guest on the sibling hyperthread, taking
//! issue slots and cache, not time slices. No statistic over the samples of
//! one run sees through a regime that covers the whole run. A yardstick
//! measured next to every sample does. The reading below is branchy,
//! high-IPC work over a table that fits the core's second-level cache, like
//! the crates' merge and ranking code; of the candidates tried (a plain sort,
//! pointer chases over 256 KiB, 1 MiB and 64 MiB, a copy) it was the one whose
//! time moved in step with a rep's (slope 1.1 in log-log over twenty reps
//! spanning both regimes). It shares no code with the crates, so no change to
//! them can move it.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one reading takes on the reference host: the quiet state of the
/// box the benchmark was written on. A constant — changing it, or the
/// reading's work, rescales every gated timing.
pub const REFERENCE_READING_S: f64 = 0.0090;

const TABLE_WORDS: usize = 128 << 10;
const RECORD_WORDS: usize = 128;
const RECORDS_PER_READING: usize = 8500;

fn step(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 11
}

/// The yardstick: sorts 1 KiB records picked at random from a 1 MiB table and
/// writes two words of each back.
#[derive(Debug)]
pub struct Reference {
    state: u64,
    table: Vec<u64>,
}

impl Reference {
    pub fn new() -> Self {
        let mut state = 0x9e37_79b9_7f4a_7c15;
        let table = (0..TABLE_WORDS).map(|_| step(&mut state)).collect();
        Reference { state, table }
    }

    /// Does the reference work once and returns the seconds it took.
    pub fn reading(&mut self) -> f64 {
        let started = Instant::now();
        let mut record = [0u64; RECORD_WORDS];
        for _ in 0..RECORDS_PER_READING {
            let at = step(&mut self.state) as usize % (TABLE_WORDS - RECORD_WORDS);
            record.copy_from_slice(&self.table[at..at + RECORD_WORDS]);
            record.sort_unstable();
            self.table[at] = record[RECORD_WORDS / 2] ^ self.state;
            self.table[at + RECORD_WORDS - 1] = record[0] ^ self.state;
        }
        black_box(&self.table);
        started.elapsed().as_secs_f64()
    }
}

/// The readings taken during one timed stretch, on as many threads at once as
/// the timed work uses: a two-thread wave is as slow as its slower core, and
/// the guest's two cores have different neighbours.
#[derive(Debug)]
pub struct Readings {
    references: Vec<Reference>,
    sum_s: f64,
    count: usize,
}

impl Readings {
    pub fn on(threads: usize) -> Self {
        Readings {
            references: (0..threads.max(1)).map(|_| Reference::new()).collect(),
            sum_s: 0.0,
            count: 0,
        }
    }

    /// Takes one reading on every thread and notes the slowest.
    pub fn take(&mut self) {
        let (first, others) = self
            .references
            .split_first_mut()
            .expect("at least one thread");
        self.sum_s += std::thread::scope(|scope| {
            let others: Vec<_> = others
                .iter_mut()
                .map(|reference| scope.spawn(|| reference.reading()))
                .collect();
            others
                .into_iter()
                .map(|handle| handle.join().expect("a reading does not panic"))
                .fold(first.reading(), f64::max)
        });
        self.count += 1;
    }

    /// The mean of the readings taken so far.
    pub fn mean_s(&self) -> f64 {
        self.sum_s / self.count as f64
    }
}

/// `seconds` as the reference host would have taken, given the mean of the
/// readings taken while they passed.
pub fn at_reference_speed(seconds: f64, mean_reading_s: f64) -> f64 {
    seconds * REFERENCE_READING_S / mean_reading_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_scale_with_the_reading() {
        // A host reading twice the reference time is half as fast.
        let at = at_reference_speed(3.0, 2.0 * REFERENCE_READING_S);
        assert!((at - 1.5).abs() < 1e-12, "{at}");
        assert_eq!(at_reference_speed(3.0, REFERENCE_READING_S), 3.0);
    }

    #[test]
    fn readings_on_two_threads_are_taken_and_averaged() {
        let mut readings = Readings::on(2);
        readings.take();
        readings.take();
        assert_eq!(readings.count, 2);
        assert!(readings.mean_s() > 0.0);
        // The work is deterministic: a fresh yardstick ends in the same state.
        let (mut one, mut other) = (Reference::new(), Reference::new());
        one.reading();
        other.reading();
        assert_eq!(one.table, other.table);
    }
}
