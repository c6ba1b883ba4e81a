//! Node descriptors: the unit of information exchanged by every gossip protocol in
//! this workspace.
//!
//! A descriptor binds a [`NodeId`] to an *address* — whatever a peer needs in order
//! to contact the node — together with a freshness timestamp used by NEWSCAST to
//! prefer recent information. In the simulator the address is a dense node index;
//! in the UDP deployment it is a socket address. The protocol crates are generic
//! over the address type through the [`Address`] trait.

use crate::id::NodeId;
use std::fmt::Debug;
use std::hash::Hash;

/// Requirements on the address type carried by a [`Descriptor`].
///
/// The trait is automatically implemented for every type satisfying the bounds, so
/// simulator indices (`u32`-like newtypes), `std::net::SocketAddr` and test stubs
/// can all act as addresses without any explicit implementation.
pub trait Address: Copy + Eq + Ord + Hash + Debug + Send + Sync + 'static {}

impl<T> Address for T where T: Copy + Eq + Ord + Hash + Debug + Send + Sync + 'static {}

/// A node descriptor: identifier, contact address and freshness timestamp.
///
/// The timestamp is a logical time (cycle number in the simulator, coarse wall
/// clock in the UDP deployment); larger means fresher. NEWSCAST keeps the freshest
/// descriptors it has seen, which is how stale information about departed nodes is
/// eventually purged.
///
/// # Example
///
/// ```rust
/// use bss_util::descriptor::Descriptor;
/// use bss_util::id::NodeId;
///
/// let d = Descriptor::new(NodeId::new(42), 7u32, 3);
/// assert_eq!(d.id(), NodeId::new(42));
/// assert_eq!(d.address(), 7);
/// assert_eq!(d.timestamp(), 3);
/// assert!(d.refreshed(10).timestamp() == 10);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Descriptor<A> {
    id: NodeId,
    address: A,
    timestamp: u64,
}

impl<A: Address> Descriptor<A> {
    /// Creates a descriptor from its parts.
    pub fn new(id: NodeId, address: A, timestamp: u64) -> Self {
        Descriptor {
            id,
            address,
            timestamp,
        }
    }

    /// The node's identifier.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's contact address.
    #[inline]
    pub fn address(&self) -> A {
        self.address
    }

    /// Logical freshness timestamp; larger is fresher.
    #[inline]
    pub fn timestamp(&self) -> u64 {
        self.timestamp
    }

    /// The descriptor's age relative to the logical clock `now` (zero for
    /// timestamps at or ahead of `now`).
    #[inline]
    pub(crate) fn age(&self, now: u64) -> u64 {
        now.saturating_sub(self.timestamp)
    }

    /// Whether the descriptor counts as *expired* under an aging bound: its
    /// timestamp lags `now` by strictly more than `max_age` cycles. Expired
    /// descriptors are what the failure-detecting merge path rejects and
    /// evicts — a node that keeps gossiping re-stamps its own descriptor every
    /// exchange, so only departed nodes' information ever expires.
    #[inline]
    pub fn is_expired(&self, now: u64, max_age: u64) -> bool {
        self.age(now) > max_age
    }

    /// Returns a copy of the descriptor with its timestamp replaced by `now`.
    #[must_use]
    pub fn refreshed(&self, now: u64) -> Self {
        Descriptor {
            timestamp: now,
            ..*self
        }
    }

    /// Returns whichever of the two descriptors is fresher, preferring `self` on a
    /// tie. Both descriptors must refer to the same node.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the descriptors refer to different identifiers.
    #[must_use]
    pub fn fresher_of(self, other: Self) -> Self {
        debug_assert_eq!(self.id, other.id, "fresher_of called on different nodes");
        if other.timestamp > self.timestamp {
            other
        } else {
            self
        }
    }
}

impl<A: Address + Default> Default for Descriptor<A> {
    /// A placeholder descriptor (identifier 0, default address, timestamp 0),
    /// used as arena filler and scratch initialiser.
    fn default() -> Self {
        Descriptor::new(NodeId::new(0), A::default(), 0)
    }
}

/// A descriptor packed to eight bytes for the simulator's hot membership
/// structures: the node's dense `u32` registry index (which is also its
/// position in the shared identifier arena) plus a `u32` logical timestamp.
///
/// The full [`Descriptor`] spends 16 of its 24 bytes on the 64-bit identifier
/// and timestamp, but inside the simulator the identifier is recoverable from
/// the registry (`ids[address]`) and timestamps are cycle numbers that never
/// approach `2^32`. Packing halves-to-thirds the per-entry footprint of every
/// leaf set, prefix table and gossip view, which is what lets million-node
/// networks fit in commodity memory.
///
/// # Example
///
/// ```rust
/// use bss_util::descriptor::PackedDescriptor;
///
/// let p = PackedDescriptor::new(7, 3);
/// assert_eq!(p.address(), 7);
/// assert_eq!(p.timestamp(), 3);
/// assert_eq!(std::mem::size_of::<PackedDescriptor>(), 8);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct PackedDescriptor {
    address: u32,
    timestamp: u32,
}

impl PackedDescriptor {
    /// Packs an address index and logical timestamp.
    ///
    /// Debug builds assert that the timestamp fits in 32 bits; the simulator's
    /// timestamps are cycle numbers (or millisecond event times), which stay
    /// far below `2^32` for any feasible run length.
    #[inline]
    pub fn new(address: u32, timestamp: u64) -> Self {
        debug_assert!(
            timestamp <= u64::from(u32::MAX),
            "timestamp {timestamp} exceeds the packed 32-bit range"
        );
        PackedDescriptor {
            address,
            timestamp: timestamp as u32,
        }
    }

    /// The node's dense registry index.
    #[inline]
    pub fn address(self) -> u32 {
        self.address
    }

    /// Logical freshness timestamp; larger is fresher.
    #[inline]
    pub fn timestamp(self) -> u64 {
        u64::from(self.timestamp)
    }

    /// [`Descriptor::is_expired`] for the packed form.
    #[inline]
    pub fn is_expired(self, now: u64, max_age: u64) -> bool {
        now.saturating_sub(self.timestamp()) > max_age
    }
}

/// Buffers at most this long are deduplicated by in-place quadratic scanning
/// (no allocation); longer buffers switch to the open-addressing path.
const LINEAR_DEDUP_MAX: usize = 24;

/// Buffers at most this long use a stack-resident open-addressing table (no
/// allocation, no SipHash); anything longer falls back to the sort-based path.
const OPEN_ADDRESSING_MAX: usize = 2000;

/// Open-addressing dedup with an `N`-slot stack probe table (`N` a power of
/// two, at least `2 * len` so the load factor stays at most one half). `N` is
/// a const parameter so typical merge-buffer sizes only pay a few hundred
/// bytes of table zeroing, not the worst case's.
fn open_addressing_dedup<A: Address, const N: usize>(descriptors: &mut Vec<Descriptor<A>>) {
    let len = descriptors.len();
    debug_assert!(2 * len <= N);
    let mask = N - 1;
    let mut table = [0u16; N];
    let mut write = 0usize;
    'reads: for read in 0..len {
        let candidate = descriptors[read];
        let mut probe =
            (candidate.id().raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        loop {
            let slot = table[probe];
            if slot == 0 {
                table[probe] = write as u16 + 1;
                descriptors[write] = candidate;
                write += 1;
                continue 'reads;
            }
            let existing = &mut descriptors[slot as usize - 1];
            if existing.id() == candidate.id() {
                if candidate.timestamp() > existing.timestamp() {
                    *existing = candidate;
                }
                continue 'reads;
            }
            probe = (probe + 1) & mask;
        }
    }
    descriptors.truncate(write);
}

/// Deduplicates a set of descriptors by identifier, keeping the freshest descriptor
/// for each identifier (ties keep the earlier occurrence). The relative order of
/// first occurrences is preserved.
///
/// This runs on the gossip merge hot path for every exchanged message, so it
/// never builds a `HashMap`: buffers of at most 24 descriptors are compacted in
/// place with a linear membership scan, buffers of up to 2000 through a
/// stack-resident open-addressing table (multiplicative hash, sized in three
/// tiers — 256, 1024, 4096 slots — so the zeroing cost follows the buffer
/// length), and neither allocates. Only beyond that does it fall back to two
/// index sorts, which allocate their index vectors.
pub fn dedup_freshest<A: Address>(descriptors: &mut Vec<Descriptor<A>>) {
    let len = descriptors.len();
    if len <= 1 {
        return;
    }
    if len <= LINEAR_DEDUP_MAX {
        let mut write = 0usize;
        for read in 0..len {
            let candidate = descriptors[read];
            match descriptors[..write]
                .iter_mut()
                .find(|kept| kept.id() == candidate.id())
            {
                Some(existing) => {
                    if candidate.timestamp() > existing.timestamp() {
                        *existing = candidate;
                    }
                }
                None => {
                    descriptors[write] = candidate;
                    write += 1;
                }
            }
        }
        descriptors.truncate(write);
        return;
    }
    // Open addressing over *kept* positions: the probe table maps a hash to
    // `kept position + 1` (0 = vacant). Stack-resident, multiplicative
    // hashing — roughly an order of magnitude cheaper than a per-call
    // `HashMap` on the merge hot path. Tiered table sizes keep the zeroing
    // cost proportional to typical buffer lengths.
    if len <= 120 {
        return open_addressing_dedup::<A, 256>(descriptors);
    }
    if len <= 500 {
        return open_addressing_dedup::<A, 1024>(descriptors);
    }
    if len <= OPEN_ADDRESSING_MAX {
        return open_addressing_dedup::<A, 4096>(descriptors);
    }

    // Sort positions by (id, freshest-first, earliest-first): the first entry
    // of every id-group is exactly the survivor the linear algorithm would
    // keep, and the group's smallest position is where it goes in the output.
    let mut order: Vec<u32> = (0..len as u32).collect();
    order.sort_unstable_by(|&x, &y| {
        let (a, b) = (&descriptors[x as usize], &descriptors[y as usize]);
        a.id()
            .cmp(&b.id())
            .then_with(|| b.timestamp().cmp(&a.timestamp()))
            .then_with(|| x.cmp(&y))
    });
    let mut kept: Vec<(u32, Descriptor<A>)> = Vec::with_capacity(len);
    let mut i = 0;
    while i < len {
        let winner = descriptors[order[i] as usize];
        let mut first_position = order[i];
        i += 1;
        while i < len && descriptors[order[i] as usize].id() == winner.id() {
            first_position = first_position.min(order[i]);
            i += 1;
        }
        kept.push((first_position, winner));
    }
    kept.sort_unstable_by_key(|&(position, _)| position);
    descriptors.clear();
    descriptors.extend(kept.into_iter().map(|(_, d)| d));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(id: u64, addr: u32, ts: u64) -> Descriptor<u32> {
        Descriptor::new(NodeId::new(id), addr, ts)
    }

    #[test]
    fn accessors_return_constructor_arguments() {
        let desc = d(1, 2, 3);
        assert_eq!(desc.id(), NodeId::new(1));
        assert_eq!(desc.address(), 2);
        assert_eq!(desc.timestamp(), 3);
    }

    #[test]
    fn age_and_expiry_follow_the_logical_clock() {
        let desc = d(1, 2, 10);
        assert_eq!(desc.age(10), 0);
        assert_eq!(desc.age(25), 15);
        assert_eq!(desc.age(3), 0, "future timestamps are not negative ages");
        assert!(!desc.is_expired(15, 5), "age 5 == bound 5 is still fresh");
        assert!(desc.is_expired(16, 5));
        assert!(!desc.is_expired(3, 5));
    }

    #[test]
    fn refreshed_only_changes_timestamp() {
        let desc = d(1, 2, 3).refreshed(99);
        assert_eq!(desc.id(), NodeId::new(1));
        assert_eq!(desc.address(), 2);
        assert_eq!(desc.timestamp(), 99);
    }

    #[test]
    fn fresher_of_prefers_larger_timestamp() {
        let old = d(1, 2, 3);
        let new = d(1, 2, 10);
        assert_eq!(old.fresher_of(new).timestamp(), 10);
        assert_eq!(new.fresher_of(old).timestamp(), 10);
        // Tie: keeps self.
        let other_addr = d(1, 9, 3);
        assert_eq!(old.fresher_of(other_addr).address(), 2);
    }

    #[test]
    fn dedup_keeps_freshest_per_id_and_preserves_order() {
        let mut v = vec![
            d(1, 10, 1),
            d(2, 20, 5),
            d(1, 11, 7),
            d(3, 30, 2),
            d(2, 21, 1),
        ];
        dedup_freshest(&mut v);
        assert_eq!(v.len(), 3);
        assert_eq!(v[0].id(), NodeId::new(1));
        assert_eq!(v[0].timestamp(), 7);
        assert_eq!(v[0].address(), 11);
        assert_eq!(v[1].id(), NodeId::new(2));
        assert_eq!(v[1].timestamp(), 5);
        assert_eq!(v[2].id(), NodeId::new(3));
    }

    /// The original hash-map reference semantics: first-occurrence order, keep
    /// the freshest descriptor per id, ties keep the earlier one.
    fn dedup_reference(descriptors: &[Descriptor<u32>]) -> Vec<Descriptor<u32>> {
        let mut out: Vec<Descriptor<u32>> = Vec::new();
        for d in descriptors {
            match out.iter_mut().find(|kept| kept.id() == d.id()) {
                Some(existing) => {
                    if d.timestamp() > existing.timestamp() {
                        *existing = *d;
                    }
                }
                None => out.push(*d),
            }
        }
        out
    }

    #[test]
    fn dedup_linear_and_sorted_paths_match_the_reference() {
        // Pseudo-random buffers straddling the linear/sort-based threshold,
        // with plenty of duplicate ids and timestamp ties.
        let mut state = 0x9E37_79B9u64;
        for len in [
            2usize, 7, 23, 24, 25, 64, 120, 121, 200, 500, 501, 1999, 2000, 2001, 2600,
        ] {
            let mut buffer: Vec<Descriptor<u32>> = (0..len)
                .map(|i| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let id = state % (len as u64 / 2).max(1); // force duplicates
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let ts = state % 4; // force timestamp ties
                    Descriptor::new(NodeId::new(id), i as u32, ts)
                })
                .collect();
            let expected = dedup_reference(&buffer);
            dedup_freshest(&mut buffer);
            assert_eq!(buffer, expected, "mismatch at len {len}");
        }
    }

    #[test]
    fn dedup_on_empty_and_singleton() {
        let mut empty: Vec<Descriptor<u32>> = vec![];
        dedup_freshest(&mut empty);
        assert!(empty.is_empty());

        let mut one = vec![d(1, 1, 1)];
        dedup_freshest(&mut one);
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn socket_addr_is_an_address() {
        use std::net::{IpAddr, Ipv4Addr, SocketAddr};
        fn assert_address<A: Address>() {}
        assert_address::<SocketAddr>();
        assert_address::<u32>();
        let addr = SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 9000);
        let desc = Descriptor::new(NodeId::new(5), addr, 0);
        assert_eq!(desc.address(), addr);
        // keep the type check honest
        let _ = IpAddr::V4(Ipv4Addr::LOCALHOST);
    }
}
