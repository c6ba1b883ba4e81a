//! Node identifiers and the arithmetic the bootstrapping protocol needs on them.
//!
//! The paper uses 64-bit numeric identifiers ("In our simulations IDs are 64-bit
//! integers", §5). An identifier is viewed in two ways:
//!
//! * as a point on a **ring** of size 2^64 (for the leaf set / sorted ring), and
//! * as a sequence of base-2^b **digits**, most significant digit first (for the
//!   prefix routing table).
//!
//! [`NodeId`] provides both views plus the XOR metric used by Kademlia-style
//! consumers of the bootstrapped tables.

use std::fmt;

/// Number of bits in a [`NodeId`].
pub(crate) const ID_BITS: u32 = 64;

/// A 64-bit node identifier.
///
/// Identifiers are expected to be drawn uniformly at random (as DHTs do by hashing
/// a node's address or public key), which the simulator does via
/// [`SimRng`](crate::rng::SimRng).
///
/// # Example
///
/// ```rust
/// use bss_util::id::NodeId;
///
/// let id = NodeId::new(0xABCD_0000_0000_0000);
/// assert_eq!(id.digit(0, 4), 0xA);
/// assert_eq!(id.digit(3, 4), 0xD);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u64);

impl NodeId {
    /// The largest possible identifier (all one bits).
    pub const MAX: NodeId = NodeId(u64::MAX);

    /// Creates an identifier from its raw 64-bit value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        NodeId(raw)
    }

    /// Returns the raw 64-bit value of the identifier.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the `index`-th digit (most significant first) when the identifier is
    /// read as a sequence of base-2^`bits_per_digit` digits.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_digit` is zero, larger than 8, does not divide 64, or if
    /// `index` is out of range (`index >= 64 / bits_per_digit`).
    #[inline]
    pub fn digit(self, index: usize, bits_per_digit: u8) -> u8 {
        let b = u32::from(bits_per_digit);
        assert!(
            bits_per_digit > 0 && bits_per_digit <= 8 && ID_BITS % b == 0,
            "bits_per_digit must be in 1..=8 and divide 64, got {bits_per_digit}"
        );
        let digits = (ID_BITS / b) as usize;
        assert!(
            index < digits,
            "digit index {index} out of range 0..{digits}"
        );
        let shift = ID_BITS - b * (index as u32 + 1);
        ((self.0 >> shift) & ((1u64 << b) - 1)) as u8
    }

    /// Number of digits an identifier has for a given digit width.
    #[inline]
    pub fn digit_count(bits_per_digit: u8) -> usize {
        let b = u32::from(bits_per_digit);
        assert!(
            bits_per_digit > 0 && bits_per_digit <= 8 && ID_BITS % b == 0,
            "bits_per_digit must be in 1..=8 and divide 64, got {bits_per_digit}"
        );
        (ID_BITS / b) as usize
    }

    /// Returns all digits of the identifier, most significant first.
    pub fn digits(self, bits_per_digit: u8) -> Vec<u8> {
        (0..Self::digit_count(bits_per_digit))
            .map(|i| self.digit(i, bits_per_digit))
            .collect()
    }

    /// Reconstructs an identifier from its digits (most significant first).
    ///
    /// # Panics
    ///
    /// Panics if the number of digits does not match `64 / bits_per_digit` or if any
    /// digit does not fit in `bits_per_digit` bits.
    pub fn from_digits(digits: &[u8], bits_per_digit: u8) -> Self {
        let expected = Self::digit_count(bits_per_digit);
        assert_eq!(
            digits.len(),
            expected,
            "expected {expected} digits, got {}",
            digits.len()
        );
        let mut raw = 0u64;
        for &d in digits {
            assert!(
                u32::from(d) < (1u32 << bits_per_digit),
                "digit {d} does not fit in {bits_per_digit} bits"
            );
            raw = (raw << bits_per_digit) | u64::from(d);
        }
        NodeId(raw)
    }

    /// Length, in digits, of the longest common prefix of `self` and `other`.
    ///
    /// This is the row index `i` of the prefix-table slot that `other` can occupy in
    /// `self`'s table. Returns `64 / bits_per_digit` when the identifiers are equal.
    #[inline]
    pub fn common_prefix_len(self, other: NodeId, bits_per_digit: u8) -> usize {
        let b = u32::from(bits_per_digit);
        assert!(
            bits_per_digit > 0 && bits_per_digit <= 8 && ID_BITS % b == 0,
            "bits_per_digit must be in 1..=8 and divide 64, got {bits_per_digit}"
        );
        let common_bits = (self.0 ^ other.0).leading_zeros();
        ((common_bits / b) as usize).min((ID_BITS / b) as usize)
    }

    /// Clockwise (increasing-identifier direction) distance from `self` to `other` on
    /// the ring of size 2^64.
    ///
    /// `other` is a *successor* of `self` iff this distance is small; the distance is
    /// zero only when the identifiers are equal.
    #[inline]
    pub fn clockwise_distance(self, other: NodeId) -> u64 {
        other.0.wrapping_sub(self.0)
    }

    /// Undirected ring distance: the minimum of the clockwise and counter-clockwise
    /// distances between the two identifiers.
    #[inline]
    pub fn ring_distance(self, other: NodeId) -> u64 {
        let cw = self.clockwise_distance(other);
        let ccw = other.clockwise_distance(self);
        cw.min(ccw)
    }

    /// Returns `true` when `other` is strictly closer to `self` in the increasing
    /// direction than in the decreasing direction, i.e. when `other` should be
    /// classified as a **successor** in the leaf set ("if an ID is closer in the
    /// increasing direction, it is a successor, otherwise it is a predecessor", §4).
    ///
    /// Equal identifiers are (arbitrarily but consistently) classified as successors.
    #[inline]
    pub fn is_successor(self, other: NodeId) -> bool {
        self.clockwise_distance(other) <= other.clockwise_distance(self)
    }

    /// XOR distance between the two identifiers (the Kademlia metric).
    #[inline]
    pub fn xor_distance(self, other: NodeId) -> u64 {
        self.0 ^ other.0
    }

    /// Returns an identifier that shares exactly `prefix_len` digits with `self`,
    /// whose next digit is `next_digit`, and whose remaining bits are taken from
    /// `suffix_bits`.
    ///
    /// This is primarily useful for constructing targeted workloads and test
    /// fixtures (e.g. "an identifier that belongs in row 3, column 7 of this node's
    /// prefix table").
    ///
    /// # Panics
    ///
    /// Panics if `prefix_len` is out of range, if `next_digit` does not fit in
    /// `bits_per_digit` bits, or if `next_digit` equals `self`'s digit at
    /// `prefix_len` (which would extend the common prefix).
    pub fn with_prefix(
        self,
        prefix_len: usize,
        next_digit: u8,
        suffix_bits: u64,
        bits_per_digit: u8,
    ) -> NodeId {
        let b = u32::from(bits_per_digit);
        let digits = Self::digit_count(bits_per_digit);
        assert!(prefix_len < digits, "prefix_len {prefix_len} out of range");
        assert!(
            u32::from(next_digit) < (1u32 << b),
            "next_digit {next_digit} does not fit in {bits_per_digit} bits"
        );
        assert_ne!(
            next_digit,
            self.digit(prefix_len, bits_per_digit),
            "next_digit must differ from the node's own digit at position {prefix_len}"
        );
        let prefix_bits = b * prefix_len as u32;
        let kept = if prefix_bits == 0 {
            0
        } else {
            self.0 & !(u64::MAX >> prefix_bits)
        };
        let digit_shift = ID_BITS - prefix_bits - b;
        let digit_part = u64::from(next_digit) << digit_shift;
        let suffix_mask = if digit_shift == 0 {
            0
        } else {
            u64::MAX >> (ID_BITS - digit_shift)
        };
        NodeId(kept | digit_part | (suffix_bits & suffix_mask))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({:016x})", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl fmt::LowerHex for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl From<u64> for NodeId {
    fn from(raw: u64) -> Self {
        NodeId(raw)
    }
}

impl From<NodeId> for u64 {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_extraction_msb_first() {
        let id = NodeId::new(0x1234_5678_9ABC_DEF0);
        let expected = [
            0x1, 0x2, 0x3, 0x4, 0x5, 0x6, 0x7, 0x8, 0x9, 0xA, 0xB, 0xC, 0xD, 0xE, 0xF, 0x0,
        ];
        for (i, &d) in expected.iter().enumerate() {
            assert_eq!(id.digit(i, 4), d, "digit {i}");
        }
    }

    #[test]
    fn digit_extraction_binary() {
        let id = NodeId::new(0b1010u64 << 60);
        assert_eq!(id.digit(0, 1), 1);
        assert_eq!(id.digit(1, 1), 0);
        assert_eq!(id.digit(2, 1), 1);
        assert_eq!(id.digit(3, 1), 0);
        assert_eq!(NodeId::digit_count(1), 64);
    }

    #[test]
    fn digit_round_trip() {
        let id = NodeId::new(0xFEDC_BA98_7654_3210);
        for b in [1u8, 2, 4, 8] {
            let digits = id.digits(b);
            assert_eq!(digits.len(), NodeId::digit_count(b));
            assert_eq!(NodeId::from_digits(&digits, b), id);
        }
    }

    #[test]
    #[should_panic(expected = "bits_per_digit")]
    fn digit_rejects_non_dividing_width() {
        NodeId::new(1).digit(0, 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn digit_rejects_out_of_range_index() {
        NodeId::new(1).digit(16, 4);
    }

    #[test]
    fn common_prefix_len_basics() {
        let a = NodeId::new(0xABCD_0000_0000_0000);
        let b = NodeId::new(0xABCE_0000_0000_0000);
        assert_eq!(a.common_prefix_len(b, 4), 3);
        assert_eq!(a.common_prefix_len(a, 4), 16);
        assert_eq!(
            NodeId::new(0).common_prefix_len(NodeId::new(u64::MAX), 4),
            0
        );
    }

    #[test]
    fn common_prefix_len_respects_digit_boundaries() {
        // Identifiers sharing 7 leading bits share only one hex digit (4 bits).
        let a = NodeId::new(0b1111_1110u64 << 56);
        let b = NodeId::new(0b1111_1111u64 << 56);
        assert_eq!(a.common_prefix_len(b, 4), 1);
        assert_eq!(a.common_prefix_len(b, 1), 7);
        assert_eq!(a.common_prefix_len(b, 8), 0);
    }

    #[test]
    fn ring_distance_is_symmetric_and_wraps() {
        let a = NodeId::new(10);
        let b = NodeId::new(u64::MAX - 9);
        assert_eq!(a.ring_distance(b), 20);
        assert_eq!(b.ring_distance(a), 20);
        assert_eq!(a.ring_distance(a), 0);
    }

    #[test]
    fn clockwise_distance_wraps() {
        let a = NodeId::new(u64::MAX);
        let b = NodeId::new(4);
        assert_eq!(a.clockwise_distance(b), 5);
        assert_eq!(b.clockwise_distance(a), u64::MAX - 4);
    }

    #[test]
    fn successor_classification() {
        let me = NodeId::new(100);
        assert!(me.is_successor(NodeId::new(150)));
        assert!(!me.is_successor(NodeId::new(50)));
        // Wrap-around: an identifier just "behind" zero is a predecessor of 100.
        assert!(!me.is_successor(NodeId::new(u64::MAX - 5)));
        // Equal identifiers count as successors by convention.
        assert!(me.is_successor(me));
    }

    #[test]
    fn xor_distance_matches_definition() {
        let a = NodeId::new(0b1100);
        let b = NodeId::new(0b1010);
        assert_eq!(a.xor_distance(b), 0b0110);
        assert_eq!(a.xor_distance(a), 0);
    }

    #[test]
    fn with_prefix_places_identifier_in_requested_slot() {
        let me = NodeId::new(0xABCD_0000_0000_0000);
        let other = me.with_prefix(2, 0x7, 0xFFFF, 4);
        assert_eq!(me.common_prefix_len(other, 4), 2);
        assert_eq!(other.digit(2, 4), 0x7);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn with_prefix_rejects_matching_digit() {
        let me = NodeId::new(0xABCD_0000_0000_0000);
        // Digit at index 2 of `me` is 0xC; asking for 0xC would extend the prefix.
        let _ = me.with_prefix(2, 0xC, 0, 4);
    }

    #[test]
    fn with_prefix_row_zero() {
        let me = NodeId::new(0x0123_4567_89AB_CDEF);
        let other = me.with_prefix(0, 0xF, 42, 4);
        assert_eq!(me.common_prefix_len(other, 4), 0);
        assert_eq!(other.digit(0, 4), 0xF);
    }

    #[test]
    fn display_formats_as_hex() {
        let id = NodeId::new(0xAB);
        assert_eq!(id.to_string(), "00000000000000ab");
        assert_eq!(format!("{id:x}"), "ab");
        assert_eq!(format!("{id:X}"), "AB");
        assert_eq!(format!("{id:b}"), "10101011");
    }

    #[test]
    fn conversions_to_and_from_u64() {
        let id: NodeId = 42u64.into();
        let raw: u64 = id.into();
        assert_eq!(raw, 42);
    }
}
