//! The shape of a prefix routing table.
//!
//! The paper defines the table by two parameters (§4): `b`, the number of bits per
//! digit, and `k`, the maximum number of entries stored for each
//! `(prefix length, first differing digit)` pair. [`TableGeometry`] bundles the two
//! together with the quantities derived from them (number of rows, number of
//! columns) and the slot arithmetic used by both the protocol and the convergence
//! oracle.
//!
//! Despite the name, nothing here is spatial: this is identifier-space
//! geometry. Physical node coordinates for WAN topology modelling live in
//! [`crate::coords`].

use crate::id::{NodeId, ID_BITS};
use std::fmt;

/// Error returned when constructing an invalid [`TableGeometry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidGeometry {
    message: String,
}

impl fmt::Display for InvalidGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefix-table geometry: {}", self.message)
    }
}

impl std::error::Error for InvalidGeometry {}

/// The `(b, k)` geometry of a prefix routing table.
///
/// * `b` — bits per digit; identifiers are read in base 2^b. The paper uses `b = 4`
///   ("chosen to match common settings").
/// * `k` — maximum number of descriptors kept per `(row, column)` slot. The paper
///   uses `k = 3`; values above one allow proximity optimisation.
///
/// # Example
///
/// ```rust
/// use bss_util::geometry::TableGeometry;
/// use bss_util::id::NodeId;
///
/// let g = TableGeometry::new(4, 3).unwrap();
/// assert_eq!(g.rows(), 16);
/// assert_eq!(g.columns(), 16);
///
/// let me = NodeId::new(0xAB00_0000_0000_0000);
/// let other = NodeId::new(0xAC00_0000_0000_0000);
/// // `other` shares one digit with `me` and then differs with digit 0xC.
/// assert_eq!(g.slot_of(me, other), Some((1, 0xC)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TableGeometry {
    bits_per_digit: u8,
    entries_per_slot: usize,
}

impl TableGeometry {
    /// Creates a geometry from the number of bits per digit and the slot capacity.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidGeometry`] if `bits_per_digit` is zero, greater than 8, or
    /// does not divide 64, or if `entries_per_slot` is zero.
    pub fn new(bits_per_digit: u8, entries_per_slot: usize) -> Result<Self, InvalidGeometry> {
        if bits_per_digit == 0 || bits_per_digit > 8 {
            return Err(InvalidGeometry {
                message: format!("bits_per_digit must be in 1..=8, got {bits_per_digit}"),
            });
        }
        if ID_BITS % u32::from(bits_per_digit) != 0 {
            return Err(InvalidGeometry {
                message: format!("bits_per_digit must divide 64, got {bits_per_digit}"),
            });
        }
        if entries_per_slot == 0 {
            return Err(InvalidGeometry {
                message: "entries_per_slot must be at least 1".to_owned(),
            });
        }
        Ok(TableGeometry {
            bits_per_digit,
            entries_per_slot,
        })
    }

    /// The paper's evaluation geometry: `b = 4`, `k = 3`.
    pub fn paper_default() -> Self {
        TableGeometry {
            bits_per_digit: 4,
            entries_per_slot: 3,
        }
    }

    /// Number of bits per digit (`b`).
    #[inline]
    pub fn bits_per_digit(self) -> u8 {
        self.bits_per_digit
    }

    /// Maximum number of descriptors per `(row, column)` slot (`k`).
    #[inline]
    pub fn entries_per_slot(self) -> usize {
        self.entries_per_slot
    }

    /// Number of rows of the table: one row per possible common-prefix length, i.e.
    /// `64 / b`.
    #[inline]
    pub fn rows(self) -> usize {
        (ID_BITS / u32::from(self.bits_per_digit)) as usize
    }

    /// Number of columns of the table: one per possible digit value, i.e. `2^b`.
    #[inline]
    pub fn columns(self) -> usize {
        1usize << self.bits_per_digit
    }

    /// Total number of `(row, column)` slots, excluding the diagonal (a node's own
    /// digit can never be the *first differing* digit, so that column is unusable in
    /// every row).
    #[inline]
    pub(crate) fn usable_slots(self) -> usize {
        self.rows() * (self.columns() - 1)
    }

    /// Maximum number of descriptors the table can hold.
    #[inline]
    pub fn capacity(self) -> usize {
        self.usable_slots() * self.entries_per_slot
    }

    /// The `(row, column)` slot that `other` occupies in `owner`'s prefix table, or
    /// `None` when `owner == other` (a node never stores itself).
    ///
    /// The row is the length of the longest common prefix in digits; the column is
    /// the value of `other`'s first differing digit (§4: "the prefix table of a
    /// given node contains up to k IDs for all pairs (i, j), where i is the length of
    /// the longest common prefix ... and j is the first differing digit").
    #[inline]
    pub fn slot_of(self, owner: NodeId, other: NodeId) -> Option<(usize, u8)> {
        if owner == other {
            return None;
        }
        // The constructor validated `bits_per_digit`, and distinct identifiers
        // differ within the first 64 bits, so the digit arithmetic needs none
        // of `NodeId::{common_prefix_len, digit}`'s per-call checks — this
        // runs once per descriptor of every message built or merged.
        let bits = u32::from(self.bits_per_digit);
        let row = owner.xor_distance(other).leading_zeros() / bits;
        let column = (other.raw() >> (ID_BITS - bits * (row + 1))) & ((1 << bits) - 1);
        debug_assert_eq!(
            row as usize,
            owner.common_prefix_len(other, self.bits_per_digit)
        );
        debug_assert_eq!(column as u8, other.digit(row as usize, self.bits_per_digit));
        Some((row as usize, column as u8))
    }
}

impl fmt::Display for TableGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "b={} (base {}), k={}, {}x{} slots",
            self.bits_per_digit,
            self.columns(),
            self.entries_per_slot,
            self.rows(),
            self.columns()
        )
    }
}

impl Default for TableGeometry {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_evaluation_section() {
        let g = TableGeometry::paper_default();
        assert_eq!(g.bits_per_digit(), 4);
        assert_eq!(g.entries_per_slot(), 3);
        assert_eq!(g.rows(), 16);
        assert_eq!(g.columns(), 16);
        assert_eq!(g.usable_slots(), 16 * 15);
        assert_eq!(g.capacity(), 16 * 15 * 3);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(TableGeometry::new(0, 3).is_err());
        assert!(TableGeometry::new(3, 3).is_err());
        assert!(TableGeometry::new(9, 3).is_err());
        assert!(TableGeometry::new(4, 0).is_err());
        assert!(TableGeometry::new(1, 1).is_ok());
        assert!(TableGeometry::new(8, 5).is_ok());
    }

    #[test]
    fn error_message_is_informative() {
        let err = TableGeometry::new(3, 3).unwrap_err();
        assert!(err.to_string().contains("divide 64"));
    }

    #[test]
    fn slot_of_matches_prefix_definition() {
        let g = TableGeometry::new(4, 3).unwrap();
        let me = NodeId::new(0x1234_0000_0000_0000);
        // Shares "12", differs at digit index 2 with value 0x9.
        let other = NodeId::new(0x1294_0000_0000_0000);
        assert_eq!(g.slot_of(me, other), Some((2, 0x9)));
        // Own identifier maps to no slot.
        assert_eq!(g.slot_of(me, me), None);
        // No common prefix: row 0, column = first digit of other.
        let far = NodeId::new(0xF000_0000_0000_0000);
        assert_eq!(g.slot_of(me, far), Some((0, 0xF)));
    }

    #[test]
    fn slot_column_never_equals_own_digit() {
        let g = TableGeometry::new(4, 3).unwrap();
        let me = NodeId::new(0xABCD_EF01_2345_6789);
        for raw in [0u64, 1, 0xFFFF, 0xABCD_EF01_2345_0000, u64::MAX] {
            let other = NodeId::new(raw);
            if let Some((row, col)) = g.slot_of(me, other) {
                assert_ne!(col, me.digit(row, 4), "column equals own digit for {other}");
            }
        }
    }

    #[test]
    fn display_mentions_parameters() {
        let g = TableGeometry::paper_default();
        let s = g.to_string();
        assert!(s.contains("b=4"));
        assert!(s.contains("k=3"));
    }
}
