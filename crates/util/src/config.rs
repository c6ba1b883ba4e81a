//! Protocol parameter sets with the paper's default values.
//!
//! Two parameter bundles appear throughout the workspace:
//!
//! * [`BootstrapParams`] — the bootstrapping-service parameters of §4/§5:
//!   prefix-table geometry (`b`, `k`), leaf-set size `c`, number of random samples
//!   `cr` mixed into every message, and the communication period Δ (expressed as a
//!   cycle in the simulator, milliseconds in the UDP deployment).
//! * [`NewscastParams`] — the NEWSCAST peer-sampling parameters of §3: the cache
//!   (partial view) size and the number of descriptors exchanged per gossip round.
//!
//! Both are plain `Copy` structs with public fields, and there is one way to
//! make one: struct-update syntax over `paper_default()`, then `validate()`
//! (which every consumer — node, protocol, oracle, experiment configuration —
//! calls again on what it is handed).

use crate::geometry::{InvalidGeometry, TableGeometry};
use std::fmt;

/// Parameters of the bootstrapping-service protocol (paper §4, values from §5).
///
/// # Example
///
/// ```rust
/// use bss_util::config::BootstrapParams;
///
/// let params = BootstrapParams::paper_default();
/// assert_eq!(params.leaf_set_size, 20);
/// assert_eq!(params.random_samples, 30);
/// assert_eq!(params.geometry().unwrap().bits_per_digit(), 4);
///
/// let custom = BootstrapParams {
///     leaf_set_size: 8,
///     random_samples: 10,
///     ..BootstrapParams::paper_default()
/// };
/// custom.validate().unwrap();
/// assert_eq!(custom.leaf_set_size, 8);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BootstrapParams {
    /// Bits per digit (`b`). The paper uses 4.
    pub bits_per_digit: u8,
    /// Descriptors per prefix-table slot (`k`). The paper uses 3.
    pub entries_per_slot: usize,
    /// Leaf-set size (`c`), split evenly between successors and predecessors. The
    /// paper uses 20.
    pub leaf_set_size: usize,
    /// Number of random samples (`cr`) obtained from the peer sampling service and
    /// mixed into every outgoing message. The paper uses 30.
    pub random_samples: usize,
    /// Length of a cycle (Δ) in milliseconds. Only meaningful for the event-driven
    /// simulator and the UDP deployment; the cycle-driven engine treats a cycle as
    /// an abstract unit. The paper suggests periods "in the range of 10 seconds"
    /// for NEWSCAST; the bootstrap protocol can run much faster.
    pub cycle_millis: u64,
    /// Descriptor aging bound, in cycles: when set, a descriptor whose freshness
    /// timestamp lags the local logical clock by more than this bound is treated
    /// as evidence of a departed node — it is rejected from incoming messages and
    /// evicted from the leaf set and prefix table during every merge. This is the
    /// NEWSCAST-style failure detector that lets the overlay *recover* after a
    /// catastrophic failure instead of gossiping stale descriptors forever.
    ///
    /// `None` (the default) disables aging entirely, reproducing the paper's
    /// detector-free protocol cycle for cycle. Sensible values are a small
    /// multiple of the gossip diameter — around the leaf-set size `c` — so that
    /// live descriptors, which are re-stamped by their owner on every exchange,
    /// never look stale in the steady state.
    pub descriptor_max_age: Option<u64>,
    /// Descriptor verification key: when set, every descriptor received by the
    /// bootstrapping protocol is checked with the keyed identity stamp (the
    /// simulator's stand-in for verifying a signature over the descriptor by
    /// the identifier's key holder) and descriptors whose identifier does not
    /// authentically bind to their address are rejected before any merge. This
    /// is the countermeasure against forged-descriptor and eclipse (ID spray)
    /// adversaries.
    ///
    /// `None` (the default) disables verification and leaves the honest
    /// protocol path byte-identical to the unverified one.
    pub descriptor_verifier: Option<u64>,
}

impl BootstrapParams {
    /// The configuration used throughout the paper's evaluation:
    /// `b = 4`, `k = 3`, `c = 20`, `cr = 30`.
    pub fn paper_default() -> Self {
        BootstrapParams {
            bits_per_digit: 4,
            entries_per_slot: 3,
            leaf_set_size: 20,
            random_samples: 30,
            cycle_millis: 1000,
            descriptor_max_age: None,
            descriptor_verifier: None,
        }
    }

    /// The prefix-table geometry implied by `bits_per_digit` and `entries_per_slot`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidGeometry`] when the digit width or slot capacity is invalid.
    pub fn geometry(&self) -> Result<TableGeometry, InvalidGeometry> {
        TableGeometry::new(self.bits_per_digit, self.entries_per_slot)
    }

    /// Validates the whole parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParams`] when the geometry is invalid
    /// ([`InvalidParams::Geometry`]), the leaf set is empty or not even (it must
    /// hold `c/2` successors and `c/2` predecessors), the cycle length is zero,
    /// or a descriptor aging bound of zero cycles is requested
    /// ([`InvalidParams::OutOfRange`] — every descriptor not stamped this very
    /// cycle would count as stale).
    pub fn validate(&self) -> Result<(), InvalidParams> {
        self.geometry()?;
        if let Some(0) = self.descriptor_max_age {
            return Err(InvalidParams::OutOfRange {
                field: "descriptor_max_age",
                value: 0.0,
                min: 1.0,
                max: u64::MAX as f64,
            });
        }
        if self.leaf_set_size == 0 {
            return Err(InvalidParams::from_message(
                "leaf_set_size must be positive",
            ));
        }
        if self.leaf_set_size % 2 != 0 {
            return Err(InvalidParams::Message(format!(
                "leaf_set_size must be even to balance successors and predecessors, got {}",
                self.leaf_set_size
            )));
        }
        if self.cycle_millis == 0 {
            return Err(InvalidParams::from_message("cycle_millis must be positive"));
        }
        Ok(())
    }
}

impl Default for BootstrapParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl fmt::Display for BootstrapParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "b={} k={} c={} cr={} delta={}ms",
            self.bits_per_digit,
            self.entries_per_slot,
            self.leaf_set_size,
            self.random_samples,
            self.cycle_millis
        )?;
        if let Some(age) = self.descriptor_max_age {
            write!(f, " max_age={age}")?;
        }
        if let Some(key) = self.descriptor_verifier {
            write!(f, " verifier=0x{key:x}")?;
        }
        Ok(())
    }
}

/// Error returned when a parameter set (protocol parameters, experiment
/// configuration or scenario timeline) fails validation.
///
/// The typed variants let callers react to *why* a configuration was rejected
/// (out-of-range probability, empty scenario window, overlapping exclusive
/// phases) instead of string-matching; [`InvalidParams::Message`] remains the
/// catch-all for one-off conditions.
#[derive(Debug, Clone, PartialEq)]
pub enum InvalidParams {
    /// A free-form validation failure (the catch-all used by simple checks).
    Message(String),
    /// The prefix-table geometry (`b`, `k`) is invalid. Carrying the typed
    /// [`InvalidGeometry`] instead of its rendered message lets callers match
    /// on geometry misconfiguration (it used to be stringified into
    /// [`InvalidParams::Message`]).
    Geometry(InvalidGeometry),
    /// A numeric field lies outside its allowed range (for example a drop
    /// probability above 1.0, which older code silently clamped).
    OutOfRange {
        /// Which field was out of range.
        field: &'static str,
        /// The offending value.
        value: f64,
        /// Smallest allowed value (inclusive).
        min: f64,
        /// Largest allowed value (inclusive).
        max: f64,
    },
    /// A scenario window is empty (`start >= end`), so it could never apply.
    EmptyWindow {
        /// Which timeline entry owned the window.
        field: &'static str,
        /// First cycle of the window (inclusive).
        start: u64,
        /// End of the window (exclusive).
        end: u64,
    },
    /// A scenario event names a node index that does not exist in the
    /// configured network (for example an eclipse attack targeting node 2048
    /// in a 1024-node run). Rejected — never clamped — because a silently
    /// retargeted attack would measure the wrong victim.
    NodeOutOfBounds {
        /// Which timeline entry named the node.
        field: &'static str,
        /// The offending node index.
        node: u64,
        /// Number of nodes in the configured network.
        network_size: u64,
    },
    /// Two phases of a kind that must not overlap (loss windows, partition
    /// windows) cover a common cycle, making the active condition ambiguous.
    OverlappingPhases {
        /// Which kind of phase overlapped.
        kind: &'static str,
        /// The `[start, end)` window of the earlier phase.
        first: (u64, u64),
        /// The `[start, end)` window of the later, conflicting phase.
        second: (u64, u64),
    },
}

impl InvalidParams {
    /// Creates a validation error with the given message. Exposed so that
    /// higher-level configuration types (experiment configurations, benchmark
    /// sweeps) can report their own validation failures with the same error type.
    pub fn from_message(message: impl Into<String>) -> Self {
        InvalidParams::Message(message.into())
    }
}

impl From<InvalidGeometry> for InvalidParams {
    fn from(error: InvalidGeometry) -> Self {
        InvalidParams::Geometry(error)
    }
}

impl fmt::Display for InvalidParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid parameters: ")?;
        match self {
            InvalidParams::Message(message) => write!(f, "{message}"),
            InvalidParams::Geometry(error) => write!(f, "{error}"),
            InvalidParams::OutOfRange {
                field,
                value,
                min,
                max,
            } => write!(f, "{field} = {value} must lie in [{min}, {max}]"),
            InvalidParams::EmptyWindow { field, start, end } => {
                write!(f, "{field} window [{start}, {end}) is empty")
            }
            InvalidParams::NodeOutOfBounds {
                field,
                node,
                network_size,
            } => write!(
                f,
                "{field} names node {node} but the network only has nodes 0..{network_size}"
            ),
            InvalidParams::OverlappingPhases {
                kind,
                first,
                second,
            } => write!(
                f,
                "{kind} phases [{}, {}) and [{}, {}) overlap",
                first.0, first.1, second.0, second.1
            ),
        }
    }
}

impl std::error::Error for InvalidParams {}

/// Parameters of the NEWSCAST peer sampling service (paper §3).
///
/// NEWSCAST has no period of its own here: under the bootstrap it steps once
/// per bootstrap period Δ on either engine, at the head of each node's
/// exchange, and alone it steps once per cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NewscastParams {
    /// Size of the partial view (descriptor cache) kept at every node. The paper
    /// reports implementations with "approximately 30 IP addresses".
    pub view_size: usize,
    /// View aging bound, in cycles: when set, descriptors whose timestamp lags
    /// the local clock by more than this bound are dropped during every view
    /// merge, on top of NEWSCAST's keep-the-freshest ranking. `None` (the
    /// default, matching §3's protocol exactly) relies on ranking alone.
    pub descriptor_max_age: Option<u64>,
    /// View diversity quota: when set, at most this many view slots may be
    /// held by descriptors originating from any single address after a merge.
    /// This caps the damage of a hub attack — a Byzantine node flooding
    /// sybil-identified copies of its own address can occupy at most
    /// `view_diversity_quota` slots instead of wiping the whole view.
    ///
    /// `None` (the default, matching §3's protocol exactly) leaves merges
    /// byte-identical to the unquotaed path.
    pub view_diversity_quota: Option<usize>,
}

impl NewscastParams {
    /// The configuration described in §3: a cache of 30 descriptors.
    pub fn paper_default() -> Self {
        NewscastParams {
            view_size: 30,
            descriptor_max_age: None,
            view_diversity_quota: None,
        }
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParams`] when the view size is zero, or a view aging
    /// bound or diversity quota of zero is requested.
    pub fn validate(&self) -> Result<(), InvalidParams> {
        if self.view_size == 0 {
            return Err(InvalidParams::from_message("view_size must be positive"));
        }
        if let Some(0) = self.descriptor_max_age {
            return Err(InvalidParams::OutOfRange {
                field: "descriptor_max_age",
                value: 0.0,
                min: 1.0,
                max: u64::MAX as f64,
            });
        }
        if let Some(0) = self.view_diversity_quota {
            return Err(InvalidParams::OutOfRange {
                field: "view_diversity_quota",
                value: 0.0,
                min: 1.0,
                max: usize::MAX as f64,
            });
        }
        Ok(())
    }
}

impl Default for NewscastParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl fmt::Display for NewscastParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "view={}", self.view_size)?;
        if let Some(quota) = self.view_diversity_quota {
            write!(f, " quota={quota}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_evaluation_section() {
        let p = BootstrapParams::paper_default();
        assert_eq!(p.bits_per_digit, 4);
        assert_eq!(p.entries_per_slot, 3);
        assert_eq!(p.leaf_set_size, 20);
        assert_eq!(p.random_samples, 30);
        assert!(p.validate().is_ok());

        let n = NewscastParams::paper_default();
        assert_eq!(n.view_size, 30);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn default_trait_matches_paper_default() {
        assert_eq!(BootstrapParams::default(), BootstrapParams::paper_default());
        assert_eq!(NewscastParams::default(), NewscastParams::paper_default());
    }

    #[test]
    fn builder_overrides_fields() {
        let p = BootstrapParams {
            bits_per_digit: 2,
            entries_per_slot: 1,
            leaf_set_size: 8,
            random_samples: 5,
            cycle_millis: 250,
            ..BootstrapParams::paper_default()
        };
        p.validate().unwrap();
        assert_eq!(p.bits_per_digit, 2);
        assert_eq!(p.entries_per_slot, 1);
        assert_eq!(p.leaf_set_size, 8);
        assert_eq!(p.random_samples, 5);
        assert_eq!(p.cycle_millis, 250);
    }

    #[test]
    fn validation_rejects_bad_configurations() {
        let default = BootstrapParams::paper_default();
        for bad in [
            BootstrapParams {
                bits_per_digit: 3,
                ..default
            },
            BootstrapParams {
                leaf_set_size: 0,
                ..default
            },
            BootstrapParams {
                leaf_set_size: 7,
                ..default
            },
            BootstrapParams {
                cycle_millis: 0,
                ..default
            },
            BootstrapParams {
                entries_per_slot: 0,
                ..default
            },
        ] {
            assert!(bad.validate().is_err(), "{bad}");
        }

        let bad_view = NewscastParams {
            view_size: 0,
            ..NewscastParams::paper_default()
        };
        assert!(bad_view.validate().is_err());
    }

    #[test]
    fn geometry_errors_are_typed_and_matchable() {
        // The stringly InvalidParams::Message mapping is gone: geometry
        // misconfiguration surfaces as the typed Geometry variant (carrying
        // the original InvalidGeometry), so callers can match on it.
        let err = BootstrapParams {
            bits_per_digit: 3,
            ..BootstrapParams::paper_default()
        }
        .validate()
        .unwrap_err();
        assert!(matches!(err, InvalidParams::Geometry(_)), "{err:?}");
        assert!(err.to_string().contains("geometry"), "{err}");
        let err = BootstrapParams {
            entries_per_slot: 0,
            ..BootstrapParams::paper_default()
        }
        .validate()
        .unwrap_err();
        assert!(matches!(err, InvalidParams::Geometry(_)), "{err:?}");
    }

    #[test]
    fn descriptor_aging_is_validated_and_off_by_default() {
        assert_eq!(BootstrapParams::paper_default().descriptor_max_age, None);
        assert_eq!(NewscastParams::paper_default().descriptor_max_age, None);

        let aged = BootstrapParams {
            descriptor_max_age: Some(8),
            ..BootstrapParams::paper_default()
        };
        aged.validate().unwrap();
        assert!(aged.to_string().contains("max_age=8"));

        // A zero bound would declare everything stale; reject it, typed.
        let err = BootstrapParams {
            descriptor_max_age: Some(0),
            ..BootstrapParams::paper_default()
        }
        .validate()
        .unwrap_err();
        assert!(
            matches!(
                err,
                InvalidParams::OutOfRange {
                    field: "descriptor_max_age",
                    ..
                }
            ),
            "{err:?}"
        );
        let bad_newscast = NewscastParams {
            descriptor_max_age: Some(0),
            ..NewscastParams::paper_default()
        };
        assert!(bad_newscast.validate().is_err());
    }

    #[test]
    fn countermeasures_are_validated_and_off_by_default() {
        assert_eq!(BootstrapParams::paper_default().descriptor_verifier, None);
        assert_eq!(NewscastParams::paper_default().view_diversity_quota, None);

        let verified = BootstrapParams {
            descriptor_verifier: Some(0xBEEF),
            ..BootstrapParams::paper_default()
        };
        verified.validate().unwrap();
        assert!(verified.to_string().contains("verifier=0xbeef"));

        let quotaed = NewscastParams {
            view_diversity_quota: Some(2),
            ..NewscastParams::paper_default()
        };
        assert!(quotaed.validate().is_ok());
        assert!(quotaed.to_string().contains("quota=2"));

        // A zero quota would empty every view on merge; reject it, typed.
        let err = NewscastParams {
            view_diversity_quota: Some(0),
            ..NewscastParams::paper_default()
        }
        .validate()
        .unwrap_err();
        assert!(
            matches!(
                err,
                InvalidParams::OutOfRange {
                    field: "view_diversity_quota",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn node_out_of_bounds_error_is_typed_and_informative() {
        let err = InvalidParams::NodeOutOfBounds {
            field: "id_spray target",
            node: 2048,
            network_size: 1024,
        };
        let text = err.to_string();
        assert!(text.contains("id_spray target"), "{text}");
        assert!(text.contains("2048"), "{text}");
        assert!(text.contains("0..1024"), "{text}");
    }

    #[test]
    fn errors_and_display_are_informative() {
        let err = BootstrapParams {
            leaf_set_size: 7,
            ..BootstrapParams::paper_default()
        }
        .validate()
        .unwrap_err();
        assert!(err.to_string().contains("even"));
        let p = BootstrapParams::paper_default();
        let text = p.to_string();
        assert!(text.contains("c=20"));
        assert!(text.contains("cr=30"));
        let n = NewscastParams::paper_default().to_string();
        assert!(n.contains("view=30"));
    }

    #[test]
    fn parameter_types_are_serde_and_thread_safe() {
        // The name is kept from when the types also derived the serde traits.
        fn assert_thread_safe<T: Send + Sync>() {}
        assert_thread_safe::<BootstrapParams>();
        assert_thread_safe::<NewscastParams>();
    }
}
