//! Byzantine adversary model: which nodes lie, how, and for how long.
//!
//! A scenario timeline can *convert* a fraction of the alive population into
//! Byzantine nodes for a window of cycles (see `ScenarioEvent::ByzantineConvert`
//! in `bss-core`). The compiled [`AdversaryModel`] lives here, one crate below
//! the protocol stacks, and one copy of it per run lives in the engine's
//! [`EngineContext`](crate::engine::cycle::EngineContext), so both the
//! bootstrapping protocol (leaf-set / prefix attacks) and the NEWSCAST sampler
//! (view flooding) consult the same state: membership of the adversary set,
//! the active window, and the configured behavior.
//!
//! The model is *consulted during the deterministic plan / message-composition
//! step only*: converted nodes substitute the payload of the messages they were
//! going to send anyway, so the exchanges the parallel cycle engine's worker
//! threads execute stay free of adversary state and runs remain bit-identical
//! at any thread count.

use crate::network::NodeIndex;
use bss_util::id::NodeId;

/// What a converted (Byzantine) node does with every message it composes while
/// the adversary window is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryBehavior {
    /// Advertise descriptors whose identifiers are forged — they name the
    /// adversary's own address but carry identifiers that no key holder could
    /// have signed. Pollutes leaf sets and prefix tables network-wide with
    /// unroutable entries and starves the overlay of real information.
    ForgeDescriptors,
    /// Spray sybil-stamped copies of the adversary's own address, carrying
    /// identifiers crafted immediately adjacent to one victim's identifier,
    /// directly at that victim: the classic eclipse attack on its leaf set.
    IdSpray {
        /// Dense index of the victim node (must be `< network_size`;
        /// validated, never clamped).
        target: u32,
    },
    /// Flood every gossip partner with sybil-identified copies of the
    /// adversary's own address so it comes to occupy as many NEWSCAST view
    /// slots as possible — driving its in-degree (and the in-degree Gini
    /// coefficient) up until the adversary is a hub of the sampling overlay.
    HubAttack,
}

impl AdversaryBehavior {
    /// Short machine-readable label (used in scenario descriptions and bench
    /// output).
    pub fn label(&self) -> &'static str {
        match self {
            AdversaryBehavior::ForgeDescriptors => "forge",
            AdversaryBehavior::IdSpray { .. } => "id_spray",
            AdversaryBehavior::HubAttack => "hub",
        }
    }

    /// The eclipse victim, when this behavior has one.
    pub(crate) fn target(&self) -> Option<NodeIndex> {
        match self {
            AdversaryBehavior::IdSpray { target } => Some(NodeIndex::new(*target)),
            _ => None,
        }
    }
}

/// The compiled adversary state consulted by the protocol stacks.
///
/// Conversion membership is sticky — a converted node stays marked even after
/// the window closes or the node departs (its slot is never reused, so the
/// mark can never alias a fresh honest node) — but behavior is only *active*
/// while the configured window contains the current cycle. Outside the window
/// converted nodes follow the honest protocol, which is exactly what lets a
/// run measure recovery after an attack ends.
#[derive(Debug, Clone)]
pub struct AdversaryModel {
    start: u64,
    end: u64,
    behavior: AdversaryBehavior,
    converted: Vec<bool>,
    count: usize,
}

impl AdversaryModel {
    /// Creates a model with an empty adversary set for the window
    /// `[start, end)`.
    pub fn new(start: u64, end: u64, behavior: AdversaryBehavior) -> Self {
        AdversaryModel {
            start,
            end,
            behavior,
            converted: Vec::new(),
            count: 0,
        }
    }

    /// The configured behavior.
    pub fn behavior(&self) -> AdversaryBehavior {
        self.behavior
    }

    /// The eclipse victim, when the behavior has one.
    pub fn target(&self) -> Option<NodeIndex> {
        self.behavior.target()
    }

    /// First cycle of the attack window.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// Marks `node` as converted (idempotent).
    pub fn note_converted(&mut self, node: NodeIndex) {
        let index = node.as_usize();
        if index >= self.converted.len() {
            self.converted.resize(index + 1, false);
        }
        if !self.converted[index] {
            self.converted[index] = true;
            self.count += 1;
        }
    }

    /// Whether `node` has ever been converted.
    pub fn is_adversary(&self, node: NodeIndex) -> bool {
        self.converted
            .get(node.as_usize())
            .copied()
            .unwrap_or(false)
    }

    /// Whether the behavior is active at `cycle` (the window contains it).
    pub(crate) fn active(&self, cycle: u64) -> bool {
        self.start <= cycle && cycle < self.end
    }

    /// Whether `node` should act adversarially at `cycle`.
    pub fn acts_at(&self, node: NodeIndex, cycle: u64) -> bool {
        self.count > 0 && self.active(cycle) && self.is_adversary(node)
    }

    /// Number of nodes ever converted.
    pub fn converted_count(&self) -> usize {
        self.count
    }
}

/// Keyed 64-bit stamp over a descriptor's identity binding (identifier ×
/// address), in the style of a truncated HMAC: the deployment equivalent is a
/// signature over the descriptor by the identifier's key holder. Honest
/// descriptors bind the registry identifier of their address; a forged or
/// sybil-stamped descriptor binds some other identifier and therefore cannot
/// produce a stamp matching the authentic one for that address.
pub fn stamp(key: u64, id: NodeId, address: u64) -> u64 {
    // SplitMix64-style finalizer over the keyed concatenation; quality only
    // needs to be good enough that distinct (id, address) bindings never
    // collide in practice.
    let mut x = key
        ^ id.raw().wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ address.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A forged identifier for `ForgeDescriptors` payloads: deterministic in the
/// sender, cycle and sample position (so the plan pass needs no RNG), and
/// essentially never equal to any genuine registry identifier.
pub fn forged_id(key: u64, sender: NodeIndex, cycle: u64, position: usize) -> NodeId {
    NodeId::new(stamp(
        key ^ 0x5bd1_e995_9d1b_873f,
        NodeId::new(cycle.wrapping_mul(0x2545_f491_4f6c_dd1d)),
        (u64::from(sender.raw()) << 32) | position as u64,
    ))
}

/// A sybil identifier for eclipse sprays: the `position`-th closest possible
/// identifier to the victim's, alternating successor / predecessor side so a
/// burst of sprayed descriptors blankets both halves of the victim's leaf set.
pub fn spray_id(victim: NodeId, position: usize) -> NodeId {
    let offset = (position as u64 / 2) + 1;
    if position % 2 == 0 {
        NodeId::new(victim.raw().wrapping_add(offset))
    } else {
        NodeId::new(victim.raw().wrapping_sub(offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_is_sticky_and_idempotent() {
        let mut model = AdversaryModel::new(2, 10, AdversaryBehavior::ForgeDescriptors);
        assert_eq!(model.converted_count(), 0);
        assert!(!model.is_adversary(NodeIndex::new(3)));
        model.note_converted(NodeIndex::new(3));
        model.note_converted(NodeIndex::new(3));
        model.note_converted(NodeIndex::new(7));
        assert_eq!(model.converted_count(), 2);
        assert!(model.is_adversary(NodeIndex::new(3)));
        assert!(model.is_adversary(NodeIndex::new(7)));
        assert!(!model.is_adversary(NodeIndex::new(4)));
        // Membership survives the window closing; activity does not.
        assert!(model.acts_at(NodeIndex::new(3), 2));
        assert!(model.acts_at(NodeIndex::new(3), 9));
        assert!(!model.acts_at(NodeIndex::new(3), 1));
        assert!(!model.acts_at(NodeIndex::new(3), 10));
        assert!(model.is_adversary(NodeIndex::new(3)));
    }

    #[test]
    fn stamp_binds_id_to_address() {
        let key = 0xfeed_beef;
        let id = NodeId::new(0x1234_5678_9abc_def0);
        let authentic = stamp(key, id, 42);
        assert_eq!(stamp(key, id, 42), authentic, "stamp is deterministic");
        assert_ne!(stamp(key, NodeId::new(id.raw() ^ 1), 42), authentic);
        assert_ne!(stamp(key, id, 43), authentic);
        assert_ne!(stamp(key ^ 1, id, 42), authentic);
    }

    #[test]
    fn spray_ids_blanket_both_sides_of_the_victim() {
        let victim = NodeId::new(1000);
        assert_eq!(spray_id(victim, 0), NodeId::new(1001));
        assert_eq!(spray_id(victim, 1), NodeId::new(999));
        assert_eq!(spray_id(victim, 2), NodeId::new(1002));
        assert_eq!(spray_id(victim, 3), NodeId::new(998));
        // Wrap-around is fine: the ring metric handles it.
        assert_eq!(spray_id(NodeId::MAX, 0), NodeId::new(0));
    }

    #[test]
    fn forged_ids_differ_across_senders_cycles_and_positions() {
        let a = forged_id(1, NodeIndex::new(0), 0, 0);
        assert_ne!(a, forged_id(1, NodeIndex::new(1), 0, 0));
        assert_ne!(a, forged_id(1, NodeIndex::new(0), 1, 0));
        assert_ne!(a, forged_id(1, NodeIndex::new(0), 0, 1));
        assert_eq!(a, forged_id(1, NodeIndex::new(0), 0, 0));
    }
}
