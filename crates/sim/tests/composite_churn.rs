//! Property tests for [`Churn`] event ordering and the non-aliasing guarantee
//! of [`ChurnEvents`](bss_sim::churn::ChurnEvents).
//!
//! A scenario timeline can compose continuous replacement churn with one-shot
//! catastrophic failures and massive joins in any order. Whatever the
//! composition, the aggregated per-cycle events must:
//!
//! * apply the events in timeline order within each cycle (observable as
//!   strictly increasing joiner indices — the registry appends);
//! * never report a node as both joined and departed in the same cycle, and
//!   never hand a joiner a recycled (previously used) slot;
//! * keep the registry's alive/dead bookkeeping consistent with the reported
//!   lists, with one-shots firing exactly once at their scheduled cycle.

use bss_sim::adversary::AdversaryBehavior;
use bss_sim::churn::Churn;
use bss_sim::network::{Network, NodeIndex};
use bss_sim::timeline::{Phase, ScenarioEvent};
use bss_util::rng::SimRng;
use proptest::prelude::*;
use std::collections::HashSet;

/// A conversion at cycle `at` whose attack lasts the rest of the run.
fn convert(at: u64, fraction: f64) -> ScenarioEvent {
    ScenarioEvent::ByzantineConvert {
        phase: Phase::new(at, u64::MAX),
        fraction,
        behavior: AdversaryBehavior::HubAttack,
    }
}

fn event_strategy(cycles: u64) -> impl Strategy<Value = ScenarioEvent> {
    (0u8..5, 0u32..300, 0..cycles, 1..cycles, 1usize..40).prop_map(
        |(kind, rate, at, len, count)| match kind {
            0 => ScenarioEvent::ChurnBurst {
                phase: Phase::whole_run(),
                rate: f64::from(rate % 120) / 1000.0,
            },
            1 => ScenarioEvent::ChurnBurst {
                phase: Phase::new(at, at + len),
                rate: f64::from(rate) / 1000.0,
            },
            2 => ScenarioEvent::CatastrophicFailure {
                at_cycle: at,
                fraction: f64::from(rate % 70) / 100.0,
            },
            3 => convert(at, f64::from(rate % 70) / 100.0),
            _ => ScenarioEvent::MassiveJoin {
                at_cycle: at,
                count,
            },
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary compositions of replacement churn (whole-run and windowed),
    /// kills, conversions and joins, applied over several cycles.
    #[test]
    fn composite_preserves_order_and_never_aliases_slots(
        timeline in prop::collection::vec(event_strategy(12), 1..5),
        size in 30usize..150,
        seed in any::<u64>(),
    ) {
        let cycles = 12u64;
        let mut rng = SimRng::seed_from(seed);
        let mut network = Network::with_random_ids(size, &mut rng);
        let mut composite = Churn::new(&timeline);

        let mut ever_joined: HashSet<NodeIndex> = HashSet::new();
        for cycle in 0..cycles {
            let len_before = network.len();
            let alive_before = network.alive_count();
            let events = composite.apply(cycle, &mut network, &mut rng);

            // --- Non-aliasing: joiners and victims never share a slot. ---
            let departed: HashSet<NodeIndex> = events.departed.iter().copied().collect();
            prop_assert_eq!(departed.len(), events.departed.len(), "duplicate victims");
            for &joiner in &events.joined {
                prop_assert!(
                    !departed.contains(&joiner),
                    "cycle {}: {:?} reported as both joined and departed",
                    cycle,
                    joiner
                );
                // Fresh slot: at or above the pre-cycle registry watermark,
                // and never a slot that was ever used before.
                prop_assert!(joiner.as_usize() >= len_before, "recycled slot");
                prop_assert!(ever_joined.insert(joiner), "slot joined twice");
                prop_assert!(network.is_alive(joiner), "reported joiner is dead");
            }

            // --- Conversions never double-count a node: a converted node is
            // alive (a same-cycle kill removes it from the list), pre-dates
            // the cycle (a same-cycle joiner is never converted), and appears
            // at most once. ---
            let converted: HashSet<NodeIndex> = events.converted.iter().copied().collect();
            prop_assert_eq!(converted.len(), events.converted.len(), "duplicate converts");
            for &node in &events.converted {
                prop_assert!(
                    !departed.contains(&node),
                    "cycle {}: {:?} reported as both converted and departed",
                    cycle,
                    node
                );
                prop_assert!(network.is_alive(node), "converted node is dead");
                prop_assert!(
                    node.as_usize() < len_before,
                    "cycle {}: converted a node that joined this cycle",
                    cycle
                );
            }

            // --- Ordering: events apply in composition order, so the
            // append-only registry hands out strictly increasing indices. ---
            prop_assert!(
                events
                    .joined
                    .windows(2)
                    .all(|pair| pair[0].as_usize() < pair[1].as_usize()),
                "cycle {}: joiners out of composition order: {:?}",
                cycle,
                events.joined
            );

            // --- Bookkeeping: the reported lists explain the registry delta.
            // (Intra-cycle joiners killed by a later event appear in neither
            // list; they occupy dead slots above the watermark.) ---
            for &victim in &events.departed {
                prop_assert!(victim.as_usize() < len_before, "victim must pre-date the cycle");
                prop_assert!(!network.is_alive(victim));
            }
            let silently_dead =
                (network.len() - len_before).saturating_sub(events.joined.len());
            prop_assert_eq!(
                network.alive_count(),
                alive_before - events.departed.len() + events.joined.len(),
                "cycle {}: alive count out of sync (silently dead intra-cycle joiners: {})",
                cycle,
                silently_dead
            );
        }

        // One-shots fired exactly once: a second pass over later cycles adds
        // no joiners from Join specs whose cycle already passed.
        let replay = composite.apply(cycles + 1, &mut network, &mut rng);
        for &joiner in &replay.joined {
            prop_assert!(ever_joined.insert(joiner));
        }
    }

    /// A join and a failure scheduled for the same cycle: whichever order they
    /// are composed in, the guarantee holds — and when the failure comes
    /// second, joiners it kills are reported in neither list.
    #[test]
    fn same_cycle_join_and_failure_reconcile(
        join_first in any::<bool>(),
        size in 20usize..80,
        count in 5usize..40,
        percent in 10u32..70,
        seed in any::<u64>(),
    ) {
        let mut rng = SimRng::seed_from(seed);
        let mut network = Network::with_random_ids(size, &mut rng);
        let join = ScenarioEvent::MassiveJoin { at_cycle: 3, count };
        let failure = ScenarioEvent::CatastrophicFailure {
            at_cycle: 3,
            fraction: f64::from(percent) / 100.0,
        };
        let mut composite = Churn::new(if join_first {
            [&join, &failure]
        } else {
            [&failure, &join]
        });
        for cycle in 0..3 {
            prop_assert!(composite.apply(cycle, &mut network, &mut rng).is_empty());
        }
        let len_before = network.len();
        let events = composite.apply(3, &mut network, &mut rng);
        let departed: HashSet<NodeIndex> = events.departed.iter().copied().collect();
        for &joiner in &events.joined {
            prop_assert!(!departed.contains(&joiner));
            prop_assert!(network.is_alive(joiner));
            prop_assert!(joiner.as_usize() >= len_before);
        }
        if join_first {
            // Some joiners may have been killed and silenced; the survivors
            // plus the silenced ones account for the whole batch.
            prop_assert!(events.joined.len() <= count);
        } else {
            // The failure fired before the join, so every joiner survived.
            prop_assert_eq!(events.joined.len(), count);
        }
        for &victim in &events.departed {
            prop_assert!(victim.as_usize() < len_before);
        }
    }

    /// A Byzantine conversion and a catastrophic failure scheduled for the
    /// same cycle: whichever order they are composed in, no node is counted
    /// both ways. Converted-then-killed nodes report as departed only (the
    /// reconciliation drops them from the converted list); killed-then-
    /// converted cannot happen because the conversion samples alive nodes.
    #[test]
    fn same_cycle_convert_and_failure_never_double_count(
        convert_first in any::<bool>(),
        size in 20usize..80,
        convert_percent in 10u32..70,
        kill_percent in 10u32..70,
        seed in any::<u64>(),
    ) {
        let mut rng = SimRng::seed_from(seed);
        let mut network = Network::with_random_ids(size, &mut rng);
        let convert = convert(3, f64::from(convert_percent) / 100.0);
        let failure = ScenarioEvent::CatastrophicFailure {
            at_cycle: 3,
            fraction: f64::from(kill_percent) / 100.0,
        };
        let mut composite = Churn::new(if convert_first {
            [&convert, &failure]
        } else {
            [&failure, &convert]
        });
        for cycle in 0..3 {
            prop_assert!(composite.apply(cycle, &mut network, &mut rng).is_empty());
        }
        let len_before = network.len();
        let events = composite.apply(3, &mut network, &mut rng);
        let departed: HashSet<NodeIndex> = events.departed.iter().copied().collect();
        for &node in &events.converted {
            prop_assert!(!departed.contains(&node), "{:?} converted and departed", node);
            prop_assert!(network.is_alive(node));
            prop_assert!(node.as_usize() < len_before);
        }
        let expected_converts =
            ((size as f64) * f64::from(convert_percent) / 100.0).round() as usize;
        if convert_first {
            // The failure may have killed some converts; only survivors report.
            prop_assert!(events.converted.len() <= expected_converts);
        } else {
            // The conversion sampled the post-failure population, so every
            // reported convert survived by construction.
            let survivors = size - events.departed.len();
            let post_failure =
                ((survivors as f64) * f64::from(convert_percent) / 100.0).round() as usize;
            prop_assert_eq!(events.converted.len(), post_failure.min(survivors));
        }
        // The conversion is one-shot: replaying a later cycle converts no one.
        prop_assert!(composite.apply(4, &mut network, &mut rng).converted.is_empty());
    }
}
