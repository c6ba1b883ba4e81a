//! Lookup workload generation and routing-quality statistics.
//!
//! The evaluator routes a batch of random lookups over a bootstrapped population
//! with [`bss_core::routing::route`] — under the Pastry-style, Kademlia-style or
//! Chord-style per-hop rule — and summarises delivery rate and hop counts. This
//! is the reproduction's end-to-end check of the paper's central claim: the
//! tables built from scratch by the bootstrapping service are immediately usable
//! by the routing substrates they target.

use bss_core::experiment::PopulationSnapshot;
use bss_core::routing::{route, Contact, Routed, RouterKind, SnapshotTables, DEFAULT_MAX_HOPS};
use bss_util::rng::SimRng;
use bss_util::stats::Histogram;
use std::fmt;

/// Statistics of one batch of lookups.
#[derive(Debug, Clone)]
pub struct LookupReport {
    router: RouterKind,
    attempted: usize,
    delivered: usize,
    hop_histogram: Histogram,
}

impl LookupReport {
    fn new(router: RouterKind) -> Self {
        LookupReport {
            router,
            attempted: 0,
            delivered: 0,
            hop_histogram: Histogram::new(1),
        }
    }

    fn record(&mut self, routed: Routed) {
        self.attempted += 1;
        if routed.delivered() {
            self.delivered += 1;
            self.hop_histogram.record(routed.hops);
        }
    }

    /// The router the batch was evaluated with.
    pub fn router(&self) -> RouterKind {
        self.router
    }

    /// Number of lookups attempted.
    pub fn attempted(&self) -> usize {
        self.attempted
    }

    /// Number of lookups that reached their destination.
    pub fn delivered(&self) -> usize {
        self.delivered
    }

    /// Fraction of lookups delivered (0 when none were attempted).
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.delivered as f64 / self.attempted as f64
        }
    }

    /// Mean hop count over delivered lookups.
    pub fn mean_hops(&self) -> f64 {
        self.hop_histogram.mean()
    }

    /// Maximum hop count over delivered lookups.
    pub fn max_hops(&self) -> u64 {
        self.hop_histogram.max()
    }
}

impl fmt::Display for LookupReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}/{} delivered ({:.1}%), mean hops {:.2}, max hops {}",
            self.router,
            self.delivered,
            self.attempted,
            self.success_rate() * 100.0,
            self.mean_hops(),
            self.max_hops()
        )
    }
}

/// Evaluates routing over a bootstrapped population.
#[derive(Debug)]
pub struct LookupEvaluator {
    population: PopulationSnapshot,
    rng: SimRng,
}

impl LookupEvaluator {
    /// Creates an evaluator over an existing population snapshot.
    pub fn new(population: PopulationSnapshot, seed: u64) -> Self {
        LookupEvaluator {
            population,
            rng: SimRng::seed_from(seed),
        }
    }

    /// Routes `lookups` random source/target pairs with the chosen router.
    ///
    /// # Panics
    ///
    /// Panics if the population is empty.
    pub fn evaluate(&mut self, router: RouterKind, lookups: usize) -> LookupReport {
        assert!(!self.population.is_empty(), "empty population");
        let contacts: Vec<Contact> = (0..self.population.len())
            .filter_map(|position| self.population.node_at(position))
            .map(|node| Contact {
                id: node.id(),
                address: node.own_descriptor().address(),
            })
            .collect();
        let mut report = LookupReport::new(router);
        let mut tables = SnapshotTables(&self.population);
        let mut path = Vec::new();
        for _ in 0..lookups {
            let source = contacts[self.rng.index(contacts.len())];
            let target = contacts[self.rng.index(contacts.len())].id;
            report.record(route(
                &mut tables,
                router,
                source,
                target,
                DEFAULT_MAX_HOPS,
                &mut path,
            ));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bss_core::experiment::{Experiment, ExperimentConfig};

    fn converged_population(size: usize, seed: u64) -> PopulationSnapshot {
        let config = ExperimentConfig::builder()
            .network_size(size)
            .seed(seed)
            .max_cycles(80)
            .build()
            .unwrap();
        let (outcome, population) = Experiment::new(config).run_with_snapshot();
        assert!(outcome.converged());
        population
    }

    #[test]
    fn all_routers_deliver_on_a_converged_population() {
        let population = converged_population(96, 31);
        let mut evaluator = LookupEvaluator::new(population, 1);
        let reports = RouterKind::ALL.map(|router| evaluator.evaluate(router, 150));
        for report in &reports {
            assert_eq!(report.success_rate(), 1.0, "{report}");
            assert_eq!(report.attempted(), 150);
            assert_eq!(report.delivered(), 150);
            assert!(report.mean_hops() < 8.0, "{report}");
            assert!(report.max_hops() < 20, "{report}");
            assert!(!report.to_string().is_empty());
        }
        // Prefix routing over the bootstrapped tables stays within a small
        // constant factor of the Chord-style descent over the same tables.
        let [pastry, _, chord] = &reports;
        assert!(
            pastry.mean_hops() <= chord.mean_hops() * 2.0 + 1.0,
            "pastry {} vs chord {}",
            pastry.mean_hops(),
            chord.mean_hops()
        );
    }

    #[test]
    fn bootstrap_and_evaluate_wires_everything_together() {
        let config = ExperimentConfig::builder()
            .network_size(48)
            .seed(9)
            .max_cycles(60)
            .build()
            .unwrap();
        let (_, population) = Experiment::new(config).run_with_snapshot();
        let report = LookupEvaluator::new(population, 9).evaluate(RouterKind::Pastry, 100);
        assert_eq!(report.router(), RouterKind::Pastry);
        assert_eq!(report.success_rate(), 1.0);
    }

    #[test]
    fn report_handles_empty_batches() {
        let population = converged_population(16, 3);
        let mut evaluator = LookupEvaluator::new(population, 2);
        let report = evaluator.evaluate(RouterKind::Pastry, 0);
        assert_eq!(report.attempted(), 0);
        assert_eq!(report.success_rate(), 0.0);
        assert_eq!(report.mean_hops(), 0.0);
        assert!(!evaluator.population.is_empty());
    }
}
