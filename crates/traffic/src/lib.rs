//! # bss-traffic — lookup workloads over the live overlay
//!
//! The bootstrapping service exists to make routing substrates usable; this
//! crate asks the service-level question: *what do the users routing over the
//! overlay experience while it converges, churns, or is attacked?* It wraps
//! the live traffic machinery of [`bss_core::traffic`] in a workload
//! vocabulary:
//!
//! * [`TrafficWorkload`] — an open-loop arrival model (lookups per cycle, a
//!   uniform or Zipf key distribution, one of the three
//!   [`RouterKind`] substrates, an active window) that installs itself onto an
//!   [`ExperimentConfigBuilder`] as a
//!   [`ScenarioEvent::TrafficPhase`] plus the router selection;
//! * [`TrafficSummary`] — the run-level outcome extracted from a completed
//!   [`RunReport`] (totals, success rate, hop and latency figures).
//!
//! The per-measured-cycle series themselves — success rate, hop mean / max,
//! latency percentiles, and under a WAN link model the same split by *client
//! region* — stay on the report, each under the name its JSON writes it as
//! (`bss_core::traffic::LOOKUP_SERIES_KEYS`); the `traffic` and `wan`
//! experiments of `bss-bench` list them as the columns of their timeline TSVs.
//!
//! The workload composes with every other scenario event: schedule a churn
//! burst, a catastrophe, a partition or a `ByzantineConvert` alongside the
//! traffic phase and the success series shows the service degrading and
//! recovering as the tables do.
//!
//! ```rust
//! use bss_core::experiment::ExperimentConfig;
//! use bss_core::{Experiment, KeyDist, Phase, RouterKind};
//! use bss_traffic::{TrafficSummary, TrafficWorkload};
//!
//! let mut builder = ExperimentConfig::builder();
//! builder.network_size(64).seed(3).max_cycles(40);
//! TrafficWorkload::new(Phase::new(20, 30))
//!     .lookups_per_cycle(50)
//!     .router(RouterKind::Kademlia)
//!     .key_dist(KeyDist::Uniform)
//!     .install(&mut builder);
//! let report = Experiment::new(builder.build().unwrap()).run();
//! let summary = TrafficSummary::from_report(&report).expect("traffic was scheduled");
//! assert_eq!(summary.issued, 500);
//! assert_eq!(summary.success_rate, 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use bss_core::experiment::{ExperimentConfigBuilder, RunReport};
use bss_core::scenario::ScenarioEvent;
use bss_core::{KeyDist, Phase, RouterKind};

/// An open-loop lookup workload: so many lookups per cycle, keys drawn from a
/// distribution, resolved by one of the three routing substrates, active
/// during a window of the run. Install it on a config builder with
/// [`TrafficWorkload::install`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficWorkload {
    phase: Phase,
    lookups_per_cycle: u32,
    key_dist: KeyDist,
    router: RouterKind,
}

impl TrafficWorkload {
    /// A workload active during `phase`, with the defaults of 100 uniform
    /// lookups per cycle over the Pastry-style router.
    pub fn new(phase: Phase) -> Self {
        TrafficWorkload {
            phase,
            lookups_per_cycle: 100,
            key_dist: KeyDist::Uniform,
            router: RouterKind::Pastry,
        }
    }

    /// Sets the open-loop arrival rate (lookups issued every active cycle).
    #[must_use]
    pub fn lookups_per_cycle(mut self, rate: u32) -> Self {
        self.lookups_per_cycle = rate;
        self
    }

    /// Sets the key distribution.
    #[must_use]
    pub fn key_dist(mut self, dist: KeyDist) -> Self {
        self.key_dist = dist;
        self
    }

    /// Sets the routing substrate resolving the lookups.
    #[must_use]
    pub fn router(mut self, router: RouterKind) -> Self {
        self.router = router;
        self
    }

    /// The scenario event this workload desugars into.
    pub(crate) fn event(&self) -> ScenarioEvent {
        ScenarioEvent::TrafficPhase {
            phase: self.phase,
            lookups_per_cycle: self.lookups_per_cycle,
            key_dist: self.key_dist,
        }
    }

    /// Installs the workload onto a config builder: appends the traffic phase
    /// to the scenario timeline and selects the router. Composes with any
    /// other events already on the builder.
    pub fn install(&self, builder: &mut ExperimentConfigBuilder) {
        builder.event(self.event()).traffic_router(self.router);
    }
}

/// Run-level traffic outcome extracted from a [`RunReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSummary {
    /// The routing substrate that resolved the lookups.
    pub router: RouterKind,
    /// Total lookups issued.
    pub issued: u64,
    /// Total lookups delivered.
    pub delivered: u64,
    /// Delivered over issued (1.0 when nothing was issued).
    pub success_rate: f64,
    /// Mean hops over delivered lookups.
    pub mean_hops: f64,
    /// The longest delivered lookup, in hops.
    pub max_hops: u64,
    /// The success rate of the final measured window, if any window saw
    /// traffic — the post-recovery service level a churn timeline gates on.
    pub final_window_success: Option<f64>,
    /// The lowest per-window success rate — how deep the service dipped.
    pub worst_window_success: Option<f64>,
}

impl TrafficSummary {
    /// Extracts the summary from a completed run, or `None` when the run
    /// scheduled no traffic phase.
    pub fn from_report(report: &RunReport) -> Option<Self> {
        let lookups = report.lookups()?;
        let windows = lookups.success_series();
        Some(TrafficSummary {
            router: lookups.router(),
            issued: lookups.issued(),
            delivered: lookups.delivered(),
            success_rate: lookups.success_rate(),
            mean_hops: lookups.mean_hops(),
            max_hops: lookups.max_hops(),
            final_window_success: windows.final_value(),
            worst_window_success: windows.iter().map(|(_, v)| v).min_by(f64::total_cmp),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bss_core::experiment::ExperimentConfig;
    use bss_core::Experiment;

    fn run_workload(workload: TrafficWorkload) -> RunReport {
        let mut builder = ExperimentConfig::builder();
        builder.network_size(64).seed(5).max_cycles(40);
        workload.install(&mut builder);
        Experiment::new(builder.build().unwrap()).run()
    }

    #[test]
    fn workload_installs_phase_and_router() {
        let workload = TrafficWorkload::new(Phase::new(20, 30))
            .lookups_per_cycle(40)
            .router(RouterKind::Chord)
            .key_dist(KeyDist::Zipf { exponent: 1.0 });
        let mut builder = ExperimentConfig::builder();
        builder.network_size(64).max_cycles(40);
        workload.install(&mut builder);
        let config = builder.build().unwrap();
        assert!(config.scenario.has_traffic());
        assert_eq!(config.traffic_router, RouterKind::Chord);
    }

    #[test]
    fn summary_reflects_a_calm_converged_run() {
        let report = run_workload(
            TrafficWorkload::new(Phase::new(20, 30))
                .lookups_per_cycle(40)
                .router(RouterKind::Kademlia),
        );
        let summary = TrafficSummary::from_report(&report).unwrap();
        assert_eq!(summary.router, RouterKind::Kademlia);
        assert_eq!(summary.issued, 400);
        assert_eq!(summary.delivered, 400);
        assert_eq!(summary.success_rate, 1.0);
        assert_eq!(summary.final_window_success, Some(1.0));
        assert_eq!(summary.worst_window_success, Some(1.0));
        assert!(summary.mean_hops > 0.0 && summary.mean_hops < 8.0);
        // A traffic-free run yields no summary.
        let calm = Experiment::new(
            ExperimentConfig::builder()
                .network_size(32)
                .build()
                .unwrap(),
        )
        .run();
        assert!(TrafficSummary::from_report(&calm).is_none());
    }
}
