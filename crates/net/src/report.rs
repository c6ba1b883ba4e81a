//! Traffic accounting and the wire-side run report.
//!
//! [`NetStats`] is the shared atomic counter block every socket touch of the
//! driver goes through, from every sweeping thread, so a cluster has one
//! traffic story.
//! [`NetReport`] is the wire twin of the simulator's
//! `RunReport` (`bss_core::experiment`): the same [`Series`] type under the
//! same names (`leaf_series`, `prefix_series`, `dead_series`), keyed by
//! wall-clock milliseconds instead of cycles, and written through the same
//! [`JsonObject`] writer — so one `jq` expression or one timeline column list
//! reads a sim run and a wire run.

use bss_util::stats::{JsonObject, Series};
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared datagram counters (all relaxed: the numbers are reporting, not
/// synchronisation).
#[derive(Debug, Default)]
pub struct NetStats {
    datagrams_sent: AtomicU64,
    bytes_sent: AtomicU64,
    datagrams_received: AtomicU64,
    bytes_received: AtomicU64,
    send_failures: AtomicU64,
    decode_failures: AtomicU64,
}

impl NetStats {
    /// A zeroed counter block.
    pub(crate) fn new() -> Self {
        NetStats::default()
    }

    /// Records one successfully sent datagram of `bytes` bytes.
    pub(crate) fn record_sent(&self, bytes: usize) {
        self.datagrams_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records one received datagram of `bytes` bytes.
    pub(crate) fn record_received(&self, bytes: usize) {
        self.datagrams_received.fetch_add(1, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records one failed send (full socket buffer, unreachable peer, ...).
    pub(crate) fn record_send_failure(&self) {
        self.send_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one datagram that failed to decode.
    pub(crate) fn record_decode_failure(&self) {
        self.decode_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the counters.
    pub fn snapshot(&self) -> NetTraffic {
        NetTraffic {
            datagrams_sent: self.datagrams_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            datagrams_received: self.datagrams_received.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            send_failures: self.send_failures.load(Ordering::Relaxed),
            decode_failures: self.decode_failures.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a cluster's traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetTraffic {
    /// Datagrams handed to the kernel.
    pub datagrams_sent: u64,
    /// Payload bytes handed to the kernel.
    pub bytes_sent: u64,
    /// Datagrams received and counted (before decoding).
    pub datagrams_received: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
    /// Sends the kernel refused (full buffers, unreachable peers).
    pub send_failures: u64,
    /// Received datagrams that failed to decode.
    pub decode_failures: u64,
}

/// The report of one wire run: `RunReport`'s series and key names, keyed by
/// milliseconds.
#[derive(Debug, Clone)]
pub struct NetReport {
    /// Number of peers spawned.
    pub nodes: usize,
    /// The cluster seed.
    pub seed: u64,
    /// Milliseconds from cluster start to the first perfect measurement.
    pub convergence_millis: Option<u64>,
    /// Milliseconds from cluster start to the end of monitoring.
    pub elapsed_millis: u64,
    /// Traffic counters at the end of monitoring.
    pub traffic: NetTraffic,
    /// `(elapsed ms, missing leaf proportion)` samples, named `leaf_series`.
    pub leaf_series: Series,
    /// `(elapsed ms, missing prefix proportion)` samples, named
    /// `prefix_series`.
    pub prefix_series: Series,
    /// `(elapsed ms, fraction of stored descriptors naming dead peers)`
    /// samples, named `dead_series`.
    pub dead_series: Series,
}

impl NetReport {
    /// Whether every alive peer reached perfect tables.
    pub fn converged(&self) -> bool {
        self.convergence_millis.is_some()
    }

    /// Datagrams sent per wall-clock second over the monitored window.
    pub fn datagrams_per_second(&self) -> f64 {
        self.traffic.datagrams_sent as f64 * 1000.0 / self.elapsed_millis.max(1) as f64
    }

    /// Serializes the report as JSON under `RunReport::to_json`'s key names
    /// (`engine` is always `"net"`; series are `[[millis, value], ...]`, the
    /// three `final_*` scalars their last samples; what only a wire run has —
    /// `converged`, the two `*_millis`, datagram counters — keeps its own
    /// keys).
    pub fn to_json(&self) -> String {
        let last = |series: &Series| series.final_value().map(|value| format!("{value:.6e}"));
        let traffic = &self.traffic;
        JsonObject::new()
            .string("engine", "net")
            .field("network_size", self.nodes)
            .field("seed", self.seed)
            .field("converged", self.converged())
            .optional("convergence_millis", self.convergence_millis)
            .field("elapsed_millis", self.elapsed_millis)
            .optional("final_missing_leaf", last(&self.leaf_series))
            .optional("final_missing_prefix", last(&self.prefix_series))
            .optional("dead_descriptor_fraction", last(&self.dead_series))
            .field(
                "datagrams_per_second",
                format_args!("{:.2}", self.datagrams_per_second()),
            )
            .field(
                "traffic",
                JsonObject::inline()
                    .field("datagrams_sent", traffic.datagrams_sent)
                    .field("bytes_sent", traffic.bytes_sent)
                    .field("datagrams_received", traffic.datagrams_received)
                    .field("bytes_received", traffic.bytes_received)
                    .field("send_failures", traffic.send_failures)
                    .field("decode_failures", traffic.decode_failures)
                    .finish(),
            )
            .series(&self.leaf_series)
            .series(&self.prefix_series)
            .series(&self.dead_series)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate_and_snapshot() {
        let stats = NetStats::new();
        stats.record_sent(100);
        stats.record_sent(50);
        stats.record_received(100);
        stats.record_send_failure();
        stats.record_decode_failure();
        let traffic = stats.snapshot();
        assert_eq!(traffic.datagrams_sent, 2);
        assert_eq!(traffic.bytes_sent, 150);
        assert_eq!(traffic.datagrams_received, 1);
        assert_eq!(traffic.bytes_received, 100);
        assert_eq!(traffic.send_failures, 1);
        assert_eq!(traffic.decode_failures, 1);
    }

    #[test]
    fn report_serializes_to_runreport_shaped_json() {
        let series = |name: &str, points: &[(u64, f64)]| {
            let mut series = Series::new(name);
            points
                .iter()
                .for_each(|&(millis, v)| series.push(millis, v));
            series
        };
        let report = NetReport {
            nodes: 64,
            seed: 7,
            convergence_millis: Some(1500),
            elapsed_millis: 2000,
            traffic: NetTraffic {
                datagrams_sent: 4000,
                bytes_sent: 1_000_000,
                datagrams_received: 3900,
                bytes_received: 980_000,
                send_failures: 0,
                decode_failures: 0,
            },
            leaf_series: series("leaf_series", &[(0, 1.0), (1500, 0.0)]),
            prefix_series: series("prefix_series", &[(0, 1.0), (1500, 0.0)]),
            dead_series: series("dead_series", &[(0, 0.0)]),
        };
        let json = report.to_json();
        assert!(json.contains("\"engine\": \"net\""));
        assert!(json.contains("\"convergence_millis\": 1500"));
        // The series sit at the top level under `RunReport`'s key names, the
        // last one closing the document.
        assert!(json.contains("\n  \"leaf_series\": [[0, 1.000000e0], [1500, 0.000000e0]],\n"));
        assert!(json.contains("\n  \"final_missing_leaf\": 0.000000e0,\n"));
        assert!(json.ends_with("\n  \"dead_series\": [[0, 0.000000e0]]\n}\n"));
        assert!((report.datagrams_per_second() - 2000.0).abs() < 1e-9);
        // Well-formed: balanced braces and brackets.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );

        let unconverged = NetReport {
            convergence_millis: None,
            ..report
        };
        let json = unconverged.to_json();
        assert!(json.contains("\"converged\": false,\n  \"convergence_millis\": null"));
    }
}
