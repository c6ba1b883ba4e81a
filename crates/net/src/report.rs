//! Traffic accounting and the wire-side run report.
//!
//! [`NetStats`] is the shared atomic counter block every socket touch of the
//! single-loop driver goes through, so a cluster has one traffic story.
//! [`NetReport`] is the wire twin of the simulator's
//! `RunReport` (`bss_core::experiment`): the same convergence series and
//! traffic summary, keyed by wall-clock milliseconds instead of cycles, so net
//! runs land in the same plotting and CI tooling as sim runs.

use std::fmt::Write as _;
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
    pub fn new() -> Self {
        NetStats::default()
    }

    /// Records one successfully sent datagram of `bytes` bytes.
    pub fn record_sent(&self, bytes: usize) {
        self.datagrams_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records one received datagram of `bytes` bytes.
    pub fn record_received(&self, bytes: usize) {
        self.datagrams_received.fetch_add(1, Ordering::Relaxed);
        self.bytes_received
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Records one failed send (full socket buffer, unreachable peer, ...).
    pub fn record_send_failure(&self) {
        self.send_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one datagram that failed to decode.
    pub fn record_decode_failure(&self) {
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

/// The report of one wire run: RunReport-shaped, keyed by milliseconds.
#[derive(Debug, Clone)]
pub struct NetReport {
    /// Number of peers spawned.
    pub nodes: usize,
    /// The cluster seed.
    pub seed: u64,
    /// Whether every alive peer reached perfect tables.
    pub converged: bool,
    /// Milliseconds from cluster start to the first perfect measurement.
    pub convergence_millis: Option<u64>,
    /// Milliseconds from cluster start to the end of monitoring.
    pub elapsed_millis: u64,
    /// Final missing-leaf-entry proportion.
    pub final_missing_leaf: f64,
    /// Final missing-prefix-entry proportion.
    pub final_missing_prefix: f64,
    /// Final fraction of stored descriptors naming dead peers.
    pub dead_descriptor_fraction: f64,
    /// Traffic counters at the end of monitoring.
    pub traffic: NetTraffic,
    /// `(elapsed ms, missing leaf proportion)` samples.
    pub leaf_series: Vec<(u64, f64)>,
    /// `(elapsed ms, missing prefix proportion)` samples.
    pub prefix_series: Vec<(u64, f64)>,
    /// `(elapsed ms, dead-descriptor fraction)` samples.
    pub dead_series: Vec<(u64, f64)>,
}

impl NetReport {
    /// Datagrams sent per wall-clock second over the monitored window.
    pub fn datagrams_per_second(&self) -> f64 {
        self.traffic.datagrams_sent as f64 * 1000.0 / self.elapsed_millis.max(1) as f64
    }

    /// Serializes the report as JSON, mirroring `RunReport::to_json`'s shape
    /// (`engine` is always `"net"`; series are `[[millis, value], ...]`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"engine\": \"net\",");
        let _ = writeln!(out, "  \"network_size\": {},", self.nodes);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"converged\": {},", self.converged);
        let _ = writeln!(
            out,
            "  \"convergence_millis\": {},",
            self.convergence_millis
                .map_or_else(|| "null".to_owned(), |m| m.to_string())
        );
        let _ = writeln!(out, "  \"elapsed_millis\": {},", self.elapsed_millis);
        let _ = writeln!(
            out,
            "  \"final_missing_leaf\": {:.6e},",
            self.final_missing_leaf
        );
        let _ = writeln!(
            out,
            "  \"final_missing_prefix\": {:.6e},",
            self.final_missing_prefix
        );
        let _ = writeln!(
            out,
            "  \"dead_descriptor_fraction\": {:.6e},",
            self.dead_descriptor_fraction
        );
        let _ = writeln!(
            out,
            "  \"datagrams_per_second\": {:.2},",
            self.datagrams_per_second()
        );
        let _ = writeln!(
            out,
            "  \"traffic\": {{\"datagrams_sent\": {}, \"bytes_sent\": {}, \
             \"datagrams_received\": {}, \"bytes_received\": {}, \
             \"send_failures\": {}, \"decode_failures\": {}}},",
            self.traffic.datagrams_sent,
            self.traffic.bytes_sent,
            self.traffic.datagrams_received,
            self.traffic.bytes_received,
            self.traffic.send_failures,
            self.traffic.decode_failures,
        );
        let _ = writeln!(out, "  \"series\": {{");
        write_series(&mut out, "missing_leaf", &self.leaf_series, true);
        write_series(&mut out, "missing_prefix", &self.prefix_series, true);
        write_series(
            &mut out,
            "dead_descriptor_fraction",
            &self.dead_series,
            false,
        );
        let _ = writeln!(out, "  }}");
        out.push('}');
        out
    }
}

fn write_series(out: &mut String, name: &str, points: &[(u64, f64)], trailing_comma: bool) {
    let _ = write!(out, "    \"{name}\": [");
    for (index, (millis, value)) in points.iter().enumerate() {
        if index > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "[{millis}, {value:.6e}]");
    }
    let _ = writeln!(out, "]{}", if trailing_comma { "," } else { "" });
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
        let report = NetReport {
            nodes: 64,
            seed: 7,
            converged: true,
            convergence_millis: Some(1500),
            elapsed_millis: 2000,
            final_missing_leaf: 0.0,
            final_missing_prefix: 0.0,
            dead_descriptor_fraction: 0.0,
            traffic: NetTraffic {
                datagrams_sent: 4000,
                bytes_sent: 1_000_000,
                datagrams_received: 3900,
                bytes_received: 980_000,
                send_failures: 0,
                decode_failures: 0,
            },
            leaf_series: vec![(0, 1.0), (1500, 0.0)],
            prefix_series: vec![(0, 1.0), (1500, 0.0)],
            dead_series: vec![(0, 0.0)],
        };
        let json = report.to_json();
        assert!(json.contains("\"engine\": \"net\""));
        assert!(json.contains("\"convergence_millis\": 1500"));
        assert!(json.contains("\"missing_leaf\": [[0, 1.000000e0], [1500, 0.000000e0]]"));
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
            converged: false,
            convergence_millis: None,
            ..report
        };
        assert!(unconverged
            .to_json()
            .contains("\"convergence_millis\": null"));
    }
}
