//! The names and units of everything the benchmark reports. `BENCHMARK.json`
//! at the repository root declares the same lists (with directions and
//! bounds); `tests/smoke.rs` fails when the two drift apart.

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "fig3_newscast",
    "fig4_parallel",
    "serve_churn_event",
    "wire_saturate",
];

/// End-to-end metrics: every untraced run of every workload reports all of
/// them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("node_cycles_per_s", "1/s"),
    ("messages_per_s", "1/s"),
    ("cycles_to_converge", "count"),
    ("peak_heap_mib", "MiB"),
    ("lookup_success", "ratio"),
    ("lookup_hops_mean", "count"),
];

/// Per-layer metrics: every traced run reports all of them. The layer is the
/// crate the first name segment points at.
pub const PER_LAYER: [(&str, &str); 61] = [
    // bss_sim
    ("sim.cycle.plan_s", "s"),
    ("sim.cycle.execute_s", "s"),
    ("sim.cycle.commit_s", "s"),
    ("sim.cycle.measure_s", "s"),
    ("sim.cycle.execute_us_per_exchange", "us"),
    ("sim.parallel.speedup_2t", "ratio"),
    ("sim.parallel.plan_share", "ratio"),
    ("sim.event.us_per_message", "us"),
    ("sim.network.sample_alive_ns", "ns"),
    // bss_sampling
    ("sampling.newscast.us_per_node_cycle", "us"),
    ("sampling.newscast.run_share", "ratio"),
    ("sampling.oracle.sample_ns", "ns"),
    // bss_core
    ("core.compact.unpack_us", "us"),
    ("core.node.select_peer_us", "us"),
    ("core.message.create_us", "us"),
    ("core.leafset.update_us", "us"),
    ("core.prefix_table.update_us", "us"),
    ("core.node.receive_us", "us"),
    ("core.node.receive_at_aging_us", "us"),
    ("core.compact.repack_us", "us"),
    ("core.exchange.replay_us", "us"),
    ("core.exchange.explained_ratio", "ratio"),
    ("core.message.descriptors_mean", "count"),
    ("core.convergence.measure_node_us", "us"),
    ("core.convergence.oracle_build_ms", "ms"),
    ("core.routing.pastry_ns", "ns"),
    ("core.routing.kademlia_ns", "ns"),
    ("core.routing.chord_ns", "ns"),
    ("core.routing.hops_mean", "count"),
    ("core.experiment.to_json_ms", "ms"),
    // bss_overlay
    ("overlay.lookup.evaluate_ns", "ns"),
    ("overlay.lookup.success", "ratio"),
    // bss_traffic
    ("traffic.serve.share", "ratio"),
    ("traffic.serve.ns_per_lookup", "ns"),
    ("traffic.serve.worst_window_success", "ratio"),
    ("traffic.serve.final_window_success", "ratio"),
    // bss_net
    ("net.codec.encode_ns", "ns"),
    ("net.codec.decode_ns", "ns"),
    ("net.codec.bytes_per_message", "count"),
    ("net.driver.bind_ms", "ms"),
    ("net.driver.sweep_us_p50", "us"),
    ("net.driver.sweep_us_p99", "us"),
    ("net.driver.busy_us_per_datagram", "us"),
    ("net.driver.datagrams_per_sweep", "count"),
    ("net.driver.bytes_per_datagram", "count"),
    ("net.driver.fire_ratio", "ratio"),
    ("net.driver.loss_ratio", "ratio"),
    ("net.driver.send_failures", "count"),
    ("net.driver.decode_failures", "count"),
    ("net.cluster.converge_ms", "ms"),
    ("net.cluster.converge_ms_spread", "ratio"),
    ("net.cluster.measure_ms", "ms"),
    // bss_util
    ("util.descriptor.dedup_freshest_ns", "ns"),
    ("util.view.rank_top_ns", "ns"),
    ("util.stats.histogram_record_ns", "ns"),
    ("util.rng.next_u64_ns", "ns"),
    // the selected workload's own traced rep
    ("bench.trace.overhead_ratio", "ratio"),
    ("bench.trace.spans", "count"),
    ("bench.rep.wall_s", "s"),
    ("bench.rep.cycles_to_perfect", "count"),
    ("bench.rep.imperfect_nodes", "count"),
];

/// The values of one run, keyed by catalogue name.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// Pairs every entry of `catalogue` with its recorded value, in catalogue
    /// order.
    ///
    /// # Errors
    ///
    /// Names the first metric that is missing, recorded twice, not finite or
    /// not in the catalogue — a harness bug, reported instead of printed.
    pub fn ordered(
        &self,
        catalogue: &[(&'static str, &'static str)],
    ) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
        for (name, _) in &self.0 {
            if !catalogue.iter().any(|(declared, _)| declared == name) {
                return Err(format!("metric {name} is not declared in the catalogue"));
            }
        }
        catalogue
            .iter()
            .map(|&(name, unit)| {
                let mut values = self.0.iter().filter(|(n, _)| *n == name).map(|&(_, v)| v);
                match (values.next(), values.next()) {
                    (Some(value), None) if value.is_finite() => Ok((name, unit, value)),
                    (Some(value), None) => Err(format!("metric {name} is not finite: {value}")),
                    (Some(_), Some(_)) => Err(format!("metric {name} was recorded twice")),
                    (None, _) => Err(format!("metric {name} was not measured")),
                }
            })
            .collect()
    }
}
