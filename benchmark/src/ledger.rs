//! The per-layer ledger: one fixed probe per layer, each timing calls into
//! that crate's public functions and recording a span around them.
//!
//! The probes do not depend on the selected workload — every traced run
//! measures every layer, so no layer's number silently reads zero — and their
//! configurations are fixed here, so a number is comparable across commits.
//! `README.md` lists, for each metric, the end-to-end metric it should move
//! and on which workload.

use crate::catalogue::Metrics;
use crate::trace::Tracer;
use crate::workloads::{
    bind_wire, digest, measure_wire, median, run_sim_rep, run_wire_rep, snapshot_contacts,
    wire_params, Scale, Sim, WIRE_FULL_PEERS,
};
use bss_core::compact::CompactNode;
use bss_core::convergence::ConvergenceOracle;
use bss_core::experiment::{ExperimentConfig, PopulationSnapshot};
use bss_core::leafset::MergeScratch;
use bss_core::message::MessageScratch;
use bss_core::node::BootstrapNode;
use bss_core::routing::{route, SnapshotTables, DEFAULT_MAX_HOPS};
use bss_core::scenario::Engine;
use bss_core::RouterKind;
use bss_net::codec::{self, MessageKind, WireMessage};
use bss_net::PeerHandle;
use bss_overlay::lookup::LookupEvaluator;
use bss_sampling::newscast::NewscastProtocol;
use bss_sampling::sampler::{OracleSampler, PeerSampler};
use bss_sim::engine::cycle::CycleEngine;
use bss_sim::network::{Network, NodeIndex};
use bss_traffic::TrafficSummary;
use bss_util::config::{BootstrapParams, NewscastParams};
use bss_util::descriptor::{dedup_freshest, Descriptor};
use bss_util::id::NodeId;
use bss_util::rng::SimRng;
use bss_util::stats::Histogram;
use bss_util::view::rank_top_by;
use std::hint::black_box;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};
use std::time::{Duration, Instant};

/// The cycle whose exchanges the core replay re-executes from outside, and
/// the cycle up to which the engine's own cost of the same work is measured.
const REPLAY_CYCLE: u64 = 12;
const ENGINE_CYCLES: u64 = 20;

/// Times `iterations` calls of `f` inside one span; returns ns per call.
fn bulk_ns(
    tracer: &mut Tracer,
    name: &'static str,
    iterations: usize,
    mut f: impl FnMut(usize),
) -> f64 {
    let span = tracer.enter(name);
    let started = Instant::now();
    for iteration in 0..iterations {
        f(iteration);
    }
    let elapsed = started.elapsed();
    tracer.exit(span);
    elapsed.as_nanos() as f64 / iterations as f64
}

fn oracle_cycle_config(size: usize, cycles: u64, seed: u64) -> ExperimentConfig {
    ExperimentConfig::builder()
        .network_size(size)
        .seed(seed)
        .max_cycles(cycles)
        .stop_when_perfect(false)
        .profile(true)
        .build()
        .expect("a valid probe configuration")
}

/// Runs every probe and records every per-layer metric except the `bench.*`
/// ones, which belong to the selected workload's own traced rep.
pub fn run(
    tracer: &mut Tracer,
    seed: u64,
    scale: Scale,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let ledger = tracer.enter("bench.ledger");
    let size = scale.of(1 << 12);

    // bss_sim, sequential engine: the same oracle run to cycle 12 and to
    // cycle 20. The first leaves the population the replay starts from; the
    // difference in `execute` is what the engine spends on cycles 12..20,
    // whose exchanges are the ones the replay re-executes.
    let to_replay = run_sim_rep(oracle_cycle_config(size, REPLAY_CYCLE, seed), tracer);
    let to_engine = run_sim_rep(oracle_cycle_config(size, ENGINE_CYCLES, seed), tracer);
    let (short, long) = (
        to_replay.report.phase_profile().ok_or("no phase profile")?,
        to_engine.report.phase_profile().ok_or("no phase profile")?,
    );
    let engine_us_per_exchange = (long.execute.saturating_sub(short.execute)).as_secs_f64() * 1e6
        / ((ENGINE_CYCLES - REPLAY_CYCLE) as f64 * size as f64);
    metrics.set("sim.cycle.execute_us_per_exchange", engine_us_per_exchange);
    let json_ns = bulk_ns(tracer, "core.experiment.to_json", 20, |_| {
        black_box(to_engine.report.to_json());
    });
    metrics.set("core.experiment.to_json_ms", json_ns / 1e6);

    core_replay(
        tracer,
        &to_replay.snapshot,
        seed,
        engine_us_per_exchange,
        metrics,
    );
    parallel_engine(tracer, seed, scale, metrics)?;
    sampling(tracer, seed, scale, to_replay.wall_s, metrics);
    event_engine_and_traffic(tracer, seed, scale, metrics)?;
    routing_and_overlay(tracer, seed, scale, metrics);
    codec(tracer, metrics);
    util(tracer, seed, metrics);
    wire(tracer, seed, scale, metrics)?;
    tracer.exit(ledger);
    Ok(())
}

/// One Fig. 2 exchange per node over the cycle-12 population, executed the
/// way `bss_core::protocol` executes it — unpack both sides, SELECTPEER,
/// CREATEMESSAGE twice, both receives, repack both — with one span per call.
fn core_replay(
    tracer: &mut Tracer,
    snapshot: &PopulationSnapshot,
    seed: u64,
    engine_us_per_exchange: f64,
    metrics: &mut Metrics,
) {
    let nodes: Vec<&BootstrapNode<NodeIndex>> = (0..snapshot.len())
        .filter_map(|position| snapshot.node_at(position))
        .collect();
    let params = *nodes[0].params();
    let arena_len = nodes
        .iter()
        .map(|node| node.own_descriptor().address().as_usize() + 1)
        .max()
        .unwrap_or(0);
    let mut ids = vec![NodeId::new(0); arena_len];
    for node in &nodes {
        ids[node.own_descriptor().address().as_usize()] = node.id();
    }
    let mut packed: Vec<CompactNode> = vec![CompactNode::default(); arena_len];
    for node in &nodes {
        packed[node.own_descriptor().address().as_usize()] = CompactNode::pack(node, &ids);
    }
    let addresses: Vec<NodeIndex> = nodes
        .iter()
        .map(|node| node.own_descriptor().address())
        .collect();

    let mut rng = SimRng::seed_from(seed ^ 0x7265706c6179);
    let mut node_state = (*nodes[0]).clone();
    let mut peer_state = node_state.clone();
    let mut message = MessageScratch::default();
    let mut merge = MergeScratch::default();
    let mut candidates = Vec::new();
    let samples = |rng: &mut SimRng| -> Vec<Descriptor<NodeIndex>> {
        (0..params.random_samples)
            .map(|_| {
                let address = addresses[rng.index(addresses.len())];
                Descriptor::new(ids[address.as_usize()], address, REPLAY_CYCLE)
            })
            .collect()
    };

    let (mut descriptors, mut messages) = (0usize, 0usize);
    // Kept for the separate leaf-set / prefix-table / aging spans below.
    let mut kept: Vec<(BootstrapNode<NodeIndex>, Vec<Descriptor<NodeIndex>>)> = Vec::new();
    for &address in &addresses {
        let (my_samples, peer_samples) = (samples(&mut rng), samples(&mut rng));
        let exchange = tracer.enter("core.exchange.replay");
        tracer.span("core.compact.unpack", || {
            packed[address.as_usize()].unpack_into(address, &ids, &mut node_state);
        });
        let selected = tracer.span("core.node.select_peer", || {
            node_state.select_peer_with(&mut rng, &mut candidates)
        });
        let Some(peer) = selected.map(|d| d.address()) else {
            tracer.exit(exchange);
            continue;
        };
        tracer.span("core.compact.unpack", || {
            packed[peer.as_usize()].unpack_into(peer, &ids, &mut peer_state);
        });
        let (node_id, peer_id) = (node_state.id(), peer_state.id());
        let request = tracer.span("core.message.create", || {
            node_state.create_message_at(peer_id, &my_samples, true, REPLAY_CYCLE, &mut message)
        });
        let answer = tracer.span("core.message.create", || {
            peer_state.create_message_at(node_id, &peer_samples, false, REPLAY_CYCLE, &mut message)
        });
        if kept.len() < 512 {
            kept.push((peer_state.clone(), request.clone()));
        }
        tracer.span("core.node.receive", || {
            peer_state.receive_at(&request, REPLAY_CYCLE, &mut merge)
        });
        tracer.span("core.node.receive", || {
            node_state.receive_at(&answer, REPLAY_CYCLE, &mut merge)
        });
        tracer.span("core.compact.repack", || {
            packed[peer.as_usize()].repack_from(&peer_state, &ids);
        });
        tracer.span("core.compact.repack", || {
            packed[address.as_usize()].repack_from(&node_state, &ids);
        });
        tracer.exit(exchange);
        descriptors += request.len() + answer.len();
        messages += 2;
    }

    // UPDATELEAFSET and UPDATEPREFIXTABLE on their own, and the whole receive
    // again through the aging path: the clock is set so that nothing expires,
    // which is the steady state of a live overlay (every eviction scan and
    // timestamp refresh runs, no entry leaves).
    let aging = BootstrapParams {
        descriptor_max_age: Some(REPLAY_CYCLE),
        ..params
    };
    for (receiver, incoming) in &kept {
        let mut leaf_set = receiver.leaf_set().clone();
        tracer.span("core.leafset.update", || {
            leaf_set.update_with(incoming.iter().copied(), &mut merge)
        });
        let mut prefix_table = receiver.prefix_table().clone();
        tracer.span("core.prefix_table.update", || {
            prefix_table.update(incoming.iter().copied())
        });
        let mut aged = BootstrapNode::new(receiver.own_descriptor(), &aging)
            .expect("the run's parameters plus an aging bound");
        let held: Vec<Descriptor<NodeIndex>> = receiver
            .leaf_set()
            .iter()
            .chain(receiver.prefix_table().iter())
            .copied()
            .collect();
        aged.receive(&held);
        tracer.span("core.node.receive_at_aging", || {
            aged.receive_at(incoming, REPLAY_CYCLE, &mut merge)
        });
    }

    metrics.set(
        "core.compact.unpack_us",
        tracer.mean_us("core.compact.unpack"),
    );
    metrics.set(
        "core.node.select_peer_us",
        tracer.mean_us("core.node.select_peer"),
    );
    metrics.set(
        "core.message.create_us",
        tracer.mean_us("core.message.create"),
    );
    metrics.set(
        "core.leafset.update_us",
        tracer.mean_us("core.leafset.update"),
    );
    metrics.set(
        "core.prefix_table.update_us",
        tracer.mean_us("core.prefix_table.update"),
    );
    metrics.set("core.node.receive_us", tracer.mean_us("core.node.receive"));
    metrics.set(
        "core.node.receive_at_aging_us",
        tracer.mean_us("core.node.receive_at_aging"),
    );
    metrics.set(
        "core.compact.repack_us",
        tracer.mean_us("core.compact.repack"),
    );
    // The exchange span's self time is the harness's own clock reads.
    let replay_us = tracer.mean_child_covered_us("core.exchange.replay");
    metrics.set("core.exchange.replay_us", replay_us);
    metrics.set(
        "core.exchange.explained_ratio",
        replay_us / engine_us_per_exchange,
    );
    metrics.set(
        "core.message.descriptors_mean",
        descriptors as f64 / messages.max(1) as f64,
    );

    let build_ns = bulk_ns(tracer, "core.convergence.oracle_build", 5, |_| {
        black_box(ConvergenceOracle::new(snapshot.ids(), &params));
    });
    metrics.set("core.convergence.oracle_build_ms", build_ns / 1e6);
    let oracle = ConvergenceOracle::new(snapshot.ids(), &params);
    let measure_ns = bulk_ns(tracer, "core.convergence.measure_node", nodes.len(), |i| {
        black_box(oracle.measure_node(nodes[i]));
    });
    metrics.set("core.convergence.measure_node_us", measure_ns / 1e3);
}

/// The parallel engine on the `fig4_parallel` configuration at its full
/// size, 12 cycles, with 2 workers and with 1: speed-up, the serial fraction,
/// and the bit-for-bit equivalence the engine promises.
fn parallel_engine(
    tracer: &mut Tracer,
    seed: u64,
    scale: Scale,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let mut two = Sim::Fig4Parallel.config(scale.of(1 << 13), 0, seed, true);
    two.max_cycles = 12;
    let mut one = two.clone();
    one.engine = Engine::Cycle;
    let two = run_sim_rep(two, tracer);
    let one = run_sim_rep(one, tracer);
    if digest(&two.report) != digest(&one.report) {
        return Err(format!(
            "the parallel engine at 2 threads diverged from 1 thread: digest {:x} vs {:x}",
            digest(&two.report),
            digest(&one.report)
        ));
    }
    let profile = two.report.phase_profile().ok_or("no phase profile")?;
    metrics.set("sim.cycle.plan_s", profile.plan.as_secs_f64());
    metrics.set("sim.cycle.execute_s", profile.execute.as_secs_f64());
    metrics.set("sim.cycle.commit_s", profile.commit.as_secs_f64());
    metrics.set("sim.cycle.measure_s", profile.measure.as_secs_f64());
    metrics.set("sim.parallel.speedup_2t", one.wall_s / two.wall_s);
    metrics.set(
        "sim.parallel.plan_share",
        profile.plan.as_secs_f64() / profile.total().as_secs_f64(),
    );
    Ok(())
}

/// NEWSCAST on its own (one cycle of view exchanges at the figure size), its
/// share of a bootstrap run (the cycle-12 oracle run again, over NEWSCAST),
/// and the cost of one oracle draw.
fn sampling(
    tracer: &mut Tracer,
    seed: u64,
    scale: Scale,
    oracle_run_s: f64,
    metrics: &mut Metrics,
) {
    let mut over_newscast = oracle_cycle_config(scale.of(1 << 12), REPLAY_CYCLE, seed);
    over_newscast.sampler =
        bss_core::experiment::SamplerChoice::Newscast(NewscastParams::paper_default());
    let newscast_run_s = run_sim_rep(over_newscast, tracer).wall_s;
    metrics.set(
        "sampling.newscast.run_share",
        (newscast_run_s - oracle_run_s) / newscast_run_s,
    );

    let size = scale.of(1 << 14);
    let mut rng = SimRng::seed_from(seed);
    let network = Network::with_random_ids(size, &mut rng);
    let mut engine = CycleEngine::new(network, rng);
    let mut newscast = NewscastProtocol::new(NewscastParams::paper_default());
    PeerSampler::init_all(&mut newscast, engine.context_mut());
    engine.run(&mut newscast, 2);
    let cycle_ns = bulk_ns(tracer, "sampling.newscast.cycle", 5, |_| {
        engine.run(&mut newscast, 1);
    });
    metrics.set(
        "sampling.newscast.us_per_node_cycle",
        cycle_ns / 1e3 / size as f64,
    );

    let draws = BootstrapParams::paper_default().random_samples;
    let mut oracle = OracleSampler::new();
    let context = engine.context_mut();
    let sample_ns = bulk_ns(tracer, "sampling.oracle.sample", 50_000, |i| {
        black_box(oracle.sample(NodeIndex::new((i % size) as u32), draws, 0, context));
    });
    metrics.set("sampling.oracle.sample_ns", sample_ns);
    let alive_ns = bulk_ns(tracer, "sim.network.sample_alive", 50_000, |i| {
        black_box(context.network.sample_alive_excluding(
            NodeIndex::new((i % size) as u32),
            draws,
            &mut context.rng,
        ));
    });
    metrics.set("sim.network.sample_alive_ns", alive_ns);
}

/// The `serve_churn_event` configuration without its lookups (the event
/// engine and the aging path alone) and with them (what the traffic layer
/// adds).
fn event_engine_and_traffic(
    tracer: &mut Tracer,
    seed: u64,
    scale: Scale,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let size = scale.of(1 << 10);
    let quiet = run_sim_rep(Sim::ServeChurnEvent.config(size, 0, seed, false), tracer);
    let traffic = quiet.report.traffic();
    metrics.set(
        "sim.event.us_per_message",
        quiet.wall_s * 1e6 / (traffic.requests_sent + traffic.answers_sent) as f64,
    );
    let served = run_sim_rep(
        Sim::ServeChurnEvent.config(size, scale.of(100_000), seed, false),
        tracer,
    );
    let summary =
        TrafficSummary::from_report(&served.report).ok_or("the serve probe reported no lookups")?;
    let added_s = served.wall_s - quiet.wall_s;
    metrics.set("traffic.serve.share", added_s / served.wall_s);
    metrics.set(
        "traffic.serve.ns_per_lookup",
        added_s * 1e9 / summary.issued as f64,
    );
    metrics.set(
        "traffic.serve.worst_window_success",
        summary.worst_window_success.unwrap_or(0.0),
    );
    metrics.set(
        "traffic.serve.final_window_success",
        summary.final_window_success.unwrap_or(0.0),
    );
    Ok(())
}

/// `route()` under the three substrates' rules and `LookupEvaluator` over the
/// tables of a converged 2^10 overlay.
fn routing_and_overlay(tracer: &mut Tracer, seed: u64, scale: Scale, metrics: &mut Metrics) {
    let config = ExperimentConfig::builder()
        .network_size(scale.of(1 << 10))
        .seed(seed)
        .max_cycles(40)
        .build()
        .expect("a valid probe configuration");
    let snapshot = run_sim_rep(config, tracer).snapshot;
    let contacts = snapshot_contacts(&snapshot);
    let mut rng = SimRng::seed_from(seed ^ 0x726f757465);
    let mut path = Vec::with_capacity(DEFAULT_MAX_HOPS + 1);
    let mut tables = SnapshotTables(&snapshot);
    for (kind, name, span) in [
        (
            RouterKind::Pastry,
            "core.routing.pastry_ns",
            "core.routing.pastry",
        ),
        (
            RouterKind::Kademlia,
            "core.routing.kademlia_ns",
            "core.routing.kademlia",
        ),
        (
            RouterKind::Chord,
            "core.routing.chord_ns",
            "core.routing.chord",
        ),
    ] {
        let (mut hops, mut delivered) = (0u64, 0u64);
        let ns = bulk_ns(tracer, span, 50_000, |_| {
            let source = contacts[rng.index(contacts.len())];
            let target = contacts[rng.index(contacts.len())];
            let routed = route(
                &mut tables,
                kind,
                source,
                target.id,
                DEFAULT_MAX_HOPS,
                &mut path,
            );
            if routed.delivered() {
                hops += routed.hops;
                delivered += 1;
            }
        });
        metrics.set(name, ns);
        if kind == RouterKind::Pastry {
            metrics.set(
                "core.routing.hops_mean",
                hops as f64 / delivered.max(1) as f64,
            );
        }
    }

    let lookups = 50_000;
    let mut evaluator = LookupEvaluator::new(snapshot.clone(), seed);
    let span = tracer.enter("overlay.lookup.evaluate");
    let started = Instant::now();
    let report = evaluator.evaluate(RouterKind::Pastry, lookups);
    let elapsed = started.elapsed();
    tracer.exit(span);
    metrics.set(
        "overlay.lookup.evaluate_ns",
        elapsed.as_nanos() as f64 / lookups as f64,
    );
    metrics.set("overlay.lookup.success", report.success_rate());
}

/// Encode and decode of one unstamped 100-descriptor message.
fn codec(tracer: &mut Tracer, metrics: &mut Metrics) {
    let descriptor = |n: u64| {
        let address = SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 20_000 + n as u16));
        Descriptor::new(
            NodeId::new(n.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            address,
            n,
        )
    };
    let message = WireMessage::unstamped(
        MessageKind::Request,
        descriptor(0),
        (1..=100).map(descriptor).collect(),
    );
    let encoded = codec::encode(&message);
    metrics.set("net.codec.bytes_per_message", encoded.len() as f64);
    let encode_ns = bulk_ns(tracer, "net.codec.encode", 20_000, |_| {
        black_box(codec::encode(black_box(&message)));
    });
    metrics.set("net.codec.encode_ns", encode_ns);
    let decode_ns = bulk_ns(tracer, "net.codec.decode", 20_000, |_| {
        black_box(codec::decode(black_box(&encoded)).expect("a message this crate encoded"));
    });
    metrics.set("net.codec.decode_ns", decode_ns);
}

/// The `bss_util` primitives under the hot paths: a 120-descriptor merge
/// buffer with a quarter duplicated (about one message plus a leaf set).
fn util(tracer: &mut Tracer, seed: u64, metrics: &mut Metrics) {
    let mut rng = SimRng::seed_from(seed ^ 0x7574696c);
    let source: Vec<Descriptor<u32>> = (0..120u32)
        .map(|n| {
            let id = if n % 4 == 3 { n - 1 } else { n };
            Descriptor::new(
                NodeId::new(rng.next_u64() ^ u64::from(id)),
                id,
                u64::from(n),
            )
        })
        .collect();
    let own = NodeId::new(rng.next_u64());
    let mut buffer = Vec::with_capacity(source.len());
    let dedup_ns = bulk_ns(tracer, "util.descriptor.dedup_freshest", 20_000, |_| {
        buffer.clear();
        buffer.extend_from_slice(&source);
        dedup_freshest(black_box(&mut buffer));
    });
    metrics.set("util.descriptor.dedup_freshest_ns", dedup_ns);
    let rank_ns = bulk_ns(tracer, "util.view.rank_top", 20_000, |_| {
        buffer.clear();
        buffer.extend_from_slice(&source);
        rank_top_by(black_box(&mut buffer), 20, |a, b| {
            (own.ring_distance(a.id()), a.id()).cmp(&(own.ring_distance(b.id()), b.id()))
        });
    });
    metrics.set("util.view.rank_top_ns", rank_ns);
    let mut histogram = Histogram::new(1);
    let record_ns = bulk_ns(tracer, "util.stats.histogram_record", 1_000_000, |i| {
        histogram.record(black_box((i % 150) as u64));
    });
    black_box(histogram.count());
    metrics.set("util.stats.histogram_record_ns", record_ns);
    let mut sink = 0u64;
    let next_ns = bulk_ns(tracer, "util.rng.next_u64", 5_000_000, |_| {
        sink ^= rng.next_u64();
    });
    black_box(sink);
    metrics.set("util.rng.next_u64_ns", next_ns);
}

/// The datagram driver: binding, a saturated window swept span by span, and
/// time to perfect tables on a cluster small enough to be timer-bound.
fn wire(tracer: &mut Tracer, seed: u64, scale: Scale, metrics: &mut Metrics) -> Result<(), String> {
    let peers = scale.of(WIRE_FULL_PEERS);
    let span = tracer.enter("net.driver.bind");
    let started = Instant::now();
    let bound = bind_wire(peers, seed)?;
    metrics.set("net.driver.bind_ms", started.elapsed().as_secs_f64() * 1e3);
    tracer.exit(span);
    drop(bound);

    let first_span = tracer.len();
    let window = run_wire_rep(peers, seed, 2.5 / scale.0 as f64, false, tracer)?;
    let mut sweep_us: Vec<f64> = tracer.spans()[first_span..]
        .iter()
        .filter(|span| span.name == "net.driver.poll_once")
        .map(|span| span.duration_ns() as f64 / 1e3)
        .collect();
    let busy_us: f64 = sweep_us.iter().sum();
    sweep_us.sort_by(f64::total_cmp);
    let datagrams =
        (window.traffic.datagrams_sent + window.traffic.datagrams_received).max(1) as f64;
    metrics.set("net.driver.sweep_us_p50", sweep_us[sweep_us.len() / 2]);
    metrics.set(
        "net.driver.sweep_us_p99",
        sweep_us[(sweep_us.len() * 99 / 100).min(sweep_us.len() - 1)],
    );
    metrics.set("net.driver.busy_us_per_datagram", busy_us / datagrams);
    metrics.set(
        "net.driver.datagrams_per_sweep",
        datagrams / window.sweeps as f64,
    );
    metrics.set(
        "net.driver.bytes_per_datagram",
        window.traffic.bytes_sent as f64 / window.traffic.datagrams_sent.max(1) as f64,
    );
    // Firings the timers scheduled against exchanges actually initiated: the
    // driver skips firings it is too slow for.
    let scheduled = peers as f64 * window.polled_s * 1e3 / wire_params().cycle_millis as f64;
    metrics.set("net.driver.fire_ratio", window.exchanges as f64 / scheduled);
    metrics.set(
        "net.driver.loss_ratio",
        1.0 - window.traffic.datagrams_received as f64
            / window.traffic.datagrams_sent.max(1) as f64,
    );
    metrics.set(
        "net.driver.send_failures",
        window.traffic.send_failures as f64,
    );
    metrics.set(
        "net.driver.decode_failures",
        window.traffic.decode_failures as f64,
    );

    let oracle = ConvergenceOracle::new(window.handles.iter().map(PeerHandle::id), &wire_params());
    let measure_ns = bulk_ns(tracer, "net.cluster.measure", 5, |_| {
        black_box(measure_wire(&window.handles, &oracle));
    });
    metrics.set("net.cluster.measure_ms", measure_ns / 1e6);

    // Time to perfect tables, three clusters of a quarter of the peers: small
    // enough that the driver idles between firings, so this is the protocol's
    // convergence on a real clock, not the driver's capacity.
    let small = (peers / 4).max(8);
    let mut converge_ms = Vec::with_capacity(3);
    for trial in 0..3u64 {
        let mut driver = bind_wire(small, seed.wrapping_add(trial))?;
        let handles = driver.handles();
        let oracle = ConvergenceOracle::new(handles.iter().map(PeerHandle::id), &wire_params());
        let span = tracer.enter("net.cluster.converge");
        let started = Instant::now();
        let mut sweeps = 0u64;
        loop {
            if !driver.poll_once() {
                std::thread::sleep(Duration::from_micros(200));
            }
            sweeps += 1;
            if sweeps % 16 == 0 && measure_wire(&handles, &oracle).is_perfect() {
                break;
            }
            // Informational, so a cluster stuck on its last entry reports the
            // cap instead of failing the run.
            if started.elapsed() > Duration::from_secs(10) {
                break;
            }
        }
        converge_ms.push(started.elapsed().as_secs_f64() * 1e3);
        tracer.exit(span);
    }
    let spread = converge_ms.iter().copied().fold(f64::MIN, f64::max)
        - converge_ms.iter().copied().fold(f64::MAX, f64::min);
    let typical = median(&mut converge_ms);
    metrics.set("net.cluster.converge_ms", typical);
    metrics.set("net.cluster.converge_ms_spread", spread / typical);
    Ok(())
}
