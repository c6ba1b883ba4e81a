//! Route lookups over freshly bootstrapped tables.
//!
//! The paper's claim is that the constructed leaf sets and prefix tables are
//! exactly what Pastry, Kademlia, Tapestry and Bamboo need. This example closes the
//! loop: bootstrap a network, then route random lookups over the result with a
//! Pastry-style prefix router, a Kademlia-style XOR router and a Chord-style
//! clockwise router — all three reading the same bootstrapped tables — and
//! compare their hop counts.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example route_over_bootstrap
//! ```

use bootstrapping_service::core::experiment::{Experiment, ExperimentConfig};
use bootstrapping_service::core::routing::RouterKind;
use bootstrapping_service::overlay::lookup::LookupEvaluator;

fn main() {
    let config = ExperimentConfig::builder()
        .network_size(1 << 11)
        .seed(99)
        .max_cycles(60)
        .build()
        .expect("valid configuration");

    println!("bootstrapping {} nodes ...", config.network_size);
    let (outcome, snapshot) = Experiment::new(config).run_with_snapshot();
    println!("{outcome}");
    println!();

    let mut evaluator = LookupEvaluator::new(snapshot, 4242);
    println!("routing 1000 random lookups with each router:");
    for router in RouterKind::ALL {
        println!("  {}", evaluator.evaluate(router, 1000));
    }
    println!();
    println!(
        "a perfect bootstrap delivers 100% of lookups under every router, with \
         prefix routing using O(log_16 N) hops over the same tables."
    );
}
