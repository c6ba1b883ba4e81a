//! # bss-bench — the experiment harness
//!
//! One binary, `bss-bench <experiment> [options]`, with one experiment per
//! figure or claim of the paper's evaluation (§5) and per extension of it:
//!
//! | Experiment    | Reproduces |
//! |---------------|------------|
//! | `fig3`        | Figure 3: missing leaf-set and prefix-table entries vs. cycles, no failures, N ∈ {2^14, 2^16, 2^18} |
//! | `fig4`        | Figure 4: the same two panels with 20 % uniform message loss |
//! | `churn`       | §5's churn claim: table quality under continuous replacement churn |
//! | `merge_split` | §1–2 scenarios: two partitions bootstrapping independently, then merging |
//! | `ablation`    | Design-choice ablations: `cr`, `c`, sampler quality, message loss |
//! | `scenarios`   | The scenario smoke suite: one timeline per event kind on both engines |
//! | `recovery`    | Catastrophe-then-recover: descriptor aging + re-bootstrap against the detector-free protocol |
//! | `adversary`   | The Byzantine sweep: behaviour × converted fraction × countermeasures × engines |
//! | `traffic`     | Live lookup workloads: scenario × router × engines |
//! | `wan`         | WAN realism: placement × link model × engines, with regional outages and slow links |
//! | `cluster_net` | Loopback UDP clusters on the datagram driver, one per size |
//! | `golden-diff` | No run: what moved between two directories of goldens (`sh ci/goldens.sh regen` prints it) |
//!
//! Every experiment accepts `--help` (generated from the same option table the
//! parser checks arguments against), prints tab-separated series identical in
//! shape to the paper's plots, and defaults to laptop-sized networks (the
//! paper's full 2^14–2^18 sizes are available through `--sizes`).
//!
//! The pieces: the experiment table and its dispatch ([`experiments`]); the
//! option tables, parser and `--help` renderer (`cli`); the sweep runner —
//! sizes × cells × engines, one `RunReport` JSON per run — that the
//! both-engines experiments are tables of cells for (`sweep`); and
//! tab-separated report formatting (`report`). The single-engine experiments
//! (`fig3`, `fig4`, `churn`, `merge_split`, `ablation`) are plain loops over
//! `Experiment::run`. A new experiment is a module under `experiments/` and
//! one more row of the table.
//!
//! Timing is not measured here: the benchmark harness under `benchmark/`
//! (declared in `BENCHMARK.json`) is the one performance record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cli;
pub mod experiments;
mod report;
mod sweep;
