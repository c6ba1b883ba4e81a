//! `bss-bench <experiment> [options]` — see `--help` for the experiment table.

fn main() {
    std::process::exit(bss_bench::experiments::run(std::env::args().skip(1)));
}
