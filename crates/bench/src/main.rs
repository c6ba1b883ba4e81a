//! `bss-bench <experiment> [options]` — see `--help` for the experiment table.

/// Counts every allocation so the `scaling` experiment can report each run's
/// own peak live heap; the other experiments pay one relaxed atomic add per
/// allocation for it.
#[global_allocator]
static ALLOC: bss_bench::alloc::CountingAllocator = bss_bench::alloc::CountingAllocator;

fn main() {
    std::process::exit(bss_bench::experiments::run(std::env::args().skip(1)));
}
