#!/bin/sh
# Fails when a workspace library — the offline shims and the facade aside — is
# not a normal dependency of anything that runs: the `bss-bench` binary, an
# example (through the facade path it names, `bootstrapping_service::<crate>`)
# or the benchmark package. `bss_tman` sat in that state for sixteen PRs:
# built, tested, linted and documented, and reached by no run.
set -eu
cd "$(dirname "$0")/.."
tree() {
    cargo tree --offline --edges normal --prefix none "$@"
}
names() {
    tree "$@" | cut -d' ' -f1
}
reached=$(
    names -p bss-bench
    names --manifest-path benchmark/Cargo.toml
    for crate in $(grep -oh 'bootstrapping_service::[a-z]*' examples/*.rs | cut -d: -f3 | sort -u); do
        names -p "bss-$crate"
    done
)
status=0
for library in $(tree --workspace --depth 0 | grep -v '/shims/' | cut -d' ' -f1); do
    if [ "$library" != bootstrapping-service ] && ! echo "$reached" | grep -qx "$library"; then
        echo "orphan: no run reaches $library (not a normal dependency of bss-bench, an example or benchmark/)" >&2
        status=1
    fi
done
exit "$status"
