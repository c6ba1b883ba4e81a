#!/bin/sh
# Formatting, lints and tests of the benchmark package. The root CI does not
# know this directory (it is not a workspace member), so run this by hand
# after touching anything under benchmark/.
set -eu
manifest="$(dirname "$0")/Cargo.toml"
cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --manifest-path "$manifest"
