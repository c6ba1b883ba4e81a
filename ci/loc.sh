#!/bin/sh
# The two line counts a simplicity PR reports before and after (CHANGES.md):
# non-test source lines (everything above a file's `#[cfg(test)]`; integration
# tests, benches and the offline shims excluded) and all Rust lines under
# `crates src tests examples` (shims excluded). With file arguments, prints
# `non-test/total` for each file instead.
set -eu
cd "$(dirname "$0")/.."
non_test() {
    awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{c++} END{print c+0}' "$@"
}
if [ "$#" -gt 0 ]; then
    for file in "$@"; do
        echo "$file: $(non_test "$file")/$(wc -l < "$file")"
    done
    exit 0
fi
# shellcheck disable=SC2046 # no path below contains whitespace
echo "non-test source lines: $(non_test $(find crates src -name '*.rs' \
    -not -path '*/shims/*' -not -path '*/tests/*' -not -path '*/benches/*'))"
echo "all Rust lines: $(find crates src tests examples -name '*.rs' \
    -not -path '*/shims/*' -exec cat {} + | wc -l)"
