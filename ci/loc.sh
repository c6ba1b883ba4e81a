#!/bin/sh
# The two line counts a simplicity PR reports before and after (CHANGES.md):
# non-test source lines (everything above a file's `#[cfg(test)]`; integration
# tests, benches and the offline shims excluded) and all Rust lines under
# `crates src tests examples` (shims excluded). With file arguments, prints
# `non-test/total` for each file instead. With `--check`, also fails when
# either count exceeds its ceiling in `ci/loc_ceiling.txt` (two numbers,
# non-test then all): a PR that shrinks the tree lowers the ceiling to its
# result, so the count cannot drift back up unnoticed.
set -eu
cd "$(dirname "$0")/.."
non_test() {
    awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{c++} END{print c+0}' "$@"
}
if [ "$#" -gt 0 ] && [ "$1" != --check ]; then
    for file in "$@"; do
        echo "$file: $(non_test "$file")/$(wc -l < "$file")"
    done
    exit 0
fi
# shellcheck disable=SC2046 # no path below contains whitespace
source_lines=$(non_test $(find crates src -name '*.rs' \
    -not -path '*/shims/*' -not -path '*/tests/*' -not -path '*/benches/*'))
all_lines=$(find crates src tests examples -name '*.rs' \
    -not -path '*/shims/*' -exec cat {} + | wc -l)
echo "non-test source lines: $source_lines"
echo "all Rust lines: $all_lines"
if [ "${1:-}" = --check ]; then
    read -r source_ceiling all_ceiling < ci/loc_ceiling.txt
    if [ "$source_lines" -gt "$source_ceiling" ] || [ "$all_lines" -gt "$all_ceiling" ]; then
        echo "over the ceiling of ci/loc_ceiling.txt ($source_ceiling / $all_ceiling)" >&2
        exit 1
    fi
fi
