#!/bin/sh
# Every golden byte-identity gate, from one table.
#
#   sh ci/goldens.sh check   runs each golden of the table in all three modes
#                            (on every core, at --threads 2, and on one core
#                            under taskset -c 0) and diffs the result against
#                            ci/golden/<name>_small.tsv. Every cell is reported;
#                            the script fails if any run exits non-zero (its
#                            stderr is printed) or any diff is not empty.
#   sh ci/goldens.sh regen   rewrites ci/golden/ from the every-core runs, then
#                            runs check: a golden that depends on the mode is
#                            not written, and ci/golden/ is put back. It prints
#                            `bss-bench golden-diff` of the old goldens against
#                            the new, then runs the pinned tests, which print
#                            the literal each pin wants when it fails.
#
# A run writes its stdout, its stderr and its --out-dir, if it takes one, to
# target/goldens/<mode>/<name>/; regen keeps the old goldens in
# target/goldens/old/. The goldens are deterministic at any thread count: a
# diff means a decision moved in an RNG stream (transport coins, churn draws,
# SELECTPEER, the samplers, per-hop routing, aging and re-bootstrap). CI runs
# check and never regen.
set -eu
cd "$(dirname "$0")/.."
BIN=target/release/bss-bench

# One line per golden: its name; the output that is the golden, either stdout
# (the wall-clock column of the figures' `2^` summary rows stripped) or a file
# under the run's directory $out; and the bss-bench arguments.
TABLE='
fig3        stdout                  fig3 --sizes 6,7 --runs 2 --quiet
fig4        stdout                  fig4 --sizes 6,7 --runs 2 --quiet
churn       stdout                  churn --size 7 --cycles 20
merge_split stdout                  merge_split --size 11 --cycles 40
ablation    stdout                  ablation --size 7 --runs 2 --cycles 40
recovery    stdout                  recovery --require-recovery --out-dir $out
adversary   adversary_timeline.tsv  adversary --size 7 --cycles 40 --fractions 20 --quiet --out-dir $out
traffic     traffic_timeline.tsv    traffic --smoke --quiet --out-dir $out
wan         wan_timeline.tsv        wan --smoke --quiet --out-dir $out
'

strip_elapsed() {
    awk -F'\t' 'BEGIN{OFS="\t"} /^2\^/{NF--} {print}'
}

# run <mode> <name> <output> <arguments>: runs one golden in one mode and sets
# $result to the path of its output.
run() {
    mode=$1 name=$2 out=target/goldens/$1/$2
    result=$out/$3
    rm -rf "$out" && mkdir -p "$out" || return 1
    eval "set -- $4"
    case $mode in
        threads-2) set -- "$BIN" "$@" --threads 2 ;;
        one-core) set -- taskset -c 0 "$BIN" "$@" ;;
        *) set -- "$BIN" "$@" ;;
    esac
    if ! "$@" </dev/null >"$out/stdout" 2>"$out/stderr"; then
        echo "$mode/$name: exited non-zero: $*" >&2
        cat "$out/stderr" >&2
        return 1
    fi
    if [ "$result" = "$out/stdout" ]; then
        result=$out/stdout.tsv
        strip_elapsed <"$out/stdout" >"$result" || return 1
    fi
}

check() {
    failed=0
    for mode in every-core threads-2 one-core; do
        while read -r name output args; do
            [ -n "$name" ] || continue
            if run "$mode" "$name" "$output" "$args" &&
                diff -u "ci/golden/${name}_small.tsv" "$result"; then
                echo "$mode/$name: identical"
            else
                echo "$mode/$name: FAILED" >&2
                failed=$((failed + 1))
            fi
        done <<EOF
$TABLE
EOF
    done
    [ "$failed" = 0 ] || { echo "check: $failed golden x mode cells failed" >&2; return 1; }
}

restore() {
    cp target/goldens/old/* ci/golden/
    echo "regen: ci/golden/ is left as it was" >&2
    exit 1
}

regen() {
    rm -rf target/goldens/old
    mkdir -p target/goldens
    cp -R ci/golden target/goldens/old
    while read -r name output args; do
        [ -n "$name" ] || continue
        run every-core "$name" "$output" "$args" || restore
        cp "$result" "ci/golden/${name}_small.tsv"
    done <<EOF
$TABLE
EOF
    check || restore
    "$BIN" golden-diff --old target/goldens/old --new ci/golden
    cargo test -q --workspace --no-fail-fast -- is_pinned
}

if [ "$#" -ne 1 ] || { [ "$1" != check ] && [ "$1" != regen ]; }; then
    echo "usage: sh ci/goldens.sh check|regen" >&2
    exit 2
fi
cargo build --release -q -p bss-bench
"$1"
