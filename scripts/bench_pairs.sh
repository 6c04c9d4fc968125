#!/usr/bin/env bash
# Paired benchmark runs: perfbench built at a parent revision against
# perfbench built from the working tree, in alternating pairs of every
# workload BENCHMARK.json lists, each run for its `run_seconds`.
#
# For every workload and end-to-end metric it prints each side's median
# and quartiles, the pairs the change won (ties count for neither side)
# and a verdict:
#
#   gain          the change won at least 9/10 of the pairs and the
#                 medians differ by more than the parent's interquartile
#                 range, in the metric's better direction
#   regression    the change's median is worse than the parent's by more
#                 than the metric's bound
#   unresolved    either side's interquartile range is wider than the
#                 bound, and not every change run beats every parent run
#   within bound  none of the above
#
# plus each side's failed/attempted operation counts per workload.
#
# The parent is exported with `git archive` into a work directory and
# built there with its own target directory; the working tree's perfbench
# builds into perfbench/target as the benchmark command does. Nothing
# under perfbench/ is changed. Each side runs from its own tree, so
# perfbench's scratch files stay apart. The raw result lines, one JSON
# object per run tagged with its workload, pair and side, are kept in
# `runs.jsonl` in the work directory (a fresh one under $TMPDIR, or
# BENCH_PAIRS_DIR if set); the parent's tree and build are removed on exit.
#
# Usage: scripts/bench_pairs.sh <parent-rev> [pairs] [seed]
#   pairs defaults to 10 and seed to 1. Needs git, cargo, jq and python3.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
    echo "usage: scripts/bench_pairs.sh <parent-rev> [pairs] [seed]" >&2
    exit 2
fi
rev=$1
pairs=${2:-10}
seed=${3:-1}
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "bench_pairs: unknown revision '$rev'" >&2
    exit 2
}
case "$pairs$seed" in
*[!0-9]*) echo "bench_pairs: pairs and seed must be whole numbers" >&2; exit 2 ;;
esac

repo=$(pwd)
work=${BENCH_PAIRS_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")}
mkdir -p "$work"
parent="$work/parent"
trap 'rm -rf "$parent" "$work/parent-target"' EXIT

echo "== building perfbench at $rev ==" >&2
rm -rf "$parent"
mkdir -p "$parent"
git archive "$rev" | tar -x -C "$parent"
cargo build --release --offline --quiet --manifest-path "$parent/perfbench/Cargo.toml" \
    --target-dir "$work/parent-target"
echo "== building perfbench at the working tree ==" >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml

parent_bin="$work/parent-target/release/perfbench"
change_bin="$repo/perfbench/target/release/perfbench"
seconds=$(jq -r '.run_seconds' BENCHMARK.json)
workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
runs="$work/runs.jsonl"
: >"$runs"

# One run: the last line of perfbench's output, tagged.
run() {
    local side=$1 dir=$2 bin=$3 workload=$4 pair=$5 line
    echo "-- pair $pair $workload $side" >&2
    line=$(cd "$dir" && "$bin" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 | tail -n 1) || true
    if ! jq -e . >/dev/null 2>&1 <<<"$line"; then
        echo "bench_pairs: $side $workload pair $pair printed no result" >&2
        line='{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}'
    fi
    jq -c --arg side "$side" --argjson pair "$pair" --arg workload "$workload" \
        '{workload: $workload, pair: $pair, side: $side} + .' <<<"$line" >>"$runs"
}

for workload in $workloads; do
    for pair in $(seq 1 "$pairs"); do
        # Alternate which side runs first, so drift in the host's load
        # does not always favour the same side.
        if [ $((pair % 2)) -eq 1 ]; then
            run parent "$parent" "$parent_bin" "$workload" "$pair"
            run change "$repo" "$change_bin" "$workload" "$pair"
        else
            run change "$repo" "$change_bin" "$workload" "$pair"
            run parent "$parent" "$parent_bin" "$workload" "$pair"
        fi
    done
done

echo "raw runs: $runs" >&2
python3 - "$runs" BENCHMARK.json <<'EOF'
import json
import statistics
import sys

runs = [json.loads(line) for line in open(sys.argv[1])]
bench = json.load(open(sys.argv[2]))


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


print(f"{'workload':<11} {'metric':<20} {'parent q1/med/q3':>26} "
      f"{'change q1/med/q3':>26} {'change':>8} {'won':>6}  verdict")
for workload in [w["name"] for w in bench["workloads"]]:
    mine = [r for r in runs if r["workload"] == workload]
    for side in ("parent", "change"):
        rs = [r for r in mine if r["side"] == side]
        failed = sum(r["failed"] for r in rs)
        attempted = sum(r["attempted"] for r in rs)
        print(f"{workload:<11} {side} failed/attempted: {failed}/{attempted}")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        higher = metric["better"] == "higher"
        by_pair = {}
        for r in mine:
            value = r["metrics"].get(name, {}).get("value")
            if value is not None:
                by_pair.setdefault(r["pair"], {})[r["side"]] = value
        both = [p for p in by_pair.values() if len(p) == 2]
        if not both:
            print(f"{workload:<11} {name:<20} no complete pairs")
            continue
        parent = [p["parent"] for p in both]
        change = [p["change"] for p in both]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)

        def better(a, b):
            return a > b if higher else a < b

        won = sum(better(p["change"], p["parent"]) for p in both)
        lost = sum(better(p["parent"], p["change"]) for p in both)
        rel = (cm - pm) / pm if pm else 0.0
        worse_by = -rel if higher else rel
        spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
        dominant = all(better(c, p) for c in change for p in parent)
        if won >= 0.9 * len(both) and better(cm, pm) and abs(cm - pm) > p3 - p1:
            verdict = "gain"
        elif worse_by > bound:
            verdict = "regression"
        elif spread > bound and not dominant:
            verdict = "unresolved"
        else:
            verdict = "within bound"
        print(f"{workload:<11} {name:<20} {p1:>8.4g}/{pm:>8.4g}/{p3:>8.4g} "
              f"{c1:>8.4g}/{cm:>8.4g}/{c3:>8.4g} {rel:>+8.1%} "
              f"{won:>2}/{len(both):<3}  {verdict}  (lost {lost})")
EOF
