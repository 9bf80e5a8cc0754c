#!/usr/bin/env bash
# Interleaved A/B of the repo's benchmark: a parent revision against the
# working tree, by the rule of choosing-metrics § 8.
#
#   tools/ab.sh <parent-rev> <pairs> <first-seed> [workload...]
#
# `git archive`s <parent-rev> into a scratch directory, builds both sides'
# `benchmark/` once (each into its own target directory), then runs the
# command BENCHMARK.json declares <pairs> times per workload on each side —
# pair k with seed <first-seed>+k, the two sides back to back, alternating
# which goes first, each from its own checkout root. Prints, per workload
# and metric: q1 / median / q3 per side, the change of the median, the
# pairs the working tree won (ties count for neither), and the parent's
# inter-quartile distance. A gain is claimable (`better*`) when, over at
# least ten pairs, the working tree wins nine tenths of them and the
# medians are further apart than that distance; `WORSE` marks a median
# worse than the parent's by more than the metric's bound.
#
# Workloads default to all BENCHMARK.json lists. AB_TRACE=1 runs traced
# pairs (`--trace 1`) and prints every per-layer metric too; AB_DIR moves
# the scratch directory (default target/ab, git-ignored). Nothing under
# benchmark/ or BENCHMARK.json is edited; the box's pace drifts by the
# hour, so only the interleaved pairs compare.
set -euo pipefail

if [ $# -lt 3 ]; then
    sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
fi
parent_rev=$1
pairs=$2
first_seed=$3
shift 3

repo=$(git rev-parse --show-toplevel)
dir=${AB_DIR:-$repo/target/ab}
trace=${AB_TRACE:-0}
spec=$repo/BENCHMARK.json

mapfile -t command < <(python3 -c 'import json, sys
print("\n".join(json.load(open(sys.argv[1]))["command"]))' "$spec")
seconds=$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(python3 -c 'import json, sys
print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")
fi

rm -rf "$dir/parent" "$dir/out"
mkdir -p "$dir/parent" "$dir/out"
git -C "$repo" archive "$parent_rev" | tar -x -C "$dir/parent"

root_of() { if [ "$1" = parent ]; then echo "$dir/parent"; else echo "$repo"; fi; }

for side in parent change; do
    echo "building $side ($(root_of "$side"))" >&2
    (cd "$(root_of "$side")" && CARGO_TARGET_DIR="$dir/target-$side" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

# one run of the declared command; its table goes to a log, its result file
# (every metric it recorded) to $dir/out/<workload>/<side>-<pair>/
run() {
    local side=$1 workload=$2 pair=$3
    local out=$dir/out/$workload/$side-$pair
    mkdir -p "$out"
    (cd "$(root_of "$side")" && CARGO_TARGET_DIR="$dir/target-$side" "${command[@]}" \
        --workload "$workload" --seed $((first_seed + pair)) --seconds "$seconds" \
        --trace "$trace" --out "$out") >"$out/log.txt" 2>&1 || {
        echo "$side run failed: $out/log.txt" >&2
        tail -n 5 "$out/log.txt" >&2
        exit 1
    }
}

for workload in "${workloads[@]}"; do
    for ((pair = 0; pair < pairs; pair++)); do
        if ((pair % 2 == 0)); then order=(parent change); else order=(change parent); fi
        echo "$workload pair $pair (seed $((first_seed + pair))): ${order[*]}" >&2
        for side in "${order[@]}"; do
            run "$side" "$workload" "$pair"
        done
    done
done

python3 - "$spec" "$dir/out" "$pairs" "$first_seed" "$trace" "${workloads[@]}" <<'PY'
import glob, json, statistics, sys

spec_path, out, pairs, first_seed, trace = sys.argv[1:6]
pairs, first_seed, workloads = int(pairs), int(first_seed), sys.argv[6:]
spec = json.load(open(spec_path))
gated = {m["name"]: m for m in spec["end_to_end"]}
layers = {m["name"]: m for m in spec["per_layer"]} if trace != "0" else {}


def result(workload, side, pair):
    (path,) = glob.glob(f"{out}/{workload}/{side}-{pair}/result-*.json")
    return json.load(open(path))


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def fmt(x):
    return f"{x:.4g}" if abs(x) < 1e4 else f"{x:.0f}"


for workload in workloads:
    runs = {s: [result(workload, s, p) for p in range(pairs)] for s in ("parent", "change")}
    print(f"\n== {workload}: {pairs} pairs, seeds {first_seed}..{first_seed + pairs - 1}")
    for side, rs in runs.items():
        attempted, failed = sum(r["attempted"] for r in rs), sum(r["failed"] for r in rs)
        print(f"   {side}: attempted {attempted}, failed {failed} ({failed / max(attempted, 1):.4%})")
    print(f"   {'metric':<28} {'parent q1 / median / q3':<32} {'change q1 / median / q3':<32} "
          f"{'median':>8} {'wins':>6} {'parent IQR':>11}")
    for name, meta in {**gated, **layers}.items():
        values = {s: [r["metrics"][name]["value"] for r in rs if name in r["metrics"]]
                  for s, rs in runs.items()}
        if len(values["parent"]) != pairs or len(values["change"]) != pairs:
            continue  # not recorded on this workload
        lower = meta["better"] == "lower"
        p, c = quartiles(values["parent"]), quartiles(values["change"])
        wins = sum((b < a) if lower else (b > a) for a, b in zip(values["parent"], values["change"]))
        ties = sum(a == b for a, b in zip(values["parent"], values["change"]))
        iqr = p[2] - p[0]
        delta = (c[1] - p[1]) / p[1] if p[1] else 0.0
        better = (c[1] < p[1]) if lower else (c[1] > p[1])
        verdict = ""
        if pairs >= 10 and better and wins >= 0.9 * pairs and abs(c[1] - p[1]) > iqr:
            verdict = "better*"
        elif "bound" in meta and not better and abs(delta) > meta["bound"]:
            verdict = "WORSE"
        print(f"   {name:<28} {' / '.join(map(fmt, p)):<32} {' / '.join(map(fmt, c)):<32} "
              f"{delta:>+8.1%} {wins:>3}/{pairs - ties:<2} {fmt(iqr):>11} {verdict}")
    print("   every run, in seed order:")
    for name in gated:
        for side, rs in runs.items():
            print(f"   {name:<12} {side:<6} " + " ".join(fmt(r["metrics"][name]["value"]) for r in rs))
PY
