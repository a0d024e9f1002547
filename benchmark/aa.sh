#!/usr/bin/env bash
# A/A procedure: two interleaved sets of runs of the same build, one run per
# seed and workload in each set, both sets on the same seeds. For every
# end-to-end metric × workload (and the two ungated reroute percentiles) it
# prints both set medians, their relative difference, each set's spread
# (interquartile range ÷ median, quartiles as Python's statistics.quantiles
# gives them — what the driver computes, seeds and host together) and the
# same-seed difference |A − B| ÷ mean, median and largest over the seeds (the
# host alone: the two runs of a pair have identical input). A bound in
# BENCHMARK.json must stay above the first three.
#
#   benchmark/aa.sh [RUNS_PER_SET=10] [SECONDS=run_seconds of BENCHMARK.json]
#
# Every run's output is kept under benchmark/target/swift-benchmark-out/aa/.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
runs="${1:-10}"
seconds="${2:-$(python3 -c "import json;print(json.load(open('$here/../BENCHMARK.json'))['run_seconds'])")}"
out="$here/target/swift-benchmark-out/aa"
mkdir -p "$out"
rm -f "$out"/*.txt

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/swift-benchmark"
workloads="corpus_inline bigtable_inline corpus_sharded pathchange_inline"

for seed in $(seq 1 "$runs"); do
  for set in A B; do
    for workload in $workloads; do
      "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        >"$out/$set.$workload.$seed.txt"
    done
  done
  echo "seed $seed done" >&2
done

python3 - "$out" "$here/../BENCHMARK.json" "$runs" $workloads <<'PY'
import json, statistics, sys
out, spec, workloads = sys.argv[1], json.load(open(sys.argv[2])), sys.argv[4:]
seeds = range(1, int(sys.argv[3]) + 1)
def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
def run(path):
    ungated, result = (json.loads(line) for line in open(path).read().splitlines()[-2:])
    assert result["correct"] and result["failed"] == 0, path
    both = {**ungated["ungated"], **result["metrics"]}
    return {name: m["value"] for name, m in both.items()}
metrics = [(m["name"], m["better"], f"{m['bound']:.0%}") for m in spec["end_to_end"]]
metrics += [(name, "lower", "not gated") for name in ("reroute_ms_p50", "reroute_ms_p90")]
print("| workload | metric | median A | median B | A→B worse by | spread A | spread B "
      "| same seed p50 | same seed max | bound |")
print("|---|---|---|---|---|---|---|---|---|---|")
for workload in workloads:
    runs = {s: [run(f"{out}/{s}.{workload}.{seed}.txt") for seed in seeds] for s in "AB"}
    for name, better, bound in metrics:
        a, b = ([r[name] for r in runs[s]] for s in "AB")
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
        pairs = [abs(x - y) / ((x + y) / 2) for x, y in zip(a, b)]
        print(f"| {workload} | {name} | {ma:.5g} | {mb:.5g} | {worse:+.2%} | "
              f"{spread(a):.2%} | {spread(b):.2%} | {statistics.median(pairs):.2%} | "
              f"{max(pairs):.2%} | {bound} |")
PY
