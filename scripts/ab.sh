#!/usr/bin/env bash
# A/B procedure for a claimed gain: alternating pairs of two revisions of the
# repo benchmark, as benchmark/README.md prescribes ("a claim of a gain … is
# decided by alternating pairs of parent and change") and the choosing-metrics
# rule words it: claim a gain only when the change wins at least nine tenths
# of the pairs, ties counting for neither, and the medians differ by more
# than the distance between the quartiles of the parent's own runs.
#
#   scripts/ab.sh <rev-a> <rev-b> [PAIRS=10] [WORKLOAD…]
#
# <rev-a> is the parent, <rev-b> the change (anything `git rev-parse` takes).
# Each revision is checked out into a temporary directory (`git archive`:
# nothing is registered in .git, so a killed run leaves nothing to prune),
# its benchmark/ crate is built there with --offline, and the two binaries
# are copied out as bench-a / bench-b. A pair is one run of each binary on
# the same workload and seed, back to back, `--trace 0`; odd pairs run A
# first, even pairs B first. The checkouts stay until the script exits — a
# binary reads its pinned digests from the checkout it was built in.
#
# Environment: SEED (default 1; repeat with 2 and 3, seeds not used while the
# change was written). The run length is BENCHMARK.json's run_seconds; the
# default workloads are every workload it lists.
#
# Printed per workload and gated metric: both medians with their quartiles,
# how B's median compares, B's wins and the parent's interquartile range —
# over all pairs — then two verdicts. The first applies the rule to all
# pairs, as choosing-metrics words it. A pair is *disturbed* when either of
# its runs reports `host.round_spread` above 0.05 (rounds are identical work,
# so the box was busy for most of that run: benchmark/README.md, "Trusting a
# run"); the second verdict applies the rule to the quiet pairs alone and
# says how many there were. On a box where every pair is disturbed it
# decides nothing, and the verdict on all pairs is the one that reads.
# Every run's output is kept under
# benchmark/target/swift-benchmark-out/ab/seed<SEED>-<workloads joined by +>/,
# one directory per seed and workload list: an invocation clears only its
# own directory, so runs of another seed or workload set stay.
set -euo pipefail

if [ "$#" -lt 2 ]; then
  sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p}' "$0" >&2
  exit 2
fi

root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
rev_a="$1"
rev_b="$2"
pairs="${3:-10}"
shift $(( $# < 3 ? $# : 3 ))
spec="$root/BENCHMARK.json"
workloads="${*:-$(python3 -c "import json;print(' '.join(w['name'] for w in json.load(open('$spec'))['workloads']))")}"
seed="${SEED:-1}"
seconds="$(python3 -c "import json;print(json.load(open('$spec'))['run_seconds'])")"
out="$root/benchmark/target/swift-benchmark-out/ab/seed$seed-${workloads// /+}"
mkdir -p "$out"
rm -f "$out"/*.txt

work="$(mktemp -d "${TMPDIR:-/tmp}/swift-ab.XXXXXX")"
trap 'rm -rf "$work"' EXIT

for side in a b; do
  rev="$rev_a"
  [ "$side" = b ] && rev="$rev_b"
  sha="$(git -C "$root" rev-parse --verify "$rev^{commit}")"
  mkdir "$work/$side"
  git -C "$root" archive "$sha" | tar -x -C "$work/$side"
  CARGO_TARGET_DIR="$work/$side/target" cargo build --release --offline --quiet \
    --manifest-path "$work/$side/benchmark/Cargo.toml"
  cp "$work/$side/target/release/swift-benchmark" "$work/bench-$side"
  echo "$side = $rev ($(git -C "$root" log -1 --format='%h %s' "$sha" | cut -c1-72))" >&2
done

for pair in $(seq 1 "$pairs"); do
  order="a b"
  [ $((pair % 2)) -eq 0 ] && order="b a"
  for workload in $workloads; do
    for side in $order; do
      "$work/bench-$side" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        >"$out/$side.$workload.$pair.txt" ||
        { echo "$side failed on $workload, pair $pair: see $out/$side.$workload.$pair.txt" >&2; exit 1; }
    done
  done
  echo "pair $pair of $pairs done ($order)" >&2
done

python3 - "$out" "$spec" "$pairs" "$seed" $workloads <<'PY'
import json, statistics, sys
out, spec, pairs, seed = sys.argv[1], json.load(open(sys.argv[2])), int(sys.argv[3]), sys.argv[4]
SPREAD_LIMIT = 0.05
def run(path):
    ungated, result = (json.loads(line) for line in open(path).read().splitlines()[-2:])
    assert result["correct"] and result["failed"] == 0, path
    return {name: m["value"] for name, m in {**ungated["ungated"], **result["metrics"]}.items()}
def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
print(f"seed {seed}, {pairs} pairs, A = parent, B = change. Medians, quartiles and wins are over all "
      f"pairs; so is the first verdict, the second is over the quiet ones (host.round_spread <= "
      f"{SPREAD_LIMIT} on both sides)\n")
print("| workload | metric | A median [q1, q3] | B median [q1, q3] | B better by | B wins | A's IQR "
      "| verdict on all pairs | quiet pairs | verdict on them |")
print("|---|---|---|---|---|---|---|---|---|---|")
def compare(name, lower, runs):
    a, b = [x[name] for x, _ in runs], [y[name] for _, y in runs]
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    losses = sum((y > x) if lower else (y < x) for x, y in zip(a, b))
    gain = (am - bm) / am if lower else (bm - am) / am
    return (a1, am, a3), (b1, bm, b3), wins, losses, gain
def verdict(m, runs):
    if len(runs) < 2:
        return "none: too few pairs"
    (q1, qa, q3), (_, qb, _), wins, losses, gain = compare(m["name"], m["better"] == "lower", runs)
    apart = abs(qb - qa) > q3 - q1
    if wins >= 0.9 * len(runs) and apart and gain > 0:
        return f"gain ({gain:+.1%}, {wins}/{len(runs)})"
    if -gain > m["bound"]:
        return f"worse beyond the {m['bound']:.0%} bound ({gain:+.1%})"
    if losses >= 0.9 * len(runs) and apart:
        return f"worse, inside the bound ({gain:+.1%}, {losses}/{len(runs)} lost)"
    return "no verdict"
for workload in sys.argv[5:]:
    runs = [(run(f"{out}/a.{workload}.{i}.txt"), run(f"{out}/b.{workload}.{i}.txt"))
            for i in range(1, pairs + 1)]
    quiet = [(a, b) for a, b in runs
             if max(a["host.round_spread"], b["host.round_spread"]) <= SPREAD_LIMIT]
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        (a1, am, a3), (b1, bm, b3), wins, _, gain = compare(name, lower, runs)
        print(f"| {workload} | {name} | {am:.5g} [{a1:.5g}, {a3:.5g}] | {bm:.5g} [{b1:.5g}, {b3:.5g}] "
              f"| {gain:+.1%} | {wins}/{len(runs)} | {a3 - a1:.3g} | {verdict(m, runs)} "
              f"| {len(quiet)}/{len(runs)} | {verdict(m, quiet)} |")
PY
