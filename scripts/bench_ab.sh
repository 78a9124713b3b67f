#!/usr/bin/env bash
# Measure HEAD against a base revision the way every perf PR has: each
# side built from its own `git worktree` into its own CARGO_TARGET_DIR,
# runs alternated on shared seeds (odd pairs run the base first, even
# pairs HEAD first), then `benchmark/run.sh compare` over both sets.
#
#   scripts/bench_ab.sh <base-rev> [--workload W] [--pairs N]
#                       [--claim METRIC@WORKLOAD]
#
#   <base-rev>     side A: any commit-ish. Side B is HEAD — commit what
#                  you want measured; the working tree is not read.
#   --workload W   only this workload, untraced, 20 s a run (ingest_fresh,
#                  dag_refresh, query_mix, txn_contention; needs python3 to
#                  put each run into the suite's result format). Without
#                  it every run is the whole suite, untraced then traced,
#                  about four minutes.
#   --pairs N      runs a side, seeds 21 … 20 + N (default 5; `compare`
#                  calls a row only with four or more a side).
#   --claim M@W    the one row a perf PR rests on — an end-to-end metric of
#                  BENCHMARK.json on one workload (the one --workload names,
#                  if given). After `compare`, print it pair by pair: seed,
#                  base, HEAD, HEAD / base, and how many pairs HEAD won —
#                  the within-pair reading a claim needs (nine tenths of
#                  ten or more pairs), which two medians do not give.
#                  Needs python3.
#
# Worktrees, target directories and result files live under
# target/bench-ab/ of this checkout; the worktrees are removed on exit, the
# target directories are kept so that the next run builds incrementally.
# Exits with `compare`'s status: non-zero when a row is `worse`; the
# `--claim` table is printed either way and decides nothing.
set -euo pipefail

usage() {
    sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p}' "$0"
}

die() {
    echo "bench_ab.sh: $1" >&2
    echo "try: scripts/bench_ab.sh --help" >&2
    exit 2
}

base=""
workload=""
claim=""
pairs=5
while [ $# -gt 0 ]; do
    case "$1" in
        -h | --help)
            usage
            exit 0
            ;;
        --workload)
            [ $# -ge 2 ] || die "--workload takes a name"
            workload="$2"
            shift 2
            ;;
        --pairs)
            [ $# -ge 2 ] || die "--pairs takes a number"
            pairs="$2"
            shift 2
            ;;
        --claim)
            [ $# -ge 2 ] || die "--claim takes METRIC@WORKLOAD"
            claim="$2"
            shift 2
            ;;
        -*)
            die "unknown option $1"
            ;;
        *)
            [ -z "$base" ] || die "more than one base revision: $base, $1"
            base="$1"
            shift
            ;;
    esac
done
[ -n "$base" ] || die "no base revision given"
case "$pairs" in
    '' | *[!0-9]* | 0*) die "--pairs takes a positive number, not '$pairs'" ;;
esac
case "$workload" in
    '' | ingest_fresh | dag_refresh | query_mix | txn_contention) ;;
    *) die "unknown workload '$workload'" ;;
esac

root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
cd "$root"
if [ -n "$claim" ]; then
    claim_metric="${claim%%@*}"
    claim_workload="${claim#*@}"
    case "$claim" in
        ?*@?*) ;;
        *) die "--claim takes METRIC@WORKLOAD, not '$claim'" ;;
    esac
    case "$claim_workload" in
        ingest_fresh | dag_refresh | query_mix | txn_contention) ;;
        *) die "--claim names an unknown workload '$claim_workload'" ;;
    esac
    [ -z "$workload" ] || [ "$workload" = "$claim_workload" ] ||
        die "--claim is on $claim_workload but only $workload is run"
    sed -n '/"end_to_end"/,/\]/p' BENCHMARK.json | grep -q "\"name\": \"$claim_metric\"" ||
        die "--claim names '$claim_metric', not an end-to-end metric of BENCHMARK.json"
    command -v python3 >/dev/null || die "--claim needs python3"
fi
a_rev="$(git rev-parse --verify --quiet "$base^{commit}")" || die "'$base' is not a commit"
b_rev="$(git rev-parse --verify HEAD)"
if [ -n "$workload" ]; then
    command -v python3 >/dev/null || die "--workload needs python3"
fi

work="$root/target/bench-ab"
mkdir -p "$work/results"
cleanup() {
    cd "$root"
    for side in a b; do
        git worktree remove --force "$work/$side" 2>/dev/null || true
    done
    git worktree prune
}
trap cleanup EXIT
cleanup
git worktree add --quiet --detach "$work/a" "$a_rev"
git worktree add --quiet --detach "$work/b" "$b_rev"
echo "A = $base ($(git rev-parse --short "$a_rev")), B = HEAD ($(git rev-parse --short "$b_rev")), $pairs pair(s), ${workload:-whole suite}"

# One run of one side on one seed; leaves a suite-format result file.
run() {
    local side="$1" seed="$2"
    local out="$work/results/$side-$seed.json" target="$work/target-$side"
    (
        cd "$work/$side"
        export CARGO_TARGET_DIR="$target"
        if [ -z "$workload" ]; then
            bash benchmark/run.sh --seed "$seed" --out "$out" >/dev/null
        else
            bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 20 --trace 0 >/dev/null
            python3 - "$target/benchmark-scratch/detail-$workload-trace0.json" "$workload" "$out" <<'PY'
import json, sys
detail, workload, out = sys.argv[1:]
doc = json.load(open(detail))
suite = {"host": doc["host"], "workloads": {workload: {"end_to_end": doc["result"]["metrics"]}}}
json.dump(suite, open(out, "w"))
PY
        fi
    )
    echo "  $side seed $seed done"
}

a_files=""
b_files=""
for i in $(seq 1 "$pairs"); do
    seed=$((20 + i))
    if [ $((i % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
    for side in $order; do
        run "$side" "$seed"
    done
    a_files="${a_files:+$a_files,}$work/results/a-$seed.json"
    b_files="${b_files:+$b_files,}$work/results/b-$seed.json"
done

cd "$work/b"
status=0
CARGO_TARGET_DIR="$work/target-b" bash benchmark/run.sh compare "$a_files" "$b_files" || status=$?

if [ -n "$claim" ]; then
    python3 - "$root/BENCHMARK.json" "$claim_metric" "$claim_workload" "$a_files" "$b_files" <<'PY'
import json, statistics, sys
spec, metric, workload, a_files, b_files = sys.argv[1:]
better = next(m["better"] for m in json.load(open(spec))["end_to_end"] if m["name"] == metric)
def read(path):
    return json.load(open(path))["workloads"][workload]["end_to_end"][metric]["value"]
print(f"\nclaim: {metric} on {workload} ({better} is better), pair by pair")
print(f"  {'seed':>4}  {'base':>12}  {'HEAD':>12}  {'HEAD/base':>9}")
wins = ties = 0
ratios = []
for a_path, b_path in zip(a_files.split(","), b_files.split(",")):
    seed = a_path.rsplit("-", 1)[1].removesuffix(".json")
    a, b = read(a_path), read(b_path)
    won = b < a if better == "lower" else b > a
    wins += won
    ties += a == b
    ratios.append(b / a if a else float("nan"))
    print(f"  {seed:>4}  {a:12.4f}  {b:12.4f}  {ratios[-1]:9.3f}  {'win' if won else 'tie' if a == b else 'loss'}")
print(f"  HEAD wins {wins} of {len(ratios)} pairs ({ties} tied); median HEAD/base {statistics.median(ratios):.3f}")
PY
fi
exit "$status"
