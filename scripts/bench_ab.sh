#!/usr/bin/env bash
# Measure HEAD against a base revision the way every perf PR has: each
# side built from its own `git worktree` into its own CARGO_TARGET_DIR,
# runs alternated on shared seeds (odd pairs run the base first, even
# pairs HEAD first), then `benchmark/run.sh compare` over both sets.
#
#   scripts/bench_ab.sh <base-rev> [--workload W] [--pairs N]
#                       [--claim METRIC@WORKLOAD] [--failures FILE]
#
#   <base-rev>     side A: any commit-ish. Side B is HEAD — commit what
#                  you want measured; the working tree is not read.
#   --workload W   only this workload, untraced, 20 s a run (ingest_fresh,
#                  dag_refresh, query_mix, txn_contention; each run is put
#                  into the suite's result format). Without
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
#   --failures F   also write the failure summary below to F as JSON
#                  (its directory must exist).
#
# After `compare` (and the claim), the script prints failed / attempted
# client operations per side per workload, summed over the runs: a side
# that is faster because more of its operations fail has not won.
#
# Worktrees, target directories and result files live under
# target/bench-ab/ of this checkout; the worktrees are removed on exit, the
# target directories are kept so that the next run builds incrementally.
# Exits non-zero when `compare` does (a row is `worse`) or when HEAD's
# share of failed operations exceeds the base's on any workload; the
# `--claim` table is printed either way and decides nothing. Needs
# python3.
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
failures=""
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
        --failures)
            [ $# -ge 2 ] || die "--failures takes a file name"
            failures="$2"
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

if [ -n "$failures" ]; then
    [ -d "$(dirname "$failures")" ] || die "--failures: no directory $(dirname "$failures")"
    [ ! -d "$failures" ] || die "--failures: $failures is a directory"
    failures="$(cd "$(dirname "$failures")" && pwd)/$(basename "$failures")"
fi
command -v python3 >/dev/null || die "needs python3 (the failure summary)"

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
fi
a_rev="$(git rev-parse --verify --quiet "$base^{commit}")" || die "'$base' is not a commit"
b_rev="$(git rev-parse --verify HEAD)"

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
result = doc["result"]
run = {k: result[k] for k in ("correct", "attempted", "failed")}
suite = {"host": doc["host"], "workloads": {workload: {**run, "end_to_end": result["metrics"]}}}
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
python3 - "$a_files" "$b_files" "$failures" <<'PY' || status=$((status ? status : 1))
import json, sys
a_files, b_files, out = sys.argv[1:]
def totals(files):
    sums = {}
    for path in files.split(","):
        for workload, doc in json.load(open(path))["workloads"].items():
            s = sums.setdefault(workload, {"attempted": 0, "failed": 0})
            s["attempted"] += doc.get("attempted", 0)
            s["failed"] += doc.get("failed", 0)
    return sums
def share(s):
    return s["failed"] / s["attempted"] if s["attempted"] else 0.0
base, head = totals(a_files), totals(b_files)
print("\nfailed / attempted operations, summed over each side's runs")
print(f"  {'workload':<16} {'base':>20} {'HEAD':>20}")
summary, more = {}, []
for w in sorted(set(base) | set(head)):
    a = base.get(w, {"attempted": 0, "failed": 0})
    b = head.get(w, {"attempted": 0, "failed": 0})
    cell = lambda s: f"{s['failed']:.0f} / {s['attempted']:.0f}"
    flag = share(b) > share(a)
    print(f"  {w:<16} {cell(a):>20} {cell(b):>20}{'  HEAD fails more' if flag else ''}")
    summary[w] = {"base": a, "head": b, "head_fails_more": flag}
    if flag:
        more.append(w)
if out:
    json.dump(summary, open(out, "w"), indent=1)
if more:
    print(f"bench_ab.sh: HEAD's share of failed operations exceeds the base's on {', '.join(more)}")
    sys.exit(1)
PY
exit "$status"
