#!/usr/bin/env bash
# End-to-end benchmark of OctopusFS (see bench/e2e/README.md).
#
# Builds bench/e2e in Release under .bench_build/e2e, runs the traced-client
# selftest once per build, then runs workloads. Everything it writes stays
# inside the checkout: the build, the clusters' files (.bench_build/e2e-work,
# removed after each run) and the results (--out, default bench/e2e/out).
#
# One run, the form BENCHMARK.json names:
#   bash bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
# Progress goes to stderr; the last line of stdout is the run's JSON.
#
# A report:
#   bash bench/e2e/run.sh [--workloads a,b,...] [--seed N] [--reps N]
#                         [--seconds S] [--quick] [--out DIR]
# runs every workload untraced --reps times (seeds N, N+1, ...), then once
# traced, and prints one "workload metric value unit" line per metric; with
# --reps > 1 the value is the median and the IQR follows. --quick uses 2 s
# windows for smoke runs.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build_dir=".bench_build/e2e"
work_dir=".bench_build/e2e-work"

workload=""
workloads="dfsio_write,dfsio_read,slive_mix,mixed_tiered"
seed=1
seconds=15
trace=0
reps=1
out="bench/e2e/out"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --workloads) workloads="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --reps) reps="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --quick) seconds=2; shift ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
done

# Compiler temporaries stay in the checkout too.
export TMPDIR="$root/.bench_build/tmp"
mkdir -p "$TMPDIR" "$work_dir" "$out"

{
  cmake -S bench/e2e -B "$build_dir" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j "$(nproc)"
  stamp="$build_dir/selftest.passed"
  if [[ ! -f "$stamp" || "$build_dir/traced_client_test" -nt "$stamp" ]]; then
    (cd "$build_dir" && ctest --output-on-failure)
    touch "$stamp"
  fi
} >&2

git_sha="unknown"
if [[ -e "$root/.git" ]]; then
  git_sha="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

run_one() {  # workload seed seconds trace
  "$build_dir/bench_e2e" --workload "$1" --seed "$2" --seconds "$3" \
    --trace "$4" --out "$out" --work "$work_dir" --git-sha "$git_sha"
}

if [[ -n "$workload" ]]; then
  run_one "$workload" "$seed" "$seconds" "$trace"
  exit 0
fi

results=()
for w in ${workloads//,/ }; do
  for ((r = 0; r < reps; r++)); do
    echo "== $w seed $((seed + r)) untraced, ${seconds}s window" >&2
    run_one "$w" "$((seed + r))" "$seconds" 0 > /dev/null
    results+=("$out/$w-seed$((seed + r))-trace0.json")
  done
  echo "== $w seed $seed traced, ${seconds}s window (half untraced)" >&2
  run_one "$w" "$seed" "$seconds" 1 > /dev/null
  results+=("$out/$w-seed$seed-trace1.json")
done
python3 bench/e2e/summarize.py "${results[@]}"
