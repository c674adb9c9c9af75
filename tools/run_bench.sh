#!/usr/bin/env bash
# Builds the release preset and writes the bench snapshot for this PR:
# the serving-layer benchmark (bench/bench_serving.cc) runs the multi-app
# AppManager over an apps × worker-threads grid and reports per-cell event
# throughput + per-app sliding-window p95 assignment latency (SloTracker)
# to BENCH_PR10.json at the repo root (schema v5, documented in README.md).
#
# --hotpath instead reruns the PR 7 hot-path scaling benchmark
# (bench/bench_hotpath_scaling.cc, schema v4: thread scaling, EM refresh,
# fault tolerance, kernels section) — kept runnable so older baselines can
# be regenerated for apples-to-apples diffs.
#
# Usage: tools/run_bench.sh [--out FILE] [--hotpath]

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${REPO_ROOT}"

OUT=""
BENCH=serving
while [[ $# -gt 0 ]]; do
  case "$1" in
    --out)
      OUT="$2"
      shift 2
      ;;
    --hotpath)
      BENCH=hotpath
      shift
      ;;
    *)
      echo "usage: tools/run_bench.sh [--out FILE] [--hotpath]" >&2
      exit 2
      ;;
  esac
done

JOBS="${JOBS:-$(nproc)}"
COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
DATE="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

cmake --preset release >/dev/null

if [[ "${BENCH}" == hotpath ]]; then
  OUT="${OUT:-${REPO_ROOT}/BENCH_PR7.json}"
  cmake --build --preset release -j "${JOBS}" --target bench_hotpath_scaling
  ./build-release/bench/bench_hotpath_scaling \
    --commit "${COMMIT}" --date "${DATE}" --out "${OUT}"
else
  OUT="${OUT:-${REPO_ROOT}/BENCH_PR10.json}"
  cmake --build --preset release -j "${JOBS}" --target bench_serving
  ./build-release/bench/bench_serving \
    --commit "${COMMIT}" --date "${DATE}" --out "${OUT}"

  python3 - "${OUT}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
rows = report["serving"]
det = report["determinism"]["identical_decisions_across_thread_counts"]
print(f"BENCH: host threads={report['machine']['hardware_threads']}, "
      f"decisions identical across thread counts: {det}")
for r in rows:
    print(f"  serving apps={r['apps']} worker-threads={r['worker_threads']}: "
          f"{r['events_per_second']:.0f} events/s, "
          f"p95 assignment {r['p95_assignment_seconds']*1e3:.3f} ms "
          f"(SLO {'met' if r['slo_met'] else 'MISSED'})")
unmet = [r for r in rows if not r["slo_met"]]
if unmet:
    print(f"BENCH: {len(unmet)} grid cell(s) missed the p95 SLO target")
EOF
  echo "wrote ${OUT}"
  exit 0
fi

python3 - "${OUT}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
rows = report["thread_scaling"]
best = max(r["speedup_vs_1_thread"] for r in rows if r["n"] == 10000)
refresh = max(r["speedup_vs_interval_1"] for r in report["em_refresh"])
det = report["determinism"]["identical_decisions_across_thread_counts"]
print(f"BENCH: host threads={report['machine']['hardware_threads']}, "
      f"best thread speedup @ n=10k: {best:.2f}x, "
      f"incremental-refresh speedup: {refresh:.2f}x, "
      f"decisions identical across thread counts: {det}")
for stage in report["stage_breakdown"]:
    print(f"  stage breakdown [{stage['metric']}] n={stage['n']}: "
          f"em_refit={stage['em_refit_ms']:.1f}ms "
          f"qw_estimate={stage['qw_estimate_ms']:.1f}ms "
          f"topk_scan={stage['topk_scan_ms']:.1f}ms "
          f"dinkelbach_iters={stage['dinkelbach_iters']}")
for ft in report.get("fault_tolerance", []):
    print(f"  fault tolerance n={ft['n']}: "
          f"{ft['completions_per_second']:.1f} completions/s at "
          f"{ft['abandon_rate']:.0%} abandonment "
          f"({ft['throughput_vs_fault_free']:.2f}x of fault-free, "
          f"{ft['leases_expired']} leases expired, "
          f"{ft['questions_requeued']} questions requeued)")
kernels = report.get("kernels")
if kernels:
    print(f"  kernels: isa={kernels['isa']} "
          f"cache_hit_rate={kernels['cache_hit_rate']:.2f} "
          f"overlay_rows={kernels['overlay_rows']} "
          f"closed_form_rows={kernels['closed_form_rows']}")
EOF

echo "wrote ${OUT}"
