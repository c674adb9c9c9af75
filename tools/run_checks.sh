#!/usr/bin/env bash
# Standing correctness gate for the QASCA tree (ISSUE 1, extended by
# ISSUE 4, ISSUE 5, ISSUE 6 and ISSUE 7; documented in README.md and
# DESIGN.md §10 "Static analysis" / §11 "Robustness" / §12 "Assignment
# kernels").
#
# Every stage prints a uniform "[stage N] PASS" / "[stage N] FAIL" line and
# the script exits non-zero at the first failure. Stages that need a tool
# the host lacks (clang-tidy, clang++) print "[stage N] SKIP" with the
# reason instead — they are hard requirements on CI hosts that have clang.
#
#   1. tools/analyze.py            — semantic multi-pass analyzer, grounded
#                                    on build*/compile_commands.json
#                                    (invariants, span-names, determinism,
#                                    clock-discipline, include-hygiene,
#                                    lock-annotations, lock-order,
#                                    shared-state-escape,
#                                    guarded-by-coverage, global-state,
#                                    noexcept-audit, status-discard,
#                                    api-layering, float-determinism,
#                                    hot-path-alloc); exit 1 on any
#                                    non-baselined error
#                                    (tools/analyze/baseline.json) or a
#                                    stale tools/analyze/lock_order.json
#   2. tools/analyze.py --self-test — the analyzer proves its own passes
#                                    fire (and suppressions hold) against
#                                    tools/analyze/testdata/, and that
#                                    finding IDs, the JSON schema and the
#                                    baseline mechanism stay stable
#   3. lock-order ranking freshness: the checked-in
#      tools/analyze/lock_order.json must byte-match what the analyzer
#      computes from the current tree (regenerate with
#      `python3 tools/analyze.py --write-lock-order`)
#   4. warning-clean Release build (-Wall -Wextra -Werror, DCHECKs off)
#   5. clang-tidy over the release compile database's TU set with the
#      project .clang-tidy profile
#   6. `analyze` preset build: clang++ -Wthread-safety -Werror=thread-safety
#      over the annotated tree (util::Mutex / QASCA_GUARDED_BY contracts)
#   7. asan-ubsan preset: full build + ctest, every QASCA_DCHECK invariant
#      enabled and sanitizer reports fatal
#   8. faults suite under the same asan-ubsan build: the tests labelled
#      "faults" (seeded lifecycle stress harness, lease/recovery units,
#      fail-point registry, golden-trace byte-identity) — the
#      fault-injection branches only exist with DCHECKs on, so this is
#      the build that exercises them
#   9. kernel suite under the same asan-ubsan build: the tests labelled
#      "kernels" pin every row kernel's fold schedule and rounding, and
#      the fused Qw batch against its composed pipeline (DESIGN.md §12)
#  10. tsan preset over the tests labelled "threads" (thread-pool,
#      thread-annotations, telemetry, lock-rank, engine-determinism and
#      lifecycle stress suites); --tsan widens this stage to the full
#      tsan suite
#  11. serving conformance suite (ISSUE 10, DESIGN.md §14): the tests
#      labelled "serving" — the multi-app AppManager concurrency
#      conformance suite (one schedule replayed at 1/2/4/8 threads with
#      bit-identical per-app decision hashes and fingerprints, batching
#      equivalence, cross-app isolation, mid-storm crash recovery) —
#      under BOTH sanitizer builds: TSan for the data races the turnstile
#      harness provokes, asan-ubsan for the DCHECK'd engine invariants;
#      then the "serving" and "faults" tests on the release build at
#      ctest -j$(nproc), three times over, so tests that would share
#      journal files between processes fail here
#  12. observability smoke (ISSUE 8): qasca_sim --trace-out /
#      --provenance-out on the release build, then
#      tools/check_observability.py: structural validation of the Chrome
#      trace JSON (sorted ts, balanced B/E per tid, nested stages) and the
#      provenance JSONL, and the journal-seq join (every provenance record
#      inside the exported trace has an assign_hit span carrying its
#      journal_seq as the trace arg); then the benchmark of record
#      (perfbench/run.py) on both gated workloads and pool_1e5 for 5 s
#      each plus traced serve_4app and pool_1e5 runs, each of which must
#      report "correct": true (decision hashes, fingerprints and scripted
#      counts); the traced pool_1e5 ladder is the only one in which two
#      rungs refresh rows incrementally (the core through the model routine,
#      the leaf through the table routine)
#  13. telemetry-overhead smoke: disabled-telemetry instrumentation on a
#      hot loop must cost < 2%, as the median over 101 back-to-back
#      bare/instrumented pairs; also drives the enabled+flight-recorder
#      path (informational cost, recorder must capture events)
#
# Usage:
#
#   tools/run_checks.sh [--quick] [--tsan]
#
# --quick limits stage 6's ctest run to tests labelled "invariants"
# (the probabilistic-invariant suite plus the integration runs that sweep
# the whole engine) instead of the full suite.

set -uo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${REPO_ROOT}"

JOBS="${JOBS:-$(nproc)}"
QUICK=0
RUN_TSAN=0
for arg in "$@"; do
  case "${arg}" in
    --quick) QUICK=1 ;;
    --tsan) RUN_TSAN=1 ;;
    *)
      echo "usage: tools/run_checks.sh [--quick] [--tsan]" >&2
      exit 2
      ;;
  esac
done

STAGE=0
stage_begin() {
  STAGE=$((STAGE + 1))
  printf '\n[stage %d] %s\n' "${STAGE}" "$*"
}
stage_pass() { printf '[stage %d] PASS\n' "${STAGE}"; }
stage_fail() {
  printf '[stage %d] FAIL\n' "${STAGE}"
  exit 1
}
stage_skip() { printf '[stage %d] SKIP (%s)\n' "${STAGE}" "$*"; }
# Runs the stage body; FAIL (and exit) on non-zero status.
run() { "$@" || stage_fail; }

stage_begin "static analyzer (tools/analyze.py, compile-DB-grounded)"
# The analyzer grounds its file universe on the newest
# build*/compile_commands.json (TUs + quoted-include closure). Configure the
# release preset first if no build tree has exported one yet, so the checked
# set is exactly the compiled set rather than a filesystem glob.
if ! compgen -G "build*/compile_commands.json" >/dev/null; then
  run cmake --preset release >/dev/null
fi
run python3 tools/analyze.py
stage_pass

stage_begin "static analyzer self-test (tools/analyze/testdata/)"
run python3 tools/analyze.py --self-test
stage_pass

stage_begin "lock-order ranking freshness (tools/analyze/lock_order.json)"
# Stronger than the lock-order pass's own staleness finding (which compares
# nodes and edges): the checked-in artifact must be byte-for-byte what
# --write-lock-order would regenerate, so a hand-edited ranking cannot
# drift from the graph the analyzer actually computed.
run python3 - <<'EOF'
import json
import sys
from pathlib import Path

sys.path.insert(0, "tools")
from analyze.driver import ground_tree
from analyze.passes.lock_order import LOCK_ORDER_JSON, compute_lock_order

tree, _orphans, _notes = ground_tree(Path.cwd(), None, use_cache=True)
computed = compute_lock_order(tree)
try:
    recorded = json.loads(Path(LOCK_ORDER_JSON).read_text(encoding="utf-8"))
except (OSError, ValueError):
    recorded = None
if computed != recorded:
    print("lock_order.json is stale — regenerate with `python3 "
          "tools/analyze.py --write-lock-order` and realign "
          "src/util/lock_ranks.h")
    sys.exit(1)
state = "CYCLIC" if computed["cyclic"] else "acyclic"
print(f"lock order fresh: {len(computed['nodes'])} locks, "
      f"{len(computed['edges'])} edges, {state}")
EOF
stage_pass

stage_begin "warning-clean Release build (-Werror)"
run cmake --preset release -DQASCA_WERROR=ON >/dev/null
run cmake --build --preset release -j "${JOBS}"
stage_pass

stage_begin "clang-tidy (compile-DB TU set, profile: .clang-tidy)"
if command -v clang-tidy >/dev/null 2>&1; then
  # The release compile database supplies both the flags and the file list:
  # tidy checks exactly the TUs the real build compiles (src/ only — tests
  # and benches carry their own mocks), not whatever a filesystem glob
  # happens to find.
  run cmake --preset release >/dev/null
  tidy_tus() {
    python3 - <<'EOF'
import json, os
for entry in json.load(open("build-release/compile_commands.json")):
    path = os.path.relpath(os.path.join(entry["directory"], entry["file"]))
    if path.startswith("src/"):
        print(path, end="\0")
EOF
  }
  tidy_tus |
    xargs -0 -P "${JOBS}" -n 8 clang-tidy -p build-release --quiet ||
    stage_fail
  stage_pass
else
  stage_skip "clang-tidy not installed on this host"
fi

stage_begin "thread-safety analysis (analyze preset: clang++ -Wthread-safety -Werror=thread-safety)"
if command -v clang++ >/dev/null 2>&1; then
  run cmake --preset analyze >/dev/null
  run cmake --build --preset analyze -j "${JOBS}"
  stage_pass
else
  stage_skip "clang++ not installed on this host; annotations compile as no-ops under gcc"
fi

stage_begin "asan-ubsan preset (DCHECK invariants on, reports fatal)"
run cmake --preset asan-ubsan >/dev/null
run cmake --build --preset asan-ubsan -j "${JOBS}"
if [[ "${QUICK}" -eq 1 ]]; then
  run ctest --preset asan-ubsan-invariants -j "${JOBS}"
else
  run ctest --preset asan-ubsan -j "${JOBS}"
fi
stage_pass

stage_begin "faults suite under asan-ubsan (lifecycle stress, lease/recovery, fail points)"
# Reuses the stage-6 sanitizer build; the `faults` label selects the
# fault-injection slice (ISSUE 5): the seeded lifecycle stress harness,
# the lease/recovery unit tests, the fail-point registry tests and the
# golden-trace byte-identity check. Always runs — --quick narrows stage 6,
# not this gate: crash-recovery bugs are exactly what a quick run skips.
run ctest --preset asan-ubsan-faults -j "${JOBS}"
stage_pass

stage_begin "kernel suite under asan-ubsan"
# Reuses the stage-6 sanitizer build. The `kernels` label selects the
# bit-identity suite (DESIGN.md §12): the per-kernel schedule and
# rounding tests, the fused-vs-composed Qw batch, and the overlay/cache
# units.
run ctest --preset asan-ubsan-kernels -j "${JOBS}"
stage_pass

if [[ "${RUN_TSAN}" -eq 1 ]]; then
  stage_begin "tsan preset (full suite)"
else
  stage_begin "tsan preset (threads-labelled tests; --tsan runs the full suite)"
fi
run cmake --preset tsan >/dev/null
run cmake --build --preset tsan -j "${JOBS}"
if [[ "${RUN_TSAN}" -eq 1 ]]; then
  run ctest --preset tsan -j "${JOBS}"
else
  run ctest --preset tsan-threads -j "${JOBS}"
fi
stage_pass

stage_begin "serving conformance suite (multi-app AppManager, TSan + asan-ubsan)"
# Reuses the tsan build from the previous stage and the asan-ubsan build
# from stage 7. The `serving` label selects the concurrency conformance
# suite (ISSUE 10): bit-identical per-app decision hashes across thread
# counts, batching equivalence, cross-app isolation and mid-storm crash
# recovery. TSan proves the shard/turnstile locking really synchronises
# the racing submitters; asan-ubsan re-runs the suite with every DCHECK'd
# engine invariant armed. (The ranking these locks follow is pinned by
# stage 3's lock-order freshness gate.)
run ctest --preset tsan-serving -j "${JOBS}"
run ctest --preset asan-ubsan-serving -j "${JOBS}"
# ctest runs every discovered test as its own process; at full parallelism
# any two that write the same journal files race. Always -j$(nproc), not
# JOBS: the point is to provoke the overlap.
run ctest --test-dir build-release -j"$(nproc)" --repeat until-fail:3 \
  -L 'serving|faults'
stage_pass

stage_begin "observability smoke (trace export, provenance JSONL, perfbench correctness)"
# Exercises the flight-recorder stack end to end on the release build: one
# instrumented sim run exports both artifacts, then
# tools/check_observability.py (also CI's "Trace export smoke") re-checks
# the structural contract the unit tests pin (valid JSON, globally sorted
# timestamps, balanced begin/end per thread, the nested stage set, the
# journal-seq join) against the real engine rather than a synthetic
# recorder.
OBS_DIR="$(mktemp -d)"
trap 'rm -rf "${OBS_DIR}"' EXIT
run cmake --build --preset release -j "${JOBS}" --target qasca_sim
run ./build-release/tools/qasca_sim \
  --trace-out "${OBS_DIR}/trace.json" \
  --provenance-out "${OBS_DIR}/provenance.jsonl"
run python3 tools/check_observability.py "${OBS_DIR}/trace.json" \
  "${OBS_DIR}/provenance.jsonl"
# The benchmark of record (BENCHMARK.json) checks every decision hash,
# state fingerprint and scripted count of its run and reports the verdict
# as "correct" in the JSON result on its last stdout line. Short runs of
# both gated workloads and of pool_1e5 (the only workload with a thread
# pool and incremental refresh), plus traced serve_4app and pool_1e5 runs
# (the per-layer replay ladder, whose every rung must reproduce the
# decision hash), must all say true.
perfbench_correct() {
  local out
  out="$(python3 perfbench/run.py --workload "$1" --seconds 5 --trace "$2")" ||
    return 1
  printf '%s\n' "${out}" | python3 -c '
import json, sys
lines = [line for line in sys.stdin.read().splitlines() if line.strip()]
result = json.loads(lines[-1]) if lines else {}
correct = result.get("correct")
print(f"perfbench {sys.argv[1]} --trace {sys.argv[2]}: correct={correct}")
sys.exit(0 if correct is True else 1)
' "$1" "$2"
}
run perfbench_correct er_fscore 0
run perfbench_correct serve_4app 0
run perfbench_correct serve_4app 1
run perfbench_correct pool_1e5 0
run perfbench_correct pool_1e5 1
stage_pass

stage_begin "telemetry-overhead smoke (disabled instruments < 2%)"
run cmake --build --preset release -j "${JOBS}" --target bench_telemetry_overhead
run ./build-release/bench/bench_telemetry_overhead
stage_pass

printf '\nAll checks passed (%d stages).\n' "${STAGE}"
