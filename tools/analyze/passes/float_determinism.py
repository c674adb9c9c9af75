"""Pass `float-determinism`: floating folds go through blessed helpers.

QASCA's decisions are pinned by golden-trace hashes across thread counts,
refresh intervals and (next phase) SIMD lanes. Floating-point addition is
not associative, so the *order* of every accumulation that can reach a
decision is part of the engine's contract. That order is centralised in
the blessed fold helpers — `util::ParallelSum` / `util::ParallelFor`
chunk-partials (util/thread_pool.h, chunk-index-ordered) and the serial
`util::DeterministicSum` / `util::DeterministicFold` (util/fold.h,
strictly left-to-right) — so a future vectorised path changes one audited
place instead of forty loops.

This pass therefore flags, in src/core and src/model:

  * a scalar `double` accumulated with `+=` inside a loop when the
    accumulator is declared outside that loop (a loop-carried fold) and
    the loop is not itself the body of a blessed helper's argument;
  * any call to `std::accumulate` — its fold order is
    implementation-specified for some execution policies and it hides the
    accumulation from this audit either way.

Fixes: fold with util::DeterministicSum / DeterministicFold (serial) or
util::ParallelSum (chunked); interleaved multi-accumulator loops that do
not decompose cleanly may keep the raw loop under the checked-in baseline
(tools/analyze/baseline.json) — the baseline pins today's order as the
blessed one until the site is migrated — or carry an
`// analyze:allow(float-determinism)` with a justification.

`src/core/kernels/` is excluded wholesale: it IS the audited fold layer.
kernels.h spells out the pinned 4-lane RowSum schedule by hand,
tests/core/kernels_test.cc pins every kernel against its reference
expression, and the multiply-add kernels in kernels.cc are built
-ffp-contract=off — the raw accumulators there are the definition of the
blessed order, not an escape from it.
"""

from __future__ import annotations

from ..base import ERROR, Finding, SourceTree


class FloatDeterminismPass:
    name = "float-determinism"
    description = ("loop-carried double folds in src/core + src/model must "
                   "use the blessed helpers (util::DeterministicSum/Fold, "
                   "util::ParallelSum), not raw += or std::accumulate")
    severity = ERROR
    roots = ("src/core", "src/model")
    # The kernel layer is the audited home of the pinned fold schedules
    # (see module docstring) — its hand-ordered accumulators are the
    # contract, not a violation of it.
    excluded_prefix = "src/core/kernels/"

    def run(self, tree: SourceTree) -> list[Finding]:
        findings: list[Finding] = []
        for source in tree.files(self.roots):
            if source.rel.startswith(self.excluded_prefix):
                continue
            model = tree.model(source)
            for site in model.reductions:
                if site.blessed:
                    continue
                findings.append(Finding(
                    pass_name=self.name, severity=self.severity,
                    path=source.rel, line=site.line,
                    message=(f"raw floating fold: `{site.var} += ...` in a "
                             "loop — accumulate through "
                             "util::DeterministicSum/DeterministicFold or "
                             "util::ParallelSum so the order stays pinned")))
            for line in model.accumulate_calls:
                findings.append(Finding(
                    pass_name=self.name, severity=self.severity,
                    path=source.rel, line=line,
                    message=("std::accumulate hides the fold order — use "
                             "util::DeterministicSum/DeterministicFold "
                             "instead")))
        return findings
