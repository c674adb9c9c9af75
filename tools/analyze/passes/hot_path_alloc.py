"""Pass `hot-path-alloc`: no avoidable allocation in the per-HIT kernels.

The kernels that run on every HIT request/completion — the Top-K benefit
scan (core/assignment/topk_benefit.cc), the F-score online assignment
(core/assignment/fscore_online.cc) with its Dinkelbach solver
(core/fractional.cc) and Algorithm-1 warm start (core/metrics/fscore.cc),
Qw estimation (model/posterior.cc) and the EM refit (model/em.cc) —
dominate assignment and completion latency (perfbench `--trace 1`). An
unreserved vector growing inside them, or a container constructed afresh
every loop iteration, turns an O(n) scan into an allocator benchmark and
invalidates the ParallelFor capture audit (DESIGN.md §10), which assumes
pre-sized slots.

Two rules, applied to every function defined in the hot files:

  * `push_back`/`emplace_back` on a receiver that the same function never
    `reserve`s/`resize`s/`assign`s is an error — size the container before
    the loop (callers passing in pre-sized buffers satisfy this at the
    call boundary and may be suppressed with a justification);
  * constructing a standard container (vector/map/set/string/...) inside a
    loop body is an error — hoist it out and reuse the storage.
"""

from __future__ import annotations

from ..base import ERROR, Finding, SourceTree

HOT_FILES = (
    "core/assignment/topk_benefit.cc",
    "core/assignment/fscore_online.cc",
    "core/fractional.cc",
    "core/metrics/fscore.cc",
    "model/posterior.cc",
    "model/em.cc",
)


class HotPathAllocPass:
    name = "hot-path-alloc"
    description = ("in the Top-K scan, F-score/Dinkelbach, Qw estimation "
                   "and EM kernels: "
                   "push_back requires a reserve/resize in the same "
                   "function, and containers must not be constructed "
                   "per loop iteration")
    severity = ERROR
    roots = ("src/core", "src/model")

    def run(self, tree: SourceTree) -> list[Finding]:
        findings: list[Finding] = []
        for source in tree.files(self.roots):
            if not source.rel.endswith(HOT_FILES):
                continue
            for facts in tree.model(source).allocs:
                for receiver, line in sorted(facts.push_back.items(),
                                             key=lambda kv: kv[1]):
                    if receiver in facts.prealloc:
                        continue
                    findings.append(Finding(
                        pass_name=self.name, severity=self.severity,
                        path=source.rel, line=line,
                        message=(f"hot path: {facts.function}() grows "
                                 f"`{receiver}` with push_back but never "
                                 "reserves it — pre-size the container")))
                for line, decl in facts.loop_constructions:
                    findings.append(Finding(
                        pass_name=self.name, severity=self.severity,
                        path=source.rel, line=line,
                        message=(f"hot path: {facts.function}() constructs "
                                 f"`{decl}` every loop iteration — hoist "
                                 "it out of the loop and reuse the "
                                 "storage")))
        return findings
