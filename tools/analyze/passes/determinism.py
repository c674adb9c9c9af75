"""Pass `determinism`: decision code must be replayable bit-for-bit.

QASCA's guarantees are probabilistic invariants over shared distribution
matrices; every stochastic choice flows through the seeded util::Rng /
counter-based SplitMix64 streams so a run is a pure function of
(dataset, config, seed). This pass bans the three ways nondeterminism
leaks into src/core, src/model and src/platform:

  * C / hardware randomness: rand(), srand(), std::random_device;
  * wall-clock reads: std::chrono::system_clock, time(), gettimeofday,
    clock() — steady_clock is fine (used for latency telemetry, never for
    decisions);
  * iteration over unordered containers feeding computation: a range-for
    whose range names an unordered_map/unordered_set (declared in the same
    file or its companion header) folds values in bucket order, which
    depends on hash seeding and insertion history. Iterate a sorted view
    instead (see BuildLayout in src/model/em.cc), or suppress with
    `// analyze:allow(determinism)` plus a justification when order
    provably cannot reach a decision or a float accumulation.
"""

from __future__ import annotations

import re

from ..base import ERROR, Finding, SourceFile, SourceTree

BANNED = [
    (re.compile(r"(?<![\w:.])rand\s*\("), "rand() — use util::Rng"),
    (re.compile(r"(?<![\w:.])srand\s*\("), "srand() — use util::Rng seeding"),
    (re.compile(r"std::random_device"),
     "std::random_device — nondeterministic; seeds come from AppConfig"),
    (re.compile(r"system_clock"),
     "wall clock (system_clock) — use steady_clock (telemetry) or the "
     "injectable TickSource (trace timestamps)"),
    (re.compile(r"(?<![\w:.])time\s*\("),
     "time() — wall clock reads are banned in decision code"),
    (re.compile(r"(?<![\w:.])gettimeofday\s*\("),
     "gettimeofday() — wall clock reads are banned in decision code"),
    (re.compile(r"(?<![\w:.])clock\s*\(\s*\)"),
     "clock() — wall clock reads are banned in decision code"),
]

# Declarations (members, locals, parameters) of unordered containers; group
# 1 is the variable name. Handles multi-line template arguments.
UNORDERED_DECL = re.compile(
    r"std::unordered_(?:map|set)\s*<[^;{}()]*?>\s+(\w+)\s*[;={(]", re.DOTALL)

RANGE_FOR = re.compile(r"\bfor\s*\(([^;]*?):([^;{]*?)\)\s*\{", re.DOTALL)


def _companion_header(tree: SourceTree, rel: str) -> SourceFile | None:
    if not rel.endswith(".cc"):
        return None
    return tree.file(rel[:-3] + ".h")


class DeterminismPass:
    name = "determinism"
    description = ("no rand()/random_device/wall-clock reads, and no "
                   "iteration over unordered containers, in decision code "
                   "(src/core, src/model, src/platform)")
    severity = ERROR
    roots = ("src/core", "src/model", "src/platform")

    def run(self, tree: SourceTree) -> list[Finding]:
        findings: list[Finding] = []
        for source in tree.files(self.roots):
            findings.extend(self._check(tree, source))
        return findings

    def _check(self, tree: SourceTree,
               source: SourceFile) -> list[Finding]:
        findings = []
        for pattern, why in BANNED:
            for match in pattern.finditer(source.code):
                findings.append(Finding(
                    pass_name=self.name, severity=self.severity,
                    path=source.rel, line=source.line_of(match.start()),
                    message=f"nondeterminism: {why}"))

        unordered_names = set(UNORDERED_DECL.findall(source.code))
        header = _companion_header(tree, source.rel)
        if header is not None:
            unordered_names |= set(UNORDERED_DECL.findall(header.code))
        for match in RANGE_FOR.finditer(source.code):
            range_expr = match.group(2)
            tokens = set(re.findall(r"\w+", range_expr))
            if "unordered_map" in range_expr or "unordered_set" in range_expr \
                    or tokens & unordered_names:
                findings.append(Finding(
                    pass_name=self.name, severity=self.severity,
                    path=source.rel, line=source.line_of(match.start()),
                    message=("iteration over an unordered container "
                             f"({range_expr.strip()}) — bucket order is not "
                             "deterministic; fold a sorted view instead")))
        return findings
