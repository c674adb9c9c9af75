"""Pass `clock-discipline`: platform code never reads a clock directly.

The lifecycle layer (leases, expiry, the journal) is time-driven, and
its tests replay thousands of seeded events against a virtual clock. That
only works because every time read in src/platform flows through the
injectable util::TickSource (src/util/tick.h): production wires in
SteadyTickSource(), tests wire in a counter they control. A single direct
std::chrono read — even of steady_clock, which the determinism pass
permits elsewhere for telemetry — would make lease deadlines depend on
wall time and the stress harness nondeterministic.

This pass therefore bans `std::chrono` (and the <chrono>/<ctime> includes
that invite it) in src/platform entirely. Code that genuinely needs a real
clock belongs in src/util behind a TickSource factory; suppress with
`// analyze:allow(clock-discipline)` only with a comment explaining why an
injected tick source cannot work.
"""

from __future__ import annotations

import re

from ..base import ERROR, Finding, SourceFile, SourceTree

BANNED = [
    (re.compile(r"std::chrono\b"),
     "direct std::chrono use — inject a util::TickSource instead"),
    (re.compile(r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*::"
                r"\s*now\s*\("),
     "direct clock read — inject a util::TickSource instead"),
]

# Includes that invite direct clock reads; checked against the semantic
# frontend's include model rather than a separate regex.
BANNED_INCLUDES = {
    "chrono": "<chrono> include — platform code takes time from "
              "util::TickSource",
    "ctime": "<ctime> include — platform code takes time from "
             "util::TickSource",
}


class ClockDisciplinePass:
    name = "clock-discipline"
    description = ("no direct std::chrono clock reads in src/platform; all "
                   "time flows through the injectable util::TickSource so "
                   "lease/lifecycle behavior replays deterministically")
    severity = ERROR
    roots = ("src/platform",)

    def run(self, tree: SourceTree) -> list[Finding]:
        findings: list[Finding] = []
        for source in tree.files(self.roots):
            findings.extend(self._check(tree, source))
        return findings

    def _check(self, tree: SourceTree,
               source: SourceFile) -> list[Finding]:
        findings = []
        for include in tree.model(source).includes:
            why = BANNED_INCLUDES.get(include.target)
            if why is not None and include.angled:
                findings.append(Finding(
                    pass_name=self.name, severity=self.severity,
                    path=source.rel, line=include.line,
                    message=f"clock discipline: {why}"))
        for pattern, why in BANNED:
            for match in pattern.finditer(source.code):
                findings.append(Finding(
                    pass_name=self.name, severity=self.severity,
                    path=source.rel, line=source.line_of(match.start()),
                    message=f"clock discipline: {why}"))
        return findings
