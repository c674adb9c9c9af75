"""Pass `global-state`: decision layers carry no mutable ambient state.

Multi-app readiness (ROADMAP: several crowdsourcing apps served by one
process) requires that everything an Engine decision depends on lives in
an object the caller owns — two apps sharing a mutable namespace-scope
variable, function-local static, or thread_local in src/core, src/model or
src/platform would couple their runs (and race, since pool workers cross
TUs). The frontend records every such definition that is not
const/constexpr; each one is a finding.

Legitimate immutable-after-init singletons stay, justified in place with
`// analyze:allow(global-state)`. util/ is exempt: the telemetry and
failpoint registries are process-wide services by design and carry their
own locks.
"""

from __future__ import annotations

from ..base import ERROR, Finding, SourceTree

_KIND_DETAIL = {
    "namespace-scope": "a mutable namespace-scope variable",
    "static-local": "a mutable function-local static",
    "thread-local": "a thread_local variable",
}


class GlobalStatePass:
    name = "global-state"
    description = ("mutable namespace-scope / static-local / thread_local "
                   "state is banned in src/core, src/model, src/platform")
    severity = ERROR
    roots = ("src/core", "src/model", "src/platform")

    def run(self, tree: SourceTree) -> list[Finding]:
        findings: list[Finding] = []
        for source in tree.files(self.roots):
            model = tree.model(source)
            for var in model.globals:
                detail = _KIND_DETAIL.get(var.kind, var.kind)
                findings.append(Finding(
                    pass_name=self.name, severity=self.severity,
                    path=source.rel, line=var.line,
                    message=(f"`{var.name}` is {detail} in a decision "
                             "layer — ambient state couples apps sharing "
                             "the process; move it into an owned object, "
                             "make it constexpr, or justify an immutable-"
                             "after-init singleton with "
                             "analyze:allow(global-state)")))
        return findings
