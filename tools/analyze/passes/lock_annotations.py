"""Pass `lock-annotations`: every lock carries a compile-checkable contract.

Three rules keep the Clang thread-safety analysis (`analyze` preset,
-Wthread-safety -Werror=thread-safety) authoritative over the whole tree:

  * raw std::mutex / std::condition_variable members are banned outside
    src/util/mutex.h — libstdc++'s types carry no capability attributes,
    so locks the analysis cannot see must not exist; use util::Mutex /
    util::CondVar (QASCA_CAPABILITY wrappers);
  * every util::Mutex member must be named by at least one
    QASCA_GUARDED_BY / QASCA_PT_GUARDED_BY / QASCA_REQUIRES /
    QASCA_ACQUIRE / QASCA_RELEASE / QASCA_EXCLUDES annotation in the same
    file — an unreferenced mutex guards nothing the compiler can check;
  * every header under src/platform that defines a class must state its
    "Threading contract:" in the class comment. The platform layer is
    deliberately lock-free (single-writer engine thread, const-only kernel
    reads), and that discipline must be written down where the analyzer
    can hold the file to it.
"""

from __future__ import annotations

import re

from ..base import ERROR, Finding, SourceFile, SourceTree

RAW_MUTEX_MEMBER = re.compile(
    r"std::(mutex|condition_variable(?:_any)?)\s+\w+\s*;")

# `Mutex mu_;` possibly prefixed with mutable and/or util:: qualification,
# and possibly carrying a lock-rank braced initializer
# (`Mutex mu_{lock_ranks::kThreadPool};`, see util/lock_ranks.h).
MUTEX_MEMBER = re.compile(
    r"(?:mutable\s+)?(?:util::)?\bMutex\s+(\w+)\s*(?:\{[^{};]*\})?\s*;")

ANNOTATION = re.compile(
    r"QASCA_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|ACQUIRE|RELEASE|"
    r"TRY_ACQUIRE|EXCLUDES|RETURN_CAPABILITY)\s*\(([^)]*)\)")

CLASS_DEFINITION = re.compile(r"\b(?:class|struct)\s+\w+[^;{]*\{")

THREAD_CONTRACT = "Threading contract:"

MUTEX_HEADER = "src/util/mutex.h"
PLATFORM_ROOT = "src/platform/"


class LockAnnotationsPass:
    name = "lock-annotations"
    description = ("raw std::mutex members banned outside util/mutex.h; "
                   "util::Mutex members must appear in a QASCA_GUARDED_BY/"
                   "QASCA_REQUIRES contract; platform headers must state "
                   "their Threading contract")
    severity = ERROR
    roots = ("src",)

    def run(self, tree: SourceTree) -> list[Finding]:
        findings: list[Finding] = []
        for source in tree.files(self.roots):
            if source.rel != MUTEX_HEADER:
                findings.extend(self._check_raw_mutex(source))
            findings.extend(self._check_guard_contracts(source))
            if source.rel.startswith(PLATFORM_ROOT) and \
                    source.rel.endswith(".h"):
                findings.extend(self._check_thread_contract(source))
        return findings

    def _check_raw_mutex(self, source: SourceFile) -> list[Finding]:
        findings = []
        for match in RAW_MUTEX_MEMBER.finditer(source.code):
            findings.append(Finding(
                pass_name=self.name, severity=self.severity,
                path=source.rel, line=source.line_of(match.start()),
                message=(f"raw std::{match.group(1)} member — use "
                         "util::Mutex / util::CondVar (util/mutex.h) so the "
                         "thread-safety analysis can see the lock")))
        return findings

    def _check_guard_contracts(self, source: SourceFile) -> list[Finding]:
        members = {m.group(1): source.line_of(m.start())
                   for m in MUTEX_MEMBER.finditer(source.code)}
        if not members:
            return []
        referenced: set[str] = set()
        for annotation in ANNOTATION.finditer(source.code):
            referenced.update(re.findall(r"\w+", annotation.group(1)))
        findings = []
        for member, line in sorted(members.items(), key=lambda kv: kv[1]):
            if member not in referenced:
                findings.append(Finding(
                    pass_name=self.name, severity=self.severity,
                    path=source.rel, line=line,
                    message=(f"Mutex member {member} is not named by any "
                             "QASCA_GUARDED_BY / QASCA_REQUIRES annotation "
                             "— state what it protects")))
        return findings

    def _check_thread_contract(self, source: SourceFile) -> list[Finding]:
        match = CLASS_DEFINITION.search(source.code)
        if match is None:
            return []  # free functions only
        if THREAD_CONTRACT in source.text:
            return []
        return [Finding(
            pass_name=self.name, severity=self.severity,
            path=source.rel, line=source.line_of(match.start()),
            message=('platform header defines a class without a '
                     '"Threading contract:" comment — document who may '
                     "mutate this state and what kernels may read"))]
