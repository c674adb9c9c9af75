"""Driver: grounds the tree, runs the passes, reports, self-tests.

Usage (normally via tools/analyze.py):

  python3 tools/analyze.py                 # human-readable, exit 1 on error
  python3 tools/analyze.py --json          # machine-readable report (schema 2)
  python3 tools/analyze.py --sarif out.sarif
  python3 tools/analyze.py --passes determinism,span-names
  python3 tools/analyze.py --list-passes
  python3 tools/analyze.py --write-baseline
  python3 tools/analyze.py --self-test     # run passes over testdata/

File universe: when a compile_commands.json exists (any build*/ dir, or
--compile-db), the analyzed set is exactly the TUs the build compiles plus
the transitive closure of their quoted includes. Source files the build
never sees are *not* silently analyzed — they are listed as orphan
warnings. Without a database the driver falls back to walking src/ and
says so.

Baseline: tools/analyze/baseline.json pins the ids of known findings.
A baselined finding is reported as a warning and does not fail the run; a
finding not in the baseline fails it. `--write-baseline` rewrites the file
from the current run (suppressed findings are never baselined — the allow
comment already owns them).

Exit status: 0 clean (suppressed and baselined findings do not fail the
run), 1 on any non-baselined error finding (or self-test mismatch), 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from .base import (ERROR, Finding, SourceTree, apply_suppressions,
                   assign_finding_ids)
from .frontend import CompilationDatabase, ModelCache, header_closure
from .passes import ALL_PASSES, by_name

TESTDATA = Path(__file__).resolve().parent / "testdata"
BASELINE = Path(__file__).resolve().parent / "baseline.json"
CACHE_NAME = ".analyze-cache.json"

JSON_SCHEMA_VERSION = 2

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")


def build_universe(tree: SourceTree,
                   db: CompilationDatabase) -> tuple[set[str], list[str]]:
    """(universe, orphans): the compile-DB-grounded file set and the src/
    files on disk that the build never compiles or includes."""

    def include_of(rel: str) -> list[str]:
        source = tree.file(rel)
        if source is None:
            return []
        return [i.target for i in tree.model(source).includes if not i.angled]

    universe = header_closure(
        [s for s in db.sources if s.startswith("src/")],
        include_of, tree.resolve_include)
    on_disk = {
        p.relative_to(tree.root).as_posix()
        for p in (tree.root / "src").rglob("*")
        if p.is_file() and p.suffix in (".h", ".cc")
    }
    orphans = sorted(on_disk - universe)
    return universe, orphans


def display_path(path: Path, repo_root: Path) -> str:
    """`path` relative to the repo when it lies inside it, else absolute
    (an out-of-tree build keeps its compile_commands.json elsewhere)."""
    path = path.resolve()
    try:
        return path.relative_to(repo_root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def ground_tree(repo_root: Path, compile_db: Path | None,
                use_cache: bool) -> tuple[SourceTree, list[str], list[str]]:
    """Builds the SourceTree the passes run over, plus (orphans, notes)."""
    notes: list[str] = []
    cache = ModelCache(repo_root / CACHE_NAME) if use_cache else \
        ModelCache(None)

    db_path = compile_db or CompilationDatabase.discover(repo_root)
    if db_path is None:
        notes.append("no compile_commands.json under build*/ — analyzing "
                     "every file on disk (configure a preset to ground the "
                     "universe in the build)")
        return SourceTree(repo_root, model_cache=cache), [], notes

    db = CompilationDatabase(db_path, repo_root)
    # The closure walk needs an un-universed tree (it must read candidate
    # headers to chase their includes); the grounded tree shares the cache.
    scout = SourceTree(repo_root, model_cache=cache)
    universe, orphans = build_universe(scout, db)
    notes.append(f"universe: {len(universe)} files from "
                 f"{display_path(db_path, repo_root)} "
                 f"({len(db.sources)} TUs + quoted-include closure)")
    tree = SourceTree(repo_root, universe=universe, model_cache=cache)
    tree._models = scout._models  # reuse models built during the closure
    tree._cache = scout._cache
    return tree, orphans, notes


def run_passes(tree: SourceTree, passes) -> list[Finding]:
    findings: list[Finding] = []
    for pass_ in passes:
        findings.extend(pass_.run(tree))
    findings = apply_suppressions(tree, findings)
    assign_finding_ids(tree, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.pass_name, f.id))
    return findings


# ---------------------------------------------------------------------------
# Baseline


def load_baseline(path: Path) -> set[str]:
    if not path.is_file():
        return set()
    data = json.loads(path.read_text(encoding="utf-8"))
    return {entry["id"] for entry in data.get("findings", [])}


def apply_baseline(findings: list[Finding], baseline: set[str]) -> None:
    for finding in findings:
        if not finding.suppressed and finding.id in baseline:
            finding.baselined = True


def write_baseline(path: Path, findings: list[Finding]) -> int:
    entries = [
        {"id": f.id, "location": f.location(), "pass": f.pass_name,
         "message": f.message}
        for f in findings
        if not f.suppressed and f.severity == ERROR
    ]
    payload = {
        "comment": ("Known findings pinned by id (stable under line "
                    "shifts). New findings fail the run; remove entries "
                    "as the sites are migrated. Regenerate with "
                    "tools/analyze.py --write-baseline."),
        "findings": entries,
    }
    path.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n",
                    encoding="utf-8")
    return len(entries)


# ---------------------------------------------------------------------------
# Reports


def failing(findings: list[Finding]) -> list[Finding]:
    return [f for f in findings
            if not f.suppressed and not f.baselined and f.severity == ERROR]


def report_text(findings: list[Finding], passes, orphans: list[str],
                notes: list[str]) -> str:
    lines = list(notes)
    for orphan in orphans:
        lines.append(f"{orphan}: warning [universe] file exists under src/ "
                     "but no configured build compiles or includes it")
    active = [f for f in findings if not f.suppressed]
    for finding in active:
        severity = "warning" if finding.baselined else finding.severity
        tag = " (baselined)" if finding.baselined else ""
        lines.append(f"{finding.location()}: {severity} "
                     f"[{finding.pass_name}] {finding.message}{tag}")
    errors = len(failing(findings))
    baselined = sum(1 for f in active if f.baselined)
    suppressed = len(findings) - len(active)
    warnings = sum(1 for f in active
                   if f.severity != ERROR and not f.baselined)
    lines.append(f"analyze: {len(passes)} passes, {errors} errors, "
                 f"{warnings + baselined} warnings "
                 f"({baselined} baselined), {suppressed} suppressed")
    return "\n".join(lines)


def report_json(findings: list[Finding], passes, orphans: list[str]) -> str:
    active = [f for f in findings if not f.suppressed]
    return json.dumps({
        "schema": JSON_SCHEMA_VERSION,
        "passes": [{"name": p.name, "description": p.description}
                   for p in passes],
        "findings": [f.to_json() for f in findings],
        "orphans": orphans,
        "errors": len(failing(findings)),
        "warnings": sum(1 for f in active
                        if f.severity != ERROR or f.baselined),
        "suppressed": sum(1 for f in findings if f.suppressed),
    }, indent=2)


def report_sarif(findings: list[Finding], passes) -> str:
    """SARIF 2.1.0: one run, one rule per pass, one result per active
    finding (suppressed findings are carried with a suppression record so
    the history stays visible in code-scanning UIs)."""
    rules = [{
        "id": p.name,
        "shortDescription": {"text": p.description},
        "defaultConfiguration": {
            "level": "error" if p.severity == ERROR else "warning"},
    } for p in passes]
    results = []
    for f in findings:
        result = {
            "ruleId": f.pass_name,
            "level": ("note" if f.suppressed else
                      "warning" if f.baselined else
                      "error" if f.severity == ERROR else "warning"),
            "message": {"text": f.message},
            "partialFingerprints": {"qascaFindingId/v1": f.id},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f.path},
                    "region": {"startLine": max(f.line, 1)},
                },
            }],
        }
        if f.suppressed:
            result["suppressions"] = [{
                "kind": "inSource",
                "justification": f"analyze:allow({f.pass_name}) comment",
            }]
        elif f.baselined:
            result["suppressions"] = [{
                "kind": "external",
                "justification": "tools/analyze/baseline.json",
            }]
        results.append(result)
    return json.dumps({
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": {
                "name": "qasca-analyze",
                "rules": rules,
            }},
            "results": results,
        }],
    }, indent=2)


# ---------------------------------------------------------------------------
# Self-test


def self_test(passes) -> int:
    """Checks the passes against the known-bad fixture tree.

    Every `analyze:expect(<pass>)` marker must be matched by an active
    finding of that pass on that exact line; there must be no unexpected
    active findings; every pass must demonstrate both a firing fixture and
    a working `analyze:allow` suppression; finding ids must be unique and
    stable-shaped; the JSON report must keep schema 2 and the
    (path, line, pass) sort; and the baseline mechanism must neutralize
    exactly the findings it names.
    """
    tree = SourceTree(TESTDATA)
    findings = run_passes(tree, passes)
    active = {(f.pass_name, f.path, max(f.line, 1))
              for f in findings if not f.suppressed}
    suppressed_by_pass: dict[str, int] = {}
    for f in findings:
        if f.suppressed:
            suppressed_by_pass[f.pass_name] = \
                suppressed_by_pass.get(f.pass_name, 0) + 1

    expected = set()
    for source in tree.files(("src",), extensions=(".h", ".cc")):
        for pass_name, line in source.expects():
            expected.add((pass_name, source.rel, line))

    problems = []
    for item in sorted(expected - active):
        problems.append(f"expected finding did not fire: {item[0]} at "
                        f"{item[1]}:{item[2]}")
    for item in sorted(active - expected):
        problems.append(f"unexpected finding: {item[0]} at "
                        f"{item[1]}:{item[2]}")
    for pass_ in passes:
        if not any(name == pass_.name for name, _, _ in expected):
            problems.append(f"pass {pass_.name} has no firing fixture in "
                            "testdata/")
        if suppressed_by_pass.get(pass_.name, 0) == 0:
            problems.append(f"pass {pass_.name} has no suppressed fixture "
                            "proving analyze:allow works")

    problems.extend(_check_ids(findings))
    problems.extend(_check_json_shape(findings, passes))
    problems.extend(_check_baseline_mechanism(tree, passes))
    problems.extend(_check_out_of_tree_compile_db())

    if problems:
        print("analyze --self-test: FAIL")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"analyze --self-test: OK ({len(expected)} expected findings "
          f"fired, {sum(suppressed_by_pass.values())} suppressions held, "
          f"{len(passes)} passes)")
    return 0


def _check_ids(findings: list[Finding]) -> list[str]:
    problems = []
    ids = [f.id for f in findings]
    if len(ids) != len(set(ids)):
        problems.append("finding ids are not unique")
    for f in findings:
        parts = f.id.split(":")
        if len(parts) != 4 or parts[0] != f.pass_name or parts[1] != f.path:
            problems.append(f"malformed finding id: {f.id!r}")
            break
    return problems


def _check_json_shape(findings: list[Finding], passes) -> list[str]:
    """Regression-pins the report surface downstream tooling consumes."""
    problems = []
    report = json.loads(report_json(findings, passes, orphans=[]))
    if report.get("schema") != JSON_SCHEMA_VERSION:
        problems.append(f"json schema is {report.get('schema')!r}, "
                        f"expected {JSON_SCHEMA_VERSION}")
    for key in ("passes", "findings", "orphans", "errors", "warnings",
                "suppressed"):
        if key not in report:
            problems.append(f"json report lost the {key!r} key")
    rows = [(f["path"], f["line"], f["pass"])
            for f in report.get("findings", [])]
    if rows != sorted(rows):
        problems.append("json findings are not sorted by (path, line, pass)")
    expected_keys = {"id", "pass", "severity", "path", "line", "message",
                     "suppressed", "baselined"}
    for f in report.get("findings", []):
        if set(f) != expected_keys:
            problems.append(f"json finding keys changed: {sorted(f)}")
        break
    sarif = json.loads(report_sarif(findings, passes))
    if sarif.get("version") != SARIF_VERSION or not sarif.get("runs"):
        problems.append("sarif report lost its version or runs")
    return problems


def _check_baseline_mechanism(tree: SourceTree, passes) -> list[str]:
    """A baseline naming every current finding must neutralize exactly
    those findings and nothing else; a fresh run minus the baseline must
    still fail."""
    problems = []
    findings = run_passes(tree, passes)
    errors = [f for f in findings if not f.suppressed and
              f.severity == ERROR]
    if not errors:
        return ["baseline check needs at least one error fixture"]
    baseline = {f.id for f in errors}
    apply_baseline(findings, baseline)
    if failing(findings):
        problems.append("full baseline did not neutralize all findings")
    if sum(1 for f in findings if f.baselined) != len(errors):
        problems.append("baseline marked a suppressed or missing finding")
    findings = run_passes(tree, passes)
    apply_baseline(findings, set(list(baseline)[:1]))
    if len(failing(findings)) != len(errors) - 1:
        problems.append("partial baseline failed to keep new findings "
                        "failing")
    return problems


def _check_out_of_tree_compile_db() -> list[str]:
    """An out-of-tree build keeps compile_commands.json outside the repo:
    grounding on such a database must cover its TUs and name it by its
    absolute path."""
    sources = sorted(p.relative_to(TESTDATA).as_posix()
                     for p in (TESTDATA / "src").rglob("*.cc"))
    with tempfile.TemporaryDirectory(prefix="analyze-build-") as build_dir:
        db_path = Path(build_dir) / "compile_commands.json"
        db_path.write_text(json.dumps([
            {"directory": build_dir, "file": str(TESTDATA / rel),
             "command": f"c++ -c {TESTDATA / rel}"}
            for rel in sources]), encoding="utf-8")
        try:
            tree, _orphans, notes = ground_tree(TESTDATA, db_path,
                                                use_cache=False)
        except ValueError as error:
            return [f"grounding on an out-of-tree compile DB raised: {error}"]
        problems = []
        if not set(sources) <= (tree.universe or set()):
            problems.append("out-of-tree compile DB: universe misses its TUs")
        if not any(db_path.resolve().as_posix() in note for note in notes):
            problems.append("out-of-tree compile DB: note does not name it "
                            "by absolute path")
        return problems


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools/analyze.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repo-root", type=Path,
                        default=Path(__file__).resolve().parents[2],
                        help="repository root (defaults to the grandparent "
                             "of tools/analyze/)")
    parser.add_argument("--compile-db", type=Path, default=None,
                        help="compile_commands.json to ground the file "
                             "universe (default: newest under build*/)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the model cache "
                             f"({CACHE_NAME})")
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable JSON report "
                             f"(schema {JSON_SCHEMA_VERSION})")
    parser.add_argument("--sarif", type=Path, default=None, metavar="PATH",
                        help="also write a SARIF 2.1.0 report to PATH")
    parser.add_argument("--passes", type=str, default="",
                        help="comma-separated subset of passes to run")
    parser.add_argument("--list-passes", action="store_true",
                        help="list registered passes and exit")
    parser.add_argument("--baseline", type=Path, default=BASELINE,
                        help="baseline file (default: "
                             "tools/analyze/baseline.json)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the baseline from this run's "
                             "findings and exit 0")
    parser.add_argument("--write-lock-order", action="store_true",
                        help="recompute the interprocedural lock ranking "
                             "and rewrite tools/analyze/lock_order.json")
    parser.add_argument("--stats", action="store_true",
                        help="print timing and model-cache hit rates")
    parser.add_argument("--self-test", action="store_true",
                        help="run the passes over tools/analyze/testdata/ "
                             "and check the expected findings fire")
    args = parser.parse_args(argv)

    try:
        passes = by_name([n.strip() for n in args.passes.split(",")
                          if n.strip()]) if args.passes else ALL_PASSES
    except KeyError as unknown:
        print(f"analyze: unknown pass(es): {unknown}", file=sys.stderr)
        return 2

    if args.list_passes:
        for pass_ in passes:
            print(f"{pass_.name:18} {pass_.description}")
        return 0

    if args.self_test:
        return self_test(passes)

    repo_root = args.repo_root.resolve()
    if not (repo_root / "src").is_dir():
        print(f"analyze: {repo_root} has no src/ directory", file=sys.stderr)
        return 2
    if args.compile_db is not None and not args.compile_db.is_file():
        print(f"analyze: {args.compile_db} does not exist", file=sys.stderr)
        return 2

    started = time.monotonic()
    tree, orphans, notes = ground_tree(repo_root, args.compile_db,
                                       use_cache=not args.no_cache)

    if args.write_lock_order:
        from .passes.lock_order import LOCK_ORDER_JSON, compute_lock_order
        payload = compute_lock_order(tree)
        target = repo_root / LOCK_ORDER_JSON
        target.write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")
        if tree.model_cache is not None:
            tree.model_cache.save()
        state = "CYCLIC — fix the cycle before trusting the ranks" \
            if payload["cyclic"] else "acyclic"
        print(f"analyze: lock order rewritten ({len(payload['nodes'])} "
              f"locks, {len(payload['edges'])} edges, {state}) — keep "
              "util/lock_ranks.h aligned")
        return 1 if payload["cyclic"] else 0

    findings = run_passes(tree, passes)

    if args.write_baseline:
        count = write_baseline(args.baseline, findings)
        if tree.model_cache is not None:
            tree.model_cache.save()
        print(f"analyze: baseline rewritten with {count} findings "
              f"({args.baseline})")
        return 0

    apply_baseline(findings, load_baseline(args.baseline))

    if args.sarif is not None:
        args.sarif.write_text(report_sarif(findings, passes) + "\n",
                              encoding="utf-8")
        notes.append(f"sarif report written to {args.sarif}")

    print(report_json(findings, passes, orphans) if args.json
          else report_text(findings, passes, orphans, notes))
    if tree.model_cache is not None:
        tree.model_cache.save()
        if args.stats:
            elapsed = time.monotonic() - started
            cache = tree.model_cache
            print(f"analyze --stats: {elapsed:.2f}s, model cache "
                  f"{cache.hits} hits / {cache.misses} misses",
                  file=sys.stderr)
    return 1 if failing(findings) else 0
