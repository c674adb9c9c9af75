#!/usr/bin/env python3
"""Checks the observability exports of one instrumented qasca_sim run.

Usage:
  qasca_sim --trace-out trace.json --provenance-out provenance.jsonl
  python3 tools/check_observability.py trace.json provenance.jsonl

Re-checks, against the real engine rather than a synthetic recorder, the
structural contract the unit tests pin (DESIGN.md §13):
- the Chrome trace is valid JSON with globally sorted timestamps, only
  B/E events, balanced per thread, and names every required stage;
- every provenance record has questions and one score per question;
- the journal seq joins the two: every record the trace ring still covers
  (journal_seq at or above the oldest exported trace id) has an assign_hit
  begin event carrying that seq as its trace arg.

Exits non-zero with the first violated check; prints one summary line
otherwise.
"""

import collections
import json
import sys

# Stages every assignment of the default sim run opens: the request, its Qw
# estimation with the fused row batch inside it, and the Top-K scan.
REQUIRED_STAGES = {"assign_hit", "estimate_qw", "qw_sampled_batch",
                   "topk_scan"}


def check(trace_path, provenance_path):
    with open(trace_path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    assert events, "trace export is empty"
    ts = [e["ts"] for e in events]
    assert ts == sorted(ts), "trace timestamps are not globally sorted"
    stacks = collections.defaultdict(list)
    names = set()
    for e in events:
        assert e["ph"] in ("B", "E"), f"unexpected phase {e['ph']!r}"
        names.add(e["name"])
        if e["ph"] == "B":
            stacks[e["tid"]].append(e["name"])
        else:
            assert stacks[e["tid"]], f"orphan E for {e['name']!r}"
            top = stacks[e["tid"]].pop()
            assert top == e["name"], (
                f"unbalanced: B {top!r} closed by {e['name']!r}")
    assert all(not s for s in stacks.values()), "unclosed B events in export"
    missing_stages = REQUIRED_STAGES - names
    assert not missing_stages, f"missing stages: {sorted(missing_stages)}"

    records = []
    with open(provenance_path, encoding="utf-8") as f:
        for line in f:
            records.append(json.loads(line))
    assert records, "provenance export is empty"
    for r in records:
        assert r["questions"], "provenance record with no questions"
        assert len(r["questions"]) == len(r["scores"]), (
            "questions/scores mismatch")

    assign_traces = {e["args"]["trace"] for e in events
                     if e["name"] == "assign_hit" and e["ph"] == "B"}
    oldest = min(e["args"]["trace"] for e in events)
    covered = [r["journal_seq"] for r in records if r["journal_seq"] >= oldest]
    missing = [seq for seq in covered if seq not in assign_traces]
    assert covered, "no provenance record falls inside the exported trace"
    assert not missing, f"records without an assign_hit span: {missing[:10]}"
    print(f"observability smoke: {len(events)} trace events across "
          f"{len(names)} stages, {len(records)} provenance records, "
          f"{len(covered)} joined to their spans by journal seq")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        check(argv[1], argv[2])
    except AssertionError as error:
        print(f"observability smoke: FAIL: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
