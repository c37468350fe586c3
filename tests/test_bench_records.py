"""Committed benchmark records: every BENCH_<workload>.json at the
repository root is a list of paired perfbench/run.py comparisons, each a
parent commit against a change, and its summary must be what its runs say."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
MIN_RUNS = 10


def test_every_workload_has_a_record():
    assert {p.name for p in RECORDS} == {f"BENCH_{w}.json" for w in WORKLOADS}


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_summary_matches_its_runs(path):
    records = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(records, list) and records
    for rec in records:
        assert rec["workload"] in WORKLOADS
        assert path.name == f"BENCH_{rec['workload']}.json"
        for key in ("command", "pairing", "parent", "change", "machine"):
            assert rec[key], key
        assert set(rec["summary"]) == END_TO_END
        for side in ("parent", "change"):
            runs = rec["runs"][side]
            for run in runs:
                assert run["result"]["correct"] is True, (side, run["seed"])
                assert run["result"]["failed"] == 0, (side, run["seed"])
            untraced = [r for r in runs if r["trace"] == 0]
            assert len(untraced) >= MIN_RUNS, side
            for name, summary in rec["summary"].items():
                values = [r["result"]["metrics"][name]["value"]
                          for r in untraced]
                assert summary[side]["n"] == len(values), (side, name)
                assert summary[side]["median"] == statistics.median(values), \
                    (side, name)
