"""Every committed BENCH_*.json follows the one layout the speed claims share.

A speed claim counts only through such a file, so each must name its change,
parent commit, machine, method and claim, and carry, for every workload
BENCHMARK.json declares, the seeds and the alternated pairs with every
end-to-end metric for both sides, plus a summary, the traced seed-1 counts
and the single runs.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
FILES = sorted(ROOT.glob("BENCH_*.json"))
TOP_KEYS = ("change", "parent_commit", "machine", "method", "claim", "workloads",
            "traced_roundtrip_batch_seed1", "single_runs")


def test_bench_files_are_committed():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_bench_file_layout(path):
    doc = json.loads(path.read_text())
    assert [key for key in TOP_KEYS if key not in doc] == []
    for workload in WORKLOADS:
        entry = doc["workloads"][workload]
        assert {"seeds", "pairs", "summary"} <= set(entry), workload
        assert entry["pairs"] and entry["seeds"] == [p["seed"] for p in entry["pairs"]]
        assert set(END_TO_END) <= set(entry["summary"]), workload
        for pair in entry["pairs"]:
            for side in ("parent", "change"):
                missing = [m for m in END_TO_END
                           if not isinstance(pair[side].get(m), (int, float))]
                assert missing == [], (workload, pair["seed"], side)
