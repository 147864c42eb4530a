"""Fast check that every workload runs and reports the declared metrics.

    python3 -m pytest benchmark/test_smoke.py

Each workload runs one shrunken round, with a short deadline for its
frontier op, untraced and traced; the metric names and units must be
exactly those in BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_library()
import workloads  # noqa: E402  (needs arithlink on the path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads.Redei, "round_size", 8)
    monkeypatch.setattr(workloads.Pairing, "cells", [(1, 2), (2, 2)])
    monkeypatch.setattr(workloads.Presentations, "cells",
                        {4: (5, 2, 2, 3), 5: (257, 1, 5, 1)})


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_workload_reports_declared_metrics(tiny, name, trace):
    result, report = run.run_benchmark(name, 7, 0.01, trace, deadline=1.0,
                                       setup_probes=1)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert report["frontier"]["attempted"] == 1
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "redei",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
