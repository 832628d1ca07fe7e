"""Self-check of the benchmark, every workload at its smallest size.

    python3 -m pytest perfbench -q

Not part of the program's test suite (pyproject limits that to tests/).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
# Layers each workload's traced run must show spans for.
EXPECTED_LAYERS = {
    "sim-control": set(spans.LAYERS),
    "sim-ingest": set(spans.LAYERS),
    "live-mixed": {"bus", "hook", "store", "mock_service", "service_api", "webutil", "clients"},
}


def bench(workload: str, trace: int, cwd: Path = ROOT):
    out = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=cwd)
    return out


def result_of(out) -> tuple[list[str], dict]:
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_metric_names_use_the_allowed_characters():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCH[key]]
    names += WORKLOADS + list(spans.LAYER_UNITS)
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert all(m["unit"] for key in ("end_to_end", "per_layer") for m in BENCH[key])
    assert set(m["name"] for m in BENCH["per_layer"]) <= set(spans.LAYER_UNITS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    lines, result = result_of(bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    text = "\n".join(lines)
    for metric in BENCH["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0, metric["name"]
        # printed by name, with its unit and sample count
        assert re.search(rf"^ .* n=\d+ +\[{re.escape(metric['name'])}\]  measured ", text, re.M)
    assert re.search(r"^error_rate +0 ratio", text, re.M)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    lines, result = result_of(bench(workload, 1))
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    for metric in BENCH["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    text = "\n".join(lines)
    for name, unit in spans.LAYER_UNITS.items():
        assert re.search(rf"^  {re.escape(name)} +\S+ {re.escape(unit)} +n=\d+$", text, re.M), name
    assert "tracing overhead" in text
    seen = next(line for line in lines if line.startswith("layers with spans: "))
    assert set(seen.split(": ", 1)[1].split(", ")) >= EXPECTED_LAYERS[workload]
    table = spans.load(ROOT / ".bench_work" / "trace" / f"{workload}-seed3.npz")
    names = table["names"][table["name"].astype(np.int64)]
    layers = {str(n).split(".")[0] for n in np.unique(names)}
    assert layers >= EXPECTED_LAYERS[workload]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = bench("sim-control", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert not out.stdout.strip()
