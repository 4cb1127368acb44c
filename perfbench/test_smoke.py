"""Smoke test for the benchmark, at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_TRIALS = {"zf_grid": 40, "rzf_baselines": 40, "brute_codebook": 40, "validate_bounds": 40}
# layers each workload must reach, proving the wrappers sit where callers look
REACHED = {
    "zf_grid": ("numerics.rng_setup.calls", "numerics.invert.calls", "quantizer.pair.calls",
                "precoder.zf.calls"),
    "rzf_baselines": ("numerics.sample.calls", "quantizer.pair.calls", "precoder.rzf.calls",
                      "bounds.calls"),
    "brute_codebook": ("quantizer.codebook.words", "quantizer.search.calls",
                       "numerics.invert.calls"),
    "validate_bounds": ("bounds.calls", "precoder.zf.calls", "quantizer.pair.calls"),
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_spec_and_metric_notes_agree():
    notes = json.loads((HERE / "metrics.json").read_text())
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layers = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(notes["end_to_end"]) == sorted(e2e)
    assert sorted(notes["per_layer"]) == sorted(layers)
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert sorted(notes["workloads"]) == sorted(workloads.WORKLOADS)
    for note in notes["per_layer"].values():
        for arrow in note["moves"]:
            assert arrow["metric"] in e2e and arrow["workload"] in workloads.WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_prints_spec_metrics(name, trace):
    proc = bench("--workload", name, "--seed", "1", "--seconds", "0", "--trace", str(trace),
                 "--trials", str(TINY_TRIALS[name]))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stderr
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        for metric in REACHED[name]:
            assert result["metrics"][metric]["value"] > 0, metric
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_curve_fails_a_check(tmp_path):
    out = tmp_path / "fixed5x5.csv"
    subprocess.run([sys.executable, "-m", "fbmimo.cli", "figure", "fixed5x5", "--trials", "40",
                    "--seed", "1", "--out", str(out)], check=True, cwd=tmp_path,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    clean = checks.check_zf_grid(str(out), "", 0)
    assert all(ok for _, ok, _ in clean)

    header, curves = checks.parse_csv(out.read_text())
    perfect = curves["zf_perfect"]
    lines = out.read_text().splitlines()
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[1] == "zf_perfect":
            j = int(np.flatnonzero(perfect.snr_db == float(cells[7]))[0])
            cells[8] = repr(float(perfect.mean[j] + 10.0 * perfect.se[j]))
            lines[i] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    corrupted = checks.check_zf_grid(str(out), "", 0)
    failed = sum(not ok for _, ok, _ in corrupted)
    assert failed / len(corrupted) > 0
    assert dict((n, ok) for n, ok, _ in corrupted)["zf_perfect_vs_oracle"] is False


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "zf_grid", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
