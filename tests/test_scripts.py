"""The scripts in scripts/ run end to end at tiny sizes."""

import csv
import shutil
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=300)


def test_bits_sweep(tmp_path):
    out = tmp_path / "bits.csv"
    proc = _run("bits_sweep.py", "--M", "3", "--B", "2..3", "--trials", "20", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "perfect-CSIT ZF reference" in proc.stdout
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["B", "throughput_bps_hz"]
    assert [r[0] for r in rows[1:]] == ["2", "3"]


def test_run_all_figures(tmp_path):
    proc = _run("run_all_figures.py", "--only", "miso4x1", "--trials", "4",
                "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "miso4x1: ok" in proc.stdout
    with open(tmp_path / "miso4x1.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["experiment", "curve"]
    assert {r[1] for r in rows[1:]} >= {"miso_fb_quantized"}


def test_same_outputs(tmp_path):
    # this checkout against itself, then against a copy whose default seed moved
    root = SCRIPTS.parent
    args = ("--only", "sweeps", "--trials", "2")
    proc = _run("same_outputs.py", str(root), *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "every output is byte-identical\n"
    shutil.copytree(root / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    simulate = tmp_path / "src" / "fbmimo" / "simulate.py"
    simulate.write_text(simulate.read_text().replace("DEFAULT_SEED = 42", "DEFAULT_SEED = 43"))
    proc = _run("same_outputs.py", str(tmp_path), *args)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    differ = [line.split(":")[0] for line in proc.stdout.splitlines()[:-1]]
    # the quantizer table draws nothing, so only the four sweeps differ
    assert sorted(differ) == ["sweep_miso_brute.csv", "sweep_miso_fast.csv", "sweep_rzf_brute.csv",
                      "sweep_zf_brute.csv"]
