"""Golden outputs: every preset, one brute sweep per engine, a fast miso
sweep, the quantizer table and `validate bounds`, rerun in-process against
files in tests/golden.

Each CSV is ``fbmimo <argv> --out tests/golden/<name>`` for an entry of
GOLDEN below; the nine presets were written together with

    PYTHONPATH=src python scripts/run_all_figures.py --trials 40 --outdir tests/golden

and validate_bounds.txt is the stdout of ``fbmimo validate bounds --trials
100 --seed 42``, which exits 0.  Text and integer cells must match exactly,
other numbers to rtol 1e-12: that ignores last-bit libm and SIMD
differences between machines, while a change to the RNG contract or to an
estimator moves a mean by about one std_err.  A change that regenerates a
file says which one and why in CHANGES.md.
"""

import csv
import math
from pathlib import Path

import pytest

from fbmimo.cli import FIGURE_IDS, main

GOLDEN_DIR = Path(__file__).parent / "golden"
_QUANTIZED = ["--csit", "quantized", "--scaling", "fixed", "--path", "brute", "--snr", "0:10:20",
              "--trials", "40"]
GOLDEN = {
    **{f"{fid}.csv": ["figure", fid, "--trials", "40"] for fid in FIGURE_IDS},
    "sweep_zf_brute.csv": ["sweep", "--engine", "mu", "--M", "4", "--B", "10", *_QUANTIZED],
    "sweep_rzf_brute.csv": ["sweep", "--engine", "mu", "--precoder", "RZF", "--M", "4",
                            "--B", "8", *_QUANTIZED],
    "sweep_miso_brute.csv": ["sweep", "--engine", "miso", "--M", "4", "--B", "12",
                             *_QUANTIZED],
    # real-valued bits on the fast path
    "sweep_miso_fast.csv": ["sweep", "--engine", "miso", "--M", "4", "--csit", "quantized",
                            "--scaling", "exact", "--b-gap", "2", "--path", "fast",
                            "--snr", "0:10:20", "--trials", "40"],
    "table_quantizer.csv": ["table", "quantizer", "--M", "4", "--B", "2..16"],
}


def _same_cell(got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:  # text, or an empty cell
        return got == want
    if want.lstrip("-").isdigit():  # an integer
        return got == want
    return (math.isnan(g) and math.isnan(w)) or math.isclose(g, w, rel_tol=1e-12)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main([*GOLDEN[name], "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        got = list(csv.reader(fh))
    with open(GOLDEN_DIR / name, newline="") as fh:
        want = list(csv.reader(fh))
    assert got[0] == want[0]
    assert len(got) == len(want)
    for got_row, want_row in zip(got[1:], want[1:]):
        assert len(got_row) == len(want_row)
        assert all(_same_cell(g, w) for g, w in zip(got_row, want_row)), (got_row, want_row)


def test_validate_matches_golden(capsys):
    assert main(["validate", "bounds", "--trials", "100", "--seed", "42"]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / "validate_bounds.txt").read_text()
