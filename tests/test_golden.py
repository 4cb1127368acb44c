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

The files were made with numpy 2.4.6 (GOLDEN_NUMPY) at the numpy dispatch
targets in GOLDEN_DISPATCH, with OPENBLAS_CORETYPE unset.  Output is
bit-identical per (config, seed) on one machine: one numpy version, CPU
dispatch and OpenBLAS core.  Across machines it holds within rtol 1e-12,
and test_golden_holds_at_emulated_older_dispatch checks that by rerunning
--diff with numpy's dispatch and OpenBLAS's core lowered in a child
process.  numpy promises no stream of variates across versions, so on
another numpy a failure may be numpy's; every failure message, and --diff,
names both machines.

    PYTHONPATH=src python tests/test_golden.py --diff

reruns every golden output and prints, per file that differs, the number of
cells off by more than rtol 1e-12 in each column and the curves they are
in, and the number of cells that are not byte-identical, so that it lists
a file even where every cell is within 1e-12.  It writes nothing, so it
shows which cells a change moves before any file is regenerated.  It exits
0 when every output is byte-identical, 1 when every difference is within
rtol 1e-12, and 2 when a cell is beyond it or a validate line moved.
"""

import argparse
import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from fbmimo.cli import FIGURE_IDS, main

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN_NUMPY = "2.4.6"
# numpy's dispatch targets enabled where the files were made (an AVX-512
# Xeon); OpenBLAS picked its SkylakeX core there
GOLDEN_DISPATCH = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


def _enabled_targets() -> list[str]:
    """numpy's dispatch targets that this process enables; this reflects
    NPY_DISABLE_CPU_FEATURES."""
    return [name for name in __cpu_dispatch__ if __cpu_features__[name]]


def _machine() -> str:
    core = os.environ.get("OPENBLAS_CORETYPE")
    return (f"numpy {np.__version__}, dispatch {' '.join(_enabled_targets()) or 'none'}"
            + (f", OPENBLAS_CORETYPE {core}" if core else ""))


VERSIONS = (f"golden files made with numpy {GOLDEN_NUMPY}, dispatch {GOLDEN_DISPATCH}; "
            f"running {_machine()}")
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
_WITHIN = "none beyond rtol 1e-12"


def _same_cell(got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:  # text, or an empty cell
        return got == want
    if want.lstrip("-").isdigit():  # an integer
        return got == want
    return (math.isnan(g) and math.isnan(w)) or math.isclose(g, w, rel_tol=1e-12)


def _read(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _csv_differences(got: list[list[str]], want: list[list[str]]) -> str | None:
    """The cells of two CSVs that differ beyond rtol 1e-12, counted per
    column, with the curves they are in, and the count of cells that are
    not byte-identical; None if the two are byte-identical."""
    if got[0] != want[0] or len(got) != len(want):
        return f"header or row count differs ({len(got) - 1} rows, golden {len(want) - 1})"
    columns, curves, inexact = Counter(), [], 0
    for got_row, want_row in zip(got[1:], want[1:]):
        inexact += sum(g != w for g, w in zip(got_row, want_row))
        cells = [name for name, g, w in zip(want[0], got_row, want_row) if not _same_cell(g, w)]
        columns.update(cells)
        if cells and want_row[1] not in curves:
            curves.append(want_row[1])
    if not inexact:
        return None
    counts = ", ".join(f"{name} {n}" for name, n in columns.items())
    beyond = f"{counts}; curves {', '.join(curves)}" if columns else _WITHIN
    return f"{beyond}; {inexact} not byte-identical"


def diff_golden() -> list[str]:
    """One line per golden output that a fresh run does not reproduce."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(GOLDEN):
            out = Path(tmp) / name
            main([*GOLDEN[name], "--out", str(out)])
            found = _csv_differences(_read(out), _read(GOLDEN_DIR / name))
            if found:
                lines.append(f"{name}: {found}")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        main(["validate", "bounds", "--trials", "100", "--seed", "42"])
    want = (GOLDEN_DIR / "validate_bounds.txt").read_text().splitlines()
    moved = [w.split(":")[0] for g, w in zip(stdout.getvalue().splitlines(), want) if g != w]
    if moved or len(stdout.getvalue().splitlines()) != len(want):
        lines.append(f"validate_bounds.txt: lines {', '.join(moved) or 'added or removed'}")
    return lines


def diff_status(lines: list[str]) -> int:
    """--diff's exit status for diff_golden's lines: 0 if every output is
    byte-identical, 1 if every difference is within rtol 1e-12, else 2."""
    if not lines:
        return 0
    return 1 if all(f": {_WITHIN};" in line for line in lines) else 2


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main([*GOLDEN[name], "--out", str(out)]) == 0
    got, want = _read(out), _read(GOLDEN_DIR / name)
    assert got[0] == want[0], VERSIONS
    assert len(got) == len(want), VERSIONS
    for got_row, want_row in zip(got[1:], want[1:]):
        assert len(got_row) == len(want_row), VERSIONS
        assert all(_same_cell(g, w) for g, w in zip(got_row, want_row)), \
            (got_row, want_row, VERSIONS)


def test_validate_matches_golden(capsys):
    assert main(["validate", "bounds", "--trials", "100", "--seed", "42"]) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / "validate_bounds.txt").read_text(), VERSIONS


def test_golden_holds_at_emulated_older_dispatch():
    # another machine, emulated: every numpy dispatch target this CPU
    # enables is turned off and OpenBLAS runs an older x86-64 core, both in
    # the child's environment only.  A discrete decision (a codebook
    # search's argmax, a random-BF claim, the singular flag) flipped on a
    # last-bit change would move a mean far beyond rtol 1e-12 and exit 2.
    targets = _enabled_targets()
    if not targets:
        pytest.skip("numpy enables no dispatch target on this CPU to turn off")
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(targets),
           "OPENBLAS_CORETYPE": "Nehalem", "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, __file__, "--diff"], env=env, capture_output=True,
                          text=True, timeout=300)
    shown = proc.stdout + proc.stderr
    assert proc.stdout.partition("\n")[0].endswith("dispatch none, OPENBLAS_CORETYPE Nehalem"), \
        shown
    assert proc.returncode in (0, 1), shown


def test_differences_are_counted_per_column():
    want = [["experiment", "curve", "throughput_bps_hz", "trials"],
            ["f", "a", "1.0", "40"], ["f", "b", "2.0", "40"]]
    assert _csv_differences([row[:] for row in want], want) is None
    got = [want[0], ["f", "a", "1.5", "40"], ["f", "b", "2.0", "41"]]
    assert _csv_differences(got, want) == (
        "throughput_bps_hz 1, trials 1; curves a, b; 2 not byte-identical")
    # a last-bit change is within rtol 1e-12 but still counted
    last_bit = [want[0], ["f", "a", "1.0000000000000002", "40"], ["f", "b", "2.0", "40"]]
    assert _csv_differences(last_bit, want) == "none beyond rtol 1e-12; 1 not byte-identical"
    got[2][2] = "2.0000000000000004"
    assert _csv_differences(got, want) == (
        "throughput_bps_hz 1, trials 1; curves a, b; 3 not byte-identical")
    assert _csv_differences(got[:2], want).startswith("header or row count")
    # --diff's exit status
    assert diff_status([]) == 0
    within = f"a.csv: {_csv_differences(last_bit, want)}"
    assert diff_status([within, within]) == 1
    assert diff_status([within, f"b.csv: {_csv_differences(got, want)}"]) == 2
    assert diff_status([f"b.csv: {_csv_differences(got[:2], want)}"]) == 2
    assert diff_status([within, "validate_bounds.txt: lines multiplexing_gain"]) == 2


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Compare fresh runs with tests/golden.")
    parser.add_argument("--diff", action="store_true", required=True,
                        help="print each golden file's differing cells, counted per column, "
                             "and its cells that are not byte-identical")
    parser.parse_args()
    print(VERSIONS)
    found = diff_golden()
    print("\n".join(found) or "every golden output matches")
    sys.exit(diff_status(found))
