"""Check that this checkout writes the same bytes as another one.

Runs the golden battery of tests/test_golden.py (the nine figure presets,
the sweeps and the quantizer table) and ``validate bounds --seed 42`` in
both trees, each as ``python -m fbmimo.cli ... --out -`` with
PYTHONPATH=<tree>/src, at the trial count given, and compares each
command's exit code and stdout byte for byte:

    python scripts/same_outputs.py ../parent --trials 200 --only figures

prints the outputs that differ and exits 0 if there are none, 1 otherwise.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
from test_golden import GOLDEN  # noqa: E402

GROUPS = ("figures", "sweeps", "validate")


def battery(trials: int, groups) -> dict[str, list[str]]:
    """{output name: fbmimo arguments} of the chosen groups at `trials`."""
    runs = {}
    for name, argv in GOLDEN.items():
        if ("figures" if argv[0] == "figure" else "sweeps") in groups:
            argv = list(argv)
            if "--trials" in argv:  # the quantizer table draws nothing
                argv[argv.index("--trials") + 1] = str(trials)
            runs[name] = [*argv, "--out", "-"]
    if "validate" in groups:
        runs["validate_bounds.txt"] = ["validate", "bounds", "--trials", str(trials),
                                       "--seed", "42"]
    return runs


def output(tree: Path, argv: list[str]) -> tuple[int, bytes]:
    """(exit code, stdout) of `fbmimo argv` run from tree's src."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-m", "fbmimo.cli", *argv], env=env,
                          capture_output=True, timeout=3600)
    return proc.returncode, proc.stdout


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", type=Path, help="the checkout to compare with, e.g. the parent")
    ap.add_argument("--trials", type=int, default=40, help="Monte Carlo trials per point")
    ap.add_argument("--only", action="append", choices=GROUPS,
                    help="run just these groups (repeatable)")
    args = ap.parse_args()
    differ = []
    for name, argv in battery(args.trials, args.only or GROUPS).items():
        (code, out), (other_code, other_out) = output(ROOT, argv), output(args.other, argv)
        if (code, out) != (other_code, other_out):
            differ.append(name)
            print(f"{name}: differs (exit {code}, {len(out)} bytes; "
                  f"other exit {other_code}, {len(other_out)} bytes)")
    print(f"{len(differ)} outputs differ" if differ else "every output is byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
