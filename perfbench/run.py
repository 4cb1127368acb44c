"""fbmimo benchmark: run one workload through the CLI and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload zf_grid --seed 1 --seconds 20 --trace 0

Each measurement is one ``python3 -m fbmimo.cli ...`` run in a fresh process
(one client, closed loop), with the package taken from ``src/``.  The run
repeats the workload with seeds derived from ``--seed`` until ``--seconds``
are used (at least three times), checks every output, and reports medians.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` measures a shorter untraced baseline, then runs the workload
once under ``tracer.py`` with the thread settings as found and once with
FBMIMO_THREADS=1 OPENBLAS_NUM_THREADS=1 (the single-threaded baseline,
reported as ``st.*`` diagnostics), and prints the per-layer metrics.
The thread environment variables are never set for the measured runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; an operation is a
simulated curve or a correctness check, and ``failed / attempted`` is the
failed fraction.  A ``machine`` line before it records the versions and the
thread environment.

This process imports only the standard library: a child's peak resident
memory includes that of the process it was spawned from, so the checks that
need numpy and scipy run afterwards in ``checks.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SINGLE_THREAD_ENV = {"FBMIMO_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
SETUP_REPEATS = 5
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150.0
TARGET_REL_SE = 0.01


@dataclass
class Run:
    """One finished child process."""

    tag: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    stdout: str
    out_path: Path
    points: int = 0               # trial-points, set once the output passed the checks' parser
    rel_se: float | None = None   # worst std_err / mean over simulated CSV points

    def output(self) -> bytes:
        return self.out_path.read_bytes() if self.out_path.exists() else b""


def child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update(extra or {})
    return env


def spawn(cmd: list[str], env: dict, workdir: Path, tag: str, out_path: Path | None = None) -> Run:
    """Run cmd to completion; wall time from spawn to exit, CPU and peak RSS
    from the child's own resource usage."""
    stdout_path = workdir / f"{tag}.stdout"
    with open(stdout_path, "w") as out, open(workdir / f"{tag}.stderr", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err, cwd=workdir)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(tag=tag, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
               peak_rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode,
               stdout=stdout_path.read_text(), out_path=out_path or stdout_path)


def run_cli(w: Workload, seed: int, trials: int, workdir: Path, tag: str, prefix: list[str],
            env: dict) -> Run:
    """One CLI run; its output is the CSV it writes, or else its stdout."""
    args = [*w.argv, "--trials", str(trials), "--seed", str(seed)]
    if not w.writes_csv:
        return spawn(prefix + args, env, workdir, tag)
    out_path = workdir / f"{tag}.csv"
    return spawn(prefix + args + ["--out", str(out_path)], env, workdir, tag, out_path)


class Ledger:
    """Operations attempted and failed; failures are echoed to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, tag: str, checks: list) -> None:
        for name, ok, detail in checks:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"FAILED {tag} {name}: {detail}", file=sys.stderr)


def measure(w: Workload, seed: int, trials: int, budget_s: float, min_runs: int,
            workdir: Path) -> list[Run]:
    """Closed loop: start the next CLI run only after the previous ended,
    while the budget allows another run of median length.  Run k uses seed
    ``seed * 1000 + k``."""
    runs: list[Run] = []
    start = time.perf_counter()
    env = child_env()
    while len(runs) < min_runs or (
            time.perf_counter() - start + statistics.median(r.wall_s for r in runs) <= budget_s):
        k = len(runs)
        runs.append(run_cli(w, seed * 1000 + k, trials, workdir, f"run{k}",
                            [sys.executable, "-m", "fbmimo.cli"], env))
    print("wall_s per run: " + " ".join(f"{r.wall_s:.3f}" for r in runs), file=sys.stderr)
    return runs


def measure_setup(workdir: Path, ledger: Ledger) -> list[float]:
    """Seconds from spawning a fresh interpreter to ``fbmimo.cli`` imported
    (and the interpreter gone); one warm-up run fills the bytecode cache."""
    cmd = [sys.executable, "-c", "import fbmimo.cli; print(fbmimo.cli.__file__)"]
    env = child_env()
    warm = spawn(cmd, env, workdir, "setup_warm")
    expected = (ROOT / "src" / "fbmimo" / "cli.py").resolve()
    imported = warm.stdout.strip()
    ledger.record("setup", [("imports_checkout_src",
                             warm.code == 0 and Path(imported).resolve() == expected,
                             imported or f"exit {warm.code}")])
    return [spawn(cmd, env, workdir, f"setup{i}").wall_s for i in range(SETUP_REPEATS)]


def check_runs(w: Workload, trials: int, runs: list[Run], workdir: Path, ledger: Ledger) -> dict:
    """Check every run's output in a separate process; returns the machine block."""
    request = {"workload": w.name, "trials": trials,
               "runs": [{"tag": r.tag, "out": str(r.out_path), "stdout": r.stdout, "code": r.code}
                        for r in runs]}
    proc = subprocess.run([sys.executable, str(HERE / "checks.py")], input=json.dumps(request),
                          capture_output=True, text=True, cwd=workdir, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        ledger.record("checks", [("checker_ran", False, proc.stderr.strip()[-500:])])
        return {}
    response = json.loads(proc.stdout)
    for r in runs:
        verdict = response["runs"][r.tag]
        ledger.record(r.tag, verdict["checks"])
        r.points, r.rel_se = verdict["points"], verdict["rel_se"]
    return response["machine"]


def end_to_end(runs: list[Run], setup: list[float]) -> dict:
    runs = [r for r in runs if r.points]
    if not runs:
        return {}
    wall = statistics.median(r.wall_s for r in runs)
    # time to 1% relative std_err: wall_s x (max_rel_se / 1%)^2, with max_rel_se^2
    # averaged over the runs' seeds; validate writes no CSV, and its accuracy
    # target is its own checks, reached in wall_s
    rel_se2 = [r.rel_se ** 2 for r in runs if r.rel_se is not None]
    return {
        "wall_s": wall,
        "trials_per_s": statistics.median(r.points / r.wall_s for r in runs),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "time_to_1pct_s": wall * statistics.mean(rel_se2) / TARGET_REL_SE ** 2 if rel_se2 else wall,
    }


def traced_pass(w: Workload, trials: int, seed: int, reference: Run, workdir: Path,
                tag: str, ledger: Ledger, extra_env: dict | None = None) -> tuple[Run, dict]:
    summary_path = workdir / f"{tag}.json"
    prefix = [sys.executable, str(HERE / "tracer.py"), str(summary_path), "--"]
    run = run_cli(w, seed, trials, workdir, tag, prefix, child_env(extra_env))
    summary = json.loads(summary_path.read_text()) if summary_path.exists() else {}
    setups, trials_run = summary.get("numerics.rng_setup.calls"), summary.get("simulate.trials")
    ledger.record(tag, [
        ("output_identical_to_untraced", run.output() == reference.output(),
         f"{run.out_path.name} vs {reference.out_path.name}"),
        ("every_trial_traced", bool(trials_run) and setups == trials_run,
         f"{setups} stream setups for {trials_run} trials"),
    ])
    summary["wall_s"] = run.wall_s
    summary["cli.csv_rows"] = max(0, len(run.output().splitlines()) - 1) if w.writes_csv else 0
    return run, summary


def per_layer(w: Workload, seed: int, trials: int, budget_s: float, workdir: Path,
              ledger: Ledger) -> tuple[dict, list[Run]]:
    runs = measure(w, seed, trials, budget_s / 2.0, 2, workdir)
    traced_run, traced = traced_pass(w, trials, seed * 1000, runs[0], workdir, "traced", ledger)
    single_run, single = traced_pass(w, trials, seed * 1000, runs[0], workdir, "traced_st", ledger,
                                     SINGLE_THREAD_ENV)
    # BENCHMARK.json picks which of these are reported; the single-threaded
    # pass is diagnostic and carries the "st." prefix
    values = {**traced, **{f"st.{name}": value for name, value in single.items()}}
    values["trace.overhead_s"] = traced_run.wall_s - statistics.median(r.wall_s for r in runs)
    return values, runs + [traced_run, single_run]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int, help="override the workload's trials per point")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "fbmimo" / "cli.py").is_file() or not spec_path.is_file():
        print(f"no fbmimo sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    w = WORKLOADS[args.workload]
    trials = args.trials or w.trials
    ledger = Ledger()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            values, runs = per_layer(w, args.seed, trials, args.seconds, workdir, ledger)
            machine = check_runs(w, trials, runs, workdir, ledger)
            names = spec["per_layer"]
        else:
            setup = measure_setup(workdir, ledger)
            runs = measure(w, args.seed, trials, args.seconds, MIN_RUNS, workdir)
            machine = check_runs(w, trials, runs, workdir, ledger)
            values = end_to_end(runs, setup)
            names = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("machine " + json.dumps(machine))
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in names}
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
