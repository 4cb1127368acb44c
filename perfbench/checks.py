"""Output checks for the benchmark's workloads, and the machine block.

Usage: python3 perfbench/checks.py < REQUEST.json > RESPONSE.json

The request names a workload, its trials per point and the finished CLI
runs (output path, stdout, exit code).  For each run the response gives one
(name, ok, detail) entry per operation, where an operation is a simulated
curve or a correctness check, plus the trial-points done and the worst
std_err/mean.  The oracles are closed forms evaluated here with scipy,
independent of the package.  This runs in its own process so the process
that times the CLI never loads numpy or scipy.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import platform
import re
import sys
from dataclasses import dataclass

import numpy as np
import scipy
from scipy import integrate, special

from workloads import VALIDATE_POINTS_PER_TRIAL

CSV_HEADER = ["experiment", "curve", "M", "K", "policy", "precoder", "B_bits",
              "snr_db", "throughput_bps_hz", "std_err", "trials", "seed", "resamples"]
VALIDATE_CHECKS = ("rate_gap_dominance", "fixed_bits_ceiling", "scaled_bits_gap",
                   "multiplexing_gain")
THREAD_VARS = ("FBMIMO_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Curve:
    M: int
    snr_db: np.ndarray
    mean: np.ndarray
    se: np.ndarray
    b_bits: list[str]
    trials: np.ndarray


def parse_csv(text: str) -> tuple[list[str], dict[str, Curve]]:
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    grouped: dict[str, list[list[str]]] = {}
    for row in body:
        grouped.setdefault(row[1], []).append(row)
    curves = {}
    for label, rs in grouped.items():
        col = lambda i: np.array([float(r[i]) for r in rs])  # noqa: E731
        curves[label] = Curve(M=int(rs[0][2]), snr_db=col(7), mean=col(8), se=col(9),
                              b_bits=[r[6] for r in rs], trials=col(10))
    return header, curves


def trial_points(curves: dict[str, Curve]) -> int:
    """Simulated work in the CSV: trials summed over every simulated point."""
    return int(sum(c.trials.sum() for c in curves.values()))


def max_rel_se(curves: dict[str, Curve]) -> float:
    """Worst std_err / mean over the simulated points."""
    return max(float(np.max(c.se[c.trials > 0] / np.abs(c.mean[c.trials > 0])))
               for c in curves.values() if np.any(c.trials > 0))


def zf_perfect_oracle(snr_db: np.ndarray, M: int) -> np.ndarray:
    """Perfect-CSIT ZF sum rate with K = M: M E[log2(1 + (P/M) X)], X ~ Exp(1),
    which equals M log2(e) e^(1/a) E1(1/a) with a = P/M."""
    a = 10.0 ** (np.asarray(snr_db) / 10.0) / M
    return M * math.log2(math.e) * special.exp1(1.0 / a) * np.exp(1.0 / a)


def tdma_oracle(snr_db: float, M: int, K: int) -> float:
    """E[log2(1 + P X)] with X the max of K iid Gamma(M, 1): the max has CDF
    F^K, so the mean is the integral of P/(1 + P x) (1 - F(x)^K) / ln 2."""
    P = 10.0 ** (snr_db / 10.0)
    tail = lambda x: P / (1.0 + P * x) * (1.0 - special.gammainc(M, x) ** K)  # noqa: E731
    head, _ = integrate.quad(tail, 0.0, 4.0 * M, limit=200)
    rest, _ = integrate.quad(tail, 4.0 * M, np.inf, limit=200)
    return (head + rest) / math.log(2.0)


def _csv_shape_checks(header: list[str], curves: dict[str, Curve]) -> list[tuple[str, bool, str]]:
    finite = all(np.all(np.isfinite(c.mean)) and np.all(np.isfinite(c.se)) for c in curves.values())
    return [("csv_header", header == CSV_HEADER, ",".join(header)),
            ("csv_finite", bool(finite), "every throughput and std_err finite")]


def _read_csv_output(out: str) -> tuple[list[str], dict[str, Curve]]:
    with open(out, newline="") as fh:
        return parse_csv(fh.read())


def check_zf_grid(out: str, stdout: str, code: int) -> list[tuple[str, bool, str]]:
    header, curves = _read_csv_output(out)
    results = [("exit_code", code == 0, str(code))] + _csv_shape_checks(header, curves)
    perfect = curves["zf_perfect"]
    oracle = zf_perfect_oracle(perfect.snr_db, perfect.M)
    z = np.abs(perfect.mean - oracle) / perfect.se
    results.append(("zf_perfect_vs_oracle", bool(np.all(z <= 4.0)), f"max {z.max():.2f} sigma"))
    for B in (10, 15, 20):
        q = curves[f"zf_quantized_B{B}"]
        sigma = np.hypot(q.se, perfect.se)
        excess = (q.mean - perfect.mean) / sigma
        results.append((f"zf_quantized_B{B}_below_perfect", bool(np.all(excess <= 3.0)),
                        f"max excess {excess.max():+.2f} sigma"))
    return results


def check_rzf_baselines(out: str, stdout: str, code: int) -> list[tuple[str, bool, str]]:
    header, curves = _read_csv_output(out)
    results = [("exit_code", code == 0, str(code))] + _csv_shape_checks(header, curves)
    for label, c in curves.items():
        ok = bool(np.all(np.isfinite(c.mean)) and np.all(np.diff(c.mean) > 0.0))
        results.append((f"{label}_increasing", ok, " ".join(f"{m:.3f}" for m in c.mean)))
    tdma = curves["tdma"]
    oracle = np.array([tdma_oracle(s, tdma.M, tdma.M) for s in tdma.snr_db])
    z = np.abs(tdma.mean - oracle) / tdma.se
    results.append(("tdma_vs_oracle", bool(np.all(z <= 4.0)), f"max {z.max():.2f} sigma"))
    return results


def check_brute_codebook(out: str, stdout: str, code: int) -> list[tuple[str, bool, str]]:
    header, curves = _read_csv_output(out)
    results = [("exit_code", code == 0, str(code))] + _csv_shape_checks(header, curves)
    (c,) = curves.values()
    M, B = c.M, float(c.b_bits[0])
    P = 10.0 ** (c.snr_db / 10.0)
    oracle = zf_perfect_oracle(c.snr_db, M)
    lower = oracle - M * np.log2(1.0 + P * 2.0 ** (-B / (M - 1)))
    upper = oracle + 3.0 * c.se
    ok = bool(np.all((c.mean >= lower) & (c.mean <= upper)))
    results.append(("brute_rate_in_gap_band", ok,
                    f"{c.mean[0]:.3f} in [{lower[0]:.3f}, {upper[0]:.3f}]"))
    return results


_VERDICT = re.compile(r"^(\w+): (PASS|FAIL) \((.*)\)$")
_SLOPE = re.compile(r"slope (-?[\d.]+) vs (-?[\d.]+)")


def check_validate_bounds(out: str, stdout: str, code: int) -> list[tuple[str, bool, str]]:
    """The three checks with wide margins must PASS.  The multiplexing-gain
    check's margin is 0.03 against a tolerance of 0.3 (fitted slope about
    1.73 against a prediction of 2), so at benchmark trial counts its verdict
    depends on the seed; for it the benchmark checks that the verdict agrees
    with the printed slopes, and that the exit code agrees with the verdicts."""
    verdicts = {}
    for line in stdout.splitlines():
        m = _VERDICT.match(line.strip())
        if m:
            verdicts[m.group(1)] = (m.group(2) == "PASS", m.group(3))
    results = [("validate_lines", sorted(verdicts) == sorted(VALIDATE_CHECKS),
                ",".join(sorted(verdicts)))]
    for name in VALIDATE_CHECKS[:3]:
        passed, detail = verdicts.get(name, (False, "missing"))
        results.append((name, passed, detail))
    passed, detail = verdicts.get("multiplexing_gain", (False, ""))
    # slopes print with two decimals, so a gap within 0.005 of 0.3 allows either verdict
    gaps = [abs(float(a) - float(b)) for a, b in _SLOPE.findall(detail)]
    consistent = len(gaps) == 2 and (
        (passed and all(g <= 0.305 for g in gaps)) or (not passed and any(g >= 0.295 for g in gaps)))
    results.append(("multiplexing_gain_verdict_matches_slopes", consistent, detail))
    expected = 0 if all(p for p, _ in verdicts.values()) else 1
    results.append(("exit_code_matches_verdicts", code == expected, str(code)))
    return results


CHECKS = {
    "zf_grid": check_zf_grid,
    "rzf_baselines": check_rzf_baselines,
    "brute_codebook": check_brute_codebook,
    "validate_bounds": check_validate_bounds,
}


def evaluate(workload: str, trials: int, out: str, stdout: str, code: int) -> dict:
    """Checks, trial-points and worst relative std_err of one CLI run."""
    try:
        checks = CHECKS[workload](out, stdout, code)
        if workload == "validate_bounds":
            return {"checks": checks, "points": VALIDATE_POINTS_PER_TRIAL * trials, "rel_se": None}
        _, curves = _read_csv_output(out)
        return {"checks": checks, "points": trial_points(curves), "rel_se": max_rel_se(curves)}
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return {"checks": [("output_readable", False, f"exit {code}: {exc!r}")],
                "points": 0, "rel_se": None}


def machine() -> dict:
    def blas(config) -> str:
        return config(mode="dicts")["Build Dependencies"]["blas"].get("version", "unknown")

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(np.show_config),
        "scipy_openblas": blas(scipy.show_config),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def main() -> int:
    request = json.load(sys.stdin)
    runs = {r["tag"]: evaluate(request["workload"], request["trials"], r["out"], r["stdout"],
                               r["code"])
            for r in request["runs"]}
    json.dump({"machine": machine(), "runs": runs}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
