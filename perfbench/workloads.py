"""The benchmark's workloads: one ``fbmimo`` command each.

This module imports nothing outside the standard library, so the process
that spawns and times the CLI stays small: a child's peak resident memory
includes the memory of the process it was spawned from.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]    # fbmimo arguments before --trials/--seed/--out
    trials: int              # Monte Carlo trials per SNR point
    writes_csv: bool


# All four run here; BENCHMARK.json compares only rzf_baselines and
# brute_codebook.  On a 2-vCPU VM under host CPU steal the wall time of
# zf_grid and validate_bounds, whose many tiny linear-algebra calls meet the
# simulation pool and spinning OpenBLAS threads, moved by up to 30% between
# sets of runs, wider than the largest bound (25%) a compared metric may have.
WORKLOADS = {w.name: w for w in (
    Workload("zf_grid", ("figure", "fixed5x5"), 300, True),
    Workload("rzf_baselines", ("figure", "compare88"), 300, True),
    Workload("brute_codebook",
             ("sweep", "--engine", "mu", "--M", "4", "--csit", "quantized", "--scaling", "fixed",
              "--B", "10", "--path", "brute", "--snr", "10:10:10"),
             300, True),
    Workload("validate_bounds", ("validate", "bounds"), 100, False),
)}

# Trial-points of `fbmimo validate bounds` per --trials: the rate-gap grid
# (M = 3..6, B = 4/8/12, 7 SNR points), the 1-point ceiling check, the
# 7-point scaled gap and two 9-point multiplexing-gain curves.
VALIDATE_POINTS_PER_TRIAL = 4 * 3 * 7 + 1 + 7 + 2 * 9
