"""Throughput versus feedback bits at a fixed operating point.

Answers "how many bits does this system need": sweeps B for an M-antenna,
M-user quantized-ZF downlink at one SNR and prints the simulated sum
throughput next to the perfect-CSIT reference, the per-user loss bound,
and the fixed-B ceiling.
"""

import argparse
import csv
import sys

from fbmimo import ScalingPolicy, SimConfig, ceiling_fixed_B, mu_throughput, rate_gap_bound
from fbmimo.cli import parse_bit_range
from fbmimo.simulate import FAST_DECOMPOSITION


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--M", type=int, default=4, help="transmit antennas (= users)")
    ap.add_argument("--snr-db", type=float, default=10.0, help="operating SNR in dB")
    ap.add_argument("--B", default="2..16", help="bit counts to sweep (int or lo..hi)")
    ap.add_argument("--trials", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", default=None, help="also write rows to this CSV file")
    args = ap.parse_args()

    grid = (args.snr_db,)
    P = 10.0 ** (args.snr_db / 10.0)
    perfect = mu_throughput(SimConfig(M=args.M, K=args.M, snr_grid_db=grid,
                                      trials=args.trials, seed=args.seed))
    ref = float(perfect.mean_bps_hz[0])
    print(f"M={args.M}, {args.snr_db:g} dB, {args.trials} trials; "
          f"perfect-CSIT ZF reference {ref:.3f} bps/Hz")
    header = ["B", "throughput_bps_hz", "std_err", "per_user_loss_bound", "ceiling_exact"]
    print(f"{'B':>3} {'throughput':>11} {'std_err':>8} {'loss_bound':>10} {'ceiling':>8}")
    rows = []
    for b in parse_bit_range(args.B):
        cfg = SimConfig(M=args.M, K=args.M, snr_grid_db=grid, policy=ScalingPolicy.fixed(b),
                        path=FAST_DECOMPOSITION, trials=args.trials, seed=args.seed)
        curve = mu_throughput(cfg)
        bound = rate_gap_bound(P, args.M, b)
        ceiling = ceiling_fixed_B(args.M, b)[1]
        rows.append([b, float(curve.mean_bps_hz[0]), float(curve.std_err[0]), bound, ceiling])
        print(f"{b:>3} {rows[-1][1]:>11.3f} {rows[-1][2]:>8.4f} {bound:>10.3f} {ceiling:>8.2f}")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows([[repr(v) if isinstance(v, float) else str(v) for v in r] for r in rows])
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
