"""Command-line front end: figure presets, generic sweeps, tables, validation.

Output CSV schema (one row per curve point, schema-stable):
experiment,curve,M,K,policy,precoder,B_bits,snr_db,throughput_bps_hz,std_err,trials,seed,resamples
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from . import bounds as bd
from . import simulate as sim
from .bounds import ScalingPolicy, ThroughputCurve
from .errors import CapacityError, ConfigError, DomainError, ResampleLimitError
from .precoder import RZF, ZF

CSV_COLUMNS = ["experiment", "curve", "M", "K", "policy", "precoder", "B_bits",
               "snr_db", "throughput_bps_hz", "std_err", "trials", "seed", "resamples"]

_PATH_ALIASES = {
    "brute": sim.BRUTE_FORCE, "brute_force": sim.BRUTE_FORCE,
    "fast": sim.FAST_DECOMPOSITION, "fast_decomposition": sim.FAST_DECOMPOSITION,
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved description of one CLI run."""

    command: str
    figure_id: str | None = None
    table_kind: str | None = None
    validate_target: str | None = None
    M: int = 4
    K: int | None = None
    engine: str = "mu"
    csit: str = "quantized"
    precoder: str = ZF
    scaling: str = "fixed"
    B: str | None = None
    b_gap: float | None = None
    alpha: float | None = None
    path: str | None = None
    trials: int = sim.DEFAULT_TRIALS
    seed: int = sim.DEFAULT_SEED
    snr: str | None = None
    out: str | None = None


# An SNR point is a Monte Carlo run of every curve and a bit count a table
# row, so no run needs this many; the cap stops a mistyped grid (0:1e-9:1)
# or bit range (0..1000000000) from building 10^9 values.
_MAX_POINTS = 100_000


def parse_snr_grid(text: str) -> tuple:
    """Parse 'lo:step:hi' into an inclusive strictly increasing grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"snr must look like lo:step:hi, got {text!r}")
    try:
        lo, step, hi = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"snr must contain numbers, got {text!r}") from None
    if not all(map(math.isfinite, (lo, step, hi))) or step <= 0.0 or hi < lo:
        raise ConfigError(f"snr needs step > 0 and hi >= lo, all finite, got {text!r}")
    # the points lo + i*step below hi + step/2, before rounding up
    count = (hi + step / 2.0 - lo) / step
    if not count <= _MAX_POINTS:
        raise ConfigError(f"snr has more than {_MAX_POINTS} points, got {text!r}")
    # lo + i*step rounded, so 0:0.1:1 gives 0.3 rather than 0.30000000000000004
    grid = tuple(round(lo + i * step, 12) for i in range(math.ceil(count)))
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"snr points must stay distinct when rounded to 12 decimals, "
                          f"got {text!r}")
    if grid[-1] > sim.MAX_SNR_DB:
        raise ConfigError(f"snr points must be at most {sim.MAX_SNR_DB} dB, got {text!r}")
    return grid


def parse_bit_range(value) -> list[int]:
    """Accept an int, 'N', or 'lo..hi' and return the list of bit counts."""
    if isinstance(value, int):
        return [value]
    text = str(value)
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ConfigError(f"B range must look like lo..hi, got {text!r}") from None
        if hi < lo:
            raise ConfigError(f"B range must be increasing, got {text!r}")
        if hi - lo >= _MAX_POINTS:
            raise ConfigError(f"B range has more than {_MAX_POINTS} values, got {text!r}")
        return list(range(lo, hi + 1))
    try:
        return [int(text)]
    except ValueError:
        raise ConfigError(f"B must be an integer or lo..hi range, got {text!r}") from None


def _load_config(path: str | None) -> dict:
    """The JSON object in the config file at path; {} without a file."""
    if not path:
        return {}
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # malformed JSON or text that is not UTF-8
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def _analytic_curve(label: str, grid: tuple, M: int, values, seed: int,
                    b_bits: float = math.nan) -> ThroughputCurve:
    n = len(grid)
    return ThroughputCurve(
        label=label, snr_db=np.array(grid), mean_bps_hz=np.asarray(values, dtype=float),
        std_err=np.zeros(n), trials=np.zeros(n, dtype=int), M=M, K=1,
        policy="analytic", precoder="BF", seed=seed, b_bits=np.full(n, b_bits))


# the sweep options that set up quantized feedback, which not every engine reads
_FEEDBACK_OPTIONS = ("csit", "precoder", "scaling", "B", "b_gap", "alpha", "path")

# engine -> (fbmimo.simulate function name, default quantization path, the
# feedback options it reads).  The function is looked up on the module at
# call time, so a wrapper installed there after import (perfbench/tracer.py
# does this) is the one that runs.
_ENGINES = {
    "mu": ("mu_throughput", sim.FAST_DECOMPOSITION, _FEEDBACK_OPTIONS),
    "miso": ("miso_feedback_throughput", sim.BRUTE_FORCE,
             ("csit", "scaling", "B", "b_gap", "alpha", "path")),
    "tdma": ("tdma_throughput", sim.FAST_DECOMPOSITION, ()),
    "random_bf": ("random_bf_throughput", sim.FAST_DECOMPOSITION, ()),
}


@dataclass(frozen=True)
class _Curve:
    """One simulated curve; no policy means perfect CSIT, no label the
    engine's default label."""

    engine: str
    label: str | None = None
    policy: ScalingPolicy | None = None
    precoder: str = ZF


def _curve_config(spec: ExperimentSpec, curve: _Curve, M: int, grid: tuple,
                  K: int | None = None) -> sim.SimConfig:
    if K is None:
        K = 1 if curve.engine == "miso" else M
    return sim.SimConfig(M=M, K=K, snr_grid_db=grid, policy=curve.policy,
                         precoder=curve.precoder,
                         path=_PATH_ALIASES[spec.path] if spec.path else _ENGINES[curve.engine][1],
                         trials=spec.trials, seed=spec.seed)


def _run_curve(spec: ExperimentSpec, curve: _Curve, M: int, grid: tuple,
               K: int | None = None) -> ThroughputCurve:
    cfg = _curve_config(spec, curve, M, grid, K)
    engine = getattr(sim, _ENGINES[curve.engine][0])
    return engine(cfg, label=curve.label) if curve.label else engine(cfg)


_MISO_BITS = 3


def _miso_references(spec: ExperimentSpec, M: int, grid: tuple) -> list[ThroughputCurve]:
    refs = [bd.miso_reference(10.0 ** (s / 10.0), M, _MISO_BITS) for s in grid]
    return [
        _analytic_curve("miso_csit_reference", grid, M, [r.c_csit for r in refs], spec.seed),
        _analytic_curve("miso_nocsit_reference", grid, M, [r.c_nocsit for r in refs], spec.seed),
        _analytic_curve("miso_fb_approx_reference", grid, M,
                        [r.r_fb_approx for r in refs], spec.seed, b_bits=float(_MISO_BITS)),
    ]


def _offset_reference(spec: ExperimentSpec, M: int, grid: tuple) -> list[ThroughputCurve]:
    """Perfect-CSIT ZF simulated on the grid shifted by the ZF/DPC power
    offset and reported on the unshifted grid."""
    offset = bd.zf_dpc_power_offset_db(M)
    shifted = _run_curve(spec, _Curve("mu"), M, tuple(s + offset for s in grid))
    return [replace(shifted, label="sum_capacity_offset_reference", snr_db=np.array(grid),
                    policy=f"zf_perfect shifted {offset:.2f} dB")]


_ZF_PERFECT = _Curve("mu", "zf_perfect")
_SCALED = ScalingPolicy.approx_3db(2.0)
_BASELINES = (_Curve("tdma"), _Curve("random_bf"))

# figure id -> (M, default SNR grid, entries in CSV order).  An entry is a
# _Curve or a function (spec, M, grid) returning analytic or derived curves.
_PRESETS = {
    "miso4x1": (4, "0:5:30", (_miso_references,
                              _Curve("miso", policy=ScalingPolicy.fixed(_MISO_BITS)))),
    "fixed5x5": (5, "0:5:50", (_ZF_PERFECT, *(
        _Curve("mu", f"zf_quantized_B{B}", ScalingPolicy.fixed(B)) for B in (10, 15, 20)))),
    "scaled5x5": (5, "0:5:25", (_ZF_PERFECT, _Curve("mu", "zf_quantized_scaled", _SCALED),
                                _offset_reference)),
    "scaled6x6": (6, "0:5:30", (_ZF_PERFECT, *(
        _Curve("mu", f"zf_quantized_b{b_gap:g}", ScalingPolicy.approx_3db(b_gap))
        for b_gap in (2.0, 4.0)))),
    # alpha = frac * (M - 1) for frac = 0.5 and 1.3
    "mux4x4": (4, "0:5:40", (_ZF_PERFECT, *(
        _Curve("mu", f"zf_quantized_alpha{alpha:g}", ScalingPolicy.alpha_scaled(alpha))
        for alpha in (0.5 * (4 - 1), 1.3 * (4 - 1))))),
    "reg5x5": (5, "0:5:30", (_ZF_PERFECT, _Curve("mu", "rzf_perfect", precoder=RZF),
                             _Curve("mu", "zf_quantized_scaled", _SCALED),
                             _Curve("mu", "rzf_quantized_scaled", _SCALED, RZF))),
    "compare44": (4, "0:5:20", (_Curve("mu", "rzf_quantized_scaled", _SCALED, RZF),
                                *_BASELINES)),
    "compare44b": (4, "0:5:20", (*(
        _Curve("mu", f"rzf_quantized_B{B}", ScalingPolicy.fixed(B), RZF) for B in (5, 10, 15, 20)),
        *_BASELINES)),
    "compare88": (8, "0:5:20", (_Curve("mu", "rzf_quantized_scaled", _SCALED, RZF),
                                _Curve("mu", "rzf_quantized_B20", ScalingPolicy.fixed(20), RZF),
                                *_BASELINES)),
}

FIGURE_IDS = tuple(_PRESETS)


def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(value)
    return str(value)


def curves_to_rows(experiment: str, curves: list[ThroughputCurve]) -> list[list[str]]:
    rows = []
    for c in curves:
        for j in range(len(c.snr_db)):
            rows.append([
                experiment, c.label, str(c.M), str(c.K), c.policy, c.precoder,
                _fmt(float(c.b_bits[j])), _fmt(float(c.snr_db[j])),
                _fmt(float(c.mean_bps_hz[j])), _fmt(float(c.std_err[j])),
                str(int(c.trials[j])), str(c.seed), str(int(c.resamples[j])),
            ])
    return rows


def _write_csv(out: str | None, experiment: str, header: list[str], rows: list[list[str]]) -> None:
    with (nullcontext(sys.stdout) if out == "-"
          else open(out or f"{experiment}.csv", "w", newline="")) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _shares(entries: tuple, count: int) -> list[list[int]]:
    """Entry indices for each of at most `count` processes, each in order.

    Heaviest first, each entry goes to the least loaded share, where a
    quantized-CSIT curve weighs 2 and any other entry 1: at 300 trials a
    quantized curve takes 1.8-2.1 times as long as perfect-CSIT ZF on the
    same grid, and the baselines and derived references no longer.  Share
    0 holds the heaviest entry; it runs on the calling process.
    """
    weight = [2 if isinstance(e, _Curve) and e.policy is not None else 1 for e in entries]
    shares, loads = [[] for _ in range(count)], [0] * count
    for i in sorted(range(len(entries)), key=lambda i: -weight[i]):
        w = loads.index(min(loads))
        shares[w].append(i)
        loads[w] += weight[i]
    return [sorted(share) for share in shares if share]


def _run_figure(spec: ExperimentSpec) -> int:
    """The preset's curves, in preset order.  Its entries are split into
    shares over the CPUs (_shares), one process each, when it has at least
    two simulated curves; each curve still draws only from its own trial
    streams, so the CSV does not depend on the split."""
    from .shares import run_in_shares  # here, so that importing fbmimo.cli never loads it
    M, default_grid, entries = _PRESETS[spec.figure_id]
    grid = parse_snr_grid(spec.snr or default_grid)
    for entry in entries:  # a curve the path cannot take fails before any is drawn
        if isinstance(entry, _Curve):
            sim.grid_bits(_curve_config(spec, entry, M, grid))

    def curves_of(i: int) -> list[ThroughputCurve]:
        entry = entries[i]
        return entry(spec, M, grid) if callable(entry) else [_run_curve(spec, entry, M, grid)]

    simulated = sum(isinstance(entry, _Curve) for entry in entries)
    count = sim._cpus() if simulated > 1 else 1
    curves = [c for part in run_in_shares(curves_of, _shares(entries, count)) for c in part]
    _write_csv(spec.out, spec.figure_id, CSV_COLUMNS, curves_to_rows(spec.figure_id, curves))
    return 0


# --scaling -> (the field holding its parameter, ScalingPolicy constructor)
_SCALINGS = {
    "fixed": ("B", ScalingPolicy.fixed),
    "exact": ("b_gap", ScalingPolicy.exact_scaled),
    "approx3": ("b_gap", ScalingPolicy.approx_3db),
    "alpha": ("alpha", ScalingPolicy.alpha_scaled),
}

# the fields that hold a scaling's parameter: B, b_gap, alpha
_SCALING_FIELDS = tuple(dict.fromkeys(field for field, _ in _SCALINGS.values()))


def _sweep_policy(spec: ExperimentSpec) -> ScalingPolicy | None:
    if spec.csit == "perfect":
        return None
    field, make = _SCALINGS[spec.scaling]
    value = getattr(spec, field)
    if value is None:
        raise ConfigError(f"{spec.scaling} scaling requires field {field!r}")
    if field == "B":
        bits = parse_bit_range(value)
        if len(bits) != 1:
            raise ConfigError("sweep takes a single B value, not a range")
        value = bits[0]
    return make(value)


def _run_sweep(spec: ExperimentSpec) -> int:
    policy = _sweep_policy(spec) if _ENGINES[spec.engine][2] else None
    curve = _run_curve(spec, _Curve(spec.engine, policy=policy, precoder=spec.precoder), spec.M,
                       parse_snr_grid(spec.snr or "0:5:40"), spec.K)
    _write_csv(spec.out, "sweep", CSV_COLUMNS, curves_to_rows("sweep", [curve]))
    return 0


def _run_table(spec: ExperimentSpec) -> int:
    from .quantizer import (error_upper_bound, expected_error,
                            expected_neg_log2_error, expected_optimal_error)
    if spec.B is None:
        raise ConfigError("table requires field 'B' (single value or lo..hi)")
    header = ["B", "expected_error", "upper_bound", "optimal_lower_mean", "neg_log2_mean"]
    rows = []
    for B in parse_bit_range(spec.B):
        rows.append([str(B), _fmt(expected_error(spec.M, B)), _fmt(error_upper_bound(spec.M, B)),
                     _fmt(expected_optimal_error(spec.M, B)),
                     _fmt(expected_neg_log2_error(spec.M, B))])
    _write_csv(spec.out, f"table_{spec.table_kind}", header, rows)
    return 0


def _verdict(check: str, passed, detail: str) -> bool:
    print(f"{check}: {'PASS' if passed else 'FAIL'} ({detail})")
    return bool(passed)


def _run_validate(spec: ExperimentSpec) -> int:
    ok = True

    # rate-gap bound dominance over the (M, B, SNR) grid
    grid = parse_snr_grid("0:5:30")
    worst = -math.inf
    violations = 0
    points = 0
    for M in (3, 4, 5, 6):
        for B in (4, 8, 12):
            gap = sim.rate_gap(_curve_config(spec, _Curve("mu", policy=ScalingPolicy.fixed(B)),
                                             M, grid))
            for snr, dr, se in zip(gap.snr_db, gap.mean_bps_hz, gap.std_err):
                bound = bd.rate_gap_bound(10.0 ** (snr / 10.0), M, B)
                points += 1
                slack = dr - (bound + 3.0 * se)
                worst = max(worst, slack)
                if slack > 0.0:
                    violations += 1
    ok &= _verdict("rate_gap_dominance", violations == 0,
                   f"{points - violations}/{points} points, worst slack {worst:+.4f}")

    # fixed-B ceiling at high SNR
    curve = _run_curve(spec, _Curve("mu", policy=ScalingPolicy.fixed(10)), 5, (40.0,))
    _, exact = bd.ceiling_fixed_B(5, 10)
    ok &= _verdict("fixed_bits_ceiling", curve.mean_bps_hz[0] <= exact,
                   f"throughput {curve.mean_bps_hz[0]:.2f} <= ceiling {exact:.2f}")

    # scaled feedback keeps the per-user gap under log2(b_gap)
    gap = sim.rate_gap(_curve_config(spec, _Curve("mu", policy=ScalingPolicy.exact_scaled(2.0)),
                                     5, grid))
    ok &= _verdict("scaled_bits_gap", np.all(gap.mean_bps_hz < 1.0),
                   f"max per-user gap {gap.mean_bps_hz.max():.3f} < 1.0")

    # multiplexing gain follows the alpha prediction; the 20 dB fit window
    # sits at 40-60 dB because at 20-40 dB the alpha=1.5 slope is still
    # about 1.74, not yet near its asymptote of 2
    line_ok = True
    details = []
    for frac in (0.5, 1.3):
        alpha = frac * 3.0
        curve = _run_curve(spec, _Curve("mu", policy=ScalingPolicy.alpha_scaled(alpha)), 4,
                           parse_snr_grid("0:5:60"))
        slope = bd.fit_multiplexing_gain(curve)
        predicted = bd.mux_gain_prediction(alpha, 4)
        details.append(f"alpha={alpha:g}: slope {slope:.2f} vs {predicted:g}")
        line_ok &= abs(slope - predicted) <= 0.3
    ok &= _verdict("multiplexing_gain", line_ok, "; ".join(details))

    return 0 if ok else 1


def run(spec: ExperimentSpec) -> int:
    """Execute a resolved spec; returns a process exit code."""
    try:
        if spec.command == "figure":
            return _run_figure(spec)
        if spec.command == "sweep":
            return _run_sweep(spec)
        if spec.command == "table":
            return _run_table(spec)
        return _run_validate(spec)
    except (ConfigError, CapacityError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ResampleLimitError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 4


# field -> add_argument keywords: a command's positional, or the option
# --name with '_' written '-'
_OPTIONS = {
    "figure_id": dict(choices=FIGURE_IDS),
    "table_kind": dict(choices=("quantizer",)),
    "validate_target": dict(choices=("bounds",)),
    "trials": dict(type=int, help="Monte Carlo trials per SNR point"),
    "seed": dict(type=int, help="base random seed"),
    "out": dict(help="output CSV path ('-' for stdout)"),
    "snr": dict(help="SNR grid as lo:step:hi in dB"),
    "path": dict(choices=sorted(_PATH_ALIASES), help="quantization path"),
    "engine": dict(choices=tuple(_ENGINES), help="simulation engine"),
    "M": dict(type=int, help="transmit antennas"),
    "K": dict(type=int, help="users (default M, or 1 for miso)"),
    "csit": dict(choices=("perfect", "quantized"), help="transmitter channel knowledge"),
    "precoder": dict(choices=(ZF, RZF), help="multiuser precoder"),
    "scaling": dict(choices=tuple(_SCALINGS), help="feedback bit policy"),
    "B": dict(help="feedback bits (table: N or lo..hi)"),
    "b_gap": dict(type=float, help="per-user rate gap log2(b_gap) of exact/approx3 scaling"),
    "alpha": dict(type=float, help="bits per log2 of SNR under alpha scaling"),
}

_RUN_OPTIONS = ("trials", "seed", "out", "snr", "path")

# command -> (positional field or None, the options it reads, help)
_COMMANDS = {
    "figure": ("figure_id", _RUN_OPTIONS, "run a named experiment preset"),
    "sweep": (None, _RUN_OPTIONS + ("engine", "M", "K", "csit", "precoder", "scaling", "B",
                                    "b_gap", "alpha"), "run a single configurable curve"),
    "table": ("table_kind", ("out", "M", "B"), "tabulate closed-form quantizer statistics"),
    "validate": ("validate_target", ("trials", "seed"), "check analytic bounds against simulation"),
}


def _convert(field: str, value, option: dict):
    text = str(value)
    try:
        value = option.get("type", str)(text)
    except ValueError:
        raise ConfigError(f"field {field!r} has invalid value {text!r}") from None
    if "choices" in option and value not in option["choices"]:
        raise ConfigError(f"{field} {text!r} is not one of {', '.join(option['choices'])}")
    return value


def _reject_ignored_sweep_options(spec: ExperimentSpec, given: dict) -> None:
    """A given sweep option that the engine, or then the policy, ignores is
    an error: perfect CSIT reads no policy option and no quantization path,
    and a scaling reads only its own parameter field from _SCALINGS."""
    reads = _ENGINES[spec.engine][2]
    if spec.csit == "perfect":
        policy = ("--csit perfect", ("scaling", *_SCALING_FIELDS, "path"))
    else:
        own = _SCALINGS[spec.scaling][0]
        policy = (f"--scaling {spec.scaling}", [k for k in _SCALING_FIELDS if k != own])
    for reader, ignored in ((f"engine {spec.engine!r}",
                             [k for k in _FEEDBACK_OPTIONS if k not in reads]), policy):
        unread = [k for k in ignored if k in given]
        if unread:
            raise ConfigError(f"{reader} does not read "
                              + ", ".join("--" + k.replace("_", "-") for k in unread))


def build_spec(file_values: dict, flag_values: dict) -> ExperimentSpec:
    """Merge config-file values with CLI flags (flags win) and validate.

    A config entry "k": v means what the flag --k v means for the command:
    str(v) is parsed by the flag's type and checked against its choices, a
    field the command does not read is an error, and null means unset.
    """
    flags = {k: v for k, v in flag_values.items() if v is not None}
    command = flags.get("command", file_values.get("command"))
    if command is None:
        raise ConfigError("missing required field 'command'")
    command = str(command)
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    positional, options, _ = _COMMANDS[command]
    values = {"command": command}
    for key, value in file_values.items():
        if key == "command" or value is None:
            continue
        if key not in options and key != positional:
            raise ConfigError(f"command {command!r} does not read config field {key!r}")
        values[key] = _convert(key, value, _OPTIONS[key])
    values.update(flags)
    if positional and positional not in values:
        raise ConfigError(f"command {command!r} requires field {positional!r}")
    spec = ExperimentSpec(**values)
    if command == "sweep":
        _reject_ignored_sweep_options(spec, values)
    # the checks a flag's type and choices cannot express
    if spec.trials < 1:
        raise ConfigError(f"trials must be a positive integer, got {spec.trials}")
    if spec.snr is not None:
        parse_snr_grid(spec.snr)
    return spec


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbmimo",
        description="Throughput experiments for quantized-feedback multiuser MIMO downlinks")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (positional, options, help_text) in _COMMANDS.items():
        p = subs.add_parser(name, help=help_text)
        if positional:
            p.add_argument(positional, **_OPTIONS[positional])
        p.add_argument("--config", help="JSON config file; flags override its values")
        for key in options:
            p.add_argument("--" + key.replace("_", "-"), dest=key, **_OPTIONS[key])
    return parser


def _attach_snr_values(argv: list[str]) -> list[str]:
    """argv with each `--snr GRID` whose GRID starts with '-' written as
    `--snr=GRID`, and likewise after an abbreviation such as --sn: argparse
    reads a token such as -5:5:5, which starts with '-' and is not a plain
    number, as a flag rather than as a value.  The ambiguous --s (--seed,
    --scaling) stays an error either way."""
    out = []
    for token in argv:
        flag = out[-1] if out else ""
        if len(flag) > 2 and "--snr".startswith(flag) and token.startswith("-") and ":" in token:
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = _attach_snr_values(sys.argv[1:] if argv is None else argv)
    args = vars(_build_parser().parse_args(argv))
    try:
        spec = build_spec(_load_config(args.pop("config")), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
