"""Run one ``fbmimo`` CLI command with every layer boundary traced.

Usage: python3 perfbench/tracer.py SUMMARY.json -- <fbmimo arguments>

The package must be importable (``PYTHONPATH=src``).  Before calling
``fbmimo.cli.main`` this script replaces each public function of the
package's modules with a timing wrapper, in the namespace where its caller
looks the name up (``simulate`` binds its helpers at import, ``precoder``
binds ``invert``).  Spans are recorded from every thread, including the
simulation pool's workers, kept in memory, reduced to per-layer numbers and
written to SUMMARY.json.  The originals are restored before the script
exits; the CLI's own output is untouched, so its CSV can be compared
byte for byte with an untraced run.
"""

from __future__ import annotations

import json
import sys
import threading
import time

from fbmimo import bounds, cli, numerics, precoder, quantizer, simulate
from fbmimo.errors import SingularMatrixError

ENGINES = ("mu_throughput", "rate_gap", "miso_feedback_throughput",
           "tdma_throughput", "random_bf_throughput", "collect_zf_statistics")
BOUNDS_FUNCTIONS = ("rate_gap_bound", "ceiling_fixed_B", "feedback_bits",
                    "mux_gain_prediction", "rvq_bit_penalty", "zf_dpc_power_offset_db",
                    "fit_multiplexing_gain", "horizontal_offset_db", "miso_reference",
                    "snr_db_to_linear")


def _codebook_words(result) -> dict:
    return {"words": len(result.words), "bytes_computed": result.words.nbytes}


def _curve_counts(result) -> dict:
    return {"trials": int(result.trials.sum()), "resamples": int(result.resamples.sum())}


# (layer, owner whose attribute the caller reads, attribute, counter hook)
PATCHES = [
    ("numerics.rng_setup", numerics.RngStream, "generator", None),
    ("numerics.sample", simulate, "sample_complex_gaussian", None),
    ("numerics.sample", simulate, "haar_unitary", None),
    ("numerics.sample", quantizer, "sample_complex_gaussian", None),
    ("numerics.sample", quantizer, "sample_isotropic_unit", None),
    ("numerics.invert", precoder, "invert", None),
    ("quantizer.pair", simulate, "sample_quantized_pair", None),
    ("quantizer.codebook", simulate, "generate_codebook", _codebook_words),
    ("quantizer.search", simulate, "quantize", None),
    ("precoder.zf", simulate, "zf_beamformers", None),
    ("precoder.zf", precoder, "zf_beamformers", None),
    ("precoder.rzf", simulate, "rzf_beamformers", None),
    *[("simulate", simulate, name, _curve_counts) for name in ENGINES],
    *[("bounds", bounds, name, None) for name in BOUNDS_FUNCTIONS],
]


class Tracer:
    """Collects spans (layer, thread id, start, end, self seconds, counters).

    Each thread keeps its own stack of open spans, so a span's self time is
    its duration minus its children on the same thread.  Finished spans are
    appended to one list; ``list.append`` is atomic under the interpreter
    lock, so worker threads need no further locking.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._saved: list[tuple] = []

    def wrap(self, layer: str, fn, count=None):
        spans, local = self.spans, self._local

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            frame = [0.0]  # seconds covered by child spans
            stack.append(frame)

            def close(end: float, extra) -> None:
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                spans.append((layer, threading.get_ident(), start, end,
                              end - start - frame[0], extra))

            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except SingularMatrixError:
                close(time.perf_counter(), {"singular": 1})
                raise
            except BaseException:
                close(time.perf_counter(), None)
                raise
            end = time.perf_counter()
            close(end, count(result) if count else None)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for layer, owner, attr, count in PATCHES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(layer, original, count))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        for _, owner, attr, _ in PATCHES:
            if hasattr(owner.__dict__[attr], "__wrapped__"):
                raise RuntimeError(f"tracing wrapper left on {owner.__name__}.{attr}")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _peak_threads(spans: list[tuple]) -> int:
    """Most threads inside a traced call at the same moment."""
    per_thread: dict[int, list[tuple[float, float]]] = {}
    for _, tid, start, end, _, _ in spans:
        per_thread.setdefault(tid, []).append((start, end))
    events = []
    for intervals in per_thread.values():
        intervals.sort()
        lo, hi = intervals[0]
        for start, end in intervals[1:]:
            if start > hi:
                events += [(lo, 1), (hi, -1)]
                lo = start
            hi = max(hi, end)
        events += [(lo, 1), (hi, -1)]
    peak = active = 0
    for _, step in sorted(events):
        active += step
        peak = max(peak, active)
    return peak


def _percentile_us(durations: list[float], q: float, min_calls: int) -> float:
    """q-th percentile in microseconds, or 0 when fewer than ``min_calls``
    samples would leave under ten beyond it."""
    if len(durations) < min_calls:
        return 0.0
    ordered = sorted(durations)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e6


def summarize(spans: list[tuple], cli_start: float, cli_end: float) -> dict:
    """Reduce raw spans to the per-layer numbers the benchmark reports."""
    layers: dict[str, dict] = {}
    for layer, _, start, end, self_s, extra in spans:
        entry = layers.setdefault(layer, {"calls": 0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["durations"].append(end - start)
        for key, value in (extra or {}).items():
            entry[key] = entry.get(key, 0) + value
    out: dict[str, float] = {}
    for layer, entry in layers.items():
        durations = entry.pop("durations")
        entry["p50_us"] = _percentile_us(durations, 0.50, 20)
        entry["p99_us"] = _percentile_us(durations, 0.99, 1000)
        for key, value in entry.items():
            out[f"{layer}.{key}"] = value

    # Engine time that no child layer covers on any thread: Python overhead
    # in the trial loop, _sum_rate and the pool.
    engines = [(s, e) for layer, _, s, e, _, _ in spans if layer == "simulate"]
    children = [(s, e) for layer, _, s, e, _, _ in spans if layer != "simulate"]
    engine_wall = sum(e - s for s, e in engines)
    trials = out.get("simulate.trials", 0)
    out["simulate.curves"] = len(engines)
    out["simulate.self_s"] = engine_wall - sum(_covered(children, s, e) for s, e in engines)
    out["simulate.us_per_trial"] = engine_wall / trials * 1e6 if trials else 0.0
    out["simulate.useful_frac"] = (
        trials / (trials + out["simulate.resamples"]) if trials else 0.0)
    out["simulate.threads"] = _peak_threads(spans)
    everything = [(s, e) for _, _, s, e, _, _ in spans]
    out["cli.self_s"] = (cli_end - cli_start) - _covered(everything, cli_start, cli_end)
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SUMMARY.json -- <fbmimo arguments>", file=sys.stderr)
        return 2
    summary_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        code = cli.main(cli_args)
        end = time.perf_counter()
    finally:
        tracer.restore()
    summary = summarize(tracer.spans, start, end)
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
