"""Seeded end-to-end benchmark of the adeltors verifier.

    python3 bench/run.py --workload {library,random,suites} --seed N \\
        --seconds S --trace {0,1}

Run it from the repository root: the package is imported from ./src.
One process with no threads runs the workload's cases as a closed loop
with one caller: each input starts when the previous verdict is in.
The workload's inputs are fixed (see workloads.py); the seed orders the
rounds over them, which repeat until --seconds is spent, so that every
input is timed several times, apart.

--trace 0 prints the end-to-end metrics: set-up time (the median of
twelve fresh interpreters, each importing adeltors and building the
workload, spread over the run), the 50th and 90th percentiles
(Harrell-Davis estimates) over each backend's inputs of the input's
median latency over the rounds, verdicts per second at those latencies,
the share of inputs decided (not refused by the classifier) and peak
RSS.  Every time is scaled to a reference speed of the host by the
probe in speed.py, which runs between every two calls; the unscaled
percentiles are printed on the lines before the result.
--trace 1 runs every case of a fixed number of rounds once untraced and
once traced, and prints the per-layer metrics of the traced runs (see
trace.py) with the unscaled verdict rates of both, and writes the spans
to .bench_out/.  No timing of the --trace 0 run is taken with the
tracer installed.

A wrong verdict, a failed certificate or an OracleMismatch prints
``"correct": false`` and exits 1.  The last line of standard output is
one JSON object with the keys correct, attempted (timed calls), failed
(calls refused) and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import speed
import workloads
from trace import Tracer

SETUP_SAMPLES = 12
MIN_ROUNDS = 2
# Rounds of a traced run: fixed, so that its counts repeat for a seed.
TRACE_ROUNDS = {"library": 20, "random": 1, "suites": 1}
OUT_DIR = ".bench_out"


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload, print 'ready' and the input fingerprint, exit")
    return ap.parse_args(argv)


def setup_sample(args, series: speed.Series) -> tuple[float, float]:
    """Start and end of a fresh interpreter building the workload."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    series.sample()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    with proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up child failed with code {proc.returncode}")
    series.sample()
    return t0, t1


class Timings:
    """Every timed call of a run: its input, outcome, start and end."""

    def __init__(self):
        self.calls: list[tuple[str, float, float]] = []
        self.setups: list[tuple[float, float]] = []
        self.backend: dict[str, str] = {}
        self.refused: dict[str, bool] = {}
        self.refusals = 0
        self.series = speed.Series()

    def add(self, case, outcome: str, start: float, end: float):
        refused = outcome == "refused"
        if self.refused.setdefault(case.ident, refused) != refused:
            raise workloads.WrongVerdict(f"{case.ident}: refused in one round only")
        self.calls.append((case.ident, start, end))
        self.backend[case.ident] = case.backend
        self.refusals += refused

    def per_input(self, backend: str, scaled: bool = True) -> list[float]:
        """Each input's median latency over the rounds, in ms."""
        ms: dict[str, list[float]] = {}
        for ident, start, end in self.calls:
            if self.backend[ident] == backend:
                k = self.series.scale(start, end) if scaled else 1.0
                ms.setdefault(ident, []).append((end - start) * 1000.0 * k)
        return [statistics.median(v) for v in ms.values()]

    def setup_s(self) -> float:
        """The median set-up time, scaled."""
        return statistics.median((end - start) * self.series.scale(start, end)
                                 for start, end in self.setups)


def timed_rounds(cases, rng, args) -> Timings:
    """Rounds over the cases until the next one would end past the
    deadline, and at least MIN_ROUNDS, with the probe between every two
    calls.  Set-up samples are taken between calls at evenly spaced
    times of the run."""
    timings = Timings()
    clock = time.perf_counter
    start = clock()
    due = [start + args.seconds * (k + 0.5) / SETUP_SAMPLES for k in range(SETUP_SAMPLES)]
    rounds, longest = 0, 0.0
    timings.series.sample()
    while rounds < MIN_ROUNDS or clock() + longest <= start + args.seconds:
        t_round = clock()
        for case in workloads.order_round(cases, rng):
            t0 = clock()
            outcome = case.run()
            timings.add(case, outcome, t0, clock())
            timings.series.sample()
            if due and clock() >= due[0]:
                due.pop(0)
                timings.setups.append(setup_sample(args, timings.series))
        longest = max(longest, clock() - t_round)
        rounds += 1
    timings.setups += [setup_sample(args, timings.series) for _ in due]
    print(f"{rounds} rounds in {clock() - start:.1f} s, probe median "
          f"{statistics.median(timings.series.ms):.4f} ms", flush=True)
    return timings


def traced_rounds(cases, rng, rounds: int, tracer: Tracer):
    """Each case once untraced and once traced, alternating which runs
    first so that warm caches favour neither; seconds spent per mode."""
    spent = {False: 0.0, True: 0.0}
    refused = {False: 0, True: 0}
    clock = time.perf_counter
    order = [case for _ in range(rounds) for case in workloads.order_round(cases, rng)]
    for i, case in enumerate(order):
        tracer.input_id = case.ident
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                t0 = clock()
                outcome = case.run()
                spent[traced] += clock() - t0
            finally:
                if traced:
                    tracer.uninstall()
            refused[traced] += outcome == "refused"
    if refused[False] != refused[True]:
        raise workloads.WrongVerdict("traced and untraced runs refuse differently")
    return len(order), spent, refused[True]


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the order statistics
    weighted by the Beta(p(n+1), (1-p)(n+1)) mass over each rank's
    interval.  Latencies cluster by input size, and a plain sample
    quantile that falls in a gap between clusters jumps across it from
    run to run; the weighted estimate moves smoothly."""
    xs = sorted(values)
    n, steps = len(xs), 8
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = [k / (steps * n) for k in range(steps * n + 1)]
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t) if 0 < t < 1 else -math.inf
            for t in grid]
    top = max(logs)
    pdf = [math.exp(v - top) for v in logs]
    weights = []
    for i in range(n):                  # Simpson's rule over rank i's interval
        f = pdf[steps * i: steps * (i + 1) + 1]
        weights.append(f[0] + f[-1] + sum((4 if k % 2 else 2) * f[k] for k in range(1, steps)))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(timings: Timings) -> dict:
    out = {"setup_s": (timings.setup_s(), "s")}
    total_ms, inputs = 0.0, 0
    for backend in ("zint", "valrank2"):
        ms = timings.per_input(backend)
        out[f"{backend}.verdict_ms_p50"] = (quantile(ms, 0.5), "ms")
        out[f"{backend}.verdict_ms_p90"] = (quantile(ms, 0.9), "ms")
        total_ms, inputs = total_ms + sum(ms), inputs + len(ms)
        raw = timings.per_input(backend, scaled=False)
        print(f"{backend}: unscaled p50 {quantile(raw, 0.5):.3f} ms, "
              f"p90 {quantile(raw, 0.9):.3f} ms", flush=True)
    out["verdicts_per_s"] = (inputs / (total_ms / 1000.0), "1/s")
    out["decided_frac"] = (1.0 - sum(timings.refused.values()) / inputs, "frac")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return out


def _emit(correct: bool, attempted: int, failed: int, metrics: dict):
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


def main(argv=None) -> int:
    args = _args(argv)
    try:
        workloads.load_package()
    except ImportError as exc:
        print(f"cannot import adeltors from ./src: {exc}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        _, inputs, _ = build(args.seconds)
        print("ready", flush=True)
        print(f"input fingerprint {workloads.fingerprint(inputs)}")
        return 0

    cases, inputs, cross_check = build(args.seconds)
    print(f"{args.workload} seed={args.seed}: {len(cases)} cases a round, "
          f"input fingerprint {workloads.fingerprint(inputs)}", flush=True)
    mismatch = sys.modules["adeltors.oracle"].OracleMismatch
    rng = random.Random(args.seed)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is None:
            timings = timed_rounds(cases, rng, args)
            attempted, refused = len(timings.calls), timings.refusals
        else:
            attempted, spent, refused = traced_rounds(cases, rng, TRACE_ROUNDS[args.workload],
                                                      tracer)
        if cross_check is not None:
            cross_check()
    except (workloads.WrongVerdict, mismatch) as exc:
        print(f"wrong verdict: {type(exc).__name__}: {exc}", file=sys.stderr)
        _emit(False, max(1, len(cases)), 0, {})
        return 1

    if not args.trace:
        _emit(True, attempted, refused, end_to_end(timings))
        return 0
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json"))
    metrics = tracer.metrics()
    untraced, traced = attempted / spent[False], attempted / spent[True]
    metrics["trace.untraced_verdicts_per_s"] = (untraced, "1/s")
    metrics["trace.traced_verdicts_per_s"] = (traced, "1/s")
    metrics["trace.overhead_frac"] = (untraced / traced - 1.0, "frac")
    _emit(True, attempted, refused, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
