"""Measure the benchmark's spread and write a baseline.

    python3 bench/baseline.py [--runs 10] [--workload NAME ...] [--write --commit SHA]

Run from the repository root.  For each workload it makes --runs
untraced runs, each with another seed, and prints for every end-to-end
metric the median, the quartiles and the spread: the distance between
the quartiles as a share of the median, the figure each bound in
BENCHMARK.json is set against.  It then makes one traced run per
workload.  Each median is compared with bench/baseline.json when that
exists: a change worse than the metric's bound is flagged.  With
--write the figures replace bench/baseline.json, which later changes
quote as the baseline of the commit it names.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
FIRST_SEED = 1
TRACE_SEED = 1


def _run(cmd: list[str]) -> tuple[dict, str]:
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    fingerprint = next((ln.rsplit(" ", 1)[1] for ln in lines if "input fingerprint" in ln), "")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported a wrong verdict")
    return result, fingerprint


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--write", action="store_true")
    ap.add_argument("--commit", default="", help="the commit measured, recorded with --write")
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    higher = {m["name"] for m in bench["end_to_end"] if m["better"] == "higher"}
    old = {}
    if os.path.exists(os.path.join(HERE, "baseline.json")):
        with open(os.path.join(HERE, "baseline.json")) as fh:
            old = json.load(fh)["workloads"]
    names = args.workload or [w["name"] for w in bench["workloads"]]
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    seconds = str(bench["run_seconds"])
    report = {}
    for name in names:
        values: dict[str, list[float]] = {}
        fingerprints, walls = {}, []
        for seed in range(FIRST_SEED, FIRST_SEED + args.runs):
            t0 = time.perf_counter()
            result, fp = _run(bench["command"] + ["--workload", name, "--seed", str(seed),
                                                  "--seconds", seconds, "--trace", "0"])
            walls.append(time.perf_counter() - t0)
            fingerprints[str(seed)] = fp
            for key, m in result["metrics"].items():
                values.setdefault(key, []).append(m["value"])
            print(f"{name} seed {seed}: {walls[-1]:.1f} s", flush=True)
        summary = {key: _summary(v) for key, v in values.items()}
        for key, s in summary.items():
            flag = "" if s["spread"] <= bounds[key] / 3 or key == "setup_s" else "  > bound/3"
            if name in old:
                base = old[name]["end_to_end"][key]["median"]
                change = s["median"] / base - 1.0
                worse = -change if key in higher else change
                flag += f"  vs baseline {change:+.3f}" + ("  WORSE THAN BOUND" if worse > bounds[key] else "")
            print(f"  {name:8s} {key:26s} median {s['median']:10.4f} spread {s['spread']:.3f} "
                  f"(bound {bounds[key]}){flag}", flush=True)
        traced, _ = _run(bench["command"] + ["--workload", name, "--seed", str(TRACE_SEED),
                                             "--seconds", seconds, "--trace", "1"])
        report[name] = {"why": why[name], "end_to_end": summary,
                        "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
                        "input_fingerprints": fingerprints,
                        "run_wall_s": _summary(walls)}
    if args.write:
        path = os.path.join(HERE, "baseline.json")
        with open(path, "w") as fh:
            json.dump({"commit": args.commit, "python": sys.version.split()[0],
                       "run_seconds": bench["run_seconds"], "bounds": bounds,
                       "trace_seed": TRACE_SEED, "workloads": report}, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
