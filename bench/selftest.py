"""Self-test of the benchmark.

    python3 bench/selftest.py

Run from the repository root.  For every workload, with short runs:

* two traced runs with the same seed give identical count metrics and
  the same input fingerprint;
* the traced runs print exactly the per-layer metric names of
  BENCHMARK.json, and a run on a held-out seed exactly its end-to-end
  names, with no wrong verdict;
* the first input fingerprint recorded in bench/baseline.json still
  matches (inputs built at run_seconds, not run), so a change to the
  input generators is reported as such and not mistaken for a change
  of speed.

It also checks the failure paths: a wrong expected class makes the run
exit 1 with ``"correct": false``, and a directory without the package
makes it exit non-zero without printing a result.  Scratch copies go
under .bench_out/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

SECONDS = "1"
SEED = "7"
HELD_OUT_SEED = "424242"
COUNT_SUFFIXES = (".calls", ".cells", ".refusals", ".hypothesis_refusals", ".entries",
                  ".products", ".new", ".checked")
SCRATCH = os.path.join(".bench_out", "selftest")


def _run(workload: str, seed: str, trace: str = "0", cwd: str = ".",
         setup_only: bool = False):
    with open("BENCHMARK.json") as fh:
        command = json.load(fh)["command"]
    args = ["--workload", workload, "--seed", seed, "--seconds", SECONDS, "--trace", trace]
    if setup_only:
        with open("BENCHMARK.json") as fh:
            args[5] = str(json.load(fh)["run_seconds"])
        args.append("--setup-only")
    out = subprocess.run(command + args, cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    fingerprint = next((ln.rsplit(" ", 1)[1] for ln in lines if "input fingerprint" in ln), None)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return out.returncode, result, fingerprint


def _check(ok: bool, what: str, failures: list[str]):
    print(f"[{'ok' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        failures.append(what)


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    e2e = {m["name"] for m in bench["end_to_end"]}
    layer = {m["name"] for m in bench["per_layer"]}
    baseline = {}
    if os.path.exists(os.path.join("bench", "baseline.json")):
        with open(os.path.join("bench", "baseline.json")) as fh:
            baseline = json.load(fh)["workloads"]
    failures: list[str] = []
    for w in (w["name"] for w in bench["workloads"]):
        runs = [_run(w, SEED, trace="1") for _ in range(2)]
        counts = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
                  for _, r, _ in runs]
        _check(all(code == 0 and r["correct"] for code, r, _ in runs), f"{w}: traced runs correct",
               failures)
        _check(counts[0] == counts[1] and len(counts[0]) > 0,
               f"{w}: {len(counts[0])} count metrics repeat exactly", failures)
        _check(runs[0][2] == runs[1][2], f"{w}: same seed, same input fingerprint", failures)
        _check(set(runs[0][1]["metrics"]) == layer, f"{w}: traced metric names", failures)
        code, result, _ = _run(w, HELD_OUT_SEED)
        _check(code == 0 and result["correct"] and set(result["metrics"]) == e2e,
               f"{w}: held-out seed {HELD_OUT_SEED}, metric names and verdicts", failures)
        if w in baseline:
            seed, want = next(iter(baseline[w]["input_fingerprints"].items()))
            _, _, got = _run(w, seed, setup_only=True)
            _check(got == want, f"{w}: inputs of seed {seed} match the baseline ({got})", failures)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    wrong = os.path.join(SCRATCH, "wrong")
    shutil.copytree("src", os.path.join(wrong, "src"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree("bench", os.path.join(wrong, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", wrong)
    path = os.path.join(wrong, "bench", "expected_library.json")
    with open(path) as fh:
        expected = json.load(fh)
    expected["zint"]["Z6"] = {"0": ["Cyclic(Z,3)"]}
    with open(path, "w") as fh:
        json.dump(expected, fh)
    code, result, _ = _run("library", SEED, cwd=wrong)
    _check(code == 1 and result is not None and result["correct"] is False,
           "a wrong verdict exits 1 with correct false", failures)

    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree("bench", os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    code, result, _ = _run("library", SEED, cwd=bare)
    _check(code != 0 and result is None, "without the package: non-zero exit, no result", failures)
    shutil.rmtree(SCRATCH, ignore_errors=True)

    print("selftest " + ("passed" if not failures else f"FAILED: {failures}"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
