"""tatekit benchmark: cold-process passes over fixed workloads.

Run from the root of a checkout:

    python3 tatebench/run.py --workload tate --seed 1 --seconds 30 --trace 0

Each pass is a fresh interpreter (``child.py``) with the checkout's
``src`` on ``PYTHONPATH``, so the module-level caches start cold, as
they do for every ``tatekit`` command.  Passes repeat until the next one
would overrun ``--seconds``.  Every answer is checked, outside the timed
region, against a source independent of the library (``workloads.py``).

With ``--trace 0`` the result holds the end-to-end metrics, medians over
the passes: ``wall_s`` (one timed pass), ``setup_s`` (import plus input
set-up), ``peak_rss_mb``.  With ``--trace 1`` passes alternate between
untraced and traced; the result holds the per-layer metrics of the
traced passes (``tracer.py``) and ``trace.overhead_s``, traced minus
untraced median ``wall_s``.  Operations that raised or gave a wrong
answer count in ``failed``; ``failed / attempted`` is the failure share.

Times are reported in reference seconds: each pass's measured seconds
times ``REFERENCE_CALIBRATION_S`` over the time the same process took
for ``child.calibration()``, a fixed job that uses no library code.  On
a shared host the speed of a core can drift by a third within minutes
(seen on a 2-vCPU Xeon virtual machine), and raw seconds drift with it;
the calibration drifts alike and cancels most of it.  A host on which
the calibration takes 0.1 s reads real seconds.

The last line of standard output is the result object; the line before
it records the run: Python version, nproc, ``tatekit.BACKEND``, seed,
pass count, raw seconds, the calibration, per-op median raw seconds and
every failure.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Metric names and units come from the declaration the driver reads.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
MIN_PASSES = 3
REFERENCE_CALIBRATION_S = 0.1
# A run must end within 180 s; a pass that has not ended by this many
# seconds after the run started is killed and the run fails.
HARD_LIMIT_S = 170


class BenchError(Exception):
    pass


def run_child(workload, seed, trace, timeout):
    """One cold pass in a fresh interpreter; returns its JSON record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed), str(int(trace))],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {workload} pass ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"a {workload} pass exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace):
    """Passes until the next would overrun ``seconds``; untraced only,
    or alternating untraced and traced."""
    kinds = (False, True) if trace else (False,)
    passes = {kind: [] for kind in kinds}
    longest = {kind: 0.0 for kind in kinds}
    start = time.perf_counter()
    k = 0
    while True:
        kind = kinds[k % len(kinds)]
        k += 1
        elapsed = time.perf_counter() - start
        enough = all(len(passes[x]) >= (1 if trace else MIN_PASSES) for x in kinds)
        if enough and elapsed + longest[kind] > seconds:
            return passes
        t0 = time.perf_counter()
        passes[kind].append(run_child(workload, seed, kind, HARD_LIMIT_S - elapsed))
        longest[kind] = max(longest[kind], time.perf_counter() - t0)


def summarize(workload, seed, seconds, trace, passes):
    """Details line and result object from the passes of one run."""
    everything = [p for kind in passes.values() for p in kind]
    names = [op["name"] for op in everything[0]["ops"]]
    failures = []
    for p in everything:
        if [op["name"] for op in p["ops"]] != names:
            raise BenchError("passes ran different operation lists")
        failures += [f"{op['name']}: {op['problem']}" for op in p["ops"] if op["problem"]]
    # Every pass must give the same answers; a pass that disagrees with
    # the first counts each differing op as failed.
    first = [op["answer"] for op in everything[0]["ops"]]
    for p in everything[1:]:
        failures += [
            f"{op['name']}: answer differs between passes"
            for op, want in zip(p["ops"], first)
            if not op["problem"] and op["answer"] != want
        ]
    attempted = len(names) * len(everything)
    untraced = passes[False]
    walls = [p["wall_s"] * _scale(p) for p in untraced]
    if trace:
        traced = passes[True]
        values = {}
        for key in traced[0]["layers"]:
            if key.endswith("_s"):
                values[key] = statistics.median(p["layers"][key] * _scale(p) for p in traced)
            else:  # counts repeat exactly across passes; keep them whole
                values[key] = statistics.median_low(p["layers"][key] for p in traced)
        values["trace.overhead_s"] = (
            statistics.median(p["wall_s"] * _scale(p) for p in traced) - statistics.median(walls))
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(p["setup_s"] * _scale(p) for p in untraced),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        }
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for declared metrics {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "backend": everything[0]["backend"],
        "passes": {"untraced": len(untraced), "traced": len(passes.get(True, []))},
        "raw_wall_s": [p["wall_s"] for p in untraced],
        "raw_setup_s": [p["setup_s"] for p in untraced],
        "calibration_s": [p["calibration_s"] for p in everything],
        "fail_frac": len(failures) / attempted,
        "failures": failures,
        "per_op_median_raw_s": {
            name: statistics.median(p["ops"][i]["seconds"] for p in untraced)
            for i, name in enumerate(names)
        },
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return details, result


def _scale(p):
    """Factor from a pass's raw seconds to reference seconds."""
    return REFERENCE_CALIBRATION_S / p["calibration_s"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills the running pass.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for need in ("src/tatekit/__init__.py", "tests/oracles.py"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"tatebench: {need} is missing; run from a tatekit checkout",
                  file=sys.stderr)
            return 2
    try:
        passes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        details, result = summarize(args.workload, args.seed, args.seconds,
                                    bool(args.trace), passes)
    except BenchError as exc:
        print(f"tatebench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
