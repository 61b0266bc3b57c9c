"""One cold pass of one workload, in a fresh interpreter.

    python3 tatebench/child.py WORKLOAD SEED TRACE

``run.py`` starts this with ``src`` first on ``PYTHONPATH``, so the
module-level caches start empty, as for every ``tatekit`` command.  It
times the import plus input set-up, then one pass over the workload's
operations, reads the peak resident memory, and only then checks every
answer.  With TRACE=1 the layers are wrapped before set-up and their
metrics are read at the end of the pass.  A fixed calibration runs
before set-up and after the pass, so that ``run.py`` can scale the times
to a reference host speed.  Prints one JSON object.
"""

import json
import os
import random
import resource
import sys
import time

CALIBRATION_PRIME = 10007


def calibration(size=120):
    """Seconds taken by a fixed pure-Python job: Gaussian elimination of
    a seeded sparse ``size`` x ``size`` matrix over F_10007, on dict rows
    as the library's elimination core keeps them.  It uses no library
    code, so only the host's speed changes it."""
    p = CALIBRATION_PRIME
    rng = random.Random(0)
    rows = [{j: rng.randrange(1, p) for j in rng.sample(range(size), size // 6)}
            for _ in range(size)]
    start = time.perf_counter()
    pivots = {}
    for row in rows:
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                inv = pow(row[c], -1, p)
                pivots[c] = {k: v * inv % p for k, v in row.items()}
                break
            f = row[c]
            for k, v in pivot.items():
                x = (row.get(k, 0) - f * v) % p
                if x:
                    row[k] = x
                else:
                    del row[k]
    return time.perf_counter() - start


def execute(ops, tracer=None):
    """Run ``ops`` in order, then check them.

    Returns the pass's wall time, the tracer's metrics at the end of the
    pass (or None), the peak RSS in MB, and one record per op.  An op
    that raises, or whose check fails or raises, carries a ``problem``.
    """
    records = []
    results = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            results.append((op.run(), None))
        except Exception as exc:  # a failed op is counted, not fatal
            results.append((None, f"raised {type(exc).__name__}: {exc}"))
        records.append({"name": op.name, "seconds": time.perf_counter() - t0})
    wall = time.perf_counter() - start
    layers = tracer.metrics() if tracer is not None else None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for op, record, (raw, problem) in zip(ops, records, results):
        answer = None
        if problem is None:
            try:
                answer, problem = op.check(raw)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        record["answer"] = answer
        record["problem"] = problem
    return wall, layers, peak_rss_mb, records


def main(argv):
    workload, seed, trace = argv[1], int(argv[2]), argv[3] == "1"
    before = calibration()
    start = time.perf_counter()
    import tatekit

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.dirname(os.path.dirname(os.path.abspath(tatekit.__file__))) != src:
        sys.exit(f"imported tatekit from {tatekit.__file__}, not from {src}")
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    ops = workloads.build(workload, seed)
    setup_s = time.perf_counter() - start
    wall, layers, peak_rss_mb, records = execute(ops, tracer)
    after = calibration()
    print(json.dumps({
        "backend": tatekit.BACKEND,
        "calibration_s": (before + after) / 2,
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "layers": layers,
        "ops": records,
    }))


if __name__ == "__main__":
    main(sys.argv)
