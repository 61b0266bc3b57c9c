"""Scaling sweep over complex size, syzygy index, rank and degree window
width, into BENCH_sweep.json.

    python3 tools/sweep.py [--out BENCH_sweep.json] [--kind KIND]...
    python3 tools/sweep.py --against OTHER_CHECKOUT [--out FILE] [--kind KIND]...

The points are ``browder_check`` of ``product_complex(2, ks)`` for ks in
[2,2,1], [2,2,2] and [2,2,2,2] (products of 3-spheres and a circle over
(Z/2)^3 and (Z/2)^4), the paper's rank-3 pipeline
(``product_complex(2, [3,2,2])`` glued by
``dimension_rows(3, [5,3,3]).schedule()``, then ``browder_check``; the
sweep stops unless the product is 8, it divides, and every gluing
certificate is ok), ``syzygy(Z, n)`` over (Z/2)^2 for n = 1..6, the
Tate table of Z on [-2, 2] over (Z/2)^r for r = 5..11, the
hypercohomology table of ``product_complex(2, [2,2,1])`` on [-w, w]
for w = 1..4 and of ``product_complex(2, [3,2,2])`` on [-1, 1], whose
cost is the totalization's elimination, and the
Tate table on [-2, 2] of H_1 of ``random_free_complex((Z/2)^3,
[1,3,2], 0)``, whose actions are not exact, so the Smith kernel takes
its general phase there (63 general pivots), and the third syzygy of
that H_1 (``torsion``), whose first cover by Nakayama is not onto over
Z and is topped up.
Each of the ``REPEAT`` runs of a point is a fresh interpreter with the
``src`` next to this script first on ``PYTHONPATH``, so the module-level
caches start cold; it times the call alone, after the import and the input set-up, with
``time.perf_counter``.  The output records every run, its median, and
the answer (the verdict, the table's invariants, or a syzygy's
generator count and the cover rank of each of its steps), so sweeps of two trees can be compared point by point.  The times are raw wall-clock
seconds of this host, which the file names; compare only runs taken on
one host, on trees in the same ``__pycache__`` state.

Host drift over the minutes a sweep takes can exceed the difference of
two trees, so ``--against`` takes a second checkout and runs each
point's cold runs alternately in this tree and that one, switching
which tree goes first on every repeat; each point then also records the
other tree's runs, median and answer under ``against``, and the output
goes to BENCH_sweep_pair.json unless ``--out`` names a file.  ``--kind``
keeps only the points of the given kinds (browder, pipeline, syzygy,
tate, hyper, general, torsion).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BROWDER = ([2, 2, 1], [2, 2, 2], [2, 2, 2, 2])
PIPELINE = ([3, 2, 2], [5, 3, 3])
PIPELINE_ANSWER = {"product": 8, "divides": True, "certificates_ok": True}
SYZYGY = range(1, 7)
RANKS = range(5, 12)
TATE_RANGE = (-2, 2)
HYPER = [2, 2, 1]
WIDTHS = range(1, 5)
HYPER_LARGE = [[3, 2, 2], 1]
GENERAL = [1, 3, 2]
TORSION = [GENERAL, 3]
KINDS = ("browder", "pipeline", "syzygy", "tate", "hyper", "general", "torsion")
TIMEOUT_S = 900
REPEAT = 5


def points():
    """(name, kind, argument) of every sweep point, in run order."""
    out = [(f"browder product(2,{ks})", "browder", ks) for ks in BROWDER]
    ks, ns = PIPELINE
    out.append((f"pipeline product(2,{ks}) rows {ns}", "pipeline", PIPELINE))
    out += [(f"syzygy (Z/2)^2 n={n}", "syzygy", n) for n in SYZYGY]
    out += [(f"tate Z (Z/2)^{r} {list(TATE_RANGE)}", "tate", r) for r in RANKS]
    out += [(f"hyper product(2,{HYPER}) [-{w}, {w}]", "hyper", w) for w in WIDTHS]
    ks, w = HYPER_LARGE
    out.append((f"hyper product(2,{ks}) [-{w}, {w}]", "hyper", HYPER_LARGE))
    out.append((f"general H_1 random((Z/2)^3,{GENERAL},0) {list(TATE_RANGE)}", "general",
                GENERAL))
    ks, n = TORSION
    out.append((f"torsion syzygy(H_1 random((Z/2)^3,{ks},0), {n})", "torsion", TORSION))
    return out


def run_point(kind, arg):
    """Time one point in this interpreter; returns (seconds, answer)."""
    import tatekit as T

    if kind == "browder":
        c = T.product_complex(2, arg)
        start = time.perf_counter()
        report = T.browder_check(c)
        seconds = time.perf_counter() - start
        return seconds, {"product": report.product, "divides": report.divides}
    if kind == "pipeline":
        ks, ns = arg
        c = T.product_complex(2, ks)
        start = time.perf_counter()
        glued, certs = T.glue_rows(c, T.dimension_rows(len(ns), ns).schedule())
        report = T.browder_check(glued)
        seconds = time.perf_counter() - start
        ok = all(cert.ok for cert in certs)
        return seconds, {"product": report.product, "divides": report.divides,
                         "certificates_ok": ok}
    if kind == "tate":
        g = T.ElementaryAbelianGroup(2, arg)
        z = T.trivial_module(g)
        start = time.perf_counter()
        table = T.tate_cohomology_range(g, z, *TATE_RANGE)
        seconds = time.perf_counter() - start
        return seconds, {"invariants": [str(v) for v in table.invariants]}
    if kind == "general":
        g = T.ElementaryAbelianGroup(2, 3)
        module = T.homology_module(T.random_free_complex(g, arg, 0), 1)
        start = time.perf_counter()
        table = T.tate_cohomology_range(g, module, *TATE_RANGE)
        seconds = time.perf_counter() - start
        return seconds, {"invariants": [str(v) for v in table.invariants]}
    if kind == "hyper":
        ks, w = arg if isinstance(arg, list) else (HYPER, arg)
        c = T.product_complex(2, ks)
        start = time.perf_counter()
        table = T.tate_hypercohomology_range(c.group, c, -w, w)
        seconds = time.perf_counter() - start
        return seconds, {"invariants": [str(v) for v in table.invariants]}
    if kind == "torsion":
        (ks, n), g = arg, T.ElementaryAbelianGroup(2, 3)
        module = T.homology_module(T.random_free_complex(g, ks, 0), 1)
    else:  # syzygy
        module, n = T.trivial_module(T.ElementaryAbelianGroup(2, 2)), arg
    ranks = []
    start = time.perf_counter()
    for _ in range(n):  # syzygy(module, n), one step at a time
        step = T.resolution_step(module)
        ranks.append(step.rank)
        module = step.kernel
    seconds = time.perf_counter() - start
    return seconds, {"gens": module.gens, "ranks": ranks}


def cold_run(kind, arg, root=ROOT):
    """One run of a point in a fresh interpreter, on the ``src`` of the
    checkout ``root``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--point", kind, json.dumps(arg)],
        cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        check=True,
    )
    return json.loads(proc.stdout)


def summary(name, kind, runs):
    """Answer, median and seconds of one tree's runs of a point; stops
    the sweep when the runs disagree or the pipeline's answer is wrong."""
    answers = {json.dumps(r["answer"], sort_keys=True) for r in runs}
    if len(answers) != 1:
        raise SystemExit(f"{name}: runs disagree: {sorted(answers)}")
    if kind == "pipeline" and runs[0]["answer"] != PIPELINE_ANSWER:
        raise SystemExit(f"{name}: got {runs[0]['answer']}, want {PIPELINE_ANSWER}")
    seconds = [r["seconds"] for r in runs]
    return {
        "answer": runs[0]["answer"],
        "median_s": statistics.median(seconds),
        "runs_s": seconds,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    parser.add_argument("--against", metavar="CHECKOUT")
    parser.add_argument("--kind", action="append", choices=KINDS)
    parser.add_argument("--point", nargs=2, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.point:
        seconds, answer = run_point(args.point[0], json.loads(args.point[1]))
        print(json.dumps({"seconds": seconds, "answer": answer}))
        return 0
    trees = [ROOT] + ([os.path.abspath(args.against)] if args.against else [])
    out = args.out or os.path.join(
        ROOT, "BENCH_sweep_pair.json" if args.against else "BENCH_sweep.json"
    )
    results = []
    for name, kind, arg in points():
        if args.kind and kind not in args.kind:
            continue
        runs = {tree: [] for tree in trees}
        for i in range(REPEAT):
            for tree in trees if i % 2 == 0 else trees[::-1]:
                runs[tree].append(cold_run(kind, arg, tree))
        result = {"name": name, **summary(name, kind, runs[ROOT])}
        line = f"{name:32s} median {result['median_s']:8.3f} s"
        if args.against:
            result["against"] = summary(name, kind, runs[trees[1]])
            line += f"  against {result['against']['median_s']:8.3f} s"
        results.append(result)
        print(f"{line}  {result['answer']}")
    record = {
        "about": "tools/sweep.py: cold-interpreter wall-clock seconds of each call"
        + ("; `against` holds the second checkout's runs, alternated with"
           " this tree's per point" if args.against else ""),
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
        },
        "repeat": REPEAT,
        "points": results,
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
