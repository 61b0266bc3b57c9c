"""Self-tests of the benchmark harness.  Run from the root of a checkout:

    python3 tatebench/selftest.py

1. A deliberately wrong answer and a raised exception each count as a
   failed operation, and raise the failure share of the run.
2. Traced and untraced passes return identical answers, on every
   workload.
3. Every count-type per-layer metric (all but the ``*_s`` times) repeats
   exactly between two traced passes on the same seed, on every
   workload.

Prints one line per check and exits 0 when all hold.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def check_wrong_answers_count():
    import tatekit as T

    # The four cheapest tate operations: (Z/5)^2 and Z/7, Z and F_p.
    ops = workloads.build("tate", SEED)[-4:]
    right = ops[0].run

    def wrong():
        table = right()
        bad = [T.AbelianInvariants((2,), 0)] + table.invariants[1:]
        return T.CohomologyTable(table.lo, table.hi, bad)

    def raises():
        raise ZeroDivisionError("deliberate")

    ops[0].run, ops[1].run = wrong, raises
    wall, _, rss, records = child.execute(ops)
    flagged = [r["name"] for r in records if r["problem"]]
    assert flagged == [ops[0].name, ops[1].name], flagged
    one_pass = {"backend": "pure", "wall_s": wall, "setup_s": 0.0, "calibration_s": 0.1,
                "peak_rss_mb": rss, "layers": None, "ops": records}
    details, result = run.summarize("tate", SEED, 0, False, {False: [one_pass]})
    assert result["failed"] == 2 and not result["correct"], result
    assert details["fail_frac"] == 2 / 4, details["fail_frac"]
    return f"{result['failed']} of {result['attempted']} ops failed as planted"


def check_traced_passes(workload):
    plain = run.run_child(workload, SEED, False, run.HARD_LIMIT_S)
    first = run.run_child(workload, SEED, True, run.HARD_LIMIT_S)
    second = run.run_child(workload, SEED, True, run.HARD_LIMIT_S)
    for p in (plain, first, second):
        problems = [op["problem"] for op in p["ops"] if op["problem"]]
        assert not problems, problems
    answers = [[op["answer"] for op in p["ops"]] for p in (plain, first, second)]
    assert answers[0] == answers[1] == answers[2], "answers differ with tracing"
    counts = [{k: v for k, v in p["layers"].items() if not k.endswith("_s")}
              for p in (first, second)]
    differ = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
    assert not differ, differ
    return f"identical answers; {len(counts[0])} counts repeat exactly"


def main():
    checks = [("wrong answer counted", check_wrong_answers_count)]
    for name in run.WORKLOADS:
        checks.append((f"{name}: traced vs untraced",
                       lambda name=name: check_traced_passes(name)))
    failed = 0
    for label, fn in checks:
        try:
            print(f"ok   {label}: {fn()}")
        except (AssertionError, run.BenchError) as exc:
            failed += 1
            print(f"FAIL {label}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
