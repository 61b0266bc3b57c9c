"""The benchmark's workloads: inputs, fixed operation lists, and checks.

Each workload is built by ``build(name, seed)``, which makes the inputs
(groups, base modules, gallery complexes) and returns the operation
list.  An operation is run inside the timed pass; its check runs after
the pass and compares the result with an answer that does not come from
the library: closed forms for Tate tables, the dimension shift for
syzygies, vanishing for hypercohomology of finite free complexes, and
the dense reference homology of ``tests/oracles.py`` for surgery.

Only names exported by ``tatekit`` are called.  Why each workload is
in the set is recorded in ``BENCHMARK.json``.
"""

import importlib.util
import os
import sys
from math import comb, prod

import tatekit as T

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ORACLES = os.path.join(ROOT, "tests", "oracles.py")


class Op:
    """One operation: ``run()`` returns the raw result; ``check(raw)``
    returns ``(answer, problem)`` where ``answer`` is a JSON-ready
    summary and ``problem`` is None when the result is right."""

    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def _inv(a):
    return [list(a.torsion), a.free_rank]


def _table(table):
    return {str(i): _inv(table.invariant(i)) for i in table.degrees()}


def tate_trivial_z(p, r, i):
    """Closed form of Ĥ^i((Z/p)^r, Z): [torsion, free rank].

    Ĥ^0 = Z/p^r; for i >= 1, Ĥ^i = (Z/p)^b_i with b_1 = 0 and
    b_(k+1) = C(k+r-1, r-1) - b_k; and Ĥ^-i ≅ Ĥ^i.
    """
    if i == 0:
        return [[p**r], 0]
    b = 0
    for k in range(1, abs(i)):
        b = comb(k + r - 1, r - 1) - b
    return [[p] * b, 0]


def tate_trivial_fp(p, r, i):
    """Closed form of Ĥ^i((Z/p)^r, F_p): (Z/p)^C(n+r-1, r-1) with
    n = i for i >= 0 and n = -i-1 for i < 0."""
    n = i if i >= 0 else -i - 1
    return [[p] * comb(n + r - 1, r - 1), 0]


def _check_table(lo, hi, expected):
    def check(table):
        answer = _table(table)
        if (table.lo, table.hi) != (lo, hi):
            return answer, f"table covers [{table.lo},{table.hi}], not [{lo},{hi}]"
        bad = [i for i in range(lo, hi + 1) if answer[str(i)] != expected(i)]
        problem = f"degrees {bad}: got {[answer[str(i)] for i in bad]}" if bad else None
        return answer, problem

    return check


def _fp_module(group):
    """The trivial module F_p = Z/p."""
    return T.ModulePresentation(group, 1, T.IntMatrix([[group.p]]))


def _tate_ops(seed):
    ops = []
    for p, r, lo, hi in [
        (2, 4, -6, 6),
        (2, 5, -3, 3),
        (2, 3, -10, 10),
        (3, 3, -5, 5),
        (3, 2, -10, 10),
        (5, 2, -4, 4),
        (7, 1, -8, 8),
    ]:
        g = T.ElementaryAbelianGroup(p, r)
        z, fp = T.trivial_module(g), _fp_module(g)
        ops.append(Op(
            f"tate Z (Z/{p})^{r} [{lo},{hi}]",
            lambda g=g, m=z, lo=lo, hi=hi: T.tate_cohomology_range(g, m, lo, hi),
            _check_table(lo, hi, lambda i, p=p, r=r: tate_trivial_z(p, r, i)),
        ))
        ops.append(Op(
            f"tate F_p (Z/{p})^{r} [{lo},{hi}]",
            lambda g=g, m=fp, lo=lo, hi=hi: T.tate_cohomology_range(g, m, lo, hi),
            _check_table(lo, hi, lambda i, p=p, r=r: tate_trivial_fp(p, r, i)),
        ))
    return ops


def _syzygy_ops(seed):
    ops = []
    lo, hi = -1, 0
    for p, r, n in [(2, 2, 5), (2, 3, 3), (3, 2, 3), (5, 1, 4), (3, 1, 5)]:
        g = T.ElementaryAbelianGroup(p, r)
        z = T.trivial_module(g)

        def run(g=g, z=z, n=n):
            return T.tate_cohomology_range(g, T.syzygy(z, n), lo, hi)

        ops.append(Op(
            f"syzygy (Z/{p})^{r} n={n}, tate [{lo},{hi}]",
            run,
            # Dimension shift: Ĥ^i(Ω^n Z) = Ĥ^(i-n)(Z), from the long
            # exact sequence of 0 -> ΩM -> free -> M -> 0.
            _check_table(lo, hi, lambda i, p=p, r=r, n=n: tate_trivial_z(p, r, i - n)),
        ))
    return ops


def _hyper_ops(seed):
    inputs = [
        ("product(2,[2,2,1])", T.product_complex(2, [2, 2, 1]), -2, 2),
        ("product(3,[2,2])", T.product_complex(3, [2, 2]), -3, 3),
        ("product(3,[3,2])", T.product_complex(3, [3, 2]), -2, 2),
        ("product(5,[2,1])", T.product_complex(5, [2, 1]), -2, 2),
    ]
    # Seeded draws; small next to the products, so the seed moves
    # little of the pass time.
    for p, r, ranks in [(2, 2, [2, 3, 2]), (3, 1, [2, 3, 3, 1]),
                        (2, 3, [1, 2, 1]), (5, 1, [3, 3, 2])]:
        g = T.ElementaryAbelianGroup(p, r)
        c = T.random_free_complex(g, ranks, seed)
        inputs.append((f"random((Z/{p})^{r},{ranks})", c, -2, 2))
    return [
        Op(
            f"hyper {label} [{lo},{hi}]",
            lambda c=c, lo=lo, hi=hi: T.tate_hypercohomology_range(c.group, c, lo, hi),
            # Finite free complexes have zero Tate hypercohomology.
            _check_table(lo, hi, lambda i: [[], 0]),
        )
        for label, c, lo, hi in inputs
    ]


_oracle_module = None


def _oracles():
    """``tests/oracles.py``, loaded once without writing bytecode."""
    global _oracle_module
    if _oracle_module is None:
        spec = importlib.util.spec_from_file_location("tatebench_oracles", ORACLES)
        mod = importlib.util.module_from_spec(spec)
        before = sys.dont_write_bytecode
        sys.dont_write_bytecode = True
        try:
            spec.loader.exec_module(mod)
        finally:
            sys.dont_write_bytecode = before
        _oracle_module = mod
    return _oracle_module


def _oracle_homology(complex_, i):
    torsion, free = _oracles().oracle_homology(complex_, i)
    return [sorted(torsion), free]


def _check_browder(complex_):
    def check(report):
        answer = {
            "rows": [[j, _inv(h), e] for j, h, e in report.rows],
            "product": report.product,
            "divides": report.divides,
        }
        problems = []
        if not report.divides:
            problems.append("|G| does not divide the product")
        if report.product != prod(e for _, _, e in report.rows):
            problems.append("product is not the product of the row exponents")
        for j, h, _ in report.rows:
            want = _oracle_homology(complex_, j)
            if _inv(h) != want:
                problems.append(f"H_{j} is {_inv(h)}, oracle says {want}")
        return answer, "; ".join(problems) or None

    return check


def _glue_problems(source, result, before, after, lo, hi):
    """Oracle homology of the input and of the glued result against the
    library's before/after tables, and the gluing claims read off the
    oracle alone: H_lo..H_(hi-1) die, degrees outside [lo, hi] keep
    their homology."""
    problems = []
    for i in sorted(set(before) | set(after)):
        old = _oracle_homology(source, i)
        new = _oracle_homology(result, i)
        if i in before and _inv(before[i]) != old:
            problems.append(f"input H_{i} is {_inv(before[i])}, oracle says {old}")
        if i in after and _inv(after[i]) != new:
            problems.append(f"glued H_{i} is {_inv(after[i])}, oracle says {new}")
        if lo <= i < hi and new != [[], 0]:
            problems.append(f"glued H_{i} = {new} was not killed")
        if (i < lo or i > hi) and new != old:
            problems.append(f"H_{i} changed from {old} to {new}")
    return problems


def _cert(cert):
    return {
        "m": cert.m,
        "n": cert.n,
        "ok": cert.ok,
        "after": {str(i): _inv(v) for i, v in sorted(cert.after.items())},
    }


def _check_glue(complex_, m, n):
    def check(result):
        cone, cert = result
        problems = [] if cert.ok else ["certificate failed"]
        problems += _glue_problems(complex_, cone, cert.before, cert.after, m, n)
        return _cert(cert), "; ".join(problems) or None

    return check


def _check_glue_rows(complex_, sources, target):
    """For a schedule gluing every degree in ``sources`` onto one
    ``target``, highest source first."""
    def check(result):
        final, certs = result
        answer = [_cert(c) for c in certs]
        problems = [f"certificate {k} failed" for k, c in enumerate(certs) if not c.ok]
        glued = [(c.m, c.n) for c in certs]
        want = [(m, target) for m in sorted(sources, reverse=True)]
        if glued != want:
            problems.append(f"glued {glued}, expected {want}")
        elif certs:
            problems += _glue_problems(
                complex_, final, certs[0].before, certs[-1].after,
                min(sources), target,
            )
        return answer, "; ".join(problems) or None

    return check


def _surgery_ops(seed):
    ops = []
    for p, ks in [(2, [2, 2, 1]), (3, [3, 2]), (2, [1, 1, 1]), (2, [2, 2])]:
        c = T.product_complex(p, ks)
        ops.append(Op(
            f"browder product({p},{ks})",
            lambda c=c: T.browder_check(c),
            _check_browder(c),
        ))
    for p, ks, m, n in [(2, [2, 2], 1, 3), (3, [1, 1], 1, 2)]:
        c = T.product_complex(p, ks)
        ops.append(Op(
            f"glue product({p},{ks}) {m}->{n}",
            lambda c=c, m=m, n=n: T.glue(c, m, n),
            _check_glue(c, m, n),
        ))
    lens = T.lens_complex(2, 3)
    sources, target = [3, 2, 1], 5
    schedule = [([m], target) for m in sources]
    ops.append(Op(
        f"glue_rows lens(2,3) {sources}->{target}",
        lambda: T.glue_rows(lens, schedule),
        _check_glue_rows(lens, sources, target),
    ))
    return ops


_BUILDERS = {
    "tate": _tate_ops,
    "syzygy": _syzygy_ops,
    "hyper": _hyper_ops,
    "surgery": _surgery_ops,
}


def build(name, seed):
    """Inputs and fixed operation list of workload ``name``."""
    return _BUILDERS[name](seed)
