"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line
per criterion.  Everything here is integer-exact; there are no
tolerances to tune.
"""

from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from tatekit.exactlin import AbelianInvariants, INFINITE
from tatekit.gallery import lens_complex, product_complex, random_free_complex
from tatekit.groupring import ElementaryAbelianGroup
from tatekit.modpres import homology, homology_module, trivial_module
from tatekit.resolve import syzygy
from tatekit.surgery import browder_check, glue
from tatekit.tate import (
    exponent_profile,
    tate_cohomology,
    tate_cohomology_range,
    tate_hypercohomology_range,
)

from oracles import oracle_expand, oracle_homology

GALLERY_SPECS = [
    ("lens", 2, [1]),
    ("lens", 2, [2]),
    ("lens", 3, [1]),
    ("lens", 3, [2]),
    ("product", 2, [1, 1]),
    ("product", 2, [1, 2]),
    ("product", 3, [1, 1]),
]


def build_gallery():
    out = []
    for kind, p, ks in GALLERY_SPECS:
        if kind == "lens":
            out.append((f"lens({p},{ks[0]})", lens_complex(p, ks[0])))
        else:
            out.append((f"product({p},{ks})", product_complex(p, ks)))
    return out


def test_criterion_01_tate_at_zero_is_z_mod_group_order():
    for p, r in [(2, 1), (3, 1), (2, 2), (3, 2), (5, 1)]:
        g = ElementaryAbelianGroup(p, r)
        inv = tate_cohomology(g, trivial_module(g), 0)
        assert inv == AbelianInvariants((g.order,), 0), (p, r, inv)


def _hand_circle_cochain(p, i):
    """Cohomology of the periodic cochain ... Z --0--> Z --p--> Z ...
    (multiplication by p out of odd degrees) worked out by hand:
    the kernel at degree i is Z or 0, the image below is pZ or 0."""
    leaving = p if i % 2 else 0
    arriving = 0 if i % 2 else p
    if leaving:
        return (), 0  # multiplication by p is injective on Z
    if arriving == 0:
        return (), 1
    return (arriving,), 0


def test_criterion_02_two_sided_periodicity_matches_hand_cochain():
    for p in (2, 3):
        g = ElementaryAbelianGroup(p, 1)
        table = tate_cohomology_range(g, trivial_module(g), -6, 6)
        for i in table.degrees():
            torsion, free = _hand_circle_cochain(p, i)
            inv = table.invariant(i)
            assert inv.torsion == torsion, (p, i, inv)
            assert inv.free_rank == free, (p, i, inv)


def test_criterion_03_trivial_coefficient_exponents_divide_p():
    for p in (2, 3):
        g = ElementaryAbelianGroup(p, 2)
        table = tate_cohomology_range(g, trivial_module(g), 1, 8)
        for i in table.degrees():
            e = table.exponent(i)
            assert e is not INFINITE and p % e == 0, (p, i, e)


def test_criterion_04_hypercohomology_vanishes_on_free_complexes():
    for name, c in build_gallery():
        table = tate_hypercohomology_range(c.group, c, -3, 4)
        for i, inv, _ in table.rows():
            assert inv.is_trivial(), (name, i, inv)
    for p in (2, 3):
        for r in (1, 2):
            g = ElementaryAbelianGroup(p, r)
            for seed in range(25):
                c = random_free_complex(g, [2, 2, 2], seed)
                table = tate_hypercohomology_range(g, c, -3, 4)
                for i, inv, _ in table.rows():
                    assert inv.is_trivial(), (p, r, seed, i, inv)


def test_criterion_05_suspension_shifts_hypercohomology():
    cells = [(2, 1), (3, 1), (2, 2), (3, 2)]
    picks = [(cells[k % 4], k) for k in range(10)]
    for (p, r), seed in picks:
        g = ElementaryAbelianGroup(p, r)
        c = random_free_complex(g, [2, 2, 1], seed)
        base = tate_hypercohomology_range(g, c, -1, 4)
        shifted = tate_hypercohomology_range(g, c.shifted(1), -2, 3)
        for i in range(-2, 4):
            assert shifted.invariant(i) == base.invariant(i + 1), (p, r, seed, i)


def test_criterion_06_dimension_shift_hits_z_mod_group_order():
    for p, r, i in [(2, 1, 1), (2, 1, 2), (2, 2, 2), (3, 1, 2)]:
        g = ElementaryAbelianGroup(p, r)
        m = syzygy(trivial_module(g), i)
        inv = tate_cohomology(g, m, i)
        assert inv == AbelianInvariants((g.order,), 0), (p, r, i, inv)


def test_criterion_07_gluing_certificates_verify_all_claims():
    for c, m, n in [
        (lens_complex(2, 2), 0, 1),
        (lens_complex(2, 2), 1, 3),
        (product_complex(2, [1, 1]), 1, 2),
    ]:
        cone, cert = glue(c, m, n)
        assert cert.claim_outside, (m, n)
        assert cert.claim_collapsed, (m, n)
        assert cert.claim_ses, (m, n)
        assert cert.ok


def test_criterion_08_gluing_preserves_hypercohomology():
    for c, m, n in [
        (lens_complex(2, 2), 0, 1),
        (lens_complex(2, 2), 1, 3),
        (product_complex(2, [1, 1]), 1, 2),
    ]:
        cone, _ = glue(c, m, n)
        before = tate_hypercohomology_range(c.group, c, -2, 3)
        after = tate_hypercohomology_range(c.group, cone, -2, 3)
        for i in range(-2, 4):
            assert before.invariant(i) == after.invariant(i), (m, n, i)


def test_criterion_09_browder_bound_holds_on_the_gallery():
    for name, c in build_gallery():
        report = browder_check(c)
        assert report.divides, (name, report.product, report.group_order)
    report = browder_check(product_complex(2, [1, 1]))
    assert report.product == 4
    assert report.group_order == 4


def test_criterion_10_concentration_pipeline_cross_check():
    # concentrate all homology of the S^3 complex into top degree,
    # gluing downward; the top-degree module just before the final
    # step has the cohomology of Z pushed up by the full shift
    c = lens_complex(2, 2)
    g = c.group
    n = 3
    stages = [c]
    for j in range(1, n + 1):
        cone, cert = glue(stages[-1], n - j, n)
        assert cert.ok, j
        stages.append(cone)
    final = stages[-1]
    for i in range(n):
        assert homology(final, i).is_trivial(), i
    assert not homology(final, n).is_trivial()
    penultimate = homology_module(stages[n - 1], n)
    inv = tate_cohomology(g, penultimate, n + 1)
    assert inv == AbelianInvariants((g.order,), 0), inv


def test_criterion_11_syzygy_exponent_profile_peak_at_two():
    g = ElementaryAbelianGroup(2, 2)
    m = syzygy(trivial_module(g), 2)
    table = exponent_profile(g, m, 1, 8)
    for i in table.degrees():
        e = table.exponent(i)
        if i == 2:
            assert e == 4, (i, e)
        else:
            assert e in (1, 2), (i, e)


def sympy_homology(complex_, i):
    """Invariants of H_i from sympy ranks and invariant factors."""
    dim = complex_.rank(i) * complex_.group.order
    d_in, d_out = (
        Matrix(oracle_expand(d)) if d is not None else Matrix(0, 0, [])
        for d in (complex_.differential(i), complex_.differential(i + 1))
    )
    free = dim - d_in.rank() - d_out.rank()
    torsion = [int(f) for f in invariant_factors(d_out, domain=ZZ) if f > 1]
    return torsion, free


def test_criterion_12_homology_triple_checked_against_oracles():
    for name, c in build_gallery():
        for i in range(c.lo, c.hi + 1):
            h = homology(c, i)
            for oracle in (oracle_homology, sympy_homology):
                torsion, free = oracle(c, i)
                assert h.torsion == tuple(torsion), (name, i, oracle.__name__)
                assert h.free_rank == free, (name, i, oracle.__name__)
