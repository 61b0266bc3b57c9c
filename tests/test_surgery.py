import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tatekit import surgery
from tatekit.errors import (
    FiltrationInvalid,
    GapViolation,
    InvalidPresentation,
    NoSolution,
    NotConnected,
    NotNonnegative,
)
from tatekit.exactlin import IntMatrix, exponent, solve_preimage
from tatekit.gallery import lens_complex, product_complex, random_free_complex
from tatekit.groupring import ElementaryAbelianGroup
from tatekit.modpres import (
    FreeChainComplex,
    ModulePresentation,
    _homology_data,
    homology,
    homology_module,
)
from tatekit.surgery import (
    browder_check,
    dimension_rows,
    filtration_exponent_check,
    glue,
    glue_rows,
)
from tatekit.resolve import resolution_step
from tatekit.tate import tate_cohomology

from oracles import oracle_homology


def test_glue_collapses_the_range_and_certifies():
    c = lens_complex(2, 2)  # sphere S^3 complex: H_0 = Z, H_3 = Z
    d, cert = glue(c, 0, 1)
    assert cert.ok
    assert cert.claim_outside and cert.claim_collapsed and cert.claim_ses
    assert homology(d, 0).is_trivial()
    assert homology(d, 3) == homology(c, 3)
    # gluing across a trivial stretch works too
    d2, cert2 = glue(c, 1, 3)
    assert cert2.ok
    assert homology(d2, 1).is_trivial()
    assert homology(d2, 2).is_trivial()


def test_glue_outside_the_support_changes_nothing():
    c = lens_complex(2, 2)  # supported in degrees 0..3
    for m, n in [(5, 9), (4, 5), (-3, -1)]:
        d, cert = glue(c, m, n)
        assert cert.ok
        assert cert.sub_invariants.is_trivial()
        assert cert.middle_invariants.is_trivial()
        assert cert.quotient_invariants.is_trivial()
        for i in range(-1, 5):
            assert homology(d, i) == homology(c, i)


def test_glue_certificate_arithmetic():
    c = product_complex(2, [1, 1])
    d, cert = glue(c, 1, 2)
    assert cert.ok
    # quotient is free, middle splits as sub + quotient
    assert cert.quotient_invariants.torsion == ()
    t = cert.quotient_invariants.free_rank
    assert cert.middle_invariants.free_rank == cert.sub_invariants.free_rank + t
    assert math.prod(cert.middle_invariants.torsion) == math.prod(
        cert.sub_invariants.torsion
    )
    # sub and middle are the homology glue reads before and after, as
    # the homology modules of the complex and the cone present them
    assert cert.sub_invariants == cert.before[2] == homology_module(c, 2).invariants()
    assert cert.middle_invariants == cert.after[2] == homology_module(d, 2).invariants()


def test_glue_requires_trivial_homology_in_the_gap():
    c = product_complex(2, [1, 1])  # H_1 = Z^2 blocks the gap 0..2
    try:
        glue(c, 0, 2)
    except GapViolation as exc:
        assert exc.degree == 1
    else:
        raise AssertionError("expected GapViolation")


def test_glue_covers_h1_by_a_proper_generator_subset():
    # H_1 of this product has 17 Z-generators but one generates it over
    # ZG: glue attaches one cell for it in degree 2, then three cells in
    # degree 3 for the kernel of that cover
    c = product_complex(2, [2, 2, 1])
    h1 = homology_module(c, 1)
    assert h1.gens == 17
    assert resolution_step(h1).generators == [0]
    d, cert = glue(c, 1, 3)
    assert [d.rank(i) - c.rank(i) for i in range(8)] == [0, 0, 1, 3, 0, 0, 0, 0]
    assert [d.rank(i) for i in range(8)] == [1, 3, 6, 10, 7, 5, 3, 1]
    assert cert.ok


_GALLERY = [
    lens_complex(2, 2),
    lens_complex(3, 2),
    product_complex(2, [1, 1]),
    product_complex(2, [2, 1]),
    product_complex(3, [1, 1]),
]


def _leading_block(d, rows, cols):
    return [{j: e for j, e in row.items() if j < cols} for row in d.entries[:rows]]


@settings(max_examples=60)
@given(
    st.one_of(
        st.builds(
            random_free_complex,
            st.sampled_from([(2, 1), (3, 1), (2, 2)]).map(
                lambda pr: ElementaryAbelianGroup(*pr)
            ),
            st.lists(st.integers(0, 3), min_size=2, max_size=5),
            st.integers(0, 30),
        ),
        st.sampled_from(_GALLERY),
    )
)
def test_glue_by_attached_cells_matches_the_oracle(c):
    # every glue whose gap has zero homology: the cone's homology is the
    # oracle's at every degree, the certificate holds, and the cone is C
    # with free cells attached in degrees m+1..n only, C a subcomplex
    lo, hi = c.lo, c.hi + 1
    for m in range(lo, hi):
        for n in range(m + 1, hi + 1):
            if any(not homology(c, k).is_trivial() for k in range(m + 1, n)):
                continue
            d, cert = glue(c, m, n)
            assert cert.ok, (m, n)
            for i in range(d.lo - 1, d.hi + 2):
                torsion, free = oracle_homology(d, i)
                h = homology(d, i)
                assert (h.torsion, h.free_rank) == (tuple(torsion), free), (m, n, i)
            for i in range(min(c.lo, d.lo) - 1, max(c.hi, d.hi) + 2):
                assert d.rank(i) >= c.rank(i), (m, n, i)
                assert d.rank(i) == c.rank(i) or m < i <= n, (m, n, i)
                dd, dc = d.differential(i), c.differential(i)
                if dd is None:
                    assert dc is None, (m, n, i)
                    continue
                want = dc.entries if dc is not None else [{}] * c.rank(i - 1)
                assert _leading_block(dd, c.rank(i - 1), c.rank(i)) == want, (m, n, i)
                for row in dd.entries[c.rank(i - 1) :]:
                    assert all(j >= c.rank(i) for j in row), (m, n, i)


def test_glue_rejects_bad_degrees():
    c = lens_complex(2, 1)
    try:
        glue(c, 1, 1)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError for m >= n")


def test_glue_rows_runs_schedules_in_order():
    c = lens_complex(2, 2)
    final, certs = glue_rows(c, [([2], 3), ([1], 3)])
    assert len(certs) == 2
    assert all(cert.ok for cert in certs)
    assert [cert.m for cert in certs] == [2, 1]
    # self-glues are skipped silently
    final2, certs2 = glue_rows(c, [([3], 3)])
    assert certs2 == []
    assert final2 is c


def test_glue_rows_reports_schedule_step_on_gap():
    c = product_complex(2, [1, 1])
    try:
        glue_rows(c, [([0], 2)])
    except GapViolation as exc:
        assert "schedule step 0" in str(exc)
    else:
        raise AssertionError("expected GapViolation through glue_rows")


def test_glue_rows_checks_the_whole_schedule_first(monkeypatch):
    calls = []
    monkeypatch.setattr(surgery, "glue", lambda *args: calls.append(args))
    cases = [
        ([([1], 0)], "schedule step 0 (glue 1 -> 0)"),
        ([([2], 3), ([1, 4], 3)], "schedule step 1 (glue 4 -> 3)"),
    ]
    for schedule, step in cases:
        try:
            glue_rows(lens_complex(2, 2), schedule)
        except ValueError as exc:
            assert step in str(exc)
        else:
            raise AssertionError("expected ValueError for a source above its target")
    assert calls == []


def test_dimension_rows_example():
    t = dimension_rows(2, [3, 2])
    assert t.n == 3
    assert t.a_list == [0, 1]
    assert t.rows[1] == [2, 3]
    assert t.rows[2] == [5]
    assert t.separated  # 3 > 0 + 1
    assert t.schedule() == [([2], 3), ([5], 6)]


def test_dimension_rows_overlapping_case():
    # dims 4,2,2: offsets (0,2,2); the bottom degree 4 of row 2 collides
    # with the top of row 1, so the rows are not separated (4 > 4 fails)
    t = dimension_rows(3, [4, 2, 2])
    assert t.n == 4
    assert t.rows[1] == [2, 2, 4]
    assert t.rows[2] == [4, 6, 6]
    assert t.rows[3] == [8]
    assert not t.separated


def test_dimension_rows_torus():
    t = dimension_rows(2, [1, 1])
    assert t.rows[1] == [1, 1]
    assert t.rows[2] == [2]
    assert t.separated


def test_browder_on_sphere_products():
    c = product_complex(2, [1, 1])
    rep = browder_check(c)
    assert rep.group_order == 4
    assert rep.divides
    assert rep.product == 4
    degs = [j for j, _, _ in rep.rows]
    assert degs == [1, 2]


@pytest.mark.parametrize(
    "p, ks", [(2, [2, 2, 1]), (2, [2, 2, 2]), (2, [3, 2]), (3, [2, 1])]
)
def test_browder_rows_skip_zero_homology_and_match_the_full_path(p, ks, monkeypatch):
    # these products have H_j = 0 presented on up to 50 generators; such a
    # row reads exponent 1 with no module, and every row is the one the
    # full path, a module and a Tate table for every j, reads
    c = product_complex(p, ks)
    zero = [j for j in range(1, c.hi + 1) if homology(c, j).is_trivial()]
    assert max(homology_module(c, j).gens for j in zero) > 1
    full = []
    for j in range(1, c.hi + 1):
        hj = homology_module(c, j)
        full.append((j, hj.invariants(), exponent(tate_cohomology(c.group, hj, j + 1))))
    presented = []
    real = surgery.homology_module
    monkeypatch.setattr(
        surgery, "homology_module", lambda c, j: presented.append(j) or real(c, j)
    )
    assert browder_check(c).rows == full
    assert presented == [j for j in range(c.hi + 1) if j not in zero]


def test_browder_on_lens_complexes():
    for p, k in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]:
        c = lens_complex(p, k)
        rep = browder_check(c)
        assert rep.divides, (p, k)
        assert rep.group_order == p


def test_browder_rejects_disconnected_and_negative():
    g = ElementaryAbelianGroup(2, 1)
    # two ZG-points: H_0 = Z^2|G| is not Z
    c = FreeChainComplex(g, {0: 2}, {})
    try:
        browder_check(c)
    except NotConnected:
        pass
    else:
        raise AssertionError("expected NotConnected")
    # single free point: H_0 = ZG has a nontrivial action
    c2 = FreeChainComplex(g, {0: 1}, {})
    try:
        browder_check(c2)
    except NotConnected:
        pass
    else:
        raise AssertionError("expected NotConnected for free H_0")
    c3 = lens_complex(2, 1).shifted(-1)
    try:
        browder_check(c3)
    except NotNonnegative:
        pass
    else:
        raise AssertionError("expected NotNonnegative")


def test_browder_empty_complex_is_rejected():
    g = ElementaryAbelianGroup(2, 1)
    try:
        browder_check(FreeChainComplex(g, {}, {}))
    except NotConnected:
        pass
    else:
        raise AssertionError("expected NotConnected for the empty complex")


def test_filtration_exponent_check_z4():
    # Z/4 filtered by 4Z < 2Z < Z with Z/2 sections, over Z/2
    g = ElementaryAbelianGroup(2, 1)
    z4 = ModulePresentation(g, 1, IntMatrix([[4]]))
    z2 = ModulePresentation(g, 1, IntMatrix([[2]]))
    witnesses = [IntMatrix([[4]]), IntMatrix([[2]]), IntMatrix([[1]])]
    verdict = filtration_exponent_check([z2, z2], z4, witnesses, 0)
    assert verdict.divides
    assert verdict.exponent == 2
    assert verdict.section_exponents == [2, 2]
    assert verdict.product == 4


def test_filtration_check_rejects_bad_witnesses():
    g = ElementaryAbelianGroup(2, 1)
    z4 = ModulePresentation(g, 1, IntMatrix([[4]]))
    z2 = ModulePresentation(g, 1, IntMatrix([[2]]))
    # wrong count
    try:
        filtration_exponent_check([z2], z4, [IntMatrix([[4]])], 0)
    except FiltrationInvalid:
        pass
    else:
        raise AssertionError("expected FiltrationInvalid for missing witnesses")
    # sections that do not match the quotients
    z3 = ModulePresentation(g, 1, IntMatrix([[3]]))
    try:
        filtration_exponent_check(
            [z3, z2], z4, [IntMatrix([[4]]), IntMatrix([[2]]), IntMatrix([[1]])], 0
        )
    except FiltrationInvalid:
        pass
    else:
        raise AssertionError("expected FiltrationInvalid for wrong section")
    # last witness must span everything
    try:
        filtration_exponent_check(
            [z2, z2], z4, [IntMatrix([[4]]), IntMatrix([[2]]), IntMatrix([[2]])], 0
        )
    except FiltrationInvalid:
        pass
    else:
        raise AssertionError("expected FiltrationInvalid for short span")


def test_filtration_requires_stable_witnesses():
    # over Z/2 acting by swap on Z^2: <e1, 2e2> is nested between
    # 2Z^2 and Z^2 but swap carries e1 out of it
    g = ElementaryAbelianGroup(2, 1)
    swap = IntMatrix([[0, 1], [1, 0]])
    m = ModulePresentation(g, 2, IntMatrix([[2, 0], [0, 2]]), [swap])
    z2 = ModulePresentation(g, 1, IntMatrix([[2]]))
    witnesses = [
        IntMatrix([[2, 0], [0, 2]]),
        IntMatrix([[1, 0], [0, 2]]),
        IntMatrix([[1, 0], [0, 1]]),
    ]
    try:
        filtration_exponent_check([z2, z2], m, witnesses, 0)
    except FiltrationInvalid as exc:
        assert "stable" in str(exc)
    else:
        raise AssertionError("expected FiltrationInvalid for unstable witness")


def test_filtration_section_is_checked_when_it_is_built():
    # Z with the generator acting by 2 is no Z/2-module (2^2 != 1), so
    # the section fails before filtration_exponent_check ever runs
    g = ElementaryAbelianGroup(2, 1)
    z4 = ModulePresentation(g, 1, IntMatrix([[4]]))
    z2 = ModulePresentation(g, 1, IntMatrix([[2]]))
    witnesses = [IntMatrix([[4]]), IntMatrix([[2]]), IntMatrix([[1]])]
    with pytest.raises(InvalidPresentation) as exc:
        filtration_exponent_check(
            [z2, ModulePresentation(g, 1, actions=[IntMatrix([[2]])])], z4, witnesses, 0
        )
    assert exc.value.problems == ["action 1 does not have order dividing p (column 0)"]


def _scaled(basis):
    return IntMatrix([[2 * v for v in row] for row in basis.data], basis.rows, basis.cols)


def _last_dropped(basis):
    return basis.submatrix(range(basis.rows), range(basis.cols - 1))


@pytest.mark.parametrize("tamper", [_scaled, _last_dropped])
@pytest.mark.parametrize(
    "c, m, n", [(product_complex(3, [1, 1]), 1, 2), (lens_complex(2, 3), 0, 2)]
)
def test_ses_certificate_rejects_a_wrong_syzygy_basis(c, m, n, tamper):
    # the exact sequence 0 -> H_n(C) -> H_n(D) -> Omega^(n-m) H_m(C) -> 0
    # holds with the kernel lattice of the last attach step, on the cone
    # that glue returns, and fails with a proper sublattice of it or one
    # lattice vector short
    cone = c
    for k in range(m, n):
        cone, step = surgery._attach(cone, k)
    assert cone.diffs == glue(c, m, n)[0].diffs
    top_basis = step.kernel_basis
    assert top_basis.cols
    assert surgery._verify_ses(c, cone, n, top_basis)
    assert not surgery._verify_ses(c, cone, n, tamper(top_basis))


@pytest.mark.parametrize(
    "c, m, n", [(product_complex(3, [1, 1]), 1, 2), (lens_complex(2, 3), 0, 2)]
)
def test_ses_certificate_rejects_c_cycles_that_are_not_cycles_of_the_cone(c, m, n, monkeypatch):
    # without its d_n, every chain of C_n is a cycle of C, but d_n(D) is
    # d_n on C_n, so the padded cycles leave the cone's cycle lattice:
    # the exact membership test reads not ok, as a solve for them fails
    cone = c
    for k in range(m, n):
        cone, step = surgery._attach(cone, k)
    flat = FreeChainComplex(c.group, c.ranks, {i: d for i, d in c.diffs.items() if i != n})
    zc, zd = _homology_data(flat, n)[0], _homology_data(cone, n)[0]
    padded = IntMatrix.from_sparse(zc.columns, zd.rows)
    with pytest.raises(NoSolution):
        solve_preimage(zd, padded)
    assert surgery._verify_ses(c, cone, n, step.kernel_basis)
    # and reads no coordinates for them, which the unit rows of the
    # cone's cycle basis would give whether or not they are cycles
    real = surgery._cycle_coordinates
    read = []
    monkeypatch.setattr(surgery, "_cycle_coordinates", lambda *a: read.append(1) or real(*a))
    assert not surgery._verify_ses(flat, cone, n, step.kernel_basis)
    assert not read
