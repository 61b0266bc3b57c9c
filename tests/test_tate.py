import random
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from tatekit import tate
from tatekit._backend import smith_diagonal
from tatekit.errors import InfiniteLength, NotConcentrated
from tatekit.exactlin import INFINITE, AbelianInvariants, IntMatrix, chain_diagonals
from tatekit.gallery import lens_complex, product_complex, random_free_complex
from tatekit.groupring import ElementaryAbelianGroup, GroupRingElement, GroupRingMatrix
from tatekit.modpres import (
    FreeChainComplex,
    ModulePresentation,
    homology_module,
    trivial_module,
)
from tatekit.resolve import complete_resolution, resolution_step, syzygy
from tatekit.tate import (
    CohomologyTable,
    _free_lattices,
    _presentation_lattices,
    _table,
    _total_maps,
    concentrated_check,
    exponent_profile,
    suspension,
    tate_cohomology,
    tate_cohomology_range,
    tate_hypercohomology,
    tate_hypercohomology_range,
)


def test_table_accessors():
    t = tate_cohomology_range(
        ElementaryAbelianGroup(2, 1), trivial_module(ElementaryAbelianGroup(2, 1)), -2, 2
    )
    assert list(t.degrees()) == [-2, -1, 0, 1, 2]
    assert t.exponent(0) == 2
    try:
        t.invariant(5)
    except KeyError:
        pass
    else:
        raise AssertionError("expected KeyError outside the computed range")
    assert len(t.rows()) == 5


def test_cyclic_group_trivial_coefficients_two_sided():
    # direct hand computation: Hom(F_i, Z) = Z with maps alternating 0, p
    # along the 2-periodic resolution, so even degrees give Z/p, odd give 0
    for p in (2, 3, 5):
        g = ElementaryAbelianGroup(p, 1)
        table = tate_cohomology_range(g, trivial_module(g), -6, 6)
        for i in range(-6, 7):
            inv = table.invariant(i)
            if i % 2 == 0:
                assert inv.torsion == (p,) and inv.free_rank == 0, (p, i)
            else:
                assert inv.is_trivial(), (p, i)


@pytest.mark.parametrize("r", range(5, 12))
def test_trivial_coefficients_at_high_rank_match_the_closed_form(r):
    # H^0 = Z/2^r and H^i = H^-i = (Z/2)^b_i, b_1 = 0 and
    # b_(k+1) = C(k+r-1, r-1) - b_k, so (Z/2)^r at i = 2; every window
    # map is certified by the tensor rule, with no |G|-fold reduction
    g = ElementaryAbelianGroup(2, r)
    table = tate_cohomology_range(g, trivial_module(g), -2, 2)
    want = {0: (2**r,), 1: (), -1: (), 2: (2,) * r, -2: (2,) * r}
    assert {i: table.invariant(i) for i in want} == {
        i: AbelianInvariants(t) for i, t in want.items()
    }


def test_zero_module_has_trivial_cohomology():
    g = ElementaryAbelianGroup(2, 2)
    zero = ModulePresentation(g, 0, IntMatrix.zeros(0, 0), [IntMatrix.zeros(0, 0)] * 2)
    table = tate_cohomology_range(g, zero, -3, 3)
    for i in range(-3, 4):
        assert table.invariant(i).is_trivial()


def test_sign_module_over_z3():
    # Z with the generator acting by -1 is only a module over Z/2;
    # over Z/3 use the rank-2 rotation module instead
    g = ElementaryAbelianGroup(2, 1)
    sign = ModulePresentation(g, 1, IntMatrix.zeros(1, 0), [IntMatrix([[-1]])])
    table = tate_cohomology_range(g, sign, -4, 4)
    for i in range(-4, 5):
        inv = table.invariant(i)
        if i % 2 == 0:
            assert inv.is_trivial(), i
        else:
            assert inv.torsion == (2,), i


def test_group_order_annihilates_tate_groups():
    for p, r in [(2, 2), (3, 2)]:
        g = ElementaryAbelianGroup(p, r)
        m = syzygy(trivial_module(g), 1)
        table = tate_cohomology_range(g, m, -2, 3)
        for i, inv, e in table.rows():
            assert e != INFINITE
            for t in inv.torsion:
                assert g.order % t == 0, (p, r, i, t)


def test_presented_module_with_torsion():
    # Z/4 with trivial Z/2-action: norm multiplies by 2
    g = ElementaryAbelianGroup(2, 1)
    z4 = ModulePresentation(g, 1, IntMatrix([[4]]))
    t = tate_cohomology_range(g, z4, -2, 2)
    assert t.invariant(0).torsion == (2,)   # Z/4 / 2*(Z/4)
    assert t.invariant(-1).torsion == (2,)  # kernel of norm / augmentation image
    assert t.invariant(1).torsion == (2,)


def cyclic_module(group, n):
    """Z/n with every generator acting as the identity."""
    return ModulePresentation(group, 1, IntMatrix([[n]]))


def test_mod_p_coefficients_count_monomials():
    # H^n((Z/p)^r; F_p) has dimension C(n + r - 1, r - 1) for n >= 0, and
    # Tate duality gives degree i < 0 the dimension of degree -i - 1
    for p, r in [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]:
        g = ElementaryAbelianGroup(p, r)
        table = tate_cohomology_range(g, cyclic_module(g, p), -3, 3)
        for i in range(-3, 4):
            n = i if i >= 0 else -i - 1
            want = AbelianInvariants((p,) * comb(n + r - 1, r - 1))
            assert table.invariant(i) == want, (p, r, i)


def test_cyclic_coefficients_see_only_the_group_prime():
    # Z/6 = Z/2 + Z/3, and |G| acts invertibly on the summand prime to p
    for p, r in [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]:
        g = ElementaryAbelianGroup(p, r)
        zero = tate_cohomology_range(g, cyclic_module(g, 1), -2, 2)
        assert all(v.is_trivial() for v in zero.invariants)
        want = tate_cohomology_range(g, cyclic_module(g, p), -2, 2) if 6 % p == 0 else zero
        assert tate_cohomology_range(g, cyclic_module(g, 6), -2, 2) == want, (p, r)


def test_actions_exact_only_modulo_relations():
    # Z/p^2 with every generator acting by 1 + p^2 is the trivial module,
    # but 1 + p^2 has infinite order on Z, so Z^gens is no ZG-module
    for p, r in [(2, 1), (3, 1), (2, 2)]:
        g = ElementaryAbelianGroup(p, r)
        q = p * p
        lifted = ModulePresentation(g, 1, IntMatrix([[q]]), [IntMatrix([[1 + q]])] * r)
        assert not lifted.acts_exactly()
        want = tate_cohomology_range(g, cyclic_module(g, q), -2, 2)
        assert tate_cohomology_range(g, lifted, -2, 2) == want, (p, r)


@settings(max_examples=60)
@given(
    st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]),
    st.sampled_from([[1, 1], [2, 1], [3, 1], [1, 2, 1], [2, 2, 1]]),
    st.integers(0, 20),
)
def test_inexact_actions_take_the_syzygy_fallback(pr, ranks, seed):
    # A_i + R X_i acts as A_i modulo the relations R, so the module and
    # its table stay the same, but on Z^gens the new actions need not
    # commute or have order p.  Pruning takes most of these to a
    # presentation without relations, so they check that pruning a
    # non-exact presentation keeps the table; Z/p^2 with every generator
    # acting by 1 + p^2 has no unit relation to prune, and its table is
    # read off Omega M
    g = ElementaryAbelianGroup(*pr)
    c = random_free_complex(g, ranks, seed)
    rng = random.Random(f"{pr}|{ranks}|{seed}")
    pairs = []
    for d in range(len(ranks)):
        m = homology_module(c, d)
        rels = m.relations
        if not rels.cols:
            continue
        actions = []
        for a in m.actions:
            # a - rels (-x) = a + rels x
            x = IntMatrix(
                [[-rng.choice((-1, 0, 0, 1)) for _ in range(m.gens)] for _ in range(rels.cols)]
            )
            actions.append(a.sub(rels.mul(x)))
        perturbed = ModulePresentation(g, m.gens, rels, actions)
        pairs.append((m, perturbed))
    assume(any(not perturbed.acts_exactly() for _, perturbed in pairs))
    for m, perturbed in pairs:
        want = tate_cohomology_range(g, m, -2, 2)
        assert tate_cohomology_range(g, perturbed, -2, 2) == want
    q = g.p * g.p
    lifted = ModulePresentation(g, 1, IntMatrix([[q]]), [IntMatrix([[1 + q]])] * g.r)
    assert lifted.pruned() is lifted and not lifted.acts_exactly()
    want = tate_cohomology_range(g, cyclic_module(g, q), -2, 2)
    with pytest.MonkeyPatch.context() as mp:
        steps = _count_resolution_steps(mp)
        assert tate_cohomology_range(g, lifted, -2, 2) == want
    assert steps == [lifted]


def _count_resolution_steps(mp):
    """Patch ``tate.resolution_step`` to record each module it covers."""
    seen = []

    def counted(module):
        seen.append(module)
        return resolution_step(module)

    mp.setattr(tate, "resolution_step", counted)
    return seen


def test_pruned_presentation_is_read_only_when_exact(monkeypatch):
    # H_0 here prunes from 8/8 to 3/3 generators/relations, and the
    # pruned actions are exact only modulo the relations: the table is
    # read off the given presentation, with no syzygy step
    g = ElementaryAbelianGroup(2, 3)
    m = homology_module(random_free_complex(g, [1, 2, 1], 0), 0)
    small = m.pruned()
    assert (m.gens, m.relations.cols) == (8, 8)
    assert (small.gens, small.relations.cols) == (3, 3)
    assert m.acts_exactly() and not small.acts_exactly()
    steps = _count_resolution_steps(monkeypatch)
    table = tate_cohomology_range(g, m, -2, 2)
    assert steps == []
    window = complete_resolution(g, -3, 3)
    assert table == _table(window, _presentation_lattices(m), -2, 2)


def _check_pruned_against_unpruned(m, lo, hi):
    # Two paths to one table: tate_cohomology_range reads the pruned
    # presentation when it acts exactly, the reference reads the cone
    # over the relation lattice of the presentation as given
    small = m.pruned()
    assert small.invariants() == m.invariants()
    assert small.gens <= m.gens
    assert small.relations.cols <= m.relations.cols
    assert m.acts_exactly()
    window = complete_resolution(m.group, lo - 1, hi + 1)
    want = _table(window, _presentation_lattices(m), lo, hi)
    assert tate_cohomology_range(m.group, m, lo, hi) == want


@pytest.mark.parametrize("pr", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3)])
@settings(max_examples=12)
@given(
    st.sampled_from([[1, 1], [2, 1], [1, 2, 1], [2, 2, 1], [1, 3, 2]]),
    st.integers(0, 30),
    st.integers(-2, 0),
)
def test_pruned_table_matches_the_unpruned_cone(pr, ranks, seed, lo):
    c = random_free_complex(ElementaryAbelianGroup(*pr), ranks, seed)
    for j in c.degrees():
        _check_pruned_against_unpruned(homology_module(c, j), lo, lo + 2)


def test_pruned_table_matches_the_unpruned_cone_on_the_gallery():
    for p, ks in [(2, [1, 1]), (3, [1, 1]), (2, [2, 1]), (3, [2, 1]), (2, [2, 2, 1])]:
        c = product_complex(p, ks)
        for j in c.degrees():
            _check_pruned_against_unpruned(homology_module(c, j), j - 1, j + 1)


def _composite_is_zero(upper, lower):
    for row in upper:
        out = {}
        for k, v in row.items():
            for c, w in lower[k].items():
                out[c] = out.get(c, 0) + v * w
        if any(out.values()):
            return False
    return True


def test_consecutive_cone_maps_compose_to_zero():
    # Negating a row block keeps every Smith diagonal, so no table can
    # see the sign rule of delta^n; this checks it for modules and for
    # free complexes
    g = ElementaryAbelianGroup(2, 1)
    two = GroupRingMatrix(g, [{0: g.identity() + g.identity()}], 1, 1)
    modules = [
        homology_module(FreeChainComplex(g, {0: 1, 1: 1}, {1: two}), 0),
        cyclic_module(ElementaryAbelianGroup(2, 2), 6),
        cyclic_module(ElementaryAbelianGroup(3, 1), 3),
        homology_module(random_free_complex(ElementaryAbelianGroup(3, 2), [1, 2, 1], 0), 0),
    ]
    cases = []
    for m in modules:
        assert m.relations.cols and m.acts_exactly()
        cases.append((complete_resolution(m.group, -3, 3), _presentation_lattices(m)))
    complexes = [
        product_complex(2, [1, 1]),
        random_free_complex(ElementaryAbelianGroup(3, 1), [2, 1, 0, 1], 1),
        lens_complex(3, 2).shifted(-1),
    ]
    for c in complexes:
        assert c.diffs and c.lo <= 0
        window = complete_resolution(c.group, -3 + c.lo, 3 + c.hi)
        cases.append((window, _free_lattices(c)))
    for window, lattices in cases:
        maps = [rows for rows, _ in _total_maps(window, lattices, -2, 2)]
        for lower, upper in zip(maps, maps[1:]):
            assert _composite_is_zero(upper, lower), window


@settings(max_examples=60)
@given(
    st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]),
    st.sampled_from([[1, 1], [2, 1], [1, 2, 1], [2, 2, 1]]),
    st.integers(0, 20),
    st.integers(2, 12),
)
def test_dimension_shift_and_periodicity(pr, ranks, seed, n):
    # Ĥ^i(M) = Ĥ^{i+1}(Omega M); Omega M has no relations, so this
    # compares the cone over a relation lattice with the plain complex
    g = ElementaryAbelianGroup(*pr)
    c = random_free_complex(g, ranks, seed)
    modules = [homology_module(c, d) for d in range(len(ranks))]
    for m in modules + [cyclic_module(g, n)]:
        table = tate_cohomology_range(g, m, -2, 2)
        omega = resolution_step(m).kernel
        assert omega.relations.cols == 0
        assert table.invariants == tate_cohomology_range(g, omega, -1, 3).invariants
        if g.r == 1:
            assert table.invariants[:3] == table.invariants[2:]


def _full_table(window, lattices, lo, hi):
    """Reference for ``_table``: every delta^n reduced whole, delta^hi
    too, so the top degree is read off two ranks as well."""
    dims, diag = {}, {}
    maps = _total_maps(window, lattices, lo, hi + 1)
    for n, (rows, dim) in zip(range(lo - 1, hi + 1), maps):
        dims[n] = dim
        diag[n] = smith_diagonal(rows, dim)
    invs = []
    for i in range(lo, hi + 1):
        free = dims[i] - len(diag[i - 1]) - len(diag[i])
        invs.append(AbelianInvariants.from_diagonal(diag[i - 1], free))
    return CohomologyTable(lo, hi, invs)


@settings(max_examples=30)
@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]),
    st.sampled_from([[1, 1], [2, 1], [1, 2, 1], [2, 2, 1]]),
    st.integers(0, 20),
    st.integers(2, 12),
)
def test_cancelled_table_matches_full_reduction(pr, ranks, seed, n):
    # _table drops the columns of delta^n cancelled by delta^{n-1}; the
    # reference reduces every delta^n whole, and reads the free complex
    # through dense expansions
    g = ElementaryAbelianGroup(*pr)
    c = random_free_complex(g, ranks, seed)
    window = complete_resolution(g, -3 + c.lo, 3 + c.hi)
    lattices = _free_lattices(c)
    dense = {j: (dim, act, c.expanded(j).sparse_columns())
             for j, (dim, act, _) in lattices.items()}
    assert _table(window, lattices, -2, 2) == _full_table(window, dense, -2, 2)
    q = g.p * g.p
    lift = ModulePresentation(g, 1, IntMatrix([[q]]), [IntMatrix([[1 + q]])] * g.r)
    modules = [homology_module(c, d) for d in range(len(ranks))]
    for m in modules + [cyclic_module(g, n), cyclic_module(g, g.p), lift]:
        lo, hi = -2, 2
        if not m.acts_exactly():
            m, lo, hi = resolution_step(m).kernel, lo + 1, hi + 1
        window = complete_resolution(g, lo - 1, hi + 1)
        lattices = _presentation_lattices(m)
        assert _table(window, lattices, lo, hi) == _full_table(window, lattices, lo, hi)


def _recording(maps, sent):
    """``maps``, with every set sent into it appended to ``sent``."""
    cancelled = None
    while True:
        try:
            item = maps.send(cancelled)
        except StopIteration:
            return
        cancelled = yield item
        sent.append(cancelled)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]),
    st.booleans(),
    st.integers(-4, 2),
    st.integers(0, 3),
)
def test_chain_diagonals_of_trivial_coefficient_tables_match_sympy(pr, fp, lo, width):
    # over trivial Z every coboundary has entries 0 and +-p only, so each
    # map is divided by its content p before any unit pivot, and the
    # chain cancels with the unit rows taken after the division; each
    # diagonal is still sympy's diagonal of the whole map
    g = ElementaryAbelianGroup(*pr)
    m = ModulePresentation(g, 1, IntMatrix([[g.p]])) if fp else trivial_module(g)
    hi = lo + width
    lattices = _presentation_lattices(m)
    window = complete_resolution(g, lo - 1, hi + max(lattices))
    whole = list(_total_maps(window, lattices, lo, hi))
    want = [
        [int(f) for f in invariant_factors(Matrix(len(rows), dim, lambda i, j: rows[i].get(j, 0)),
                                           domain=ZZ) if f]
        for rows, dim in whole
    ]
    sent = []
    assert list(chain_diagonals(_recording(_total_maps(window, lattices, lo, hi), sent))) == want
    if not fp:
        assert any(sent) == any(any(rows) for rows, _ in whole)


def _drawn_maps(window, lattices, lo, hi, pick):
    """The maps of ``_total_maps`` with the set ``pick(rows, dim)`` of
    each map's target coordinates sent back before the next is drawn,
    each map paired with the set sent before it."""
    maps = _total_maps(window, lattices, lo, hi)
    out, sent = [], None
    while True:
        try:
            rows, dim = maps.send(sent)
        except StopIteration:
            return out
        out.append((rows, sent or set()))
        sent = pick(rows, dim)


def test_total_maps_write_no_entry_in_a_cancelled_column():
    # a sent set of Tot^n coordinates is left out of delta^n: no key in
    # it is written, every other entry is the full map's, and each row
    # keeps its keys ascending; on a hyper table and on a module table
    # with relations, with random sets and with the unit rows the chain
    # itself would send
    g = ElementaryAbelianGroup(2, 2)
    c = random_free_complex(g, [2, 3, 2], 0)
    m = homology_module(product_complex(2, [1, 1]), 1)
    assert m.relations.cols and m.acts_exactly()
    cases = [
        (complete_resolution(g, -3 + c.lo, 2 + c.hi), _free_lattices(c)),
        (complete_resolution(m.group, -3, 3), _presentation_lattices(m)),
    ]
    rng = random.Random(5)

    def units(rows, dim):
        out = []
        smith_diagonal([dict(row) for row in rows], dim, out)
        return set(out)

    def some(rows, dim):
        return {i for i in range(len(rows)) if rng.random() < 0.4}

    for window, lattices in cases:
        full = _drawn_maps(window, lattices, -2, 2, lambda rows, dim: set())
        for pick in (units, some):
            drawn = _drawn_maps(window, lattices, -2, 2, pick)
            assert any(sent for _, sent in drawn)
            for (rows, sent), (whole, _) in zip(drawn, full):
                assert not any(sent.intersection(row) for row in rows)
                assert rows == [{k: v for k, v in row.items() if k not in sent} for row in whole]
                assert all(list(row) == sorted(row) for row in rows)


def test_free_lattice_action_is_cached_on_the_element_terms(monkeypatch):
    # an equal but distinct element, such as each -c entry of the closed
    # form, hits the entry of the first on its terms alone, with no
    # ring-element comparison
    g = ElementaryAbelianGroup(3, 2)
    c = random_free_complex(g, [2, 3, 2], 0)
    real = GroupRingElement.__eq__
    compared = []
    monkeypatch.setattr(
        GroupRingElement, "__eq__", lambda a, b: compared.append(1) or real(a, b)
    )
    for j, (_, act, _) in _free_lattices(c).items():
        x, y = (g.generator(1) - g.identity() for _ in range(2))
        assert x is not y and x.terms == y.terms
        first = act(x)
        compared.clear()
        assert act(y) is first
        assert compared == []
        assert first == GroupRingMatrix.scalar(g, c.rank(j), x).expand().columns


def test_table_rejects_a_free_rank_below_the_top_degree():
    # |G| kills Ĥ*, so a free rank inside a table is a bug, not an
    # answer; with d_1 replaced by the zero map, Hom(F, ZG) keeps a free
    # rank of |G| - 1 at degree 0, and the table names that degree
    g = ElementaryAbelianGroup(2, 2)
    lattices = _free_lattices(FreeChainComplex(g, {0: 1}, {}))
    window = complete_resolution(g, -3, 2)
    assert all(h.is_trivial() for h in _table(window, lattices, -2, 2).invariants)
    diffs = dict(window.diffs)
    diffs[1] = GroupRingMatrix.zero(g, window.rank(0), window.rank(1))
    broken = FreeChainComplex(g, window.ranks, diffs)
    with pytest.raises(ValueError, match="degree 0: free rank 3"):
        _table(broken, lattices, -2, 2)


def _check_top_degree(table_of, lo, hi):
    # Ĥ^hi is read as the torsion of coker delta^(hi-1) at the top of
    # [lo, hi], and off the ranks of delta^(hi-1) and delta^hi inside
    # [lo, hi + 1]
    top, wider = table_of(lo, hi), table_of(lo, hi + 1)
    assert (top.lo, top.hi) == (lo, hi)
    assert top.invariants == wider.invariants[:-1], (lo, hi)


def test_top_degree_matches_the_same_degree_read_inside_a_wider_table():
    for p, ks in [(2, [1, 1]), (3, [1, 1]), (2, [2, 1]), (3, [2, 1]), (2, [2, 2, 1])]:
        c = product_complex(p, ks)
        for j in c.degrees():
            m = homology_module(c, j)
            for lo, hi in [(j - 1, j + 1), (j, j)]:
                _check_top_degree(lambda a, b: tate_cohomology_range(c.group, m, a, b), lo, hi)
    for pr, ranks in [((2, 2), [2, 3, 2]), ((3, 1), [2, 3, 3, 1]), ((2, 3), [1, 2, 1])]:
        g = ElementaryAbelianGroup(*pr)
        for seed in range(3):
            c = random_free_complex(g, ranks, seed)
            for lo, hi in [(-2, 1), (0, 0), (-1, -1)]:
                _check_top_degree(lambda a, b: tate_hypercohomology_range(g, c, a, b), lo, hi)
            for d in range(len(ranks)):
                m = homology_module(c, d)
                _check_top_degree(lambda a, b: tate_cohomology_range(g, m, a, b), -2, 1)
    for pr, n in [((2, 2), 3), ((3, 1), 2), ((2, 3), 2)]:
        g = ElementaryAbelianGroup(*pr)
        omega = syzygy(trivial_module(g), n)
        for lo, hi in [(-2, 2), (1, 1)]:
            _check_top_degree(lambda a, b: tate_cohomology_range(g, omega, a, b), lo, hi)
    for pr in [(2, 1), (3, 1), (2, 2)]:
        g = ElementaryAbelianGroup(*pr)
        q = g.p * g.p
        # actions exact only modulo the relations: read through Omega M
        lifted = ModulePresentation(g, 1, IntMatrix([[q]]), [IntMatrix([[1 + q]])] * g.r)
        assert not lifted.acts_exactly()
        for lo, hi in [(-2, 2), (0, 0)]:
            _check_top_degree(lambda a, b: tate_cohomology_range(g, lifted, a, b), lo, hi)


def test_free_module_has_trivial_tate_cohomology():
    from tatekit.modpres import free_module_presentation

    for p, r in [(2, 1), (2, 2), (3, 1)]:
        g = ElementaryAbelianGroup(p, r)
        f = free_module_presentation(g, 2)
        table = tate_cohomology_range(g, f, -2, 2)
        for i in range(-2, 3):
            assert table.invariant(i).is_trivial(), (p, r, i)


def test_hypercohomology_of_free_complex_vanishes():
    # the second complex has no degree at all, since zero ranks are dropped
    empty = FreeChainComplex(ElementaryAbelianGroup(3, 2), {0: 0}, {})
    for c in (product_complex(2, [1, 1]), empty):
        table = tate_hypercohomology_range(c.group, c, -3, 3)
        for i in range(-3, 4):
            assert table.invariant(i).is_trivial(), (c, i)


def test_hypercohomology_of_concentrated_module_matches_shift():
    # [ZG --2--> ZG] has H_0 = ZG/2; hypercohomology = Tate of that module
    g = ElementaryAbelianGroup(2, 1)
    two = GroupRingMatrix(g, [{0: g.identity() + g.identity()}], 1, 1)
    c = FreeChainComplex(g, {0: 1, 1: 1}, {1: two})
    from tatekit.modpres import homology_module

    m = homology_module(c, 0)
    ct = tate_hypercohomology_range(g, c, -2, 2)
    mt = tate_cohomology_range(g, m, -2, 2)
    for i in range(-2, 3):
        assert ct.invariant(i) == mt.invariant(i), i


def test_suspension_shifts_hypercohomology():
    rng = random.Random(4)
    g = ElementaryAbelianGroup(2, 1)
    for seed in range(3):
        c = random_free_complex(g, [2, 2, 1], seed)
        s = suspension(c)
        a = tate_hypercohomology_range(g, c, -1, 2)
        b = tate_hypercohomology_range(g, s, 0, 3)
        for i in range(-1, 3):
            assert a.invariant(i) == b.invariant(i + 1), (seed, i)


def test_hypercohomology_rejects_windowed_complexes():
    # a window of the complete resolution, or a shift of one, is cut out
    # of an unbounded complex
    g = ElementaryAbelianGroup(2, 1)
    window = complete_resolution(g, 0, 1)
    for c in (window, suspension(window)):
        with pytest.raises(InfiniteLength):
            tate_hypercohomology_range(g, c, -1, 1)


def test_single_degree_wrappers():
    g = ElementaryAbelianGroup(3, 1)
    inv = tate_cohomology(g, trivial_module(g), 0)
    assert inv.torsion == (3,)
    c = lens_complex(3, 1)
    assert tate_hypercohomology(g, c, 1).is_trivial()


def test_exponent_profile_requires_positive_start():
    g = ElementaryAbelianGroup(2, 1)
    try:
        exponent_profile(g, trivial_module(g), 0, 3)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError for degree 0 start")
    prof = exponent_profile(g, trivial_module(g), 1, 6)
    assert [prof.exponent(i) for i in range(1, 7)] == [1, 2, 1, 2, 1, 2]


def test_concentrated_check_on_torsion_complex():
    g = ElementaryAbelianGroup(2, 1)
    two = GroupRingMatrix(g, [{0: g.identity() + g.identity()}], 1, 1)
    c = FreeChainComplex(g, {0: 1, 1: 1}, {1: two})
    cmp0 = concentrated_check(g, c, 0)
    assert cmp0.ok
    # shifted: support moves to degree 2, comparison realigns
    cmp2 = concentrated_check(g, c.shifted(2), 2)
    assert cmp2.ok
    assert cmp2.degree == 2


def test_concentrated_check_rejects_spread_homology():
    c = product_complex(2, [1, 1])
    # free complex: nontrivial integral homology at 0, 1, 2
    try:
        concentrated_check(c.group, c, 1)
    except NotConcentrated:
        pass
    else:
        raise AssertionError("expected NotConcentrated")


def test_concentrated_random_complexes_match_their_module():
    # Free lattices on one side, a Hermite-built presentation of H_0 on
    # the other
    checked = 0
    for pr in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        g = ElementaryAbelianGroup(*pr)
        for ranks in ([2, 1], [3, 2], [2, 2]):
            for seed in range(6):
                c = random_free_complex(g, ranks, seed)
                try:
                    cmp = concentrated_check(g, c, 0)
                except NotConcentrated:
                    continue
                assert cmp.ok, (pr, ranks, seed, cmp.rows)
                checked += 1
    assert checked >= 40


def test_table_equality():
    g = ElementaryAbelianGroup(2, 1)
    a = tate_cohomology_range(g, trivial_module(g), 0, 2)
    b = tate_cohomology_range(g, trivial_module(g), 0, 2)
    c = tate_cohomology_range(g, trivial_module(g), 0, 3)
    assert a == b
    assert a != c
