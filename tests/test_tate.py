import random
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from oracles import oracle_local_smith_diagonal, oracle_smith_diagonal, oracle_total_maps
from tatekit import _backend, tate
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


def _full_table(window, lattices, lo, hi, diagonal=smith_diagonal):
    """Reference for ``_table``: every delta^n reduced whole by
    ``diagonal``, delta^hi too, so the top degree is read off two ranks
    as well."""
    dims, diag = {}, {}
    maps = _total_maps(window, lattices, lo, hi + 1)
    for n, (rows, dim) in zip(range(lo - 1, hi + 1), maps):
        dims[n] = dim
        diag[n] = diagonal(rows, dim)
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
    # through whole expansions, each degree one block
    g = ElementaryAbelianGroup(*pr)
    c = random_free_complex(g, ranks, seed)
    window = complete_resolution(g, -3 + c.lo, 3 + c.hi)
    lattices = _free_lattices(c)
    dense = {
        j: lat._replace(
            block=lat.dim,
            act=lambda x, k=c.rank(j): GroupRingMatrix.scalar(g, k, x).expand().columns,
            d=c.expanded(j).sparse_columns(),
        )
        for j, lat in lattices.items()
    }
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


def _chained(window, lattices, lo, hi):
    """The table ``_table`` reads, the diagonal of each map its chain
    reduces, whether C's unit blocks trimmed the maps, and how many maps
    passed on a unit row pivoted after a content division."""
    seen, late, chain = [], [], []
    real_kernel = _backend.smith_diagonal

    def recording(maps):
        chain.append(True)  # C's passes are done
        for diagonal in chain_diagonals(maps):
            seen.append(diagonal)
            yield diagonal

    def kernel(rows, ncols, unit_rows=None):
        diagonal = real_kernel(rows, ncols, unit_rows)
        if chain:
            # the ones of a diagonal are the units from before any division
            late.append(len(unit_rows) > diagonal.count(1))
        return diagonal

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tate, "chain_diagonals", recording)
        mp.setattr(_backend, "smith_diagonal", kernel)
        table = _table(window, lattices, lo, hi)
    return table, seen, bool(tate._unit_blocks(lattices)), sum(late)


def _oracle_diagonal(rows, dim):
    return sorted(oracle_smith_diagonal([[row.get(k, 0) for k in range(dim)] for row in rows]))


def _local_oracle_diagonal(rows, dim):
    # |G| = 9 kills every Tate group over (Z/3)^2, so Z/27 reads the maps
    return oracle_local_smith_diagonal(rows, dim, 3, 3)


@pytest.mark.parametrize(
    "pr, ranks, diagonal",
    [((2, 2), [1, 2, 2, 1], _oracle_diagonal), ((3, 2), [1, 2, 1], _local_oracle_diagonal)],
)
def test_hyper_tables_that_lose_rows_match_the_whole_maps(pr, ranks, diagonal):
    # C's +-1 pivots, taken before any content division, delete rows of
    # every Tot map and columns of the first, and such a map still
    # passes on all its unit rows; each diagonal and the table equal an
    # oracle's on the whole maps, reduced one by one.  The dense
    # oracle's entries grow past 20 bits on the (Z/3)^2 maps, so there
    # the oracle works over Z/3^3
    g = ElementaryAbelianGroup(*pr)
    lo, hi = -2, 2
    losses = 0
    for seed in range(1, 15):
        c = random_free_complex(g, ranks, seed)
        window = complete_resolution(g, lo - 1 + c.lo, hi + 1 + c.hi)
        lattices = _free_lattices(c)
        table, seen, trimmed, _ = _chained(window, lattices, lo, hi)
        losses += trimmed
        whole = [diagonal(rows, dim) for rows, dim in _total_maps(window, lattices, lo, hi)]
        assert seen == whole, seed
        assert table == _full_table(window, lattices, lo, hi, diagonal), seed
    assert losses >= 10


def _unit_entry(columns):
    return any(v in (1, -1) for col in columns for v in col.values())


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2)]),
    st.sampled_from([[1, 1], [2, 1], [1, 2, 1], [2, 2, 1], [1, 3, 2]]),
    st.integers(0, 20),
    st.integers(-3, 1),
)
def test_trimmed_tot_maps_keep_every_diagonal(pr, ranks, seed, lo):
    # two paths to each Tot map's diagonal: the chain over maps without
    # the copies of C's unit blocks, and the whole map alone; on a free
    # complex and on its unpruned homology modules whose relation basis
    # has a +-1 entry, so their lattice complex L -> Z^gens has one
    g = ElementaryAbelianGroup(*pr)
    c = random_free_complex(g, ranks, seed)
    hi = lo + 2
    cases = [(complete_resolution(g, lo - 1 + c.lo, hi + 1 + c.hi), _free_lattices(c))]
    for j in c.degrees():
        m = homology_module(c, j)
        if m.acts_exactly() and _unit_entry(m.relation_basis().columns):
            cases.append((complete_resolution(g, lo - 1, hi + 2), _presentation_lattices(m)))
    for window, lattices in cases:
        _check_every_diagonal(window, lattices, lo, hi)


def test_trimmed_gallery_tables_keep_every_diagonal():
    for p, ks in [(2, [1, 1]), (3, [1, 1]), (2, [2, 1]), (5, [2, 1])]:
        c = product_complex(p, ks)
        window = complete_resolution(c.group, -3 + c.lo, 3 + c.hi)
        assert _check_every_diagonal(window, _free_lattices(c), -2, 2)[0]


def _check_every_diagonal(window, lattices, lo, hi):
    """Each diagonal of the chain, and the table, against the whole
    maps reduced one by one; returns whether the maps were trimmed and
    how many passed on a unit row pivoted after a content division."""
    table, seen, trimmed, late = _chained(window, lattices, lo, hi)
    assert seen == [smith_diagonal(rows, dim) for rows, dim in _total_maps(window, lattices, lo, hi)]
    assert table == _full_table(window, lattices, lo, hi)
    return trimmed, late


def _check_acyclic_matching(group, lattices):
    """C's unit blocks against the matching they must form: one kernel
    pass per d_j whose rows, those at T_(j-1) left out, have a +-1
    entry; rows R_j and columns T_j distinct and as many, d_j[R_j, T_j]
    unimodular by the oracle, R_j disjoint from T_(j-1), and every Tot
    map around C empty at the copies of T_j.  Returns the number of
    degrees where R_j met a nonempty T_(j-1) to be disjoint from."""
    passes = []
    real = tate.unit_block
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tate, "unit_block", lambda *a: passes.append(1) or real(*a))
        blocks = tate._unit_blocks(lattices)
    assert len(passes) == len(blocks)
    lost = {j: {t for _, t in pairs} for j, pairs in blocks.items()}
    assert set(blocks) == {
        j
        for j, lat in lattices.items()
        if j - 1 in lattices
        and _unit_entry([{r: v for r, v in col.items() if r not in lost.get(j - 1, ())}
                         for col in lat.d])
    }
    met = 0
    for j, pairs in blocks.items():
        rows, cols = [r for r, _ in pairs], [t for _, t in pairs]
        assert len(set(rows)) == len(set(cols)) == len(pairs) > 0
        d = lattices[j].d
        block = [[d[t].get(r, 0) for t in cols] for r in rows]
        assert oracle_smith_diagonal(block) == [1] * len(pairs), j
        below = lost.get(j - 1, set())
        assert not below & set(rows), j
        met += bool(below)
    lo, hi = -1, 1
    window = complete_resolution(group, lo - 1 + min(lattices), hi + max(lattices))
    for n, (maps, _) in enumerate(_total_maps(window, lattices, lo, hi, blocks), lo):
        # maps is delta^(n-1), with rows in Tot^n
        off = 0
        for j, lat in lattices.items():
            for b in range(window.rank(n + j)):
                assert not any(maps[off + b * lat.dim + t] for t in lost.get(j, ())), (n, j)
            off += window.rank(n + j) * lat.dim
    return met


def test_unit_blocks_of_gallery_products_form_an_acyclic_matching():
    met = 0
    for p, ks in [(2, [1, 1]), (3, [1, 1]), (2, [2, 1]), (5, [2, 1]), (2, [2, 2, 1])]:
        c = product_complex(p, ks)
        met += _check_acyclic_matching(c.group, _free_lattices(c))
    assert met


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]),
    st.lists(st.integers(1, 3), min_size=2, max_size=4),
    st.integers(0, 30),
)
def test_unit_blocks_of_random_complexes_and_modules_form_an_acyclic_matching(pr, ranks, seed):
    # a random free complex and the lattice complexes L -> Z^gens of its
    # unpruned homology modules
    g = ElementaryAbelianGroup(*pr)
    c = random_free_complex(g, ranks, seed)
    _check_acyclic_matching(g, _free_lattices(c))
    for j in c.degrees():
        m = homology_module(c, j)
        if m.acts_exactly():
            _check_acyclic_matching(g, _presentation_lattices(m))


def test_trimmed_chains_pass_on_unit_rows_taken_after_a_content_division():
    # module tables whose relation basis has a +-1 entry: trimmed Tot
    # maps pass on unit rows pivoted after a content division, which the
    # disjoint matching allows, and every diagonal and the table still
    # equal those of the whole maps
    late = 0
    for pr, ranks, seed in [((2, 2), [1, 2, 1], 0), ((2, 2), [1, 2, 1], 1), ((5, 1), [2, 2, 1], 0)]:
        g = ElementaryAbelianGroup(*pr)
        c = random_free_complex(g, ranks, seed)
        for j in c.degrees():
            m = homology_module(c, j)
            if m.acts_exactly() and _unit_entry(m.relation_basis().columns):
                window = complete_resolution(g, -3, 2)
                trimmed, n = _check_every_diagonal(window, _presentation_lattices(m), -2, 0)
                assert trimmed
                late += n
    assert late


def test_tables_with_no_unit_entry_in_c_read_their_columns_as_they_are():
    # no +-1 in any d_j: no kernel call for C, the lattices go to
    # _total_maps as given, and no unit blocks are sent with them
    g = ElementaryAbelianGroup(2, 2)
    two = GroupRingMatrix(g, [{0: g.identity() + g.identity()}], 1, 1)
    complex_ = FreeChainComplex(g, {0: 1, 1: 1}, {1: two})
    cases = [
        (complete_resolution(g, -3, 3), _presentation_lattices(trivial_module(g))),
        (complete_resolution(g, -3, 3), _presentation_lattices(cyclic_module(g, 4))),
        (complete_resolution(g, -3, 4), _free_lattices(complex_)),
    ]
    for window, lattices in cases:
        assert not any(lat.d and _unit_entry(lat.d) for lat in lattices.values())
        drawn = []
        real_maps = tate._total_maps
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tate, "unit_block", lambda *a: pytest.fail("reduced C"))
            mp.setattr(
                tate, "_total_maps",
                lambda w, lat, lo, hi, blocks: drawn.append((lat, blocks)) or real_maps(w, lat, lo, hi),
            )
            _table(window, lattices, -2, 2)
        ((read, blocks),) = drawn
        assert blocks == {}
        assert read.keys() == lattices.keys()
        assert all(read[j] is lattices[j] for j in lattices)


def test_free_lattice_action_is_cached_on_the_element_terms(monkeypatch):
    # an equal but distinct element, such as each -c entry of the closed
    # form, hits the entry of the first on its terms alone, with no
    # ring-element comparison; every degree reads the same |G| block,
    # the left-regular action of the element on ZG
    g = ElementaryAbelianGroup(3, 2)
    c = random_free_complex(g, [2, 3, 2], 0)
    real = GroupRingElement.__eq__
    compared = []
    monkeypatch.setattr(
        GroupRingElement, "__eq__", lambda a, b: compared.append(1) or real(a, b)
    )
    lattices = _free_lattices(c)
    x, y = (g.generator(1) - g.identity() for _ in range(2))
    assert x is not y and x.terms == y.terms
    first = lattices[c.lo].act(x)
    compared.clear()
    for j, lat in lattices.items():
        assert (lat.dim, lat.block) == (c.rank(j) * g.order, g.order)
        assert lat.act(y) is first
    assert compared == []
    assert first == GroupRingMatrix.scalar(g, 1, x).expand().columns


def _check_blocks_against_expansions(c, lo, hi):
    """Each ring element of the window, read off its |G| block at every
    offset of C_j with the rows of T_j left out, against the columns of
    its whole expansion on C_j without those rows; and the Tot maps of
    the table, rows and key order, against ``oracle_total_maps``."""
    g = c.group
    lattices = _free_lattices(c)
    blocks = tate._unit_blocks(lattices)
    window = complete_resolution(g, lo - 1 + c.lo, hi + c.hi)
    elements = {x.terms: x for d in window.diffs.values() for row in d.entries for x in row.values()}
    for j, lat in lattices.items():
        lost = {t for _, t in blocks.get(j, ())}
        for x in elements.values():
            block = lat.act(x)
            assert len(block) == lat.block == g.order
            copied = [
                {off + i: v for i, v in col.items() if off + i not in lost}
                for off in range(0, lat.dim, lat.block)
                for col in block
            ]
            whole = GroupRingMatrix.scalar(g, c.rank(j), x).expand().columns
            assert copied == [{i: v for i, v in col.items() if i not in lost} for col in whole]
    got = [([list(row.items()) for row in rows], dim)
           for rows, dim in _total_maps(window, lattices, lo, hi, blocks)]
    want = [([list(row.items()) for row in rows], dim)
            for rows, dim in oracle_total_maps(window, c, lo, hi, blocks)]
    assert got == want
    return bool(blocks)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)]),
    st.sampled_from([[1, 1], [2, 1], [1, 2, 1], [2, 2, 1], [1, 3, 2]]),
    st.integers(0, 20),
    st.integers(-3, 1),
)
def test_tot_maps_from_one_block_match_whole_expansions(pr, ranks, seed, lo):
    # a ring element acts on C_j = ZG^k as k copies of one |G| block;
    # the maps written from it, with C's unit blocks, are the maps of
    # whole expansions, row for row and key for key
    c = random_free_complex(ElementaryAbelianGroup(*pr), ranks, seed)
    _check_blocks_against_expansions(c, lo, lo + 2)


def test_tot_maps_of_gallery_products_from_one_block_match_whole_expansions():
    trimmed = 0
    for p, ks in [(2, [1, 1]), (3, [1, 1]), (5, [1, 1]), (2, [2, 1]), (3, [2, 1]), (2, [2, 2, 1])]:
        trimmed += _check_blocks_against_expansions(product_complex(p, ks), -2, 1)
    assert trimmed


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
