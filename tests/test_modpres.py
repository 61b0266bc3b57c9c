import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tatekit import _backend, exactlin
from tatekit.errors import InvalidPresentation
from tatekit.exactlin import IntMatrix
from tatekit.gallery import product_complex, random_free_complex
from tatekit.groupring import ElementaryAbelianGroup, GroupRingElement, GroupRingMatrix
from tatekit.modpres import (
    FreeChainComplex,
    ModulePresentation,
    _Derived,
    _cycle_coordinates,
    _homology_data,
    dual_complex,
    free_module_presentation,
    homology,
    homology_module,
    homology_range,
    trivial_module,
    validate,
    zero_module,
)
from tatekit.resolve import resolution_step, syzygy
from tatekit.tate import _presentation_lattices

from oracles import (
    DenseIntMatrix,
    oracle_antipode_transpose,
    oracle_element_action,
    oracle_element_actions,
    oracle_homology,
    oracle_homology_data,
    tensor_complex,
)


def two_periodic_circle(p):
    """Free Z/p-complex of a circle: ZG --(g-1)--> ZG."""
    g = ElementaryAbelianGroup(p, 1)
    gen = g.generator(1)
    d1 = GroupRingMatrix(g, [{0: gen + (-g.identity())}], 1, 1)
    return FreeChainComplex(g, {0: 1, 1: 1}, {1: d1})


def _random_complex(pr, ranks, seed):
    return random_free_complex(ElementaryAbelianGroup(*pr), ranks, seed)


@settings(max_examples=30)
@given(
    st.one_of(
        st.builds(
            _random_complex,
            st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2)]),
            st.sampled_from([[1, 1], [1, 2, 1], [2, 2, 1], [1, 3, 2]]),
            st.integers(0, 20),
        ),
        st.sampled_from([(2, [1, 1]), (3, [1, 1]), (2, [2, 1]), (3, [2, 1]), (2, [1, 1, 1])])
        .map(lambda pks: product_complex(*pks)),
    )
)
@example(product_complex(2, [1]))
@example(product_complex(3, [1]))
@example(product_complex(2, [1, 1]))
@example(product_complex(3, [1, 1]))
@example(product_complex(2, [2, 2, 1]))
def test_every_derived_module_is_valid(c):
    # modules the library derives skip the constructor's check, so this
    # is that check: homology modules and their pruned forms, kernels and
    # syzygies of those, of Z, of F_p and of Z/p^2 with every generator
    # acting by 1 + p^2 (exact only modulo its relations, the Omega
    # path of a Tate table), the relation lattice of a table, and the
    # library's Z, 0 and free modules
    g = c.group
    q = g.p * g.p
    sources = [homology_module(c, j) for j in c.degrees()] + [
        trivial_module(g),
        ModulePresentation(g, 1, IntMatrix([[g.p]])),
        ModulePresentation(g, 1, IntMatrix([[q]]), [IntMatrix([[1 + q]])] * g.r),
    ]
    derived = [zero_module(g), free_module_presentation(g, 2)]
    for m in sources:
        derived += [m, m.pruned(), resolution_step(m).kernel, syzygy(m, 2), syzygy(m, 3)]
        if m.acts_exactly() and m.relations.cols:
            # the lattice module is the owner of its bound act_columns
            derived.append(_presentation_lattices(m)[1].act.__self__)
    for m in derived:
        assert validate(m) == [], m


def test_validate_catches_broken_presentations():
    # the constructor raises with exactly the problems validate reports;
    # the private derived type skips the check, so it can hold each
    # broken presentation for validate to read
    g = ElementaryAbelianGroup(2, 2)
    one = IntMatrix.identity(2)
    swap = IntMatrix([[0, 1], [1, 0]])
    cases = [
        ((2, IntMatrix.zeros(3, 0), [one, one]), "relation matrix has 3 rows"),
        ((2, IntMatrix.zeros(2, 0), [one]), "got 1 action matrices"),
        ((2, IntMatrix.zeros(2, 0), [IntMatrix.identity(3), one]), "action 1 is 3x3"),
        ((2, IntMatrix([[2], [0]]), [swap, one]), "does not preserve relations"),
        ((2, IntMatrix.zeros(2, 0), [swap, IntMatrix([[-1, 0], [0, 1]])]), "do not commute"),
        ((2, IntMatrix.zeros(2, 0), [IntMatrix([[1, 1], [0, 1]]), one]), "order dividing p"),
    ]
    for args, problem in cases:
        want = validate(_Derived(g, *args))
        assert len(want) == 1 and problem in want[0], want
        with pytest.raises(InvalidPresentation) as exc:
            ModulePresentation(g, *args)
        assert exc.value.problems == want


def test_free_module_presentation_regular_action():
    g = ElementaryAbelianGroup(2, 1)
    m = free_module_presentation(g, 1)
    assert m.gens == g.order
    assert m.invariants().free_rank == 2
    # generator acts by the regular permutation: order two, no fixed basis vector
    act = m.actions[0]
    assert act.mul(act) == IntMatrix.identity(2)
    assert act != IntMatrix.identity(2)


def test_circle_complex_homology():
    c = two_periodic_circle(2)
    h0 = homology(c, 0)
    h1 = homology(c, 1)
    assert h0.torsion == () and h0.free_rank == 1
    assert h1.torsion == () and h1.free_rank == 1
    assert homology(c, 2).is_trivial()
    assert homology(c, -1).is_trivial()


def test_homology_matches_oracle_on_small_complexes():
    rng = random.Random(55)
    c = two_periodic_circle(3)
    for i in (0, 1):
        torsion, free = oracle_homology(c, i)
        inv = homology(c, i)
        assert list(inv.torsion) == torsion and inv.free_rank == free
    # a complex with torsion: ZG --2--> ZG over Z/2
    g = ElementaryAbelianGroup(2, 1)
    two = GroupRingMatrix(g, [{0: g.identity() + g.identity()}], 1, 1)
    t = FreeChainComplex(g, {0: 1, 1: 1}, {1: two})
    torsion, free = oracle_homology(t, 0)
    inv = homology(t, 0)
    assert list(inv.torsion) == torsion == [2, 2]
    assert inv.free_rank == free == 0


def test_homology_range_agrees_with_pointwise():
    c = two_periodic_circle(2)
    rng_table = homology_range(c, -1, 2)
    for i in range(-1, 3):
        assert rng_table[i] == homology(c, i)


def test_homology_module_keeps_the_relation_basis_it_was_built_on(monkeypatch):
    # the relations of a homology module are an echelon basis already,
    # so relation_basis() hands them back with no second Hermite pass
    c = random_free_complex(ElementaryAbelianGroup(2, 2), [1, 3, 2], 0)
    modules = [homology_module(c, j) for j in c.degrees()]
    assert any(m.relations.cols for m in modules)
    real = _backend.hermite
    calls = []
    monkeypatch.setattr(_backend, "hermite", lambda *a: calls.append(1) or real(*a))
    bases = [m.relation_basis() for m in modules]
    assert not calls
    monkeypatch.undo()
    for m, basis in zip(modules, bases):
        assert basis is m.relations
        assert basis == exactlin.lattice_basis(m.relations)


def test_homology_leaves_out_the_columns_at_unit_rows_of_the_map_above(monkeypatch):
    # the chain reads d_hi, ..., d_(lo+1) top-down; the unit pivot rows
    # of each map are basis elements of the degree below it, which the
    # next map is drawn without.  The diagonals would be the same with
    # them, so only the kernel's input shows the cancellation
    c = product_complex(2, [2, 2, 1])
    real = _backend.smith_diagonal
    calls = []

    def spy(rows, ncols, unit_rows=None):
        cols = set().union(*rows)
        diagonal = real(rows, ncols, unit_rows)
        calls.append((cols, {i for i, _ in unit_rows}))
        return diagonal

    monkeypatch.setattr(_backend, "smith_diagonal", spy)
    got = [homology(c, n) for n in c.degrees()]
    assert len(calls) == len(c.degrees()) - 1
    whole = [set().union(*c.sparse_rows(i)) for i in range(c.hi, c.lo, -1)]
    cancelled = 0
    for (_, units), (cols, _), full in zip(calls, calls[1:], whole[1:]):
        assert not cols & units
        assert cols == full - units
        cancelled += len(full & units)
    assert cancelled
    want = [oracle_homology(c, n) for n in c.degrees()]
    assert [(list(h.torsion), h.free_rank) for h in got] == [tuple(w) for w in want]


def test_differential_shape_and_composite_are_checked():
    g = ElementaryAbelianGroup(2, 1)
    gen = g.generator(1)
    d = GroupRingMatrix(g, [{0: gen + (-g.identity())}], 1, 1)
    try:
        FreeChainComplex(g, {0: 2, 1: 1}, {1: d})
    except ValueError:
        pass
    else:
        raise AssertionError("expected shape error")
    # d o d != 0: use d1 = d2 = (g - 1 + 1) = g, whose square is g^2 = 1
    bad = GroupRingMatrix(g, [{0: gen}], 1, 1)
    try:
        FreeChainComplex(g, {0: 1, 1: 1, 2: 1}, {1: bad, 2: bad})
    except ValueError:
        pass
    else:
        raise AssertionError("expected composite error")


def test_free_chain_complex_rejects_a_negative_rank():
    g = ElementaryAbelianGroup(2, 1)
    for ranks, where in [({0: -1, 1: 2}, "at degree 0"), ({0: 1, 3: -2}, "at degree 3")]:
        try:
            FreeChainComplex(g, ranks, {})
        except ValueError as exc:
            assert where in str(exc)
        else:
            raise AssertionError("expected ValueError for a negative rank")


def test_homology_data_reads_the_coordinates_the_solve_gives(monkeypatch):
    # cycle coordinates read off the unit rows of the cycle basis, or
    # solved for where some cycle has none, equal the reference's
    # solve_preimage of every column: coordinates in a basis are unique;
    # both ways occur among the draws
    real = exactlin.solve_preimage
    solves = []
    monkeypatch.setattr(exactlin, "solve_preimage", lambda *a: solves.append(1) or real(*a))
    paths = set()

    @settings(max_examples=80)
    @given(
        st.one_of(
            st.builds(
                _random_complex,
                st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)]),
                st.sampled_from([[1, 1], [1, 2, 1], [2, 2, 1], [1, 3, 2]]),
                st.integers(0, 20),
            ),
            st.sampled_from(
                [(2, [1, 1]), (3, [1, 1]), (2, [2, 1]), (3, [2, 1]), (2, [1, 1, 1]), (2, [2, 2, 1])]
            ).map(lambda pks: product_complex(*pks)),
        )
    )
    def check(c):
        for n in c.degrees():
            before = len(solves)
            cycles, module = _homology_data(c, n)
            if cycles.cols:
                paths.add(len(solves) > before)
            assert (cycles, module.gens, module.relations, module.actions) == (
                oracle_homology_data(c, n)
            )
            # the basis negated has its unit rows at -1
            negated = IntMatrix.from_sparse(
                [{i: -v for i, v in col.items()} for col in cycles.columns], cycles.rows
            )
            targets = c.expanded(n + 1) if c.rank(n) else IntMatrix.zeros(0, 0)
            assert _cycle_coordinates(negated, targets) == real(negated, targets)

    check()
    assert paths == {False, True}


def test_homology_module_carries_the_action():
    g = ElementaryAbelianGroup(2, 1)
    two = GroupRingMatrix(g, [{0: g.identity() + g.identity()}], 1, 1)
    t = FreeChainComplex(g, {0: 1, 1: 1}, {1: two})
    m = homology_module(t, 0)
    assert validate(m) == []
    assert m.invariants() == homology(t, 0)
    # H_0 = ZG/2; the generator still swaps the two basis lines
    assert m.actions[0] != IntMatrix.identity(m.gens)


def _loose_module(g, rng):
    """Random 3 x 3 actions: they do not commute, so the composition
    order shows, and they are no valid presentation, so they skip the
    check."""
    actions = [
        IntMatrix([[rng.randint(-1, 1) for _ in range(3)] for _ in range(3)])
        for _ in range(g.r)
    ]
    return _Derived(g, 3, actions=actions)


@settings(max_examples=20)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (2, 3)]), st.integers(0, 30))
def test_act_columns_is_the_sum_of_element_actions(pr, seed):
    # the reference multiplies the generator actions as dense matrices,
    # A_r^e_r ... A_1^e_1, without going through orbit
    g = ElementaryAbelianGroup(*pr)
    c = random_free_complex(g, [1, 2, 1], seed)
    rng = random.Random(seed)
    for m in (homology_module(c, 1), free_module_presentation(g, 2), _loose_module(g, rng)):
        coeffs = [rng.randint(-2, 2) for _ in range(g.order)]
        want = DenseIntMatrix.zeros(m.gens, m.gens)
        for idx, a in enumerate(coeffs):
            want = want.add(oracle_element_action(m, idx).scale(a))
        got = m.act_columns(GroupRingElement(g, dict(enumerate(coeffs))))
        assert got == want.sparse_columns()


@settings(max_examples=20)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]), st.integers(0, 30))
def test_orbit_columns_are_the_element_actions(pr, seed):
    # column h of orbit(c) is column c of the dense product for element
    # h, on homology modules, their syzygies, free modules and a loose
    # module whose actions do not commute; and a ring element acts on
    # the module ZG as its left-regular expansion
    g = ElementaryAbelianGroup(*pr)
    c = random_free_complex(g, [1, 2, 1], seed)
    rng = random.Random(seed)
    h1 = homology_module(c, 1)
    modules = [h1, syzygy(h1, 1), free_module_presentation(g, 2), _loose_module(g, rng)]
    for m in modules:
        want = oracle_element_actions(m)
        for col in range(m.gens):
            assert m.orbit(col).columns == [act[col] for act in want], (m, col)
    x = GroupRingElement(g, {h: rng.randint(-2, 2) for h in range(g.order)})
    ring = GroupRingMatrix.scalar(g, 1, x).expand().columns
    assert free_module_presentation(g, 1).act_columns(x) == ring


@pytest.mark.parametrize("p, r", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("k", [1, 2])
def test_free_module_acts_by_translation_without_orbits(p, r, k):
    # a ring element acts on ZG^k as its left-regular expansion, one
    # block per copy, read off the group's translation rows: no orbit
    # is built, for dense elements, a single term and zero alike
    g = ElementaryAbelianGroup(p, r)
    rng = random.Random(p * 100 + r * 10 + k)
    f = free_module_presentation(g, k)
    dense = {h: rng.randint(-2, 2) for h in range(g.order)}
    single = {rng.randrange(g.order): rng.choice([-3, 1, 2])}
    for x in (GroupRingElement(g, dense), GroupRingElement(g, single), g.zero()):
        assert f.act_columns(x) == GroupRingMatrix.scalar(g, k, x).expand().columns
    assert not f._orbits


def test_pruned_browder_modules_of_a_three_sphere_product():
    # generators/relations of H_1..H_7 before and after the Tietze moves
    c = product_complex(2, [2, 2, 1])
    before, after = [], []
    for j in range(1, 8):
        m = homology_module(c, j)
        small = m.pruned()
        assert small.invariants() == m.invariants(), j
        before.append((m.gens, m.relations.cols))
        after.append((small.gens, small.relations.cols))
    assert before == [(17, 16), (24, 24), (32, 30), (26, 24), (16, 16), (8, 7), (1, 0)]
    assert after == [(1, 0), (0, 0), (2, 0), (2, 0), (0, 0), (1, 0), (1, 0)]


def test_pruned_is_the_same_object_without_a_unit_relation():
    g = ElementaryAbelianGroup(3, 2)
    for m in (
        trivial_module(g),
        ModulePresentation(g, 1, IntMatrix([[3]])),
        free_module_presentation(g, 1),
        zero_module(g),
    ):
        assert m.pruned() is m


def test_pruned_substitutes_a_unit_relation_into_the_actions():
    # Z^2 / (e_0 - 2 e_1) with x -> -x over Z/2:
    # e_0 = 2 e_1, so the module is Z on e_1 with the same action
    g = ElementaryAbelianGroup(2, 1)
    m = ModulePresentation(g, 2, IntMatrix([[1], [-2]]), [IntMatrix([[-1, 0], [0, -1]])])
    small = m.pruned()
    assert (small.gens, small.relations.cols) == (1, 0)
    assert small.actions[0] == IntMatrix([[-1]])
    # a unit entry in a later relation substitutes into the earlier one
    m = ModulePresentation(g, 2, IntMatrix([[4, 1], [0, 3]]))
    small = m.pruned()
    assert small.relations == IntMatrix([[-12]]) and small.invariants() == m.invariants()


def test_dual_complex_squares_to_zero_and_reflects_degrees():
    c = two_periodic_circle(3)
    d = dual_complex(c)
    assert d.degrees() == [-1, 0]
    assert d.rank(-1) == 1 and d.rank(0) == 1
    # circle dualizes to the same cohomology: H^0 = Z, H^1 = Z
    assert homology(d, -1).free_rank == 1
    assert homology(d, 0).free_rank == 1


@settings(max_examples=30)
@given(
    st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2)]),
    st.lists(st.integers(0, 3), min_size=2, max_size=4),
    st.integers(0, 30),
)
def test_dual_complex_dualizes_each_map_entrywise(pr, ranks, seed):
    c = _random_complex(pr, ranks, seed)
    d = dual_complex(c)
    assert {i: d.rank(-i) for i in c.degrees()} == {i: c.rank(i) for i in c.degrees()}
    for i, di in c.diffs.items():
        assert d.differential(1 - i) == oracle_antipode_transpose(di), i


def test_tensor_complex_kunneth_on_circles():
    c = two_periodic_circle(2)
    t = tensor_complex(c, c)
    assert t.group.order == 4
    assert [t.rank(i) for i in range(4)] == [1, 2, 1, 0]
    assert homology(t, 0).free_rank == 1
    assert homology(t, 1).free_rank == 2
    assert homology(t, 2).free_rank == 1
    for i in range(3):
        torsion, free = oracle_homology(t, i)
        assert homology(t, i).free_rank == free
        assert list(homology(t, i).torsion) == torsion


def test_shifted_moves_degrees_and_keeps_homology():
    c = two_periodic_circle(2)
    s = c.shifted(3)
    assert s.degrees() == [3, 4]
    assert homology(s, 3) == homology(c, 0)
    assert homology(s, 4) == homology(c, 1)


@settings(max_examples=80)
@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2)]),
    st.lists(st.integers(0, 3), min_size=1, max_size=5),
    st.integers(0, 30),
    st.integers(0, 4),
    st.integers(-3, 3),
)
def test_homology_matches_oracle_with_gaps_and_shifts(pr, ranks, seed, omit, shift):
    # zero ranks and an omitted middle differential enter the chain of
    # diagonals as zero maps; a shifted copy reads its own chain
    g = ElementaryAbelianGroup(*pr)
    c = random_free_complex(g, ranks, seed)
    diffs = {i: d for i, d in c.diffs.items() if i != omit}
    c = FreeChainComplex(g, c.ranks, diffs)
    for complex_ in (c, c.shifted(shift)):
        for i in range(complex_.lo - 1, complex_.hi + 2):
            h = homology(complex_, i)
            torsion, free = oracle_homology(complex_, i)
            assert (h.torsion, h.free_rank) == (tuple(torsion), free), i
