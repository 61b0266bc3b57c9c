import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tatekit import _backend, groupring, resolve
from tatekit._backend import smith_diagonal
from tatekit.errors import WindowViolation
from tatekit.exactlin import (
    AbelianInvariants,
    IntMatrix,
    cokernel_invariants,
    homology_invariants,
    kernel_basis,
    lattice_basis,
    solve_in_lattice,
)
from tatekit.gallery import lens_complex, product_complex, random_free_complex
from tatekit.groupring import (
    ElementaryAbelianGroup,
    GroupRingElement,
    GroupRingMatrix,
    full_norm,
    norm_element,
)
from tatekit.modpres import (
    FreeChainComplex,
    ModulePresentation,
    free_module_presentation,
    homology,
    homology_module,
    trivial_module,
)
from tatekit.resolve import (
    complete_resolution,
    resolution_step,
    syzygy,
)
from tatekit.tate import tate_cohomology_range

from oracles import (
    greedy_generators,
    oracle_antipode_transpose,
    oracle_generator_count,
    oracle_product_complex,
)


def test_periodic_resolution_ranks_and_exactness():
    w = complete_resolution(ElementaryAbelianGroup(3, 1), -5, 5)
    for i in range(-5, 6):
        assert w.rank(i) == 1
    # alternating pattern: odd differentials are g - 1, even are the norm
    g = w.group
    for i in range(-4, 5):
        d = w.differential(i)
        terms = d.entries[0][0].terms
        if i % 2 == 1:
            assert sorted(v for _, v in terms) == [-1, 1]
        elif i != 0:
            assert terms == ((0, 1), (1, 1), (2, 1))
    # d_0 is the full norm (rank-1 group, same thing)
    assert w.differential(0).entries[0][0].terms == ((0, 1), (1, 1), (2, 1))


@pytest.mark.parametrize(
    "p, r, k",
    [(2, 1, 4), (3, 1, 3), (2, 2, 3), (3, 2, 2), (5, 2, 2), (2, 3, 3), (3, 3, 2), (2, 4, 2)],
)
def test_closed_form_matches_tensored_lens_complexes(p, r, k):
    # the closed form is the tensor product of r strands, which the
    # tensor oracle builds independently up to degree 2k - 1
    g = ElementaryAbelianGroup(p, r)
    length = 2 * k - 1
    pos = complete_resolution(g, 0, length)
    oracle = oracle_product_complex(p, [k] * r)
    for i in range(length + 1):
        assert pos.rank(i) == oracle.rank(i), i
    for i in range(1, length + 1):
        assert pos.differential(i) == oracle.differential(i), i
    w = complete_resolution(g, -length, length)
    for n in range(1, length + 1):
        assert w.rank(-n) == w.rank(n - 1), n
        if n < length:
            assert w.differential(-n) == w.differential(n).antipode_transpose(), n


def test_complete_resolution_rank_pattern_rank_two():
    w = complete_resolution(ElementaryAbelianGroup(2, 2), -4, 4)
    # positive side: ranks n+1 (Koszul-style tensor of two strands);
    # negative side mirrors with a shift from dualizing
    assert [w.rank(i) for i in range(0, 5)] == [1, 2, 3, 4, 5]
    assert [w.rank(i) for i in range(-1, -5, -1)] == [1, 2, 3, 4]


def test_complete_resolution_is_exact_in_the_window_interior():
    for p, r in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        g = ElementaryAbelianGroup(p, r)
        w = complete_resolution(g, -3, 3)
        for i in range(-2, 3):
            assert homology(w, i).is_trivial(), (p, r, i)


def test_certified_window_answers_homology_without_reducing(monkeypatch):
    # complete_resolution has certified every interior degree, so its
    # windows, shifted or not, reduce nothing there; a complex built by
    # hand on the same differentials is reduced in full
    calls = []
    for name in ("smith_diagonal", "hermite"):
        real = getattr(_backend, name)
        monkeypatch.setattr(_backend, name, lambda *a, real=real: calls.append(1) or real(*a))
    for p, r, k in [(2, 3, 6), (3, 2, 4), (2, 1, 5)]:
        g = ElementaryAbelianGroup(p, r)
        w = complete_resolution(g, -k, k)
        calls.clear()
        got = [homology(w, n) for n in range(1 - k, k)]
        got_shifted = [homology(w.shifted(2), n + 2) for n in range(1 - k, k)]
        assert calls == [], (p, r)
        full = FreeChainComplex(g, w.ranks, w.diffs)
        want = [homology(full, n) for n in range(1 - k, k)]
        assert calls, "the hand-built window is reduced"
        assert got == got_shifted == want
        assert all(h.is_trivial() for h in want), (p, r)


def test_only_a_window_answers_by_its_type(monkeypatch):
    # a shifted window answers 0 strictly inside its moved range and
    # raises at the moved edges; a valid_range set on a plain complex is
    # not read, so the torus keeps its H_1 = Z^2; shifting a plain
    # complex rechecks no d o d
    g = ElementaryAbelianGroup(2, 2)
    moved = complete_resolution(g, -2, 3).shifted(5)
    assert moved.valid_range == (3, 8)
    for n in range(4, 8):
        assert homology(moved, n).is_trivial(), n
    for n in (3, 8):
        with pytest.raises(WindowViolation, match=f"degree {n} outside"):
            homology(moved, n)
    torus = product_complex(2, [1, 1])
    torus.valid_range = (-1, 3)
    assert homology(torus, 1).free_rank == 2
    formed = _count_products(monkeypatch)
    shifted = torus.shifted(-1)
    assert formed == [] and type(shifted) is FreeChainComplex
    assert homology(shifted, 0).free_rank == 2


def test_complete_resolution_zeroth_differential_factorization():
    # d_0 must equal (augmentation column) * (augmentation row): all-norm
    g = ElementaryAbelianGroup(2, 2)
    w = complete_resolution(g, -2, 2)
    d0 = w.differential(0)
    assert d0.rows == 1 and d0.cols == 1
    assert d0.entries[0][0] == full_norm(g)
    # and its expansion is the all-ones matrix
    assert d0.expand().data == [[1] * 4 for _ in range(4)]


def test_window_slices_and_caching():
    g = ElementaryAbelianGroup(3, 1)
    big = complete_resolution(g, -6, 6)
    small = complete_resolution(g, -2, 2)
    assert isinstance(small, FreeChainComplex)
    for i in range(-2, 3):
        assert small.rank(i) == big.rank(i)
        if i > -2:
            assert small.differential(i) == big.differential(i)
    # homology is only meaningful strictly inside the window
    assert homology(small, 0).is_trivial()
    try:
        homology(small, 2)
    except WindowViolation:
        pass
    else:
        raise AssertionError("expected WindowViolation at the window edge")
    assert small.differential(5) is None


def test_resolution_step_cover_and_kernel():
    g = ElementaryAbelianGroup(2, 2)
    m = trivial_module(g)
    step = resolution_step(m)
    assert step.rank == 1
    # cover matrix sends each free generator column onto the module
    assert cokernel_invariants(step.cover.hstack(m.relations)).is_trivial()
    # kernel module has a free underlying group
    assert step.kernel.relations.cols == 0
    # kernel columns really map to zero in the module
    image = step.cover.mul(step.kernel_basis)
    assert m.in_relation_span(image) is None


def test_syzygy_chain_matches_resolution_ranks():
    # over (Z/p)^r the minimal resolution of Z has rank C(n+r-1, r-1);
    # the syzygy construction may add free summands but never less.
    g = ElementaryAbelianGroup(2, 2)
    m = trivial_module(g)
    for n, minimal in [(1, 2), (2, 3)]:
        om = syzygy(m, n)
        assert om.gens >= minimal
    assert syzygy(m, 0) is m


def test_syzygy_of_cyclic_group_is_periodic():
    g = ElementaryAbelianGroup(3, 1)
    m = trivial_module(g)
    o1 = syzygy(m, 1)
    o2 = syzygy(m, 2)
    # omega^1 Z = augmentation ideal: free abelian of rank p-1
    assert o1.invariants().free_rank == 2
    assert o1.invariants().torsion == ()
    # omega^2 Z = Z again (period 2), possibly with free ZG summands
    assert o2.invariants().torsion == ()


def test_resolution_step_on_presented_torsion_module():
    g = ElementaryAbelianGroup(2, 1)
    m = ModulePresentation(g, 1, IntMatrix([[2]]))
    step = resolution_step(m)
    # cover of Z/2 by ZG: kernel contains 2 and (g-1)
    image = step.cover.mul(step.kernel_basis)
    assert m.in_relation_span(image) is None
    # the kernel has full rank |G| since Z/2 is finite
    assert step.kernel.gens == 2


def _all_generators_kernel(module):
    """Reference cover: one free generator per Z-generator of ``module``.

    Returns the kernel as a presented module.  Its syzygies differ from
    those of resolution_step only by free summands.
    """
    group = module.group
    k, n = module.gens, group.order
    columns = [module.act_element(h).columns[c] for c in range(k) for h in range(n)]
    cover = IntMatrix.from_sparse(columns, k)
    full = kernel_basis(cover.hstack(module.relations))
    basis = lattice_basis(full.submatrix(range(k * n), range(full.cols)))
    actions = []
    for i in range(1, group.r + 1):
        perm = GroupRingMatrix.scalar(group, k, group.generator(i)).expand()
        actions.append(solve_in_lattice(basis, perm.mul(basis)))
    return ModulePresentation(
        group, basis.cols, IntMatrix.zeros(basis.cols, 0), actions
    )


def _coefficients(group, mod_p):
    if mod_p:
        return ModulePresentation(group, 1, IntMatrix([[group.p]]))
    return trivial_module(group)


@settings(max_examples=20, deadline=None, database=None)
@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]),
    st.integers(1, 3),
    st.booleans(),
)
def test_syzygy_tate_table_matches_all_generators_cover(pr, n, mod_p):
    # Schanuel: the two covers give syzygies that differ by free
    # summands, which Tate cohomology cannot see.
    p, r = pr
    g = ElementaryAbelianGroup(p, r)
    om = syzygy(_coefficients(g, mod_p), n)
    oracle = _coefficients(g, mod_p)
    for _ in range(n):
        oracle = _all_generators_kernel(oracle)
    got = tate_cohomology_range(g, om, -2, 2)
    assert got == tate_cohomology_range(g, oracle, -2, 2), (p, r, n, mod_p)


def test_syzygy_generator_counts_over_klein_four():
    # the all-generators cover gives 3^n; the minimal resolution has
    # rank n+1, and the Nakayama cover, n+1 generators at each step,
    # keeps the syzygy at 2n+1
    g = ElementaryAbelianGroup(2, 2)
    om = trivial_module(g)
    for n in range(1, 7):
        om = syzygy(om, 1)
        assert om.gens == 2 * n + 1, n


def test_resolution_step_of_free_module_is_free():
    g = ElementaryAbelianGroup(3, 1)
    step = resolution_step(free_module_presentation(g, 2))
    assert step.rank == 2
    assert step.generators == [0, g.order]
    assert step.kernel.gens == 0
    assert step.kernel_basis.cols == 0


def _cover_of(module, generators):
    """The cover on these generators, its columns read off
    ``act_element``: group element h applied to each generator."""
    n = module.group.order
    cols = [module.act_element(h).columns[c] for c in generators for h in range(n)]
    return IntMatrix.from_sparse(cols, module.gens)


_GALLERY_COMPLEXES = [
    lens_complex(2, 2),
    lens_complex(3, 2),
    product_complex(2, [1, 1]),
    product_complex(2, [2, 1]),
    product_complex(3, [1, 1]),
    product_complex(2, [2, 2, 1]),
]


@st.composite
def _modules(draw):
    """A gallery module (a homology module of a gallery complex, Z or
    F_p), or a homology module of a random complex over Z/2, Z/3,
    (Z/2)^2 or (Z/3)^2, one on nonzero generators (Z if there is none),
    then its syzygy of index 0, 1 or 2."""
    kind = draw(st.sampled_from(["gallery", "coefficients", "random"]))
    g = ElementaryAbelianGroup(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)])))
    if kind == "coefficients":
        m = _coefficients(g, draw(st.booleans()))
    else:
        if kind == "gallery":
            c = draw(st.sampled_from(_GALLERY_COMPLEXES))
        else:
            ranks = draw(st.lists(st.integers(0, 2), min_size=2, max_size=4))
            c = random_free_complex(g, ranks, draw(st.integers(0, 30)))
        nonzero = [h for h in (homology_module(c, j) for j in c.degrees()) if h.gens]
        m = draw(st.sampled_from(nonzero)) if nonzero else trivial_module(c.group)
    return syzygy(m, draw(st.integers(0, 2)))


@settings(max_examples=60, deadline=None, database=None)
@given(_modules())
def test_cover_is_minimal_mod_p_and_onto_over_z(m):
    # at least d(M) = dim_Fp M/(pM + IM) generators, by Nakayama, at most
    # the greedy walk's, and onto over Z; the cover's columns are the
    # orbits act_element gives
    step = resolution_step(m)
    assert step.cover == _cover_of(m, step.generators)
    assert oracle_generator_count(m) <= step.rank <= len(greedy_generators(m))
    assert cokernel_invariants(step.cover.hstack(m.relations)).is_trivial()
    image = step.cover.mul(step.kernel_basis)
    assert m.in_relation_span(image) is None


def test_a_cover_not_onto_over_z_is_topped_up():
    # H_1 of this complex is finite: the Nakayama choice, one generator,
    # leaves the cokernel Z/3 + Z/3, prime to 2, and the top-up adds the
    # generator that leaves the smallest cokernel, so two suffice where
    # the greedy walk took three
    g = ElementaryAbelianGroup(2, 3)
    h1 = homology_module(random_free_complex(g, [1, 3, 2], 0), 1)
    choice = resolve._nakayama_choice(h1)
    assert len(choice) == oracle_generator_count(h1) == 1
    left = cokernel_invariants(_cover_of(h1, choice).hstack(h1.relations))
    assert left == AbelianInvariants((3, 3))
    step = resolution_step(h1)
    assert step.rank <= 2 < len(greedy_generators(h1))
    assert set(choice) <= set(step.generators)
    assert cokernel_invariants(step.cover.hstack(h1.relations)).is_trivial()


def _clear_resolve_caches():
    for cached in (resolve._check_strand, resolve._differential, resolve._multi_indices):
        cached.cache_clear()


@pytest.fixture
def cold_resolve():
    """Empty resolve caches before and after, so that a tampered
    differential cannot leak into another test."""
    _clear_resolve_caches()
    yield
    _clear_resolve_caches()


def _fresh_smith(d):
    return smith_diagonal(d.sparse_rows(), d.cols * d.group.order)


def _assert_fresh_smith_exact(group, degrees):
    """The Smith reference: check d_n d_(n+1) = 0 in the group ring for
    the cached maps, reduce their expansions from scratch and read
    H_n = 0 at each n."""
    fresh = {}
    for n in sorted(degrees):
        d = resolve._differential
        assert d(group, n).mul(d(group, n + 1)).is_zero(), (group, n)
        for m in (n, n + 1):
            if m not in fresh:
                fresh[m] = _fresh_smith(resolve._differential(group, m))
        dim = resolve._rank(group, n) * group.order
        h = homology_invariants(dim, fresh[n + 1], fresh[n])
        assert h.is_trivial(), (group, n, h)


def _spy_smith(monkeypatch):
    """The (rows, ncols) of every Smith kernel call from now on."""
    real = _backend.smith_diagonal
    shapes = []

    def spy(rows, ncols, unit_rows=None):
        shapes.append((len(rows), ncols))
        return real(rows, ncols, unit_rows)

    monkeypatch.setattr(_backend, "smith_diagonal", spy)
    return shapes


def _window_orders(k):
    """Windows reaching degree +-k, ascending, descending and overlapping."""
    slide = [(lo, lo + 3) for lo in range(-k, k - 2)]
    return [slide, slide[::-1], [(-1, k), (-k, 1), (-2, 2), (1, k), (-k, -1)]]


def _count_rule_checks(monkeypatch):
    real = resolve._follows_tensor_rule
    checked = []

    def spy(group, n, d):
        checked.append(n)
        return real(group, n, d)

    monkeypatch.setattr(resolve, "_follows_tensor_rule", spy)
    return checked


def _count_products(monkeypatch):
    """Every group-ring matrix product a b formed from now on, as (a, b)."""
    real = GroupRingMatrix.mul
    formed = []

    def spy(a, b):
        formed.append((a, b))
        return real(a, b)

    monkeypatch.setattr(GroupRingMatrix, "mul", spy)
    return formed


@pytest.mark.parametrize(
    "p, r, k",
    [(2, 1, 10), (2, 2, 7), (2, 3, 5), (2, 4, 4), (3, 1, 8), (3, 2, 5), (3, 3, 3), (5, 2, 4)]
    + [(2, 3, 6), (2, 5, 2), (2, 6, 2)],
)
def test_certified_diagonals_match_fresh_smith_in_any_window_order(
    p, r, k, cold_resolve, monkeypatch
):
    # however the windows come, each positive d_n behind a map they hand
    # out is checked by the tensor rule once, and no product of their
    # maps is formed; at every interior degree d o d = 0 in the group
    # ring, and the fresh Smith diagonals of the actual d_(n+1), d_n read
    # H_n = 0: the checks the tensor rule implies, kept as the reference
    g = ElementaryAbelianGroup(p, r)
    checked = _count_rule_checks(monkeypatch)
    formed = _count_products(monkeypatch)
    for windows in _window_orders(k):
        _clear_resolve_caches()
        resolve._check_strand(p)
        checked.clear()
        formed.clear()
        for lo, hi in windows:
            complete_resolution(g, lo, hi)
        interior = {n for lo, hi in windows for n in range(lo + 1, hi)}
        maps = {n for lo, hi in windows for n in range(lo + 1, hi + 1)}
        assert sorted(checked) == sorted({abs(n) for n in maps} - {0}), windows
        assert formed == [], windows
    _assert_fresh_smith_exact(g, interior)


def test_certificate_reduces_only_the_strand_maps(cold_resolve, monkeypatch):
    # no |G|-fold expansion is reduced: the only Smith calls are the p x p
    # maps N, g - 1 and N of each prime's strand, once per prime
    shapes = _spy_smith(monkeypatch)
    for p, r, k in [(2, 4, 7), (2, 3, 5), (3, 2, 4), (2, 1, 3), (3, 3, 3), (5, 2, 2)]:
        complete_resolution(ElementaryAbelianGroup(p, r), -k, k)
    assert shapes == [(2, 2)] * 3 + [(3, 3)] * 3 + [(5, 5)] * 3


def _patch_degree(monkeypatch, n, change):
    """Change the closed form of d_n as ``_differential`` builds it."""
    real = resolve._closed_form

    def tampered(group, m, caps):
        d = real(group, m, caps)
        return change(d) if m == n else d

    monkeypatch.setattr(resolve, "_closed_form", tampered)


def _as_built(group, n):
    """d_n, n != 0, from the closed form as patched, with no check."""
    if n < 0:
        return _as_built(group, -n).antipode_transpose()
    return resolve._closed_form(group, n, (n,) * group.r)


def _doubled(d):
    rows = [{c: e * 2 for c, e in row.items()} for row in d.entries]
    return GroupRingMatrix(d.group, rows, d.rows, d.cols)


def _perturbed(d):
    rows = [dict(row) for row in d.entries]
    rows[0][0] = rows[0].get(0, d.group.zero()) + d.group.identity()
    return GroupRingMatrix(d.group, rows, d.rows, d.cols)


def _flipped(d):
    rows = [dict(row) for row in d.entries]
    col = min(rows[0])
    rows[0][col] = -rows[0][col]
    return GroupRingMatrix(d.group, rows, d.rows, d.cols)


def _extra(d):
    rows = [dict(row) for row in d.entries]
    col = min(set(range(d.cols)) - set(rows[0]))
    rows[0][col] = d.group.identity()
    return GroupRingMatrix(d.group, rows, d.rows, d.cols)


def test_exactness_certificate_rejects_broken_pairs(cold_resolve, monkeypatch):
    # over Z/2 the resolution has d_1 = g - 1 and d_2 = N.  (g - 1) 2N = 0,
    # but H_1 = ker(g - 1) / 2N = Z/2; (g - 1) 1 != 0.  The tensor rule
    # rejects both d_2
    g = ElementaryAbelianGroup(2, 1)
    complete_resolution(g, 0, 2)
    _clear_resolve_caches()
    norm = GroupRingMatrix(g, [{0: full_norm(g) * 2}], 1, 1)
    _patch_degree(monkeypatch, 2, lambda d: norm)
    with pytest.raises(ValueError, match="degree 2: d_2 breaks the tensor rule"):
        complete_resolution(g, 0, 2)
    unit = GroupRingMatrix(g, [{0: g.identity()}], 1, 1)
    _patch_degree(monkeypatch, 2, lambda d: unit)
    with pytest.raises(ValueError, match="degree 2: d_2 breaks the tensor rule"):
        complete_resolution(g, 0, 2)


@pytest.mark.parametrize("lo, hi, degree", [(0, 5, 2), (-6, -1, -4), (2, 3, 2)])
def test_certificate_catches_a_doubled_differential(
    lo, hi, degree, cold_resolve, monkeypatch
):
    # 2 d_3 leaves Z/2 summands in H_2 = ker d_2 / 2 im d_3, and its dual
    # 2 d_(-3), built from it, leaves them in H_(-4), as fresh Smith shows;
    # d o d still holds, so the tensor rule of d_3 is what catches it, also
    # in [2, 3], which has no interior degree but hands out d_3
    g = ElementaryAbelianGroup(2, 2)
    _patch_degree(monkeypatch, 3, _doubled)
    shapes = _spy_smith(monkeypatch)
    with pytest.raises(ValueError, match="degree 3: d_3 breaks the tensor rule"):
        complete_resolution(g, lo, hi)
    assert all(max(shape) <= g.p for shape in shapes)
    into, outof = (_as_built(g, n) for n in (degree + 1, degree))
    assert outof.mul(into).is_zero()
    dim = resolve._rank(g, degree) * g.order
    h = homology_invariants(dim, _fresh_smith(into), _fresh_smith(outof))
    assert h.torsion and set(h.torsion) == {2} and h.free_rank == 0


def _doubled_norm(group, i):
    return norm_element(group, i) * 2


@pytest.mark.parametrize(
    "n, change, message",
    [
        (3, _flipped, "degree 3: d_3 breaks the tensor rule"),
        (3, _perturbed, "degree 3: d_3 breaks the tensor rule"),
        (3, _extra, "degree 3: d_3 breaks the tensor rule"),
        (None, None, "Z/2 strand at degree 1: not exact: homology Z/2"),
    ],
    ids=["flipped-d3", "perturbed-d3", "extra-d3", "doubled-norm"],
)
def test_certificate_catches_mutations_before_any_expansion_is_reduced(
    n, change, message, cold_resolve, monkeypatch
):
    # each broken map (an entry of the wrong sign or value, or one where
    # the rule has none), and a strand whose N is doubled, fails with the
    # degree named before any |G|-fold Smith call; the doubled N is
    # written into every d_n consistently, so only the strand check (a)
    # can see it
    g = ElementaryAbelianGroup(2, 3)
    if change is None:
        monkeypatch.setattr(resolve, "norm_element", _doubled_norm)
    else:
        _patch_degree(monkeypatch, n, change)
    shapes = _spy_smith(monkeypatch)
    with pytest.raises(ValueError, match=message):
        complete_resolution(g, -5, 5)
    assert all(max(shape) <= g.p for shape in shapes)


def test_a_failed_certificate_caches_nothing(cold_resolve, monkeypatch):
    # a doubled d_3 fails after d_1 and d_2 have passed; d_3 is not
    # cached, so with d_3 restored the same window checks it again, and
    # only it and the maps above it, and forms no product of its maps.
    # A failed strand is not cached either
    g = ElementaryAbelianGroup(2, 2)
    resolve._check_strand(g.p)
    checked = _count_rule_checks(monkeypatch)
    formed = _count_products(monkeypatch)
    with monkeypatch.context() as tamper:
        _patch_degree(tamper, 3, _doubled)
        with pytest.raises(ValueError, match="degree 3"):
            complete_resolution(g, 0, 5)
    assert checked == [1, 2, 3]
    complete_resolution(g, 0, 5)
    assert checked == [1, 2, 3, 3, 4, 5] and formed == []
    _clear_resolve_caches()
    checked.clear()
    with monkeypatch.context() as tamper:
        tamper.setattr(resolve, "norm_element", _doubled_norm)
        with pytest.raises(ValueError, match="strand"):
            complete_resolution(g, 0, 5)
    assert checked == []
    shapes = _spy_smith(monkeypatch)
    complete_resolution(g, 0, 5)
    assert shapes == [(2, 2)] * 3 and checked == [1, 2, 3, 4, 5]


def test_strand_follows_an_over_budget_group(cold_resolve, monkeypatch):
    # the Z/p strand is never larger than the group it certifies, so a
    # group that lifts the budget certifies its strand too: even degrees
    # Z/5, odd degrees 0
    monkeypatch.setattr(groupring, "TABLE_BUDGET", 16)
    g = ElementaryAbelianGroup(5, 1, allow_large=True)
    table = tate_cohomology_range(g, trivial_module(g), -4, 4)
    for i in range(-4, 5):
        want = AbelianInvariants((5,) if i % 2 == 0 else ())
        assert table.invariant(i) == want, i


@pytest.mark.parametrize("p, r, k", [(2, 1, 6), (2, 3, 5), (3, 2, 4), (5, 2, 3), (2, 4, 3)])
def test_negative_degrees_invert_each_distinct_entry_once(p, r, k, cold_resolve, monkeypatch):
    # d_(-n) dualizes d_n, whose at most 4r distinct entries are
    # +-(g_i - 1) and +-N_i: from cold caches each is inverted once, and
    # d_(-n) is still the entrywise antipode-transpose
    calls = []
    real = GroupRingElement.antipode

    def counted(self):
        calls.append(self.terms)
        return real(self)

    monkeypatch.setattr(GroupRingElement, "antipode", counted)
    w = complete_resolution(ElementaryAbelianGroup(p, r), -k, k)
    start = 0
    for n in range(k - 1, 0, -1):  # the window dualizes d_(k-1) first
        distinct = {e.terms for row in w.differential(n).entries for e in row.values()}
        assert len(distinct) <= 4 * r, n
        assert set(calls[start : start + len(distinct)]) == distinct, n
        start += len(distinct)
        assert w.differential(-n) == oracle_antipode_transpose(w.differential(n)), n
    assert start == len(calls)


def test_differential_hands_out_only_checked_maps(cold_resolve, monkeypatch):
    # a d_3 that breaks the tensor rule is handed out neither as itself
    # nor through its dual d_(-3); restored, both come out as the closed
    # form and its antipode-transpose
    g = ElementaryAbelianGroup(2, 2)
    with monkeypatch.context() as tamper:
        _patch_degree(tamper, 3, _doubled)
        for n in (3, -3):
            with pytest.raises(ValueError, match="degree 3: d_3 breaks the tensor rule"):
                resolve._differential(g, n)
    d3 = resolve._closed_form(g, 3, (3, 3))
    assert resolve._differential(g, 3) == d3
    assert resolve._differential(g, -3) == d3.antipode_transpose()


@pytest.mark.parametrize("p, r", [(2, 2), (2, 3), (3, 2)])
def test_windows_in_any_order_check_each_map_once(p, r, cold_resolve, monkeypatch):
    # sliding windows [n - 1, n + 1], then windows over the same degrees
    # in another order, read each positive d_n once and reduce nothing
    # past the strand
    g = ElementaryAbelianGroup(p, r)
    checked = _count_rule_checks(monkeypatch)
    shapes = _spy_smith(monkeypatch)
    for n in range(7):
        complete_resolution(g, n - 1, n + 1)
    complete_resolution(g, -1, 7)
    assert checked == list(range(1, 8))
    for lo, hi in _window_orders(7)[2]:
        complete_resolution(g, lo, hi)
    assert checked == list(range(1, 8))
    assert len(shapes) == 3


def test_windows_growing_at_both_ends_check_only_the_new_maps(cold_resolve, monkeypatch):
    # [-k, k] after [-(k-1), k-1] hands out two new maps, d_k and
    # d_(1-k), the dual of d_(k-1), which has already passed, and forms
    # no product of them
    g = ElementaryAbelianGroup(2, 3)
    complete_resolution(g, -2, 2)
    checked = _count_rule_checks(monkeypatch)
    formed = _count_products(monkeypatch)
    for k in range(3, 7):
        checked.clear()
        complete_resolution(g, -k, k)
        assert checked == [k] and formed == [], k
