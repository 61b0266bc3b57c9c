import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from tatekit import BACKEND, _backend, _elim_py
from tatekit.errors import NoSolution, SublatticeViolation
from tatekit.exactlin import (
    INFINITE,
    AbelianInvariants,
    IntMatrix,
    chain_diagonals,
    cokernel_invariants,
    exponent,
    kernel_basis,
    lattice_basis,
    quotient_invariants,
    rank,
    smith_diagonal,
    solve_in_lattice,
    solve_preimage,
    unit_block,
)

from tatekit.gallery import random_free_complex
from tatekit.groupring import ElementaryAbelianGroup, GroupRingElement, GroupRingMatrix
from tatekit.resolve import complete_resolution

from oracles import (
    DenseIntMatrix,
    dense_cokernel_invariants,
    dense_kernel_basis,
    dense_lattice_basis,
    dense_quotient_invariants,
    dense_solve_in_lattice,
    dense_solve_preimage,
    oracle_cokernel,
    oracle_local_smith_diagonal,
    oracle_rank,
    oracle_smith_diagonal,
)


def _sympy_diagonal(m):
    """The Smith diagonal of ``m`` from sympy, the reference wherever
    ``oracle_smith_diagonal`` can stall: on some 12 x 8 chain inputs its
    entries grow to thousands of bits."""
    return [int(f) for f in invariant_factors(Matrix(m.data), domain=ZZ) if f]


def rand_matrix(rng, rows, cols, lo=-5, hi=5, density=0.7):
    return IntMatrix(
        [
            [rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)
        ],
        rows,
        cols,
    )


def test_smith_diagonal_hand_cases():
    assert smith_diagonal(IntMatrix([[2, 0], [0, 3]])) == [1, 6]
    assert smith_diagonal(IntMatrix([[1, 0], [0, 1]])) == [1, 1]
    assert smith_diagonal(IntMatrix([[0, 0], [0, 0]])) == []
    assert smith_diagonal(IntMatrix([[2, 4], [4, 8]])) == [2]
    assert smith_diagonal(IntMatrix([[6]])) == [6]
    # classic: diag(2,6) not diag(2)+(6) for [[2,0],[0,6]]? both 2|6 already
    assert smith_diagonal(IntMatrix([[2, 0], [0, 6]])) == [2, 6]
    assert smith_diagonal(IntMatrix([[0, 1], [1, 0]])) == [1, 1]


def test_smith_diagonal_matches_oracle():
    rng = random.Random(101)
    for _ in range(150):
        rows = rng.randint(0, 7)
        cols = rng.randint(0, 7)
        m = rand_matrix(rng, rows, cols)
        got = smith_diagonal(m)
        want = oracle_smith_diagonal(m.data)
        assert got == want, (m.data, got, want)
        for a, b in zip(got, got[1:]):
            assert b % a == 0
    # Python ints throughout: exact far beyond 64 bits
    big = IntMatrix([[2**200, 1], [3, 2**200 + 1]])
    got = smith_diagonal(big)
    assert got == oracle_smith_diagonal(big.data)
    assert max(got) > 2**100


def _unimodular(rng, n):
    """A random n x n integer matrix of determinant +-1: the identity
    under random row additions and sign changes."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, k = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == k:
            rows[i] = [-v for v in rows[i]]
        else:
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [v + c * w for v, w in zip(rows[i], rows[k])]
    return IntMatrix(rows, n, n)


def test_local_smith_oracle_reads_back_p_power_diagonals():
    # U D V with D a diagonal of powers of p and U, V unimodular: over
    # Z/p^e, e one above the largest power, the oracle reads D back
    rng = random.Random(7)
    for _ in range(80):
        p = rng.choice((2, 3, 5))
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        powers = sorted(rng.randint(0, 3) for _ in range(rng.randint(0, min(n, m))))
        d = IntMatrix(
            [[p ** powers[i] if i == j < len(powers) else 0 for j in range(m)] for i in range(n)]
        )
        a = _unimodular(rng, n).mul(d).mul(_unimodular(rng, m))
        e = max(powers, default=0) + 1
        want = [p**v for v in powers]
        assert oracle_local_smith_diagonal(a.sparse_rows(), m, p, e) == want, (a.data, p, e)
        assert smith_diagonal(a) == want


def _kernel_units(data, ncols):
    """The Smith diagonal and the (row, column) unit pivot pairs the
    kernel reports."""
    units = []
    rows = IntMatrix(data, len(data), ncols).sparse_rows()
    return _backend.smith_diagonal(rows, ncols, units), units


def _transpose(m):
    return IntMatrix([list(c) for c in zip(*m.data)], m.cols, m.rows)


def _check_unit_rows_cancel(m, units, rng):
    """Any b with b m = 0 keeps its Smith diagonal without the columns
    at the rows of the unit pivot pairs ``units`` reported for ``m``."""
    units = {i for i, _ in units}
    left = kernel_basis(_transpose(m))
    if not left.cols:
        return
    mix = IntMatrix([[rng.randint(-3, 3) for _ in range(left.cols)] for _ in range(3)])
    b = mix.mul(_transpose(left))
    kept = [{k: v for k, v in row.items() if k not in units} for row in b.sparse_rows()]
    assert _backend.smith_diagonal(kept, b.cols) == smith_diagonal(b), (m.data, units)


def test_smith_diagonal_reports_unit_pivot_rows():
    # row 1 is {1: 2} once row 0 pivots on column 0, the column with
    # fewer live rows; divided by its content 2 it is a unit pivot, and
    # reported with its column
    assert _kernel_units([[1, 1], [0, 2]], 2) == ([1, 2], [(0, 0), (1, 1)])
    assert _kernel_units([[2, 0], [0, 3]], 2) == ([1, 6], [])
    # the 1 of [[2, 3]] only appears once the general phase has begun
    assert _kernel_units([[2, 3]], 2) == ([1], [])
    # row 2 becomes a unit pivot after a general step; [-2, -2, 5] kills
    # this matrix from the left and has diagonal [1], but [2] without
    # column 2
    assert _kernel_units([[2, 3], [3, 2], [2, 2]], 2) == ([1, 1], [])
    # the +-1 entries of [[1, 1], [1, 2]] appear only once the content 2
    # is divided out; a division scales every live row alike, so the
    # unit pivots after it are reported
    assert _kernel_units([[2, 2], [2, 4]], 2) == ([2, 2], [(0, 0), (1, 1)])
    # twice the matrix above: the division leaves no +-1 pivot, and the
    # general phase stops the recording
    assert _kernel_units([[4, 6], [6, 4], [4, 4]], 2) == ([2, 2], [])
    rng = random.Random(101)
    for _ in range(150):
        m = rand_matrix(rng, rng.randint(0, 7), rng.randint(0, 7))
        got, units = _kernel_units(m.data, m.cols)
        assert got == _backend.smith_diagonal(m.sparse_rows(), m.cols), m.data
        for side, bound in ((0, m.rows), (1, m.cols)):
            picked = [pair[side] for pair in units]
            assert len(set(picked)) == len(picked) <= len(got), (m.data, units)
            assert all(0 <= k < bound for k in picked), (m.data, units)
        _check_unit_rows_cancel(m, units, rng)


def _det(rows):
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination."""
    a = [list(row) for row in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * (a[-1][-1] if n else 1)


def test_unit_block_pairs_index_a_unimodular_block():
    # only the +-1 pivots from before any content division: [[1, 1],
    # [0, 2]] keeps the pair (0, 0) and not row 1, a unit pivot only
    # once divided by 2, and [[2, 2], [2, 4]] keeps none, though the
    # chain passes on both of their rows.  The rows and the columns of
    # the pairs index a block with determinant +-1, read off one pass
    assert unit_block([{0: 1, 1: 1}, {1: 2}], 2) == [(0, 0)]
    assert unit_block([{0: 2, 1: 2}, {0: 2, 1: 4}], 2) == []
    assert unit_block([{0: 2, 1: 3}, {0: 3, 1: 2}, {0: 2, 1: 2}], 2) == []
    rng = random.Random(29)
    for _ in range(150):
        m = rand_matrix(rng, rng.randint(0, 6), rng.randint(0, 6))
        pairs = unit_block(m.sparse_rows(), m.cols)
        rows, cols = [i for i, _ in pairs], [j for _, j in pairs]
        assert len(set(rows)) == len(set(cols)) == len(pairs), m.data
        assert abs(_det([[m.data[i][j] for j in cols] for i in rows])) == 1, (m.data, pairs)


@st.composite
def unit_heavy_matrices(draw):
    """A sparse matrix of up to 60 x 60 with mostly +-1 entries: the
    expansion of a random group-ring matrix with +-1 coefficients, or
    entries in {0, +-1, +-2}, a few per row.  Returns it with a seeded
    generator for further draws."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        g = ElementaryAbelianGroup(*draw(st.sampled_from([(2, 2), (3, 1), (2, 3)])))
        cap = 60 // g.order
        nrows, ncols = draw(st.integers(1, cap)), draw(st.integers(1, cap))
        rows = [
            {
                j: GroupRingElement(
                    g, {i: rng.choice((1, -1)) for i in range(g.order) if rng.random() < 0.3}
                )
                for j in range(ncols)
                if rng.random() < 0.25
            }
            for _ in range(nrows)
        ]
        return GroupRingMatrix(g, rows, nrows, ncols).expand(), rng
    nrows, ncols = draw(st.integers(1, 60)), draw(st.integers(1, 60))
    data = [[0] * ncols for _ in range(nrows)]
    for row in data:
        for _ in range(rng.randint(0, 3)):
            row[rng.randrange(ncols)] = rng.choice((1, -1, 1, -1, 2, -2))
    return IntMatrix(data, nrows, ncols), rng


@settings(max_examples=60)
@given(unit_heavy_matrices())
def test_smith_diagonal_matches_sympy_on_unit_heavy_matrices(drawn):
    # pivot order matters here, unlike on the small dense oracle draws
    m, rng = drawn
    got, units = _kernel_units(m.data, m.cols)
    want = _sympy_diagonal(m)
    assert got == want
    assert len(set(units)) == len(units) <= len(got)
    _check_unit_rows_cancel(m, units, rng)


def _block_diagonal(a, b):
    return IntMatrix(
        [row + [0] * b.cols for row in a.data] + [[0] * a.cols + row for row in b.data],
        a.rows + b.rows,
        a.cols + b.cols,
    )


@settings(max_examples=60)
@given(unit_heavy_matrices(), unit_heavy_matrices(), st.sampled_from([2, 3, 4, 6]))
def test_smith_diagonal_divides_out_the_content(first, second, k):
    # Smith(kA) = k Smith(A), and the unit rows taken after the division
    # still cancel; diag(2A, 3B) has content 1, so the general phase runs
    # on a mix of both
    (a, rng), b = first, second[0]
    ka = IntMatrix([[k * v for v in row] for row in a.data], a.rows, a.cols)
    scaled, units = _kernel_units(ka.data, a.cols)
    assert scaled == [k * v for v in smith_diagonal(a)]
    _check_unit_rows_cancel(ka, units, rng)
    mix = _block_diagonal(
        IntMatrix([[2 * v for v in row] for row in a.data], a.rows, a.cols),
        IntMatrix([[3 * v for v in row] for row in b.data], b.rows, b.cols),
    )
    want = _sympy_diagonal(mix)
    assert smith_diagonal(mix) == want


@settings(max_examples=80)
@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2)]),
    st.lists(st.integers(0, 3), min_size=2, max_size=5),
    st.integers(0, 30),
    st.integers(0, 4),
    st.booleans(),
)
def test_chain_diagonals_match_oracle_on_free_complexes(pr, ranks, seed, zero, down):
    # the expansions of d_1, ..., d_top of a random free complex, d_zero
    # replaced by a zero map, form a chain read top-down; their
    # transposes form one read bottom-up.  Each map's diagonal is that
    # of the whole map, whatever columns the unit pivots before it
    # cancelled.
    g = ElementaryAbelianGroup(*pr)
    c = random_free_complex(g, ranks, seed)
    maps = []
    for i in range(1, len(ranks)):
        d = c.expanded(i)
        maps.append(IntMatrix.zeros(d.rows, d.cols) if i == zero else d)
    chain = maps[::-1] if down else [_transpose(m) for m in maps]
    got = list(chain_diagonals(_live_chain(chain)))
    assert got == [_sympy_diagonal(m) for m in chain]


@settings(max_examples=40)
@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2)]),
    st.lists(st.integers(0, 3), min_size=3, max_size=5),
    st.integers(0, 30),
    st.integers(1, 3),
)
def test_chain_resumed_from_its_last_unit_rows_reads_the_same_diagonals(
    pr, ranks, seed, cut
):
    # a chain drawn for its first ``cut`` diagonals stays suspended with
    # the unit rows of the last map it reduced; another chain over the
    # same maps run in between does not disturb it, and drawing the
    # rest, with those columns left out of the next map, reads every
    # diagonal unchanged
    c = random_free_complex(ElementaryAbelianGroup(*pr), ranks, seed)
    chain = [c.expanded(i) for i in range(len(ranks) - 1, 0, -1)]
    want = [_sympy_diagonal(m) for m in chain]
    cut = min(cut, len(chain) - 1)
    drawn = chain_diagonals(_live_chain(chain))
    head = [next(drawn) for _ in range(cut)]
    assert list(chain_diagonals(_live_chain(chain))) == want
    assert head + list(drawn) == want


@st.composite
def peelable_matrices(draw):
    """A matrix built to peel, with rows and columns shuffled: a
    unit-triangular cascade (row i has +-1 at cascade column i and
    entries only in cascade columns before it, so each row is a
    singleton once the ones before it are peeled), general rows with
    any entries in the cascade columns and a general block, scaled by a
    content k, in the others, and rows whose only entry is +-2.
    Returns the matrix, the cascade columns, the +-2 rows and a seeded
    generator for further draws."""
    rng = random.Random(draw(st.integers(0, 2**16)))
    m = draw(st.integers(0, 25))
    gr, gc = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    twos = draw(st.integers(0, 3)) if gc else 0
    k = draw(st.sampled_from([1, 1, 2, 3]))
    nrows, ncols = m + gr + twos, m + gc
    rperm, cperm = rng.sample(range(nrows), nrows), rng.sample(range(ncols), ncols)
    data = [[0] * ncols for _ in range(nrows)]
    for i in range(m):
        row = data[rperm[i]]
        row[cperm[i]] = rng.choice((1, -1))
        for j in range(i):
            if rng.random() < 0.3:
                row[cperm[j]] = rng.randint(-3, 3)
    for i in range(m, m + gr):
        row = data[rperm[i]]
        for j in range(m):
            if rng.random() < 0.3:
                row[cperm[j]] = rng.randint(-3, 3)
        for j in range(m, ncols):
            if rng.random() < 0.6:
                row[cperm[j]] = k * rng.randint(-4, 4)
    for i in range(m + gr, nrows):
        data[rperm[i]][cperm[rng.randrange(m, ncols)]] = rng.choice((2, -2))
    cascade, doubled = set(cperm[:m]), set(rperm[m + gr :])
    return IntMatrix(data, nrows, ncols), cascade, doubled, rng


@settings(max_examples=80, deadline=None)
@given(peelable_matrices())
def test_peel_phase_keeps_the_smith_diagonal(drawn):
    # the peel clears every cascade column, each by one pivot of a
    # cascade or general row, peels no +-2 singleton, and reports its
    # rows first among the unit rows; the diagonal is sympy's
    m, cascade, doubled, rng = drawn
    got, units = _kernel_units(m.data, m.cols)
    want = _sympy_diagonal(m)
    assert got == want
    rows = m.sparse_rows()
    peeled = _elim_py._peel(rows)
    assert len(peeled) >= len(cascade)
    assert not any(cascade.intersection(row) for row in rows)
    assert not doubled & {i for i, _ in peeled}
    assert all(abs(m.data[i][c]) == 1 for i, c in peeled)
    assert units[: len(peeled)] == peeled
    _check_unit_rows_cancel(m, units, rng)


def test_peel_leaves_non_unit_singletons_and_drops_dead_columns():
    # [[1, 0], [5, 2], [0, 2]]: row 0 peels column 0, which leaves rows
    # 1 and 2 as the +-2 singletons {1: 2}, never peeled; divided by
    # their content 2, row 1 is a unit pivot
    rows = IntMatrix([[1, 0], [5, 2], [0, 2]]).sparse_rows()
    assert _elim_py._peel(rows) == [(0, 0)]
    assert rows == [{}, {1: 2}, {1: 2}]
    assert _kernel_units([[1, 0], [5, 2], [0, 2]], 2) == ([1, 2], [(0, 0), (1, 1)])
    # a cascade peels whole, in order
    assert _kernel_units([[1, 0, 0], [3, -1, 0], [2, 7, 1]], 3) == (
        [1, 1, 1], [(0, 0), (1, 1), (2, 2)]
    )


@settings(max_examples=60, deadline=None)
@given(peelable_matrices(), st.data())
def test_empty_rows_keep_their_index_and_change_nothing(drawn, data):
    # a trimmed Tot map reaches the kernel with empty rows, which its
    # set-up skips: with 0-2 empty rows spliced in before each row, the
    # diagonal is the same, and so are the unit pairs, each row at its
    # new index
    m = drawn[0]
    got, units = _kernel_units(m.data, m.cols)
    gaps = data.draw(st.lists(st.integers(0, 2), min_size=m.rows, max_size=m.rows))
    rows, index = [], []
    for gap, row in zip(gaps, m.sparse_rows()):
        rows += [{} for _ in range(gap)]
        index.append(len(rows))
        rows.append(row)
    spliced = []
    assert _backend.smith_diagonal(rows, m.cols, spliced) == got
    assert spliced == [(index[i], c) for i, c in units]


def _live_chain(maps, finished=None):
    """The sparse rows of each integer matrix in ``maps`` without the
    columns sent back into it, as ``chain_diagonals`` draws them; if
    ``finished`` is a list, appends to it whether the peel alone
    reduces each map so drawn."""
    cancelled = None
    for m in maps:
        rows = [{k: v for k, v in row.items() if k not in (cancelled or ())}
                for row in m.sparse_rows()]
        if finished is not None:
            probe = [dict(row) for row in rows]
            finished.append(len(_elim_py._peel(probe)) == rank(m) and not any(probe))
        cancelled = yield rows, m.cols


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(2, 1), (3, 1), (2, 2)]),
    st.lists(st.integers(1, 3), min_size=3, max_size=5),
    st.integers(0, 30),
)
def test_peeled_unit_rows_keep_chain_diagonals_on_free_complexes(pr, ranks, seed):
    # the peel's unit rows cancel columns of the next map, which a live
    # generator leaves out; every diagonal is still that of the whole map
    c = random_free_complex(ElementaryAbelianGroup(*pr), ranks, seed)
    chain = [c.expanded(i) for i in range(len(ranks) - 1, 0, -1)]
    got = list(chain_diagonals(_live_chain(chain)))
    assert got == [_sympy_diagonal(m) for m in chain]


@pytest.mark.parametrize("p, r, top", [(2, 1, 6), (3, 1, 5), (2, 2, 5), (2, 3, 3)])
def test_peeled_unit_rows_keep_chain_diagonals_on_resolution_windows(p, r, top):
    # the transposed d_1, ..., d_top of the complete resolution, read
    # smallest first as the certificate reads them; past the first map
    # the peel finishes some maps alone
    g = ElementaryAbelianGroup(p, r)
    window = complete_resolution(g, -1, top + 1)
    chain = [_transpose(window.expanded(n)) for n in range(1, top + 1)]
    finished = []
    got = list(chain_diagonals(_live_chain(chain, finished)))
    assert got == [smith_diagonal(m) for m in chain]
    assert any(finished[1:])


def test_elimination_core_is_the_pure_module():
    # tatebench/child.py:108 reads BACKEND; tatebench/tracer.py:24,180 wraps these
    assert BACKEND == "pure"
    for name in ("hermite", "smith_diagonal"):
        assert getattr(_backend, name).__module__ == "tatekit._elim_py"


def test_rank_matches_oracle():
    rng = random.Random(7)
    for _ in range(100):
        m = rand_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        assert rank(m) == oracle_rank(m.data)


def test_kernel_basis_properties():
    rng = random.Random(23)
    for _ in range(80):
        m = rand_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        k = kernel_basis(m)
        assert m.mul(k).is_zero()
        assert rank(k) == k.cols  # independent columns
        assert k.cols == m.cols - rank(m)


def test_kernel_basis_completeness():
    # every kernel vector must be an integer combination of basis columns
    rng = random.Random(29)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(2, 6))
        k = kernel_basis(m)
        if k.cols == 0:
            continue
        mix = IntMatrix(
            [[rng.randint(-3, 3) for _ in range(4)] for _ in range(k.cols)]
        )
        vecs = k.mul(mix)
        basis = lattice_basis(k)
        sol = solve_in_lattice(basis, vecs)
        assert basis.mul(sol) == vecs


def test_solve_preimage_roundtrip_and_failure():
    rng = random.Random(31)
    hits = misses = 0
    while hits < 40 or misses < 15:
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        x = IntMatrix(
            [[rng.randint(-4, 4) for _ in range(2)] for _ in range(m.cols)]
        )
        b = m.mul(x)
        sol = solve_preimage(m, b)
        assert m.mul(sol) == b
        hits += 1
        # perturb: a vector outside the column lattice must raise
        bad = IntMatrix([[v + (1 if i == 0 else 0) for v in row] for i, row in enumerate(b.data)])
        try:
            sol2 = solve_preimage(m, bad)
        except NoSolution:
            misses += 1
        else:
            assert m.mul(sol2) == bad


@st.composite
def preimage_problems(draw):
    """A small matrix ``a`` and a right-hand side ``b`` whose columns are,
    each with even odds, of the form ``a * x`` or drawn freely."""
    entry = st.integers(-4, 4)
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    a = IntMatrix([[draw(entry) for _ in range(cols)] for _ in range(rows)], rows, cols)
    columns = []
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            x = [draw(entry) for _ in range(cols)]
            columns.append([sum(v * w for v, w in zip(row, x)) for row in a.data])
        else:
            columns.append([draw(entry) for _ in range(rows)])
    return a, IntMatrix([list(r) for r in zip(*columns)], rows, len(columns))


def in_column_lattice(a, col):
    # span(a) <= span(a|col) with equality iff both have the same rank
    # and the same product of elementary divisors.
    d = oracle_smith_diagonal(a.data)
    e = oracle_smith_diagonal([row + [v] for row, v in zip(a.data, col)])
    return len(d) == len(e) and math.prod(d) == math.prod(e)


@settings(max_examples=200, deadline=None, database=None)
@given(preimage_problems())
def test_solve_preimage_agrees_with_smith_membership(problem):
    a, b = problem
    outside = [j for j, col in enumerate(zip(*b.data)) if not in_column_lattice(a, col)]
    try:
        x = solve_preimage(a, b)
    except NoSolution as exc:
        assert outside and exc.column == outside[0]
    else:
        assert not outside and a.mul(x) == b


def test_solve_in_lattice_rejects_outside_vectors():
    basis = lattice_basis(IntMatrix([[2, 0], [0, 3]]))
    inside = IntMatrix([[4], [3]])
    sol = solve_in_lattice(basis, inside)
    assert basis.mul(sol) == inside
    try:
        solve_in_lattice(basis, IntMatrix([[1], [0]]))
    except NoSolution as exc:
        assert exc.column == 0
    else:
        raise AssertionError("expected NoSolution")


def test_solve_in_lattice_names_a_huge_residue_by_its_size():
    # Python will not print an int of over 4,300 digits, so the message
    # gives bit lengths, and NoSolution is raised rather than ValueError
    with pytest.raises(NoSolution, match="column 0: residue of 16610 bits at row 0") as exc:
        solve_in_lattice(IntMatrix([[2]]), IntMatrix([[10**5000 + 1]]))
    assert exc.value.column == 0


def test_quotient_invariants_hand_cases():
    # Z^2 / <2e1, 3e2> inside the standard lattice
    k = IntMatrix([[1, 0], [0, 1]])
    l = IntMatrix([[2, 0], [0, 3]])
    inv = quotient_invariants(k, l)
    assert inv.torsion == (6,) and inv.free_rank == 0
    # index-2 sublattice of a rank-1 lattice inside Z^2
    k = IntMatrix([[1], [1]])
    l = IntMatrix([[2], [2]])
    inv = quotient_invariants(k, l)
    assert inv.torsion == (2,) and inv.free_rank == 0
    # proper rank drop leaves free rank
    k = IntMatrix([[1, 0], [0, 1]])
    l = IntMatrix([[2], [0]])
    inv = quotient_invariants(k, l)
    assert inv.torsion == (2,) and inv.free_rank == 1


def test_quotient_invariants_requires_sublattice():
    k = IntMatrix([[2], [0]])
    l = IntMatrix([[1], [0]])
    try:
        quotient_invariants(k, l)
    except SublatticeViolation:
        pass
    else:
        raise AssertionError("expected SublatticeViolation")
    # over a zero numerator the first column outside the span is column 1
    try:
        quotient_invariants(IntMatrix.zeros(2, 1), IntMatrix([[0, 1], [0, 0]]))
    except SublatticeViolation as exc:
        assert exc.column == 1
    else:
        raise AssertionError("expected SublatticeViolation")


def test_cokernel_matches_oracle():
    rng = random.Random(37)
    for _ in range(80):
        nr = rng.randint(1, 6)
        m = rand_matrix(rng, nr, rng.randint(0, 6))
        inv = cokernel_invariants(m)
        torsion, free = oracle_cokernel(m.data, nr)
        assert list(inv.torsion) == torsion
        assert inv.free_rank == free


def test_invariants_exponent_and_str():
    assert str(AbelianInvariants((2, 4), 1)) == "Z/2 + Z/4 + Z"
    assert str(AbelianInvariants((), 3)) == "Z^3"
    assert str(AbelianInvariants()) == "0"
    assert exponent(AbelianInvariants((2, 4))) == 4
    assert exponent(AbelianInvariants((), 1)) == INFINITE
    assert exponent(AbelianInvariants()) == 1
    assert AbelianInvariants().is_trivial()
    assert not AbelianInvariants((2,)).is_trivial()


def test_lattice_basis_is_echelon_and_spans():
    rng = random.Random(41)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        basis = lattice_basis(m)
        assert rank(basis) == basis.cols == rank(m)
        # every original column solvable in the basis
        if m.cols:
            sol = solve_in_lattice(basis, m)
            assert basis.mul(sol) == m
        # and vice versa: basis columns lie in the original column lattice
        if basis.cols:
            assert quotient_invariants(basis, basis).is_trivial()


# Cross-path checks: the sparse-column IntMatrix against the dense
# reference in tests/oracles.py, on shapes with no rows, no columns and
# all-zero columns.


@st.composite
def int_matrices(draw, rows=None, cols=None):
    """Dense row data and shape of a small integer matrix, some columns
    forced to zero."""
    rows = draw(st.integers(0, 5)) if rows is None else rows
    cols = draw(st.integers(0, 5)) if cols is None else cols
    zero = draw(st.sets(st.integers(0, 4))) if cols else set()
    entry = st.integers(-4, 4)
    data = [[0 if j in zero else draw(entry) for j in range(cols)] for _ in range(rows)]
    return data, rows, cols


def _both(m):
    return IntMatrix(*m), DenseIntMatrix(*m)


def _same(sparse, dense):
    return (sparse.rows, sparse.cols, sparse.data) == (dense.rows, dense.cols, dense.data)


def _outcome(fn, *args):
    """The result of ``fn``, or the column its NoSolution or
    SublatticeViolation names."""
    try:
        return "ok", fn(*args)
    except (NoSolution, SublatticeViolation) as exc:
        return type(exc).__name__, exc.column


def _same_outcome(sparse, dense):
    if sparse[0] != dense[0]:
        return False
    if sparse[0] != "ok":
        return sparse[1] == dense[1]
    if isinstance(sparse[1], AbelianInvariants):
        return sparse[1] == dense[1]
    return _same(sparse[1], dense[1])


def test_int_matrix_rejects_a_data_row_count_other_than_rows():
    with pytest.raises(ValueError, match="got 3 data rows for a 2-row matrix"):
        IntMatrix([[1, 2], [3, 4], [5, 6]], 2, 2)
    with pytest.raises(ValueError, match="got 1 data rows for a 3-row matrix"):
        IntMatrix([[1, 2]], 3, 2)
    # a k x 0 matrix may omit its empty rows
    assert IntMatrix([], 3, 0) == IntMatrix([], 3) == IntMatrix.zeros(3, 0)
    assert IntMatrix([[], []], 2, 0).data == [[], []]


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_sparse_matrix_algebra_matches_dense(data):
    a = data.draw(int_matrices())
    rows, inner = a[1], a[2]
    b = data.draw(int_matrices(rows=inner))
    c = data.draw(int_matrices(rows=rows))
    d = data.draw(int_matrices(rows=rows, cols=inner))
    sa, da = _both(a)
    sb, db = _both(b)
    sc, dc = _both(c)
    sd, dd = _both(d)
    assert _same(sa, da)
    assert _same(sa.mul(sb), da.mul(db))
    assert _same(sa.hstack(sc), da.hstack(dc))
    # The dense ``sub`` reads its shape off its rows, so with no rows it
    # loses the column count; the entries still agree.
    diff = sa.sub(sd)
    assert (diff.rows, diff.cols, diff.data) == (rows, inner, da.sub(dd).data)
    cols = data.draw(st.lists(st.integers(0, inner - 1), min_size=1, max_size=4)) if inner else []
    for lo in range(rows + 1):
        for hi in range(lo, rows + 1):
            assert _same(sa.submatrix(range(lo, hi), cols), da.submatrix(range(lo, hi), cols))
    assert sa.sparse_rows() == da.sparse_rows()
    assert sa.sparse_columns() == da.sparse_columns()
    assert sa.is_zero() == da.is_zero()
    if rows and inner:
        view = sa.data
        view[0][0] += 1
        assert sa.data != view  # ``data`` is a copy


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_sparse_lattice_solvers_match_dense(data):
    a = data.draw(int_matrices())
    rows, cols = a[1], a[2]
    sa, da = _both(a)
    assert _same(lattice_basis(sa), dense_lattice_basis(da))
    assert _same(kernel_basis(sa), dense_kernel_basis(da))
    assert cokernel_invariants(sa) == dense_cokernel_invariants(da)
    # right-hand sides: images a * x, free draws, or both
    x = data.draw(int_matrices(rows=cols))
    free = data.draw(int_matrices(rows=rows))
    image = sa.mul(IntMatrix(*x))
    targets = (image.hstack(IntMatrix(*free)).data, rows, image.cols + free[2])
    ts, td = _both(targets)
    pairs = [
        (solve_in_lattice, dense_solve_in_lattice, lattice_basis(sa), dense_lattice_basis(da)),
        (solve_preimage, dense_solve_preimage, sa, da),
        (quotient_invariants, dense_quotient_invariants, sa, da),
    ]
    for sparse_fn, dense_fn, s_left, d_left in pairs:
        got = _outcome(sparse_fn, s_left, ts)
        assert _same_outcome(got, _outcome(dense_fn, d_left, td)), sparse_fn.__name__
    got = _outcome(quotient_invariants, ts, sa)
    assert _same_outcome(got, _outcome(dense_quotient_invariants, td, da))


def test_repr_names_the_size_of_an_entry_past_the_digit_limit(digit_limit):
    assert repr(IntMatrix([[1, 0], [0, -2]])) == "IntMatrix([[1, 0], [0, -2]])"
    big = IntMatrix([[0, -(2**20000)], [3, 0], [0, 0]])
    assert repr(big) == "IntMatrix(<3x2, nnz 2, largest entry 20001 bits>)"
