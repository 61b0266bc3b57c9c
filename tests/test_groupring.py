import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tatekit.errors import ResourceLimit, TatekitError
from tatekit.exactlin import IntMatrix
from tatekit.groupring import (
    TABLE_BUDGET,
    ElementaryAbelianGroup,
    GroupRingElement,
    GroupRingMatrix,
    act_rows,
    antipode,
    decode_columns,
    full_norm,
    norm_element,
)

from tatekit.modpres import FreeChainComplex
from tatekit.resolve import _differential

from oracles import encode_columns, oracle_expand


def rand_element(rng, group, lo=-3, hi=3):
    return GroupRingElement(
        group, {i: rng.randint(lo, hi) for i in range(group.order)}
    )


def dense(e):
    """The coefficients of a ring element, zeros included."""
    out = [0] * e.group.order
    for i, v in e.terms:
        out[i] = v
    return out


def rand_ring_matrix(rng, group, rows, cols):
    return GroupRingMatrix(
        group,
        [{c: rand_element(rng, group) for c in range(cols)} for _ in range(rows)],
        rows,
        cols,
    )


def test_element_indexing_is_lexicographic():
    g = ElementaryAbelianGroup(3, 2)
    seen = [tuple(g.exponents(i)) for i in range(g.order)]
    assert seen == sorted(seen)
    assert seen[0] == (0, 0)
    assert seen[-1] == (2, 2)
    for i in range(g.order):
        assert g.index_of(g.exponents(i)) == i


def test_bad_group_parameters_rejected():
    for p, r in [(4, 1), (1, 2), (2, 0), (6, 1)]:
        try:
            ElementaryAbelianGroup(p, r)
        except ValueError:
            pass
        else:
            raise AssertionError(f"accepted p={p}, r={r}")


def test_ring_product_against_convolution():
    rng = random.Random(3)
    for p, r in [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (3, 3), (5, 2), (2, 4)]:
        g = ElementaryAbelianGroup(p, r)
        for _ in range(20):
            a = rand_element(rng, g)
            b = rand_element(rng, g)
            prod = a * b
            # naive double loop straight from the definition
            want = [0] * g.order
            for i, x in a.terms:
                ei = g.exponents(i)
                for j, y in b.terms:
                    k = g.index_of(
                        [(u + v) % p for u, v in zip(ei, g.exponents(j))]
                    )
                    want[k] += x * y
            assert dense(prod) == want
            # commutative ring
            assert b * a == prod


def test_antipode_is_an_involution_and_antihomomorphism():
    rng = random.Random(9)
    g = ElementaryAbelianGroup(3, 2)
    for _ in range(20):
        a = rand_element(rng, g)
        b = rand_element(rng, g)
        assert antipode(antipode(a)) == a
        assert antipode(a * b) == antipode(a) * antipode(b)


def test_norm_elements():
    g = ElementaryAbelianGroup(2, 2)
    fn = full_norm(g)
    assert dense(fn) == [1, 1, 1, 1]
    n1 = norm_element(g, 1)
    assert n1.terms == ((0, 1), (2, 1))
    # (g_i - 1) * N_i == 0 in the ring
    gen = g.generator(1)
    diff = gen + (-g.identity())
    assert (diff * n1).is_zero()
    # full norm is the product of the generator norms
    assert norm_element(g, 1) * norm_element(g, 2) == fn


def test_expand_matches_oracle_and_is_multiplicative():
    rng = random.Random(17)
    for p, r in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 2)]:
        g = ElementaryAbelianGroup(p, r)
        for _ in range(10):
            a = rand_ring_matrix(rng, g, rng.randint(1, 3), rng.randint(1, 3))
            assert a.expand().data == oracle_expand(a)
            b = rand_ring_matrix(rng, g, a.cols, rng.randint(1, 3))
            assert a.mul(b).expand() == a.expand().mul(b.expand())


def test_expand_full_norm_is_all_ones():
    g = ElementaryAbelianGroup(2, 2)
    m = GroupRingMatrix(g, [{0: full_norm(g)}], 1, 1)
    assert m.expand().data == [[1] * 4 for _ in range(4)]


def test_decode_columns_roundtrip():
    rng = random.Random(21)
    g = ElementaryAbelianGroup(3, 1)
    for _ in range(15):
        m = rand_ring_matrix(rng, g, rng.randint(1, 3), rng.randint(1, 3))
        expanded = m.expand()
        # identity-basis columns: every |G|-th column of the expansion
        picked = IntMatrix(
            [
                [expanded.data[i][c * g.order] for c in range(m.cols)]
                for i in range(expanded.rows)
            ],
            expanded.rows,
            m.cols,
        )
        assert decode_columns(g, picked, m.rows) == m


def test_sparse_rows_agree_with_expand():
    rng = random.Random(25)
    for p, r in [(2, 2), (3, 1), (3, 2)]:
        g = ElementaryAbelianGroup(p, r)
        for _ in range(5):
            m = rand_ring_matrix(rng, g, 2, 3)
            want = oracle_expand(m)
            dense = [[0] * (3 * g.order) for _ in range(2 * g.order)]
            for row, sparse in zip(dense, m.sparse_rows()):
                assert all(sparse.values())
                for c, v in sparse.items():
                    row[c] = v
            assert dense == want, (p, r)
            assert m.expand().data == want, (p, r)


def test_scalar_and_zero_constructors():
    g = ElementaryAbelianGroup(2, 1)
    z = GroupRingMatrix.zero(g, 2, 3)
    assert z.is_zero() and z.rows == 2 and z.cols == 3
    s = GroupRingMatrix.scalar(g, 2, g.identity())
    assert s.mul(z).is_zero()
    assert s.expand().data == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]


@st.composite
def sparse_ring_matrix(draw, group, rows, cols):
    """A group-ring matrix with about three zero entries in four, and
    mostly zero coefficients in the rest."""
    coeff = st.sampled_from([0, 0, 0, -2, -1, 1, 2])
    coeffs = st.lists(coeff, min_size=group.order, max_size=group.order)
    entries = [
        {
            c: GroupRingElement(group, dict(enumerate(draw(coeffs))))
            for c in range(cols)
            if not draw(st.integers(0, 3))
        }
        for _ in range(rows)
    ]
    return GroupRingMatrix(group, entries, rows, cols)


def _entries(sparse_rows):
    return {(i, c): v for i, row in enumerate(sparse_rows) for c, v in row.items()}


@settings(max_examples=40)
@given(st.sampled_from([(2, 1), (2, 3), (3, 2), (5, 1)]), st.data())
def test_antipode_transpose_expands_to_the_transpose(pr, data):
    # the expansion of the dual map is the transpose of the expansion,
    # so a negative degree of the complete resolution shares its twin's
    # Smith diagonal
    g = ElementaryAbelianGroup(*pr)
    rows, cols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    m = data.draw(sparse_ring_matrix(g, rows, cols))
    transpose = {(c, i): v for (i, c), v in _entries(m.sparse_rows()).items()}
    assert _entries(m.antipode_transpose().sparse_rows()) == transpose


@pytest.mark.parametrize("p, r", [(2, 1), (2, 3), (3, 2), (5, 1)])
def test_negative_differentials_expand_to_the_transposes(p, r):
    g = ElementaryAbelianGroup(p, r)
    for n in range(1, 7):
        up = _entries(_differential(g, n).sparse_rows())
        down = _entries(_differential(g, -n).sparse_rows())
        assert down == {(c, i): v for (i, c), v in up.items()}, (p, r, n)


@settings(max_examples=60)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]), st.data())
def test_sparse_ring_product_matches_the_expanded_product(pr, data):
    g = ElementaryAbelianGroup(*pr)
    k0, k1, k2 = (data.draw(st.integers(1, 6)) for _ in range(3))
    a = data.draw(sparse_ring_matrix(g, k0, k1))
    b = data.draw(sparse_ring_matrix(g, k1, k2))
    product = a.mul(b)
    assert (product.rows, product.cols) == (k0, k2)
    assert product.expand() == a.expand().mul(b.expand())
    # the construction check of a free complex reads the same product
    ranks = {0: k0, 1: k1, 2: k2}
    if product.is_zero():
        FreeChainComplex(g, ranks, {1: a, 2: b})
    else:
        with pytest.raises(ValueError, match="d_1 o d_2"):
            FreeChainComplex(g, ranks, {1: a, 2: b})


def _stored(m):
    return [e for row in m.entries for e in row.values()]


@settings(max_examples=40)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]), st.data())
def test_no_operation_stores_a_zero_entry(pr, data):
    g = ElementaryAbelianGroup(*pr)
    k0, k1, k2 = (data.draw(st.integers(1, 5)) for _ in range(3))
    a = data.draw(sparse_ring_matrix(g, k0, k1))
    b = data.draw(sparse_ring_matrix(g, k1, k2))
    # (g_1 - 1) N_1 = 0, so this product cancels entry by entry
    minus = g.generator(1) - g.identity()
    cancel = GroupRingMatrix.scalar(g, k0, minus).mul(
        GroupRingMatrix.scalar(g, k0, norm_element(g, 1))
    )
    made = [
        a,
        a.mul(b),
        a.antipode_transpose(),
        decode_columns(g, encode_columns(b), k1),
        GroupRingMatrix(g, [{0: g.zero(), 1: minus}], 1, 2),
        cancel,
    ]
    for m in made:
        assert not any(e.is_zero() for e in _stored(m))
    assert cancel.is_zero() and cancel.entries == [{}] * k0


@pytest.mark.parametrize("p, r", [(2, 1), (2, 3), (3, 2)])
def test_resolution_differentials_store_no_zero_entry(p, r):
    g = ElementaryAbelianGroup(p, r)
    for n in range(-5, 6):
        d = _differential(g, n)
        assert not any(e.is_zero() for e in _stored(d)), n


@settings(max_examples=40)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]), st.data())
def test_ring_product_is_the_decoded_expanded_product(pr, data):
    g = ElementaryAbelianGroup(*pr)
    k0, k1, k2 = (data.draw(st.integers(1, 5)) for _ in range(3))
    a = data.draw(sparse_ring_matrix(g, k0, k1))
    b = data.draw(sparse_ring_matrix(g, k1, k2))
    full = a.expand().mul(b.expand())
    identity_columns = full.submatrix(
        range(full.rows), range(0, full.cols, g.order)
    )
    assert a.mul(b) == decode_columns(g, identity_columns, k0)


def test_constructor_rejects_bad_keys_and_foreign_entries():
    g = ElementaryAbelianGroup(2, 2)
    other = ElementaryAbelianGroup(3, 1)
    with pytest.raises(ValueError, match="column 2 outside 0..1"):
        GroupRingMatrix(g, [{2: g.identity()}], 1, 2)
    with pytest.raises(ValueError, match="column -1"):
        GroupRingMatrix(g, [{-1: g.identity()}], 1, 2)
    with pytest.raises(ValueError, match="wrong group"):
        GroupRingMatrix(g, [{0: other.identity()}], 1, 1)
    with pytest.raises(ValueError, match="expected 2"):
        GroupRingMatrix(g, [{}], 2, 1)
    # an element keeps its nonzero terms, indices ascending, and checks
    # its first and last index
    assert GroupRingElement(g, {3: 2, 0: -1, 1: 0}).terms == ((0, -1), (3, 2))
    for bad in (4, -1):
        with pytest.raises(ValueError, match="outside 0..3"):
            GroupRingElement(g, {0: 1, bad: 1})


@settings(max_examples=40)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]), st.data())
def test_act_rows_is_the_expanded_scalar_product(pr, data):
    g = ElementaryAbelianGroup(*pr)
    k, cols = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 4))
    entry = st.integers(-3, 3)
    rows = [
        data.draw(st.lists(entry, min_size=cols, max_size=cols))
        for _ in range(k * g.order)
    ]
    mat = IntMatrix(rows, k * g.order, cols)
    for i in range(1, g.r + 1):
        want = GroupRingMatrix.scalar(g, k, g.generator(i)).expand().mul(mat)
        assert act_rows(g, i, mat) == want, i
    with pytest.raises(ValueError):
        act_rows(g, g.r + 1, mat)


@settings(max_examples=40)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]), st.data())
def test_encode_columns_of_a_product_and_round_trip(pr, data):
    g = ElementaryAbelianGroup(*pr)
    k0, k1, k2 = (data.draw(st.integers(1, 5)) for _ in range(3))
    f = data.draw(sparse_ring_matrix(g, k0, k1))
    d = data.draw(sparse_ring_matrix(g, k1, k2))
    assert encode_columns(f.mul(d)) == f.expand().mul(encode_columns(d))
    assert decode_columns(g, encode_columns(d), k1) == d


def test_groups_over_the_table_budget_are_refused_before_allocating():
    with pytest.raises(ResourceLimit) as exc:
        ElementaryAbelianGroup(2, 24)
    msg = str(exc.value)
    assert "(Z/2)^24" in msg and "16777216" in msg and str(2**48) in msg
    assert isinstance(exc.value, TatekitError)
    big = ElementaryAbelianGroup(2, 24, allow_large=True)
    assert big.order == 2**24
    # ring elements of the closed form stay sparse over the big group
    gen = big.generator(3)
    made = [gen, big.identity(), norm_element(big, 3), antipode(gen)]
    assert all(len(e.terms) <= big.p for e in made)
    assert ((gen - big.identity()) * norm_element(big, 3)).is_zero()
    # the rank sweep up to (Z/2)^10 and every group of the tests and the
    # benchmark fit; so do the largest at each small prime
    for p, r in [(2, 10), (2, 11), (3, 6), (5, 4), (7, 3)]:
        assert ElementaryAbelianGroup(p, r).order**2 <= TABLE_BUDGET
    for p, r in [(2, 12), (3, 7), (5, 5), (7, 4)]:
        with pytest.raises(ResourceLimit):
            ElementaryAbelianGroup(p, r)
