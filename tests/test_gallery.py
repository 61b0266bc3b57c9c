from tatekit.formats import render_complex
from tatekit.gallery import lens_complex, product_complex, random_free_complex
from tatekit.groupring import ElementaryAbelianGroup, norm_element
from tatekit.modpres import homology

from oracles import oracle_homology, oracle_product_complex, oracle_random_free_complex


def test_lens_complex_shape():
    c = lens_complex(3, 2)
    assert c.group.p == 3 and c.group.r == 1
    assert [c.rank(i) for i in range(4)] == [1, 1, 1, 1]
    assert c.rank(4) == 0
    g = c.group.generator(1)
    minus = g - c.group.identity()
    norm = norm_element(c.group, 1)
    assert c.differential(1).entries[0][0] == minus
    assert c.differential(2).entries[0][0] == norm
    assert c.differential(3).entries[0][0] == minus


def test_lens_complex_is_a_sphere():
    for p, k in [(2, 1), (2, 3), (3, 2), (5, 1)]:
        c = lens_complex(p, k)
        top = 2 * k - 1
        for i in range(top + 1):
            h = homology(c, i)
            if i in (0, top):
                assert h.torsion == () and h.free_rank == 1, (p, k, i)
            else:
                assert h.is_trivial(), (p, k, i)


def test_lens_complex_rejects_bad_parameters():
    try:
        lens_complex(2, 0)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError for k = 0")
    try:
        lens_complex(4, 1)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError for composite p")


def test_product_complex_torus():
    c = product_complex(2, [1, 1])
    assert c.group.r == 2
    assert [c.rank(i) for i in range(3)] == [1, 2, 1]
    ranks = [(homology(c, i).torsion, homology(c, i).free_rank) for i in range(3)]
    assert ranks == [((), 1), ((), 2), ((), 1)]


def test_product_complex_mixed_spheres():
    # S^1 x S^3 over (Z/3)^2 has Z in degrees 0, 1, 3, 4
    c = product_complex(3, [1, 2])
    want = {0: 1, 1: 1, 2: 0, 3: 1, 4: 1}
    for i, free in want.items():
        h = homology(c, i)
        assert h.torsion == ()
        assert h.free_rank == free, i


def test_product_complex_matches_the_tensored_lens_oracle():
    # the closed form truncated at a_i <= 2k_i - 1 against the generic
    # tensor product of hand-written lens complexes, byte for byte
    cases = {
        2: [[1], [4], [2, 1], [1, 3], [2, 2, 1], [1, 1, 2], [1, 1, 1, 1], [2, 1, 1, 1]],
        3: [[1], [3], [2, 1], [1, 2], [2, 1, 1], [1, 1, 1]],
        5: [[2], [1, 1], [2, 1], [1, 1, 1]],
    }
    for p, k_lists in cases.items():
        for ks in k_lists:
            want = render_complex(oracle_product_complex(p, ks))
            assert render_complex(product_complex(p, ks)) == want, (p, ks)
            if len(ks) == 1:
                assert render_complex(lens_complex(p, ks[0])) == want, (p, ks)


def test_product_complex_needs_a_factor():
    try:
        product_complex(2, [])
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError for an empty product")


def test_random_complex_is_deterministic():
    g = ElementaryAbelianGroup(2, 2)
    a = random_free_complex(g, [2, 3, 2], 7)
    b = random_free_complex(g, [2, 3, 2], 7)
    assert render_complex(a) == render_complex(b)
    c = random_free_complex(g, [2, 3, 2], 8)
    assert render_complex(a) != render_complex(c)


def test_random_complex_matches_the_dense_oracle_entry_for_entry():
    # the hyper workload's seeded draws are benchmark inputs: the sparse
    # construction must make the dense one's rng.choice calls in order
    draws = [((2, 2), [2, 3, 2]), ((3, 1), [2, 3, 3, 1]), ((2, 3), [1, 2, 1]),
             ((5, 1), [3, 3, 2])]
    for (p, r), ranks in draws:
        g = ElementaryAbelianGroup(p, r)
        for seed in range(11):
            got = random_free_complex(g, ranks, seed)
            want = oracle_random_free_complex(g, ranks, seed)
            assert got.ranks == want.ranks and set(got.diffs) == set(want.diffs)
            for i, d in want.diffs.items():
                assert got.diffs[i].entries == d.entries, (p, r, ranks, seed, i)


def test_random_complex_differentials_compose_to_zero():
    for p, r in [(2, 1), (3, 1), (2, 2)]:
        g = ElementaryAbelianGroup(p, r)
        for seed in range(4):
            c = random_free_complex(g, [2, 2, 3, 1], seed)
            for i in range(2, 4):
                da = c.differential(i - 1)
                db = c.differential(i)
                if da is not None and db is not None:
                    assert da.mul(db).is_zero(), (p, r, seed, i)


def test_random_complex_homology_matches_oracle():
    g = ElementaryAbelianGroup(2, 1)
    for seed in range(5):
        c = random_free_complex(g, [2, 3, 2], seed)
        for i in range(3):
            h = homology(c, i)
            torsion, free = oracle_homology(c, i)
            assert tuple(torsion) == h.torsion, (seed, i)
            assert free == h.free_rank, (seed, i)


def test_random_complex_handles_rank_gaps():
    g = ElementaryAbelianGroup(2, 1)
    c = random_free_complex(g, [1, 0, 2], 3)
    assert c.rank(1) == 0
    assert c.differential(1) is None and c.differential(2) is None
    assert homology(c, 2).free_rank == 2 * g.order
    try:
        random_free_complex(g, [1, -1], 0)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError for a negative rank")
