"""Generators for the free complexes everything else is tested on.

Lens complexes are the standard rank-one free Z/p complexes on
odd-dimensional spheres, and products are their tensor products: the
closed form of the complete resolution in ``resolve``, truncated at
a_i <= 2k_i - 1.  random_free_complex draws seeded complexes whose
differentials are repaired to d o d = 0 by sampling columns from the
kernel lattice of the previous differential.
"""

import random

from .exactlin import IntMatrix, kernel_basis
from .groupring import ElementaryAbelianGroup, decode_columns
from .modpres import FreeChainComplex
from .resolve import _closed_form, _multi_indices


def lens_complex(p, k, allow_large=False):
    """Free Z/p complex on the sphere S^(2k-1): rank 1 in degrees
    0..2k-1, alternating g-1 and norm differentials."""
    return product_complex(p, [k], allow_large)


def product_complex(p, k_list, allow_large=False):
    """Free (Z/p)^r complex on a product of odd spheres
    S^(2k_1-1) x ... x S^(2k_r-1), the tensor product of lens complexes.

    Degree n has one generator e_a for each a with |a| = n and
    a_i <= 2k_i - 1, and d is the complete resolution's closed form.
    """
    if not k_list:
        raise ValueError("need at least one factor")
    if any(k < 1 for k in k_list):
        raise ValueError("need k >= 1")
    group = ElementaryAbelianGroup(p, len(k_list), allow_large)
    caps = tuple(2 * k - 1 for k in k_list)
    top = sum(caps)
    ranks = {n: len(_multi_indices(caps, n)) for n in range(top + 1)}
    diffs = {n: _closed_form(group, n, caps) for n in range(1, top + 1)}
    return FreeChainComplex(group, ranks, diffs)


def random_free_complex(group, ranks, seed):
    """Deterministic random free complex with the given ranks in
    degrees 0, 1, 2, ....

    Each differential's columns are small random integer combinations
    of the kernel lattice of the previous one, so d o d = 0 holds by
    construction; the zero differential is always an admissible draw.
    """
    ranks = list(ranks)
    if any(k < 0 for k in ranks):
        raise ValueError("ranks must be nonnegative")
    rng = random.Random(f"{group.p}.{group.r}|{ranks}|{seed}")
    n = group.order
    rank_map = {i: k for i, k in enumerate(ranks)}
    diffs = {}
    prev = IntMatrix.zeros(0, rank_map.get(0, 0) * n)
    for i in range(1, len(ranks)):
        ka = rank_map.get(i - 1, 0)
        kb = rank_map.get(i, 0)
        if ka == 0 or kb == 0:
            prev = IntMatrix.zeros(ka * n, kb * n)
            continue
        lattice = kernel_basis(prev)
        coefs = [[rng.choice((-1, 0, 0, 1)) for _ in range(kb)] for _ in lattice.columns]
        cols = lattice.mul(IntMatrix(coefs, lattice.cols, kb))
        d = decode_columns(group, cols, ka)
        diffs[i] = d
        prev = d.expand()
    return FreeChainComplex(group, rank_map, diffs)
