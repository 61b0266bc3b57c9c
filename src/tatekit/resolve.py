"""Complete resolutions of Z, partial resolutions of modules, syzygies.

The positive half F of the complete resolution of Z is the tensor
product over Z of the 2-periodic strands ZC_p <- ZC_p <- ..., with
maps g - 1, N, g - 1, ..., of the r cyclic factors: F_n has one free
generator e_a for each a in N^r with |a| = n, and d e_a =
sum_i (-1)^(a_1+...+a_(i-1)) c_i e_(a - eps_i), where c_i is g_i - 1
when a_i is odd and the norm N_i when a_i is even.  Cut off at
a_i <= 2k_i - 1, the same formula is the free complex of
S^(2k_1-1) x ... x S^(2k_r-1) that ``gallery`` builds.  The negative
half is its Z-linear dual, spliced at degree 0 through the full norm.

A window [lo, hi] hands out d_n, lo < n <= hi, once (a) the complete
Z/p strand, with d_0 = N = eta epsilon, is exact at degrees 0 and 1,
by the Smith diagonals of its maps N, g - 1, N, so everywhere; and (b)
each d_n, read entry by entry, is the formula above with c_i the
strand's map carried into the i-th factor, d_0 is the full norm and
d_(-n) the antipode-transpose of a d_n that passes (b).  The caches
are the record: ``_differential`` caches d_n only once it passes (b),
and (a) is cached per prime once it passes; a check that fails raises
and caches nothing.  Then d o d = 0: for n >= 1, (b) makes d_n the
Koszul tensor differential of strand maps carried by the ring maps
g -> g_i, whose images commute, and (a) builds the strand as a
complex, which checks N (g - 1) = (g - 1) N = 0, so the cross terms
cancel; N_G (g_i - 1) = 0 at n = 0 and (g_i^-1 - 1) N_G = 0 at
n = -1; for n <= -2 the antipode-transpose reverses products, so the
pair is the dual of a positive one.  And the window is exact strictly
inside: an exact Z-free complex is Z-split, so each augmented strand
Z <- ZC_p <- ... is contractible over Z, and so are their tensor
product (Kuenneth) and its Z-dual; and ker d_0 = ker epsilon = im d_1,
im d_0 = im eta = ker d_(-1), as eta is injective and epsilon onto.
No |G|-fold expansion is reduced.
"""

from functools import cache
from math import comb

from .exactlin import (
    IntMatrix,
    cokernel_invariants,
    image_and_kernel,
    lattice_basis,
    solve_in_lattice,
)
from .groupring import (
    ElementaryAbelianGroup,
    GroupRingMatrix,
    act_rows,
    full_norm,
    norm_element,
)
from .modpres import FreeChainComplex, _Derived, _unit_coordinates, _Window, homology


@cache
def _multi_indices(caps, n):
    """The a in N^r with |a| = n and a_i <= caps[i], r = len(caps), in
    basis order: the last coordinate varies slowest and descends, and
    the rest are ordered recursively.  Cached, so a tuple, which no
    caller can change."""
    if len(caps) == 1:
        return ((n,),) if n <= caps[0] else ()
    return tuple(
        head + (last,)
        for last in range(min(n, caps[-1]), -1, -1)
        for head in _multi_indices(caps[:-1], n - last)
    )


def _closed_form(group, n, caps):
    """A fresh d_n, n >= 1, from the closed form in the module docstring,
    on the e_a with a_i <= caps[i].

    The basis of F_n is ordered as the tensor product of the r strands
    orders it, so d_n agrees with that product entry for entry; with
    caps 2k_i - 1 the strands are the lens complexes of the spheres
    S^(2k_i - 1), and d_n is the differential of their product.
    """
    # entry[i][a_i % 2][sign], sign the parity of a_1 + ... + a_(i-1): +-N_i
    # or +-(g_i - 1), built once and shared by every entry that holds it.
    entry = [
        [(c, -c) for c in (norm_element(group, i), group.generator(i) - group.identity())]
        for i in range(1, group.r + 1)
    ]
    row_of = {a: k for k, a in enumerate(_multi_indices(caps, n - 1))}
    cols = _multi_indices(caps, n)
    rows = [{} for _ in row_of]
    for col, a in enumerate(cols):
        sign = 0
        for i, ai in enumerate(a):
            if ai:
                odd = ai % 2
                rows[row_of[a[:i] + (ai - 1,) + a[i + 1 :]]][col] = entry[i][odd][sign]
                sign ^= odd
    return GroupRingMatrix(group, rows, len(row_of), len(cols))


def _rank(group, n):
    """Rank of F_n; degree -n is the dual of degree n - 1."""
    m = n if n >= 0 else -n - 1
    return comb(m + group.r - 1, group.r - 1)


def _strand(p):
    """g - 1 and N over Z/p, the maps of the Z/p strand.  Z/p is never
    larger than a group over p that has passed its budget or lifted it."""
    cyclic = ElementaryAbelianGroup(p, 1, allow_large=True)
    return cyclic.generator(1) - cyclic.identity(), norm_element(cyclic, 1)


@cache
def _check_strand(p):
    """Check (a) on the complete strand N, g - 1, N, or raise ValueError."""
    step, norm = _strand(p)
    ds = [GroupRingMatrix(step.group, [{0: c}], 1, 1) for c in (norm, step, norm)]
    ranks = dict.fromkeys((-1, 0, 1, 2), 1)
    strand = FreeChainComplex(step.group, ranks, dict(enumerate(ds)))
    for k in (0, 1):
        h = homology(strand, k)
        if not h.is_trivial():
            raise ValueError(f"the Z/{p} strand at degree {k}: not exact: homology {h}")


def _follows_tensor_rule(group, n, d):
    """Whether d, read entry by entry, is d_n, n >= 1, as (b) states it."""
    row_of = {b: k for k, b in enumerate(_multi_indices((n,) * group.r, n - 1))}
    cols = _multi_indices((n,) * group.r, n)
    if (d.rows, d.cols) != (len(row_of), len(cols)):
        return False
    step, norm = _strand(group.p)
    rule = []  # rule[i][a_i % 2][sign]: the terms of +-c_i, N or g - 1 in factor i
    for i in range(group.r):
        place = group.generator(i + 1).terms[0][0]  # g_i^k has index k * place
        carried = [tuple((k * place, v) for k, v in c.terms) for c in (norm, step)]
        rule.append([(t, tuple((k, -v) for k, v in t)) for t in carried])
    count = 0
    for col, a in enumerate(cols):
        for i, ai in enumerate(a):
            if ai:
                e = d.entries[row_of[a[:i] + (ai - 1,) + a[i + 1 :]]].get(col)
                if e is None or e.terms != rule[i][ai % 2][sum(a[:i]) % 2]:
                    return False
                count += 1
    return count == sum(map(len, d.entries))


@cache
def _differential(group, n):
    """d_n of the complete resolution, checked by (b): the closed form
    for n >= 1, or ValueError naming the degree; the full norm at
    n = 0; the antipode-transpose of the checked d_(-n) below."""
    if n > 0:
        d = _closed_form(group, n, (n,) * group.r)
        if not _follows_tensor_rule(group, n, d):
            raise ValueError(
                f"complete resolution at degree {n}: d_{n} breaks the tensor rule"
            )
        return d
    if n == 0:
        return GroupRingMatrix(group, [{0: full_norm(group)}], 1, 1)
    return _differential(group, -n).antipode_transpose()


def complete_resolution(group, lo, hi):
    """Degrees lo..hi of the complete resolution of Z, as a ``_Window``.

    Checks (a) and (b) of the module docstring come first, in that
    order: the strand, then each map from ``_differential``, which
    hands out only maps that pass (b).  So ``homology`` answers 0
    strictly inside without reducing; at its edges it raises
    WindowViolation.  Windows share the cached differentials, so
    callers must not mutate them.
    """
    if lo > hi:
        raise ValueError("empty window")
    _check_strand(group.p)
    diffs = {n: _differential(group, n) for n in range(lo + 1, hi + 1)}
    ranks = {n: _rank(group, n) for n in range(lo, hi + 1)}
    return _Window(group, ranks, diffs, (lo, hi))


class ResolutionStep:
    """One stage of a free resolution of a presented module.

    ``generators`` holds the indices of the module generators the cover
    sends its free generators to, ascending; together they generate the
    module over ZG, so the cover is onto over Z.  ``rank`` is their
    number, d(M) = dim_Fp M/(pM + IM) unless the cover was topped up.
    ``cover`` is the integer matrix of ZG^rank -> Z^gens, whose column
    ``j * |G| + h`` is group element ``h`` applied to generator
    ``generators[j]``.  ``kernel`` is the kernel of the cover as a
    presented module (Z-free, so with an empty relation matrix) and
    ``kernel_basis`` a basis of its lattice inside Z^(rank * |G|), the
    module's generators: the projection of the tagged Hermite's kernel
    basis, or, where that cannot be read without a solve, its echelon
    ``lattice_basis`` (see :func:`resolution_step`).
    """

    __slots__ = ("rank", "generators", "cover", "kernel", "kernel_basis")

    def __init__(self, rank, generators, cover, kernel, kernel_basis):
        self.rank = rank
        self.generators = generators
        self.cover = cover
        self.kernel = kernel
        self.kernel_basis = kernel_basis


def _nakayama_choice(module):
    """The c with e_c not the lead (largest index) of a vector of an F_p
    echelon form of the relations and the columns of A_i - I, mod p:
    the e_c an index-order walk keeps mod (p, I), a basis of M/(pM + IM)."""
    p = module.group.p
    vectors = list(module.relations.columns)
    for a in module.actions:
        vectors += [{**col, c: col.get(c, 0) - 1} for c, col in enumerate(a.columns)]
    leads = {}  # lead -> its echelon vector, 1 at the lead
    for v in vectors:
        v = {i: x % p for i, x in v.items() if x % p}
        while v:
            top = max(v)
            if top not in leads:
                f = pow(v[top], -1, p)
                leads[top] = {i: x * f % p for i, x in v.items()}
                break
            f = v[top]
            for i, x in leads[top].items():
                v[i] = y = (v.get(i, 0) - f * x) % p
                if not y:
                    del v[i]
    return [c for c in range(module.gens) if c not in leads]


def resolution_step(module):
    """Cover a module by a free module on a ZG-generating subset.

    For a p-group, Z_(p)G is local with maximal ideal (p, I), I the
    augmentation ideal, so any lift of an F_p-basis of M/(pM + IM)
    generates M_(p) (Nakayama; Benson, *Representations and Cohomology
    I*, ch. 1), and the cover starts on :func:`_nakayama_choice`: its
    cokernel over Z is finite, of order prime to p.  Its columns are the
    chosen generators' ``module.orbit``, cached on the module, so a
    top-up reads them again without a second walk.  The Hermite form
    that gives the kernel reads the image too; while the cover is not
    onto over Z, it takes the e_c whose orbit leaves the smallest
    cokernel, ties to the lowest index, and tracks the image by its
    echelon basis alone; one more Hermite form then gives the kernel of
    the final cover.  So its kernel is the syzygy of M up to free
    summands (Schanuel's lemma), which Tate cohomology cannot see.

    The syzygy lattice is the projection of ker [cover | relations] onto
    the cover's coordinates, spanned by the projected kernel basis; when
    the relations are independent the projection is injective on that
    kernel, so the projected columns are a basis.  It is the kernel of a
    G-map, so G-stable, and the actions are the coordinates of g_i times
    the basis, read off its private unit rows by
    ``modpres._unit_coordinates`` with no second Hermite.  Where some
    column has no private +-1 row (always so for dependent columns, or
    a zero one) the basis is the echelon ``lattice_basis`` of the
    projection and the actions are solved in it.
    """
    group, k, n = module.group, module.gens, module.group.order
    chosen = _nakayama_choice(module)

    def cover_of(chosen):
        return IntMatrix.from_sparse([v for c in chosen for v in module.orbit(c).columns], k)

    cover = cover_of(chosen)
    image, full = image_and_kernel(cover.hstack(module.relations))
    while not (image.cols == k and all(col[j] == 1 for j, col in enumerate(image.columns))):
        rest = [c for c in range(k) if c not in chosen]
        size = [(cokernel_invariants(image.hstack(module.orbit(c))).order(), c) for c in rest]
        c = min(size)[1]
        chosen = sorted(chosen + [c])
        image, full = lattice_basis(image.hstack(module.orbit(c))), None
    if full is None:
        cover = cover_of(chosen)
        full = image_and_kernel(cover.hstack(module.relations))[1]
    s = len(chosen)
    basis = full.submatrix(range(s * n), range(full.cols))
    gens = range(1, group.r + 1)
    # One read for the r action targets side by side.
    targets = act_rows(group, 1, basis)
    for i in gens[1:]:
        targets = targets.hstack(act_rows(group, i, basis))
    solved = _unit_coordinates(basis, targets)
    if solved is None:
        basis = lattice_basis(basis)
        actions = [solve_in_lattice(basis, act_rows(group, i, basis)) for i in gens]
    else:
        w = basis.cols
        actions = [solved.submatrix(range(w), range(i * w, i * w + w)) for i in range(group.r)]
    kernel = _Derived(group, basis.cols, IntMatrix.zeros(basis.cols, 0), actions)
    return ResolutionStep(s, chosen, cover, kernel, basis)


def syzygy(module, n):
    """The n-th syzygy Omega^n M, up to free ZG summands; Omega^0 M = M.

    Each step covers the previous syzygy by :func:`resolution_step`, so
    the result can differ from the syzygy of another resolution only by
    free summands, and its Tate cohomology is that of Omega^n M.
    """
    if n < 0:
        raise ValueError("syzygy index must be nonnegative")
    current = module
    for _ in range(n):
        current = resolution_step(current).kernel
    return current
