"""Complete resolutions of Z, partial resolutions of modules, syzygies.

The positive half of a complete resolution of Z is written down in
closed form: F_n has one free generator e_a for each a in N^r with
|a| = n, and d e_a = sum_i (-1)^(a_1+...+a_(i-1)) c_i e_(a - eps_i),
where c_i is g_i - 1 when a_i is odd and the norm N_i when a_i is even
(the tensor product of the 2-periodic resolutions of the cyclic
factors).  Cut off at a_i <= 2k_i - 1, the same formula is the free
complex of S^(2k_1-1) x ... x S^(2k_r-1) that ``gallery`` builds.
The negative half is its Z-linear dual, spliced at degree 0
through the full norm.

The degree is the unit of work: each d_n is built once per group, and
each degree n is certified once per group, by d_n d_(n+1) = 0 and then
H_n = 0, read off Smith diagonals.  Only the positive half is reduced:
the expansion of d_(-n) is the transpose of that of d_n, so the two
share a diagonal.  Each group keeps one chain of
``exactlin.chain_diagonals`` over the transposed expansions of d_0,
d_1, ..., suspended between windows and drawn only as far as a window
needs: each d_n^T with the columns at the unit pivot rows of
d_(n-1)^T deleted, which keeps its diagonal once d_(n-1) d_n = 0 is
known, since Smith(A^T) = Smith(A) and (d_(n-1) d_n)^T = 0.  So the
largest map arrives last, with the most columns cancelled, every
d o d check of a pass runs before the chain is drawn, and each map is
reduced once per group, in whatever order windows come.  A window
[lo, hi] is a complex over those degrees whose interior lo < n < hi is
certified.
"""

from functools import cache
from itertools import count
from math import comb

from .errors import LiftObstruction, NoSolution
from .exactlin import (
    IntMatrix,
    chain_diagonals,
    homology_invariants,
    kernel_basis,
    lattice_basis,
    solve_in_lattice,
    solve_preimage,
)
from .groupring import (
    GroupRingMatrix,
    act_rows,
    decode_columns,
    encode_columns,
    full_norm,
    norm_element,
)
from .modpres import (
    FreeChainComplex,
    ModulePresentation,
    homology,
    require_valid,
)


def _multi_indices(caps, n):
    """The a in N^r with |a| = n and a_i <= caps[i], r = len(caps), in
    basis order: the last coordinate varies slowest and descends, and
    the rest are ordered recursively."""
    if len(caps) == 1:
        return [(n,)] if n <= caps[0] else []
    return [
        head + (last,)
        for last in range(min(n, caps[-1]), -1, -1)
        for head in _multi_indices(caps[:-1], n - last)
    ]


def _closed_form(group, n, caps):
    """A fresh d_n, n >= 1, from the closed form in the module docstring,
    on the e_a with a_i <= caps[i].

    The basis of F_n is ordered as the tensor product of the r strands
    orders it, so d_n agrees with that product entry for entry; with
    caps 2k_i - 1 the strands are the lens complexes of the spheres
    S^(2k_i - 1), and d_n is the differential of their product.
    """
    gens = range(1, group.r + 1)
    minus = [group.generator(i) - group.identity() for i in gens]
    norm = [norm_element(group, i) for i in gens]
    row_of = {a: k for k, a in enumerate(_multi_indices(caps, n - 1))}
    cols = _multi_indices(caps, n)
    rows = [{} for _ in row_of]
    for col, a in enumerate(cols):
        sign = 1
        for i, ai in enumerate(a):
            if ai:
                c = minus[i] if ai % 2 else norm[i]
                row = row_of[a[:i] + (ai - 1,) + a[i + 1 :]]
                rows[row][col] = c if sign > 0 else -c
                if ai % 2:
                    sign = -sign
    return GroupRingMatrix(group, rows, len(row_of), len(cols))


def _rank(group, n):
    """Rank of F_n; degree -n is the dual of degree n - 1."""
    m = n if n >= 0 else -n - 1
    return comb(m + group.r - 1, group.r - 1)


@cache
def _differential(group, n):
    """d_n of the complete resolution: the closed form for n >= 1, the
    full norm at n = 0, and the antipode-transpose of d_(-n) below."""
    if n > 0:
        return _closed_form(group, n, (n,) * group.r)
    if n == 0:
        return GroupRingMatrix(group, [{0: full_norm(group)}], 1, 1)
    return _differential(group, -n).antipode_transpose()


_chains = {}
"""Per group: its certificate chain, ``chain_diagonals`` over the
transposed d_0, d_1, ..., suspended; the diagonals it has yielded, in
order; and the degrees certified exact."""


def _twin(n):
    """The m >= 0 with d_n, d_(n+1) equal to d_m, d_(m+1), or, for
    n < 0, to the antipode-transposes of d_(m+1), d_m."""
    return n if n >= 0 else -n - 1


def _transposes(group):
    """The transposed expansion of each d_m, m = 0, 1, ..., as the
    sparse rows ``chain_diagonals`` draws.  The columns it sends back as
    cancelled are rows of the next d_m, which are left out."""
    cancelled = ()
    for m in count():
        d = _differential(group, m)
        cancelled = (yield d.sparse_columns(cancelled), d.rows * group.order) or ()


def _certify(group, lo, hi):
    """Certify each uncertified degree strictly inside [lo, hi]: raise
    ValueError naming the degree unless d_n d_(n+1) = 0 in the group
    ring and H_n = 0.

    The group's chain reduces the transposed expansion of each d_m once,
    m = 0, 1, ..., each with the columns at the unit pivot rows of the
    one before deleted, and keeps every diagonal.  Drawing d_m needs
    d_(m-1) d_m = 0, so every d o d check runs first, in descending
    order of twin, on the actual group-ring matrices: at each degree to
    certify, and at each positive degree below them whose twin the
    chain has not passed yet.  The check at n < 0 runs on the actual
    negative differentials; their product is the antipode-transpose of
    d_m d_(m+1), so it licenses the same cancellation.  Then the chain
    is drawn up to d_(t+1), t the largest twin to certify, and H_n is
    read off the kept diagonals of its twin; d_(-m) is built as the
    antipode-transpose of d_m, so the two share a diagonal.  If
    anything raises, the group's chain and certified degrees are
    dropped, so no diagonal of a failed pass is read again.
    """
    if group not in _chains:
        _chains[group] = (chain_diagonals(_transposes(group)), [], set())
    chain, diagonal, exact = _chains[group]
    todo = [n for n in range(lo + 1, hi) if n not in exact]
    todo.sort(key=_twin, reverse=True)
    if not todo:
        return
    # twins below todo's that the chain must draw past to reach them
    below = range(max(len(diagonal) - 1, 0), _twin(todo[-1]))
    try:
        for n in todo + list(reversed(below)):
            if not _differential(group, n).mul(_differential(group, n + 1)).is_zero():
                raise ValueError(
                    f"complete resolution at degree {n}: d o d != 0 in the group ring"
                )
        while len(diagonal) < _twin(todo[0]) + 2:
            diagonal.append(next(chain))
        for n in todo:
            m = _twin(n)
            into, outof = diagonal[m + 1], diagonal[m]
            if n < 0:
                into, outof = outof, into
            h = homology_invariants(_rank(group, n) * group.order, into, outof)
            if not h.is_trivial():
                raise ValueError(
                    f"complete resolution at degree {n}: not exact: homology {h}"
                )
    except BaseException:
        del _chains[group]
        raise
    exact.update(todo)


def complete_resolution(group, lo, hi):
    """Degrees lo..hi of the complete resolution of Z.

    Every degree strictly inside the window is certified before the
    window is handed out, so ``homology`` answers 0 there without
    reducing; homology at its edges raises WindowViolation.
    The Smith work of a call is the maps of the positive half that its
    twins need and the group's chain has not drawn yet, smallest
    first.  Windows share the cached differentials, so callers must not
    mutate them.
    """
    if lo > hi:
        raise ValueError("empty window")
    _certify(group, lo, hi)
    ranks = {n: _rank(group, n) for n in range(lo, hi + 1)}
    diffs = {n: _differential(group, n) for n in range(lo + 1, hi + 1)}
    window = FreeChainComplex(
        group, ranks, diffs, valid_range=(lo, hi), check=False
    )
    window._certified_exact = True
    return window


class ResolutionStep:
    """One stage of a free resolution of a presented module.

    ``generators`` holds the indices of the module generators the cover
    sends its free generators to, in order; together they generate the
    module over ZG.  ``rank`` is their number.  ``cover`` is the integer
    matrix of ZG^rank -> Z^gens, whose column ``j * |G| + h`` is group
    element ``h`` applied to generator ``generators[j]``.  ``kernel`` is
    the kernel of the cover as a presented module (Z-free, so with an
    empty relation matrix) and ``kernel_basis`` its lattice basis inside
    Z^(rank * |G|).
    """

    __slots__ = ("rank", "generators", "cover", "kernel", "kernel_basis")

    def __init__(self, rank, generators, cover, kernel, kernel_basis):
        self.rank = rank
        self.generators = generators
        self.cover = cover
        self.kernel = kernel
        self.kernel_basis = kernel_basis


def resolution_step(module):
    """Cover a module by a free module on a ZG-generating subset.

    Walks the generators in order and skips generator ``c`` when e_c
    already lies in the Z-span of the relations and of the G-orbits of
    the generators chosen before it.  The cover ZG^rank -> M sends the
    free generators to the chosen ones, so its kernel is the syzygy of
    M up to free summands (Schanuel's lemma), which Tate cohomology
    cannot see.
    """
    require_valid(module)
    group = module.group
    k = module.gens
    n = group.order
    chosen = []
    columns = []
    span = module.relation_basis()
    for c in range(k):
        if span.cols:
            try:
                solve_in_lattice(span, IntMatrix.from_sparse([{c: 1}], k))
                continue
            except NoSolution:
                pass
        orbit = [module.act_element(h).columns[c] for h in range(n)]
        chosen.append(c)
        columns.extend(orbit)
        span = lattice_basis(span.hstack(IntMatrix.from_sparse(orbit, k)))
    s = len(chosen)
    cover = IntMatrix.from_sparse(columns, k)
    if module.relations.cols == 0:
        raw = kernel_basis(cover)
    else:
        stacked = cover.hstack(module.relations)
        full = kernel_basis(stacked)
        raw = full.submatrix(range(s * n), range(full.cols))
    basis = lattice_basis(raw)
    gens = range(1, group.r + 1)
    actions = [solve_in_lattice(basis, act_rows(group, i, basis)) for i in gens]
    kernel = ModulePresentation(
        group, basis.cols, IntMatrix.zeros(basis.cols, 0), actions
    )
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


def lift_chain_map(resolution, complex_, m, n, cycle_basis):
    """Lift the identity on H_m through a partial free resolution.

    ``resolution`` has degrees m..n-1 and resolves H_m(complex_); its
    degree-m generators correspond to the columns of ``cycle_basis``
    (expanded cycle representatives in degree m of ``complex_``).
    Returns group-ring matrices f_m..f_{n-1} with d o f_{i} = f_{i-1} o d
    and f_m the inclusion of the chosen cycles.
    """
    group = complex_.group
    for k in range(m + 1, n):
        if not homology(complex_, k).is_trivial():
            raise LiftObstruction(
                f"homology of the target is nonzero at degree {k}", degree=k
            )
    maps = [decode_columns(group, cycle_basis, complex_.rank(m))]
    for i in range(m + 1, n):
        df = resolution.differential(i)
        if df is None:
            maps.append(
                GroupRingMatrix.zero(
                    group, complex_.rank(i), resolution.rank(i)
                )
            )
            continue
        rhs = encode_columns(maps[-1].mul(df))
        try:
            sol = solve_preimage(complex_.expanded(i), rhs)
        except NoSolution as exc:
            raise LiftObstruction(
                f"no preimage when lifting to degree {i}: {exc}", degree=i
            ) from exc
        maps.append(decode_columns(group, sol, complex_.rank(i)))
    return maps
