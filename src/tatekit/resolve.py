"""Complete resolutions of Z, partial resolutions of modules, syzygies.

The positive half of a complete resolution is the tensor product of the
classical 2-periodic strands, one per coordinate generator; the
negative half is its Z-linear dual, spliced at degree 0 through the
augmentation followed by its dual (the full norm).  Only finite degree
windows are ever materialized; a per-group cache keeps the widest
window built so far.
"""

from .errors import LiftObstruction, NoSolution
from .exactlin import IntMatrix, solve_preimage, lattice_basis, solve_in_lattice, kernel_basis
from .groupring import (
    ElementaryAbelianGroup,
    GroupRingMatrix,
    decode_columns,
    full_norm,
    norm_element,
)
from .modpres import (
    FreeChainComplex,
    ModulePresentation,
    dual_complex,
    homology,
    require_valid,
    tensor_complex,
)


def augmentation_row(group):
    """The map F_0 -> Z sending every group element to 1."""
    return IntMatrix([[1] * group.order])


class CompleteResolutionWindow:
    """Degrees lo..hi of a complete free resolution of Z."""

    def __init__(self, group, lo, hi, ranks, diffs, verify=True):
        self.group = group
        self.lo = lo
        self.hi = hi
        self.complex = FreeChainComplex(
            group, ranks, diffs, valid_range=(lo, hi), check=verify
        )
        self.augmentation = augmentation_row(group) if lo <= 0 <= hi else None
        if verify:
            self._verify_interior()

    def rank(self, i):
        return self.complex.rank(i)

    def differential(self, i):
        return self.complex.differential(i)

    def _verify_interior(self):
        for n in range(self.lo + 1, self.hi):
            h = homology(self.complex, n)
            if not h.is_trivial():
                raise ValueError(
                    f"resolution window not exact at degree {n}: {h}"
                )

    def slice(self, lo, hi):
        if lo < self.lo or hi > self.hi:
            raise ValueError("slice exceeds the built window")
        ranks = {i: self.rank(i) for i in range(lo, hi + 1)}
        diffs = {
            i: self.complex.diffs[i]
            for i in range(lo + 1, hi + 1)
            if i in self.complex.diffs
        }
        out = CompleteResolutionWindow(
            self.group, lo, hi, ranks, diffs, verify=False
        )
        return out

    def __repr__(self):
        return (
            f"CompleteResolutionWindow({self.group!r}, [{self.lo},{self.hi}])"
        )


def periodic_complete_resolution(p, lo, hi):
    """The 2-periodic complete resolution of Z over Z/p.

    Rank 1 everywhere; d_i = g - 1 for odd i and the norm for even i,
    in both directions.
    """
    if lo > hi:
        raise ValueError("empty window")
    group = ElementaryAbelianGroup(p, 1)
    g = group.generator(1)
    minus = g - group.identity()
    norm = norm_element(group, 1)
    ranks = {i: 1 for i in range(lo, hi + 1)}
    diffs = {}
    for i in range(lo + 1, hi + 1):
        elem = minus if i % 2 else norm
        diffs[i] = GroupRingMatrix(group, [[elem]])
    return CompleteResolutionWindow(group, lo, hi, ranks, diffs)


def _periodic_strand(p, length):
    group = ElementaryAbelianGroup(p, 1)
    g = group.generator(1)
    minus = g - group.identity()
    norm = norm_element(group, 1)
    ranks = {i: 1 for i in range(length + 1)}
    diffs = {
        i: GroupRingMatrix(group, [[minus if i % 2 else norm]])
        for i in range(1, length + 1)
    }
    return FreeChainComplex(group, ranks, diffs)


def positive_resolution(group, length):
    """Free resolution of Z over Z[(Z/p)^r] in degrees 0..length.

    Built as the tensor product of the r periodic strands; exact in
    degrees 1..length-1 with H_0 = Z via the all-ones augmentation.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    out = _periodic_strand(group.p, length)
    for _ in range(group.r - 1):
        other = _periodic_strand(group.p, length)
        full = tensor_complex(out, other)
        out = FreeChainComplex(
            full.group,
            {i: k for i, k in full.ranks.items() if i <= length},
            {i: d for i, d in full.diffs.items() if i <= length},
            check=False,
        )
    if out.group != group:
        raise ValueError("tensor construction produced the wrong group")
    return out


_window_cache = {}


def complete_resolution(group, lo, hi):
    """A verified window [lo, hi] of the complete resolution of Z.

    Positive degrees come from positive_resolution, degree -n is the
    dual of degree n-1, and d_0 factors through Z as augmentation
    followed by its dual (the full norm).  Windows are cached per group
    and only ever widened; slices of the cached window are cheap.
    """
    if lo > hi:
        raise ValueError("empty window")
    key = (group.p, group.r)
    cached = _window_cache.get(key)
    if cached is not None and cached.lo <= lo and cached.hi >= hi:
        return cached.slice(lo, hi)
    build_lo = min(lo, cached.lo if cached else 0, -1)
    build_hi = max(hi, cached.hi if cached else 0, 1)

    length = max(build_hi, -build_lo - 1, 1) + 1
    pos = positive_resolution(group, length)
    neg = dual_complex(
        FreeChainComplex(
            group,
            {i: pos.rank(i) for i in range(0, -build_lo)},
            {i: pos.diffs[i] for i in range(1, -build_lo) if i in pos.diffs},
            check=False,
        )
    )
    # neg degree -n now holds the dual of positive degree n; shift down
    # by one so that F_{-n} = dual(F_{n-1}).
    neg = neg.shifted(-1)

    ranks = {}
    diffs = {}
    for i in range(build_lo, build_hi + 1):
        ranks[i] = pos.rank(i) if i >= 0 else neg.rank(i)
    for i in range(build_lo + 1, build_hi + 1):
        if i > 0:
            diffs[i] = pos.diffs[i]
        elif i == 0:
            diffs[0] = GroupRingMatrix(group, [[full_norm(group)]])
        else:
            diffs[i] = neg.diffs[i]
    window = CompleteResolutionWindow(group, build_lo, build_hi, ranks, diffs)
    _window_cache[key] = window
    return window.slice(lo, hi)


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
            unit = IntMatrix.zeros(k, 1)
            unit.data[c][0] = 1
            try:
                solve_in_lattice(span, unit)
                continue
            except NoSolution:
                pass
        orbit = [module.act_element(h).column(c) for h in range(n)]
        chosen.append(c)
        columns.extend(orbit)
        span = lattice_basis(span.hstack(IntMatrix.from_columns(orbit, k)))
    s = len(chosen)
    cover = IntMatrix.from_columns(columns, k)
    if module.relations.cols == 0:
        raw = kernel_basis(cover)
    else:
        stacked = cover.hstack(module.relations)
        full = kernel_basis(stacked)
        raw = full.submatrix(range(s * n), range(full.cols))
    basis = lattice_basis(raw)
    actions = []
    for i in range(1, group.r + 1):
        perm = GroupRingMatrix.scalar(group, s, group.generator(i)).expand()
        actions.append(solve_in_lattice(basis, perm.mul(basis)))
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
        rhs = maps[-1].expand().mul(_encode_columns(df))
        try:
            sol = solve_preimage(complex_.expanded(i), rhs)
        except NoSolution as exc:
            raise LiftObstruction(
                f"no preimage when lifting to degree {i}: {exc}", degree=i
            ) from exc
        maps.append(decode_columns(group, sol, complex_.rank(i)))
    return maps


def _encode_columns(ring_matrix):
    """Identity-basis columns of a group-ring matrix, as an IntMatrix."""
    n = ring_matrix.group.order
    out = IntMatrix.zeros(ring_matrix.rows * n, ring_matrix.cols)
    for c in range(ring_matrix.cols):
        for b in range(ring_matrix.rows):
            e = ring_matrix.entries[b][c]
            if not e.is_zero():
                for h, v in enumerate(e.coeffs):
                    if v:
                        out.data[b * n + h][c] = v
    return out
