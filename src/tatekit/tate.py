"""Tate cohomology and hypercohomology for elementary abelian p-groups.

Cochain groups are built from a finite window of the complete
resolution: Hom_G(ZG^k, N) is identified with N^k by evaluation at the
standard basis, so a codifferential is the block matrix whose (c, b)
block is N acting by the (b, c) entry of the next resolution
differential.  Coefficients M = Z^gens / L enter as the cone of the
cochain map Hom_G(F, L) -> Hom_G(F, Z^gens) induced by a basis B of
the relation lattice L: cone degree j is Hom(F_j, Z^gens) +
Hom(F_{j+1}, L), with (b, a) -> (delta b + B a, -delta_L a).
Hypercohomology totalizes Hom_G(F_p, C_j) over the finitely many
degrees C supports, with the sign rule delta^n = delta_0 - (-1)^n
delta_1.  Both are complexes of free abelian groups, so every table is
read off Smith diagonals and ranks.
"""

from . import exactlin
from ._backend import smith_diagonal as _sparse_smith
from .errors import InfiniteLength, NotConcentrated
from .exactlin import AbelianInvariants, solve_in_lattice
from .modpres import ModulePresentation, homology, homology_module, require_valid
from .resolve import complete_resolution, resolution_step


class CohomologyTable:
    """Per-degree abelian invariants and exponents over a degree window."""

    __slots__ = ("lo", "hi", "invariants")

    def __init__(self, lo, hi, invariants):
        invariants = list(invariants)
        if len(invariants) != hi - lo + 1:
            raise ValueError("need exactly one entry per degree")
        self.lo = lo
        self.hi = hi
        self.invariants = invariants

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def invariant(self, i):
        if not self.lo <= i <= self.hi:
            raise KeyError(f"degree {i} outside table range [{self.lo},{self.hi}]")
        return self.invariants[i - self.lo]

    def exponent(self, i):
        return exactlin.exponent(self.invariant(i))

    def exponents(self):
        return [exactlin.exponent(v) for v in self.invariants]

    def rows(self):
        return [(i, self.invariant(i), self.exponent(i)) for i in self.degrees()]

    def __eq__(self, other):
        if not isinstance(other, CohomologyTable):
            return NotImplemented
        return (self.lo, self.hi, self.invariants) == (
            other.lo,
            other.hi,
            other.invariants,
        )

    def __repr__(self):
        body = ", ".join(f"{i}: {v}" for i, v in zip(self.degrees(), self.invariants))
        return f"CohomologyTable({body})"


def _trivial_table(lo, hi):
    return CohomologyTable(lo, hi, [AbelianInvariants() for _ in range(hi - lo + 1)])


def _table(lo, hi, dims, diag):
    """Invariants from the ranks and Smith diagonals of a free cochain complex."""
    invs = []
    for i in range(lo, hi + 1):
        into, outof = diag[i - 1], diag[i]
        free = dims[i] - len(into) - len(outof)
        invs.append(AbelianInvariants.from_diagonal(into, free))
    return CohomologyTable(lo, hi, invs)


def _codifferential(window, module, j, shift=0, sign=1):
    """Sparse rows of Hom(F_j, Z^gens) -> Hom(F_{j+1}, Z^gens), entries
    times ``sign`` and columns moved right by ``shift``."""
    d = window.differential(j + 1)
    g = module.gens
    kn = window.rank(j + 1)
    rows = [{} for _ in range(kn * g)]
    if d is None:
        return rows
    for c in range(kn):
        for b in range(window.rank(j)):
            elem = d.entries[b][c]
            if elem.is_zero():
                continue
            blk = module.act_ring(elem)
            for i in range(g):
                row = rows[c * g + i]
                base = shift + b * g
                for l, v in enumerate(blk.data[i]):
                    if v:
                        row[base + l] = sign * v
    return rows


def _cone_maps(module, window, lo, hi):
    """Sparse rows and source rank of each cone map C^j -> C^{j+1} for
    j in [lo - 1, hi], with C^j = Hom(F_j, Z^gens) + Hom(F_{j+1}, L)
    and (b, a) -> (delta b + B a, -delta_L a)."""
    basis = module.relation_basis()
    lattice = ModulePresentation(
        module.group,
        basis.cols,
        actions=[solve_in_lattice(basis, a.mul(basis)) for a in module.actions],
    )
    basis_rows = basis.sparse_rows()
    g, s = module.gens, lattice.gens
    for j in range(lo - 1, hi + 1):
        shift = window.rank(j) * g
        rows = _codifferential(window, module, j)
        for c in range(window.rank(j + 1)):
            for i, brow in enumerate(basis_rows):
                row = rows[c * g + i]
                for t, v in brow.items():
                    row[shift + c * s + t] = v
        # Hom(F_{hi+2}, L) lies outside the window.  Dropping -delta_L
        # from the top map keeps its rank: delta b + B a = 0 forces
        # B delta_L a = delta B a = -delta delta b = 0, and B is injective.
        if j < hi:
            rows += _codifferential(window, lattice, j + 1, shift, -1)
        yield j, rows, shift + window.rank(j + 1) * s


def tate_cohomology_range(group, module, lo, hi):
    """Table of Tate cohomology of ``group`` with coefficients in ``module``.

    The cone needs Z^gens to be a ZG-module.  When the action matrices
    commute and have order p only modulo the relations, M is covered by
    a free module instead and Ĥ^i(M) = Ĥ^{i+1}(Omega M).
    """
    if module.group != group:
        raise ValueError("module is presented over a different group")
    if lo > hi:
        raise ValueError("empty degree range")
    require_valid(module)
    if module.gens == 0:
        return _trivial_table(lo, hi)
    if not module.acts_exactly():
        omega = resolution_step(module).kernel
        shifted = tate_cohomology_range(group, omega, lo + 1, hi + 1)
        return CohomologyTable(lo, hi, shifted.invariants)
    window = complete_resolution(group, lo - 1, hi + 1)
    dims, diag = {}, {}
    for j, rows, dim in _cone_maps(module, window, lo, hi):
        dims[j] = dim
        diag[j] = _sparse_smith(rows, dim)
    return _table(lo, hi, dims, diag)


def tate_cohomology(group, module, i):
    return tate_cohomology_range(group, module, i, i).invariant(i)


def _total_layout(window, complex_, degs, n):
    """Offsets of the Hom(F_{n+j}, C_j) summands inside Tot^n."""
    g = complex_.group.order
    out = {}
    off = 0
    for j in degs:
        kf = window.rank(n + j)
        kc = complex_.rank(j)
        out[j] = (off, kf, kc)
        off += kf * kc * g
    return out, off


def _total_codifferential(window, complex_, degs, expanded, n):
    """Sparse rows of delta^n : Tot^n -> Tot^{n+1}."""
    group = complex_.group
    g = group.order
    src, dim_n = _total_layout(window, complex_, degs, n)
    dst, dim_next = _total_layout(window, complex_, degs, n + 1)
    rows = [{} for _ in range(dim_next)]
    sign = -1 if n % 2 == 0 else 1
    for j in degs:
        off_s, kf, kc = src[j]
        block = kc * g
        # delta_0: post-compose with the complex differential, one copy
        # per generator of F_{n+j}; lands in the summand at j-1.
        if j - 1 in dst:
            off_t, _, kc_t = dst[j - 1]
            tblock = kc_t * g
            for rho, erow in enumerate(expanded[j]):
                if not erow:
                    continue
                for f in range(kf):
                    row = rows[off_t + f * tblock + rho]
                    base = off_s + f * block
                    for sigma, v in erow.items():
                        row[base + sigma] = row.get(base + sigma, 0) + v
        # delta_1: pre-compose with the resolution differential into
        # degree n+j+1; lands in the summand at j with sign -(-1)^n.
        d = window.differential(n + j + 1)
        if d is None:
            continue
        off_t, kf_t, _ = dst[j]
        for f2 in range(kf_t):
            tbase = off_t + f2 * block
            for b in range(kf):
                elem = d.entries[b][f2]
                if elem.is_zero():
                    continue
                sbase = off_s + b * block
                for hr, hc, v in group.regular_triples(elem.coeffs):
                    w = sign * v
                    for c in range(kc):
                        row = rows[tbase + c * g + hr]
                        col = sbase + c * g + hc
                        row[col] = row.get(col, 0) + w
    for row in rows:
        for col in [c for c, v in row.items() if v == 0]:
            del row[col]
    return rows, dim_n


def tate_hypercohomology_range(group, complex_, lo, hi):
    """Table of Tate hypercohomology of a finite free complex."""
    if complex_.group != group:
        raise ValueError("complex is over a different group")
    if lo > hi:
        raise ValueError("empty degree range")
    if complex_.valid_range is not None:
        raise InfiniteLength(
            "hypercohomology needs a complex with finite support, "
            "not a window of an unbounded one"
        )
    if complex_.is_empty():
        return _trivial_table(lo, hi)
    degs = [
        j for j in range(complex_.lo, complex_.hi + 1) if complex_.rank(j)
    ]
    window = complete_resolution(
        group, lo - 1 + complex_.lo, hi + 1 + complex_.hi
    )
    expanded = {j: complex_.expanded(j).sparse_rows() for j in degs}
    dims, diag = {}, {}
    for n in range(lo - 1, hi + 1):
        rows, dims[n] = _total_codifferential(window, complex_, degs, expanded, n)
        diag[n] = _sparse_smith(rows, dims[n])
    return _table(lo, hi, dims, diag)


def tate_hypercohomology(group, complex_, i):
    return tate_hypercohomology_range(group, complex_, i, i).invariant(i)


def suspension(complex_):
    """Shift a complex up one degree, differentials unchanged."""
    return complex_.shifted(1)


def exponent_profile(group, module, a, b):
    """Exponents of ordinary cohomology H^i for i in [a, b] (a >= 1)."""
    if a < 1:
        raise ValueError("profile range must start at degree 1 or higher")
    return tate_cohomology_range(group, module, a, b)


class ConcentrationComparison:
    """Per-degree comparison of a concentrated complex with its module."""

    __slots__ = ("degree", "window", "rows", "ok")

    def __init__(self, degree, window, rows):
        self.degree = degree
        self.window = window
        self.rows = rows
        self.ok = all(match for _, _, _, match in rows)

    def __repr__(self):
        state = "ok" if self.ok else "MISMATCH"
        return (
            f"ConcentrationComparison(degree={self.degree}, "
            f"window={self.window}, {state})"
        )


def concentrated_check(group, complex_, n, lo=-2, hi=2):
    """Compare hypercohomology of a concentrated complex with the shift
    of the cohomology of its single homology module.

    For a complex whose homology is supported only at degree ``n``,
    checks H^i(G, C) = H^{i+n}(G, H_n(C)) for i in [lo, hi] and returns
    the per-degree comparison.
    """
    if complex_.group != group:
        raise ValueError("complex is over a different group")
    support = [
        j
        for j in range(complex_.lo, complex_.hi + 1)
        if complex_.rank(j) and not homology(complex_, j).is_trivial()
    ]
    if complex_.is_empty() or support != [n]:
        raise NotConcentrated(
            f"homology is supported at degrees {support}, expected [{n}]"
        )
    module = homology_module(complex_, n)
    left = tate_hypercohomology_range(group, complex_, lo, hi)
    right = tate_cohomology_range(group, module, lo + n, hi + n)
    rows = []
    for i in range(lo, hi + 1):
        a = left.invariant(i)
        b = right.invariant(i + n)
        rows.append((i, a, b, a == b))
    return ConcentrationComparison(n, (lo, hi), rows)
