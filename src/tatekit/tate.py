"""Tate cohomology and hypercohomology for elementary abelian p-groups.

Both are the cohomology of one totalization, Tot Hom_G(F, C), over a
finite window of the complete resolution F and a bounded complex C of
Z-free ZG-lattices.  Hom_G(ZG^k, C_j) is identified with C_j^k by
evaluation at the standard basis; Tot^n is the sum of the
Hom_G(F_{n+j}, C_j), with delta^n = delta_0 - (-1)^n delta_1, where
delta_0 post-composes with the differential of C and delta_1
pre-composes with that of F.  Hypercohomology takes C to be the given
free complex.  A module M = Z^gens / L enters as the two-term lattice
complex L --B--> Z^gens in degrees 1 and 0, B a basis of the relation
lattice.  Every total complex is free abelian, so every table is read
off Smith diagonals and ranks.

Ĥ*(G; C) is killed by |G| (Brown, *Cohomology of Groups*, ch. VI), so
it has free rank 0 in every degree.  So ker delta^n is the saturation
of im delta^(n-1), and Ĥ^n is the torsion of coker delta^(n-1): the
top degree of a table needs no delta^hi, and no Tot^(hi+1).  The
codifferentials delta^{lo-1}, ..., delta^(hi-1) form one chain for
``exactlin.chain_diagonals``, which reduces each only on the
coordinates that the unit pivots of the one before it left alive.
"""

from . import exactlin
from .errors import InfiniteLength, NotConcentrated
from .exactlin import (
    AbelianInvariants,
    chain_diagonals,
    homology_invariants,
    solve_in_lattice,
)
from .groupring import GroupRingMatrix
from .modpres import _Derived, _Window, homology, homology_module
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


def _presentation_lattices(module):
    """M = Z^gens / L as the lattice complex L --B--> Z^gens in degrees 1
    and 0, with B the relation basis and L acted on by the X_i with
    B X_i = A_i B."""
    lattices = {0: (module.gens, module.act_columns, None)}
    basis = module.relation_basis()
    if basis.cols:
        lattice = _Derived(
            module.group,
            basis.cols,
            actions=[solve_in_lattice(basis, a.mul(basis)) for a in module.actions],
        )
        lattices[1] = (basis.cols, lattice.act_columns, basis.columns)
    return lattices


def _free_lattices(complex_):
    """The nonzero degrees of a free complex as lattices; x acts on ZG^k
    by its left-regular expansion, cached per degree on ``x.terms``.
    The action and d_j are the columns of ``expand()``, shared and only
    read."""
    group = complex_.group
    lattices = {}
    for j in complex_.degrees():
        k, cache = complex_.rank(j), {}

        def act(x, k=k, cache=cache):
            cols = cache.get(x.terms)
            if cols is None:
                cols = cache[x.terms] = GroupRingMatrix.scalar(group, k, x).expand().columns
            return cols

        lattices[j] = (k * group.order, act, complex_.expanded(j).columns)
    return lattices


def _dimension(window, lattices, n):
    """Z-rank of Tot^n, the sum of the Hom_G(F_{n+j}, C_j)."""
    return sum(window.rank(n + j) * dim for j, (dim, _, _) in lattices.items())


def _total_maps(window, lattices, lo, hi):
    """Sparse rows and source dimension of each delta^n : Tot^n ->
    Tot^{n+1} for n in [lo - 1, hi - 1], ascending.

    ``lattices`` maps each degree j of C, ascending, to ``(dim, act,
    d)``: the Z-rank of C_j, the sparse {row: value} columns of a ring
    element acting on it, and the sparse columns of d_j : C_j -> C_{j-1}
    (unread in the lowest degree).  These columns may be shared with
    cached matrices, so they are only read.  Tot^n is the sum of the
    Hom_G(F_{n+j}, C_j) that have F-degree inside ``window``, and
    delta^n = delta_0 - (-1)^n delta_1.

    A set sent into the generator after delta^(n-1) names coordinates
    of Tot^n that delta^n leaves out; ``chain_diagonals`` sends the
    unit pivot rows of delta^(n-1).  delta^n is written column by
    column over the other coordinates only, ascending, so each row gets
    its keys in ascending order and no entry of a left-out column is
    made.
    """

    def offsets(n):
        out, off = {}, 0
        for j, (dim, _, _) in lattices.items():
            out[j] = off
            off += window.rank(n + j) * dim
        return out

    src = offsets(lo - 1)
    cancelled = set()
    for n in range(lo - 1, hi):
        dst = offsets(n + 1)
        rows = [{} for _ in range(_dimension(window, lattices, n + 1))]
        sign = -1 if n % 2 == 0 else 1
        for j, (dim, act, d) in lattices.items():
            # delta_1 pre-composes with the resolution differential into
            # degree n+j+1 and lands in the summand at j with sign
            # -(-1)^n; delta_0 post-composes with d_j, one copy per
            # generator of F_{n+j}, and lands in the summand at j-1.
            df = window.differential(n + j + 1)
            ups = df.entries if df is not None else [{}] * window.rank(n + j)
            down = j - 1 in lattices
            tdim = lattices[j - 1][0] if down else 0
            for b, drow in enumerate(ups):
                base, dbase = src[j] + b * dim, dst.get(j - 1, 0) + b * tdim
                terms = [(dst[j] + f2 * dim, act(elem)) for f2, elem in drow.items()]
                for t in range(dim):
                    k = base + t
                    if k in cancelled:
                        continue
                    for tbase, cols in terms:
                        for i, v in cols[t].items():
                            rows[tbase + i][k] = sign * v
                    if down:
                        for rho, v in d[t].items():
                            rows[dbase + rho][k] = v
        cancelled = (yield rows, _dimension(window, lattices, n)) or set()
        src = dst


def _table(window, lattices, lo, hi):
    """Invariants from the ranks and Smith diagonals of Tot Hom_G(F, C).

    Ĥ^hi is the torsion of coker delta^(hi-1).  That rests on Ĥ* having
    free rank 0, which each degree below hi checks: raise ValueError
    naming the degree if it does not hold.
    """
    diags = list(chain_diagonals(_total_maps(window, lattices, lo, hi)))
    invs = []
    for n in range(lo, hi):
        h = homology_invariants(
            _dimension(window, lattices, n), diags[n - lo], diags[n - lo + 1]
        )
        if h.free_rank:
            raise ValueError(
                f"Tate table at degree {n}: free rank {h.free_rank}, "
                "but |G| kills Tate cohomology"
            )
        invs.append(h)
    invs.append(AbelianInvariants.from_diagonal(diags[-1]))
    return CohomologyTable(lo, hi, invs)


def tate_cohomology_range(group, module, lo, hi):
    """Table of Tate cohomology of ``group`` with coefficients in ``module``.

    The presentation is first pruned by Tietze moves
    (:meth:`ModulePresentation.pruned`), and the pruned one is read
    whenever its actions are exact; a homology module on dozens of
    generators often prunes to a handful and no relations, or to none.
    The lattice complex needs Z^gens to be a ZG-module.  When the
    action matrices commute and have order p only modulo the relations,
    M is covered by a free module instead and Ĥ^i(M) = Ĥ^{i+1}(Omega M).
    Pruning can itself leave actions that are exact only modulo the
    relations; then the given presentation is read as it stands.
    """
    if module.group != group:
        raise ValueError("module is presented over a different group")
    if lo > hi:
        raise ValueError("empty degree range")
    pruned = module.pruned()
    if pruned is not module and pruned.acts_exactly():
        module = pruned
    if module.gens == 0:
        return _trivial_table(lo, hi)
    if not module.acts_exactly():
        omega = resolution_step(module).kernel
        shifted = tate_cohomology_range(group, omega, lo + 1, hi + 1)
        return CohomologyTable(lo, hi, shifted.invariants)
    # The table reads delta^(lo-1), ..., delta^(hi-1) and no delta^hi,
    # since |G| kills Ĥ^hi: Tot^hi holds Hom(F_{hi+j}, C_j) for the top
    # lattice degree j, 1 when there are relations and 0 otherwise.
    lattices = _presentation_lattices(module)
    window = complete_resolution(group, lo - 1, hi + max(lattices))
    return _table(window, lattices, lo, hi)


def tate_cohomology(group, module, i):
    return tate_cohomology_range(group, module, i, i).invariant(i)


def tate_hypercohomology_range(group, complex_, lo, hi):
    """Table of Tate hypercohomology of a finite free complex."""
    if complex_.group != group:
        raise ValueError("complex is over a different group")
    if lo > hi:
        raise ValueError("empty degree range")
    if isinstance(complex_, _Window):
        raise InfiniteLength(
            "hypercohomology needs a complex with finite support, "
            "not a window of an unbounded one"
        )
    if complex_.is_empty():
        return _trivial_table(lo, hi)
    window = complete_resolution(group, lo - 1 + complex_.lo, hi + complex_.hi)
    return _table(window, _free_lattices(complex_), lo, hi)


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
