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

A ring element x acts on a free C_j = ZG^k as k copies of its
left-regular action on ZG, so delta_1 reads x off one |G| block, built
once per table and written at each of the k offsets of C_j; a module's
lattice is one block.

Ĥ*(G; C) is killed by |G| (Brown, *Cohomology of Groups*, ch. VI), so
it has free rank 0 in every degree.  So ker delta^n is the saturation
of im delta^(n-1), and Ĥ^n is the torsion of coker delta^(n-1): the
top degree of a table needs no delta^hi, and no Tot^(hi+1).  The
codifferentials delta^{lo-1}, ..., delta^(hi-1) form one chain for
``exactlin.chain_diagonals``, which reduces each only on the
coordinates that the unit pivots of the one before it left alive.

The +-1 pivots of C's own differentials, one acyclic matching of the
double complex (Sköldberg, "Morse theory from an algebraic viewpoint",
Trans. AMS 358, 2006), are found once per table, one Smith pass per
differential, and reused in every copy of F, so no map of the chain
starts cold (see ``_table``).
"""

from collections import namedtuple

from . import exactlin
from .errors import InfiniteLength, NotConcentrated
from .exactlin import (
    AbelianInvariants,
    IntMatrix,
    chain_diagonals,
    homology_invariants,
    solve_in_lattice,
    unit_block,
)
from .groupring import left_regular
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


# One degree j of the coefficient complex C.  C_j has Z-rank ``dim``, made
# of dim // block copies of one block of ``block`` coordinates on which a
# ring element x acts alike; ``act(x)`` gives the sparse {row: value}
# columns of x on that block, and ``d`` the sparse columns of d_j : C_j ->
# C_(j-1), None in the lowest degree.  Columns are shared, so only read.
_Lattice = namedtuple("_Lattice", "dim block act d")


def _presentation_lattices(module):
    """M = Z^gens / L as the lattice complex L --B--> Z^gens in degrees 1
    and 0, with B the relation basis and L acted on by the X_i with
    B X_i = A_i B.  Each is one block of its own size; Z^0 has no copy
    of a block of size 1."""
    lattices = {0: _Lattice(module.gens, max(module.gens, 1), module.act_columns, None)}
    basis = module.relation_basis()
    if basis.cols:
        lattice = _Derived(
            module.group,
            basis.cols,
            actions=[solve_in_lattice(basis, a.mul(basis)) for a in module.actions],
        )
        lattices[1] = _Lattice(basis.cols, basis.cols, lattice.act_columns, basis.columns)
    return lattices


def _free_lattices(complex_):
    """The nonzero degrees of a free complex as lattices.  A ring element
    x acts on ZG^k as k copies of one |G| block, its left-regular action
    on ZG (``groupring.left_regular``), built once per table on
    ``x.terms`` and read by every degree.  d_j is the columns of
    ``expand()``, shared and only read."""
    n = complex_.group.order
    cache = {}

    def act(x):
        block = cache.get(x.terms)
        if block is None:
            pairs = left_regular(x)
            block = cache[x.terms] = [{row[h]: v for row, v in pairs} for h in range(n)]
        return block

    return {
        j: _Lattice(complex_.rank(j) * n, n, act, complex_.expanded(j).columns)
        for j in complex_.degrees()
    }


def _dimension(window, lattices, n):
    """Z-rank of Tot^n, the sum of the Hom_G(F_{n+j}, C_j)."""
    return sum(window.rank(n + j) * lat.dim for j, lat in lattices.items())


def _total_maps(window, lattices, lo, hi, blocks=None):
    """Sparse rows and source dimension of each delta^n : Tot^n ->
    Tot^{n+1} for n in [lo - 1, hi - 1], ascending.

    ``lattices`` maps each degree j of C, ascending, to its
    ``_Lattice``.  Tot^n is the sum of the Hom_G(F_{n+j}, C_j) that
    have F-degree inside ``window``, and delta^n = delta_0 - (-1)^n
    delta_1.  delta_1 writes the columns of one block of C_j at each
    offset of a copy, and delta_0 the columns of d_j.

    ``blocks`` maps degrees j to C's unit pairs (r, t) from
    ``_unit_blocks``, R_j in C_(j-1) and T_j in C_j (see ``_table``).
    delta^(lo-1) leaves out its columns at the copies of each R_j in
    Tot^(lo-1).  Every delta^n writes no entry in its rows at the copies
    of each T_j in Tot^(n+1), and hands them out empty: the action skips
    those rows where it writes them, and d_(j+1) drops them once per
    table.  A set sent into the generator after delta^(n-1) names more
    coordinates of Tot^n that delta^n leaves out; ``chain_diagonals``
    sends the unit pivot rows of delta^(n-1).  No entry of a left-out
    column is made.

    delta^n is written column by column, one copy of a block of C_j at
    a time and the generators of F in order inside it.  A row of the
    summand at j gets its delta_1 entries from the one copy it lies in,
    then its delta_0 entries, from the columns of the summand at j + 1
    over the one generator of F it lies over, so each row gets its keys
    in ascending order.
    """
    blocks = blocks or {}
    lost = {j: {t for _, t in pairs} for j, pairs in blocks.items()}
    # Each copy of a block of C_j: its offset, a flag per coordinate that
    # is True off T_j, and the columns of d_j on it without their rows in
    # T_(j-1).
    copies = {}
    for j, lat in lattices.items():
        tj, below = lost.get(j, ()), lost.get(j - 1, ())
        copies[j] = []
        for off in range(0, lat.dim, lat.block):
            keep = [off + i not in tj for i in range(lat.block)]
            d = None
            if j - 1 in lattices:
                d = [{r: v for r, v in col.items() if r not in below}
                     for col in lat.d[off : off + lat.block]]
            copies[j].append((off, keep, d))

    def offsets(n):
        out, off = {}, 0
        for j, lat in lattices.items():
            out[j] = off
            off += window.rank(n + j) * lat.dim
        return out

    src = offsets(lo - 1)
    cancelled = {
        src[j - 1] + b * lattices[j - 1].dim + r
        for j, pairs in blocks.items()
        for b in range(window.rank(lo - 2 + j))
        for r, _ in pairs
    }
    for n in range(lo - 1, hi):
        dst = offsets(n + 1)
        rows = [{} for _ in range(_dimension(window, lattices, n + 1))]
        sign = -1 if n % 2 == 0 else 1
        for j, (dim, block, act, _) in lattices.items():
            # delta_1 pre-composes with the resolution differential into
            # degree n+j+1 and lands in the summand at j with sign
            # -(-1)^n; delta_0 post-composes with d_j, one copy per
            # generator of F_{n+j}, and lands in the summand at j-1.
            df = window.differential(n + j + 1)
            ups = df.entries if df is not None else [{}] * window.rank(n + j)
            down = j - 1 in lattices
            tdim = lattices[j - 1].dim if down else 0
            for off, keep, d in copies[j]:
                sbase, tbase0 = src[j] + off, dst[j] + off
                for b, drow in enumerate(ups):
                    base, dbase = sbase + b * dim, dst.get(j - 1, 0) + b * tdim
                    terms = [(tbase0 + f2 * dim, act(elem)) for f2, elem in drow.items()]
                    for h in range(block):
                        k = base + h
                        if k in cancelled:
                            continue
                        for tbase, cols in terms:
                            for i, v in cols[h].items():
                                if keep[i]:
                                    rows[tbase + i][k] = sign * v
                        if down:
                            for rho, v in d[h].items():
                                rows[dbase + rho][k] = v
        cancelled = (yield rows, _dimension(window, lattices, n)) or set()
        src = dst


def _unit_blocks(lattices):
    """C's unit blocks, one acyclic matching, as ``{j: pairs}``.  In
    ascending degree, each d_j whose rows, those at T_(j-1) left empty,
    have a +-1 entry gets one Smith pass on them: its pairs from before
    any content division (``exactlin.unit_block``), under j, have rows
    R_j, disjoint from T_(j-1), and columns T_j, the coordinates of C_j
    whose copies are empty rows of every Tot map (``_total_maps``).
    """
    blocks, lost = {}, ()
    for j, lat in lattices.items():
        if j - 1 in lattices:
            rows = IntMatrix.from_sparse(lat.d, lattices[j - 1].dim).sparse_rows()
            for r in lost:
                rows[r] = {}
            if any(v in (1, -1) for row in rows for v in row.values()):
                blocks[j] = unit_block(rows, lat.dim)
        lost = [t for _, t in blocks.get(j, ())]
    return blocks


def _table(window, lattices, lo, hi):
    """Invariants from the ranks and Smith diagonals of Tot Hom_G(F, C).

    Ĥ^hi is the torsion of coker delta^(hi-1).  That rests on Ĥ* having
    free rank 0, which each degree below hi checks: raise ValueError
    naming the degree if it does not hold.

    The +-1 pivots of C's own differentials shrink every delta^n before
    it is reduced, and keep its Smith diagonal.  ``_unit_blocks`` takes
    a unimodular block d_j[R_j, T_j] of each d_j, R_j in C_(j-1) and T_j
    in C_j, with R_(j+1) and T_j disjoint.  In any delta^m their copies,
    one per generator of F_(m+j), form a block whose delta_0 part is
    I (x) d_j[R_j, T_j] at each j, and whose delta_1 part only raises
    the F-degree, sending the columns of the block of d_j to rows of
    the block of d_(j+1): it is block-triangular with determinant +-1.
    A unimodular block A[Y, X] of the map A before B lets B drop its
    columns Y (``exactlin.chain_diagonals``); transposed, one of the map
    after B lets B drop its rows at the block's columns, for the maps
    of the whole complete resolution, inside the window or not.  So
    delta^(lo-1) drops its columns at the R-copies in Tot^(lo-1), by
    delta^(lo-2), which is not built, and every delta^n its rows at the
    T-copies in Tot^(n+1), by delta^(n+1).  As R_(j+1) and T_j are
    disjoint, that row trim leaves whole the block of delta^n at the
    R-copies of Tot^(n+1) and the T-copies of Tot^n, where delta^(n-1)
    is empty, so delta^n drops the columns at every unit row of
    delta^(n-1), those taken after a content division too: the Schur
    complement of that block kills the trimmed delta^(n-1) (see
    ``chain_diagonals``).  The first map's dropped columns, the R-copies
    of Tot^(lo-1), never meet T-copies either.  ``_total_maps`` makes
    both cuts as it writes each map.
    """
    maps = _total_maps(window, lattices, lo, hi, _unit_blocks(lattices))
    diags = list(chain_diagonals(maps))
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
