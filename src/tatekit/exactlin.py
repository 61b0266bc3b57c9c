"""Exact linear algebra over the integers.

Everything here works with Python ints, so results are exact at any
size.  Matrices are small dense objects; the heavy reductions go
through the two sparse kernels of :mod:`tatekit._elim_py`:

- ``hermite`` on the columns of the matrix: :func:`rank`,
  :func:`lattice_basis`, and, with each column tagged by its index,
  :func:`kernel_basis` and :func:`solve_preimage`;
- ``smith_diagonal``: :func:`smith_diagonal`,
  :func:`cokernel_invariants`, :func:`quotient_invariants` and
  :func:`chain_diagonals`, the one reduction of a chain of maps that
  cancels unit pivots from one map to the next.

:func:`homology_invariants` reads a homology group off the diagonals
of the maps into and out of it; every invariant here is read that way.

:func:`solve_in_lattice` needs no kernel: it back-substitutes into an
echelon basis.
"""

import math

from . import _backend
from .errors import NoSolution, SublatticeViolation

INFINITE = math.inf


class IntMatrix:
    """A dense integer matrix with just enough algebra for the package.

    >>> a = IntMatrix([[1, 2], [3, 4]])
    >>> a.mul(IntMatrix.identity(2)) == a
    True
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, rows=None, cols=None):
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if rows else 0
        self.rows = rows
        self.cols = cols
        self.data = [list(r) for r in data]
        for r in self.data:
            if len(r) != cols:
                raise ValueError("ragged matrix data")

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def identity(cls, n):
        m = cls.zeros(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @classmethod
    def from_columns(cls, columns, rows):
        m = cls.zeros(rows, len(columns))
        for j, col in enumerate(columns):
            for i, v in enumerate(col):
                m.data[i][j] = v
        return m

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = IntMatrix.zeros(self.rows, other.cols)
        for i in range(self.rows):
            arow = self.data[i]
            orow = out.data[i]
            for k in range(self.cols):
                a = arow[k]
                if a:
                    brow = other.data[k]
                    for j in range(other.cols):
                        b = brow[j]
                        if b:
                            orow[j] += a * b
        return out

    def add(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix sum")
        return IntMatrix(
            [
                [self.data[i][j] + other.data[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, c):
        return IntMatrix([[c * v for v in row] for row in self.data], self.rows, self.cols)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return IntMatrix(
            [self.data[i] + other.data[i] for i in range(self.rows)],
            self.rows,
            self.cols + other.cols,
        )

    def submatrix(self, row_range, col_range):
        return IntMatrix(
            [[self.data[i][j] for j in col_range] for i in row_range],
            len(row_range),
            len(col_range),
        )

    def is_zero(self):
        return all(v == 0 for row in self.data for v in row)

    def sparse_rows(self):
        """Fresh {col: value} dicts, safe to hand to the mutating core."""
        return [
            {j: v for j, v in enumerate(row) if v}
            for row in self.data
        ]

    def sparse_columns(self):
        """Fresh {row: value} dicts, one per column, for the mutating core."""
        cols = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, v in enumerate(row):
                if v:
                    cols[j][i] = v
        return cols

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(map(tuple, self.data))))

    def __repr__(self):
        return f"IntMatrix({self.data!r})"


class AbelianInvariants:
    """Invariant factors of a finitely generated abelian group.

    ``torsion`` is the chain of moduli >= 2, each dividing the next;
    ``free_rank`` counts the infinite cyclic summands.
    """

    __slots__ = ("torsion", "free_rank")

    def __init__(self, torsion=(), free_rank=0):
        torsion = tuple(int(t) for t in torsion)
        for t in torsion:
            if t < 2:
                raise ValueError("torsion moduli must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion moduli must form a divisibility chain")
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        self.torsion = torsion
        self.free_rank = free_rank

    @classmethod
    def from_diagonal(cls, diagonal, free_rank=0):
        """Build from a Smith diagonal, discarding unit entries."""
        return cls([d for d in diagonal if abs(d) > 1], free_rank)

    def is_trivial(self):
        return not self.torsion and self.free_rank == 0

    def order(self):
        if self.free_rank:
            return INFINITE
        return math.prod(self.torsion) if self.torsion else 1

    def exponent(self):
        if self.free_rank:
            return INFINITE
        return self.torsion[-1] if self.torsion else 1

    def __eq__(self, other):
        return (
            isinstance(other, AbelianInvariants)
            and self.torsion == other.torsion
            and self.free_rank == other.free_rank
        )

    def __hash__(self):
        return hash((self.torsion, self.free_rank))

    def __str__(self):
        parts = [f"Z/{t}" for t in self.torsion]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"AbelianInvariants(torsion={self.torsion!r}, free_rank={self.free_rank})"


def exponent(invariants):
    """Exponent of the group described by ``invariants`` (INFINITE if free)."""
    return invariants.exponent()


def smith_diagonal(a):
    """Positive diagonal of the Smith form (ones included; length = rank)."""
    return _backend.smith_diagonal(a.sparse_rows(), a.cols)


def rank(a):
    pivots, _ = _backend.hermite(a.sparse_columns(), a.rows)
    return len(pivots)


def _augmented_hermite(a):
    """Hermite of the columns of ``a``, column ``j`` tagged with 1 at
    ``a.rows + j``, so each reduced row carries its coordinates in the
    columns of ``a``."""
    rows = a.sparse_columns()
    for j, row in enumerate(rows):
        row[a.rows + j] = 1
    return _backend.hermite(rows, a.rows)


def solve_preimage(a, b):
    """Some integer solution ``x`` of ``a * x == b``, or NoSolution.

    ``b`` may have several columns; they are solved together and
    NoSolution names the first that fails.  When the system is
    underdetermined any valid solution may be returned.
    """
    if a.rows != b.rows:
        raise ValueError("shape mismatch between matrix and right-hand side")
    pivots, _ = _augmented_hermite(a)
    rows = [row for _, row in pivots]
    basis = IntMatrix.from_columns(
        [[row.get(i, 0) for i in range(a.rows)] for row in rows], a.rows
    )
    transform = IntMatrix.from_columns(
        [[row.get(a.rows + j, 0) for j in range(a.cols)] for row in rows], a.cols
    )
    return transform.mul(solve_in_lattice(basis, b))


def kernel_basis(a):
    """Basis of the integer kernel lattice of ``a``, as matrix columns."""
    _, free = _augmented_hermite(a)
    columns = [[row.get(a.rows + j, 0) for j in range(a.cols)] for row in free]
    return IntMatrix.from_columns(columns, a.cols)


def lattice_basis(a):
    """Echelon basis of the lattice spanned by the columns of ``a``.

    Column ``j`` of the result has its first nonzero entry positive and
    strictly below the first nonzero entry of column ``j - 1``, which is
    what :func:`solve_in_lattice` relies on.
    """
    pivots, _ = _backend.hermite(a.sparse_columns(), a.rows)
    columns = []
    for _, row in pivots:
        columns.append([row.get(i, 0) for i in range(a.rows)])
    return IntMatrix.from_columns(columns, a.rows)


def solve_in_lattice(basis, targets):
    """Coordinates of ``targets`` columns in an echelon ``basis``.

    Raises NoSolution naming the first failing column.  ``basis`` must
    come from :func:`lattice_basis` (leading entries strictly
    descending by column).
    """
    supports = []
    leads = []
    for j in range(basis.cols):
        sup = [(i, basis.data[i][j]) for i in range(basis.rows) if basis.data[i][j]]
        supports.append(sup)
        leads.append(sup[0][0])
    out = IntMatrix.zeros(basis.cols, targets.cols)
    for j in range(targets.cols):
        residual = targets.column(j)
        for k in range(basis.cols):
            lead = leads[k]
            piv = supports[k][0][1]
            w = residual[lead]
            if w % piv:
                raise NoSolution(
                    f"column {j}: residue {w} at row {lead} not divisible by {piv}",
                    column=j,
                )
            q = w // piv
            if q:
                out.data[k][j] = q
                for i, v in supports[k]:
                    residual[i] -= q * v
        if any(residual):
            raise NoSolution(
                f"column {j}: lies outside the lattice",
                column=j,
            )
    return out


def quotient_invariants(k, l):
    """Invariants of span(k) / span(l) for integer column spans.

    The columns of ``l`` must lie in the lattice spanned by the columns
    of ``k``; otherwise SublatticeViolation names the first offender.
    Both arguments may be spanning sets rather than bases.
    """
    if k.rows != l.rows:
        raise ValueError("ambient rank mismatch between the two spans")
    basis = lattice_basis(k)
    try:
        coords = solve_in_lattice(basis, l)
    except NoSolution as exc:
        raise SublatticeViolation(str(exc), column=exc.column) from exc
    return homology_invariants(basis.cols, smith_diagonal(coords), ())


def cokernel_invariants(a):
    """Invariants of Z^rows / column-span(a)."""
    return homology_invariants(a.rows, smith_diagonal(a), ())


def homology_invariants(dim, into, outof):
    """Invariants of ker(out) / im(in) inside Z^dim, from the Smith
    diagonals of the maps into and out of Z^dim: the torsion is that of
    ``into`` and the free rank what neither map's rank takes."""
    return AbelianInvariants.from_diagonal(into, dim - len(into) - len(outof))


def chain_diagonals(maps):
    """Smith diagonal of each sparse map ``(rows, ncols)`` of a chain,
    in order; each map must compose to zero with the one before it, and
    its rows are consumed.

    Each map is reduced with the columns at the +-1 pivot rows of the
    previous map deleted (reduction pairs, Kaczynski-Mrozek-Slusarek,
    "Homology computation by reduction of chain complexes", 1998).
    Write A for the previous map and B for this one, so BA = 0.  A row
    operation "row r += c row y" on A is the column operation "col y -=
    c col r" on B.  With P the product of the row operations of A's
    unit phase, all of which add a unit pivot row y (see
    ``_elim_py.smith_diagonal``), B P^-1 differs from B only in those
    columns y.  The pivot column of y in PA is +-1 at row y and 0
    elsewhere, so (B P^-1)(PA) = 0 makes column y of B P^-1 zero, and
    Smith(B) = Smith(B with the columns y deleted).  The next map still
    kills B with those columns deleted, so the cancellation chains.  A
    zero map has no pivots, so it cancels nothing in the map after it.

    When ``maps`` is a generator, each set of deleted columns is sent
    into it before the map they belong to is drawn, so it may leave
    them out; they are deleted here either way.
    """
    maps = iter(maps)
    draw = getattr(maps, "send", lambda _: next(maps))
    cancelled = None
    while True:
        try:
            rows, ncols = draw(cancelled)
        except StopIteration:
            return
        if cancelled:
            for row in rows:
                for k in cancelled.intersection(row):
                    del row[k]
        units = []
        yield _backend.smith_diagonal(rows, ncols, units)
        cancelled = set(units)
