"""Exact linear algebra over the integers.

Everything here works with Python ints, so results are exact at any
size.  An :class:`IntMatrix` keeps only its nonzero entries, one
``{row: value}`` dict per column, which is the layout the Hermite
kernel takes and returns, so bases and kernels pass straight through
and every operation costs O(nnz).  The reductions go through the two
sparse kernels of :mod:`tatekit._elim_py`:

- ``hermite`` on the columns of the matrix: :func:`rank`,
  :func:`lattice_basis`, and, with each column tagged by its index,
  :func:`image_and_kernel`, :func:`kernel_basis` and
  :func:`solve_preimage`;
- ``smith_diagonal``: :func:`smith_diagonal`, :func:`cokernel_invariants`,
  :func:`quotient_invariants`, :func:`unit_block` and
  :func:`chain_diagonals`, the one reduction of a chain of maps that
  cancels unit pivots from one map to the next: it sends the generator
  of the maps the columns to leave out of the next one.

:func:`homology_invariants` reads a homology group off the diagonals
of the maps into and out of it; every invariant here is read that way.

:func:`solve_in_lattice` needs no kernel: it back-substitutes into the
pivot columns of an echelon basis as the Hermite kernel returns them.
"""

import math

from . import _backend
from .errors import NoSolution, SublatticeViolation

INFINITE = math.inf


class IntMatrix:
    """An integer matrix kept as sparse columns.

    ``columns[j]`` is a ``{row: value}`` dict of the nonzero entries of
    column j, the layout the Hermite kernel takes and returns, so every
    operation here costs O(nnz).  ``IntMatrix(list_of_rows)`` builds one
    from dense rows and :meth:`from_sparse` from column dicts.  Matrices
    share their dicts, so only the code that built a matrix, while it is
    fresh, writes into ``columns``; the kernels get fresh copies from
    :meth:`sparse_rows` and :meth:`sparse_columns`.  ``data`` is a dense copy.

    >>> a = IntMatrix([[1, 2], [3, 4]])
    >>> a.mul(IntMatrix.identity(2)) == a
    True
    """

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, data, rows=None, cols=None):
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows and cols:  # a k x 0 matrix may omit its empty rows
            raise ValueError(f"got {len(data)} data rows for a {rows}-row matrix")
        self.rows = rows
        self.cols = cols
        self.columns = [{} for _ in range(cols)]
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged matrix data")
            for col, v in zip(self.columns, row):
                if v:
                    col[i] = v

    @classmethod
    def from_sparse(cls, columns, rows):
        """The matrix with these ``{row: value}`` columns, nonzero values
        only; it copies the list but shares the dicts."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = len(columns)
        m.columns = list(columns)
        return m

    @classmethod
    def zeros(cls, rows, cols):
        return cls.from_sparse([{} for _ in range(cols)], rows)

    @classmethod
    def identity(cls, n):
        return cls.from_sparse([{i: 1} for i in range(n)], n)

    @property
    def data(self):
        out = [[0] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                out[i][j] = v
        return out

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for bcol in other.columns:
            col = {}
            for k, b in bcol.items():
                for i, a in self.columns[k].items():
                    col[i] = col.get(i, 0) + a * b
            out.append({i: v for i, v in col.items() if v})
        return IntMatrix.from_sparse(out, self.rows)

    def sub(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix difference")
        out = [dict(col) for col in self.columns]
        for col, bcol in zip(out, other.columns):
            for i, v in bcol.items():
                col[i] = col.get(i, 0) - v
        out = [{i: v for i, v in col.items() if v} for col in out]
        return IntMatrix.from_sparse(out, self.rows)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return IntMatrix.from_sparse(self.columns + other.columns, self.rows)

    def submatrix(self, row_range, col_range):
        cols = [self.columns[j] for j in col_range]
        if row_range != range(self.rows):
            index = {i: k for k, i in enumerate(row_range)}
            cols = [{index[i]: v for i, v in c.items() if i in index} for c in cols]
        return IntMatrix.from_sparse(cols, len(row_range))

    def is_zero(self):
        return not any(self.columns)

    def sparse_rows(self):
        """Fresh {col: value} dicts, keys ascending, safe to hand to the
        mutating core."""
        rows = [{} for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                rows[i][j] = v
        return rows

    def sparse_columns(self):
        """Fresh {row: value} dicts, one per column, for the mutating core."""
        return [dict(col) for col in self.columns]

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.columns == other.columns
        )

    def __hash__(self):
        cols = tuple(frozenset(col.items()) for col in self.columns)
        return hash((self.rows, self.cols, cols))

    def __repr__(self):
        try:
            return f"IntMatrix({self.data!r})"
        except ValueError:  # an entry past the interpreter's digit limit
            nnz = sum(map(len, self.columns))
            bits = max(abs(v).bit_length() for col in self.columns for v in col.values())
            return f"IntMatrix(<{self.rows}x{self.cols}, nnz {nnz}, largest entry {bits} bits>)"


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
    m = a.rows
    basis = [{i: v for i, v in row.items() if i < m} for _, row in pivots]
    transform = [{i - m: v for i, v in row.items() if i >= m} for _, row in pivots]
    coords = solve_in_lattice(IntMatrix.from_sparse(basis, m), b)
    return IntMatrix.from_sparse(transform, a.cols).mul(coords)


def image_and_kernel(a):
    """The echelon basis of the column span of ``a`` that
    :func:`lattice_basis` returns, and a basis of the integer kernel of
    ``a``, both from one tagged Hermite form: its pivot rows span the
    image, and its rows with no support in ``a``'s rows are the kernel.
    The columns of ``a`` span Z^rows exactly when the image basis has
    ``a.rows`` columns and each leading entry is 1."""
    pivots, free = _augmented_hermite(a)
    m = a.rows
    image = [{i: v for i, v in row.items() if i < m} for _, row in pivots]
    kernel = [{i - m: v for i, v in row.items()} for row in free]
    return IntMatrix.from_sparse(image, m), IntMatrix.from_sparse(kernel, a.cols)


def kernel_basis(a):
    """Basis of the integer kernel lattice of ``a``, as matrix columns."""
    return image_and_kernel(a)[1]


def lattice_basis(a):
    """Echelon basis of the lattice spanned by the columns of ``a``: the
    pivot rows of the Hermite kernel, as it returns them.

    Column ``j`` of the result has its first nonzero entry positive and
    strictly below the first nonzero entry of column ``j - 1``, which is
    what :func:`solve_in_lattice` relies on.
    """
    pivots, _ = _backend.hermite(a.sparse_columns(), a.rows)
    return IntMatrix.from_sparse([row for _, row in pivots], a.rows)


def solve_in_lattice(basis, targets):
    """Coordinates of ``targets`` columns in an echelon ``basis``.

    Raises NoSolution naming the first failing column.  ``basis`` must
    come from :func:`lattice_basis` (leading entries strictly
    descending by column).  Each target is back-substituted by reading
    its residual's smallest row, which must be the lead of a basis
    column, through a lead -> column map, so only the columns used are
    visited, touching only nonzero entries.
    """
    by_lead = {min(col): (k, col) for k, col in enumerate(basis.columns)}
    out = []
    for j, target in enumerate(targets.columns):
        residual = dict(target)
        coords = {}
        while residual:
            lead = min(residual)
            if lead not in by_lead:
                raise NoSolution(
                    f"column {j}: lies outside the lattice",
                    column=j,
                )
            k, col = by_lead[lead]
            w, piv = residual[lead], col[lead]
            if w % piv:
                raise NoSolution(
                    f"column {j}: residue of {w.bit_length()} bits at row {lead} "
                    f"not divisible by a pivot of {piv.bit_length()} bits",
                    column=j,
                )
            q = w // piv
            coords[k] = q
            for i, v in col.items():
                r = residual.get(i, 0) - q * v
                if r:
                    residual[i] = r
                else:
                    del residual[i]
        out.append(coords)
    return IntMatrix.from_sparse(out, basis.cols)


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


def unit_block(rows, ncols):
    """The ``(row, column)`` pairs of the +-1 pivots a Smith pass of the
    sparse map ``(rows, ncols)``, consuming the rows, takes before any
    content division or general pivot: a unimodular block of the map.

    With P the row operations of the pass (see ``chain_diagonals``), the
    block of PA is triangular in pivot order with +-1 on its diagonal,
    and on these rows P only adds earlier ones to later ones, so the
    block of A is unimodular too.  They are the diagonal's leading ones:
    a pivot after a content division by g is a multiple of g, and the
    recording stops at the first general pivot.
    """
    units = []
    return units[: _backend.smith_diagonal(rows, ncols, units).count(1)]


def chain_diagonals(maps):
    """Smith diagonal of each sparse map ``(rows, ncols)`` of a chain,
    in order; each map must compose to zero with the one before it, and
    its rows are consumed.

    Each map is reduced with the columns at the +-1 pivot rows of the
    previous map deleted (reduction pairs, Kaczynski-Mrozek-Slusarek,
    "Homology computation by reduction of chain complexes", 1998), the
    rows that are +-1 pivots only after a content division included.
    Write A for the previous map and B for this one, so BA = 0.  A row
    operation "row r += c row y" on A is the column operation "col y -=
    c col r" on B.  With P the product of the row operations of A's
    peel and unit phases, read on the undivided rows, all of which add
    a unit pivot row y (see ``_elim_py.smith_diagonal``), P is
    unimodular and B P^-1 differs from B only in those columns y.  Take
    the rows y_1, y_2, ... in pivot order: the pivot column of y_k in
    PA is nonzero at row y_k and elsewhere only at rows y_j, j < k.  So
    (B P^-1)(PA) = 0 makes column y_1 of B P^-1 zero, then column y_2,
    and so on, since over Z no nonzero pivot is a zero divisor; and
    Smith(B) = Smith(B with the columns y deleted).  The next map still
    kills B with those columns deleted, so the cancellation chains.  A
    zero map has no pivots, so it cancels nothing in the map after it.

    The same holds for any unimodular block A[Y, X], whatever A's other
    rows: adding multiples of the rows Y clears the columns X off them,
    a unimodular P, and B drops its columns Y.  Transposed, a
    unimodular block of the map after B lets B drop rows; ``tate``
    hands out such maps, the lost rows left empty.  They still pass on
    every unit row if the block U = B[Y, X] that lets A lose its rows X
    has no row that B lost.  With K the columns of B off X, so that A'
    = A[K, :] is A as reduced (less any columns it dropped, which keeps
    all that follows), the rows Y clear the columns X off B's other kept
    rows Z and leave the Schur complement S = B[Z, K] -
    B[Z, X] U^-1 B[Y, K], so Smith(B) is Smith(S) and |X| ones.  Rows Y
    of BA = 0 give A[X, :] = -U^-1 B[Y, K] A', and then rows Z give
    S A' = 0, so S drops the columns at every unit row of A', as above.
    These rows lie in K, since A' is empty at X, so B without them
    keeps U and has S without them as its Schur complement.

    ``maps`` is a generator that is sent the set of deleted columns
    before each map but the first is drawn, and leaves them out of it;
    a generator that kept them would read the same diagonals, slower.
    The chain draws a map only when its diagonal is asked for.
    """
    cancelled = None
    while True:
        try:
            rows, ncols = maps.send(cancelled)
        except StopIteration:
            return
        units = []
        diagonal = _backend.smith_diagonal(rows, ncols, units)
        del rows  # a suspended chain keeps no spent map
        yield diagonal
        cancelled = {row for row, _ in units}
