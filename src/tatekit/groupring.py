"""Integral group rings of elementary abelian p-groups.

Group elements are exponent vectors of length r with entries mod p,
ordered lexicographically; the element with exponents (e_1, ..., e_r)
sits at index e_1*p^(r-1) + ... + e_r.  A ring element is the dense
tuple of its integer coefficients in that order.

A ``GroupRingMatrix`` keeps only its nonzero entries, one
``{col: element}`` dict per row, so products, duals and expansions cost
O(nnz).  ``GroupRingMatrix.sparse_rows`` turns a ring matrix into the
sparse rows of an integer matrix through the left regular
representation, one |G| x |G| block per entry, and is the only code
that writes that expansion; ``sparse_columns`` transposes it, and
``expand`` is those columns as an ``IntMatrix``.  The identity-basis
columns of the expansion carry the ring data: ``encode_columns`` writes them and
``decode_columns`` reads them back, which is how every module-level
computation round-trips.  ``act_rows`` applies a group generator to
ZG^k as a permutation of rows.
"""

from .errors import ResourceLimit
from .exactlin import IntMatrix


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# Entries of the largest table a group allocates, its |G| x |G|
# multiplication table; 2^22 admits (Z/2)^11, (Z/3)^6 and (Z/5)^4.
TABLE_BUDGET = 1 << 22


class ElementaryAbelianGroup:
    """The group (Z/p)^r with its fixed element order.

    Ring elements hold |G| coefficients and the multiplication table
    |G|^2 entries, so a group whose table would exceed ``TABLE_BUDGET``
    raises ResourceLimit before anything is allocated, unless
    ``allow_large`` is set.
    """

    def __init__(self, p, r, allow_large=False):
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if r < 1:
            raise ValueError(f"r must be positive, got {r}")
        self.p = p
        self.r = r
        self.order = p**r
        if self.order**2 > TABLE_BUDGET and not allow_large:
            raise ResourceLimit(
                f"(Z/{p})^{r}: |G| = {self.order}, so a ring element holds {self.order} "
                f"coefficients and the multiplication table {self.order**2} entries, "
                f"over the budget of {TABLE_BUDGET}; allow_large=True (--allow-large) "
                "lifts it"
            )
        self._mul_table = None
        self._inv_table = None

    def exponents(self, index):
        out = []
        for _ in range(self.r):
            out.append(index % self.p)
            index //= self.p
        out.reverse()
        return tuple(out)

    def index_of(self, exponents):
        if len(exponents) != self.r:
            raise ValueError("exponent vector has the wrong length")
        idx = 0
        for e in exponents:
            idx = idx * self.p + (e % self.p)
        return idx

    def mul_table(self):
        if self._mul_table is None:
            n, p, r = self.order, self.p, self.r
            weights = [p**k for k in range(r - 1, -1, -1)]
            table = []
            for i in range(n):
                ei = self.exponents(i)
                row = [0] * n
                for j in range(n):
                    ej = self.exponents(j)
                    row[j] = sum(
                        ((a + b) % p) * w for a, b, w in zip(ei, ej, weights)
                    )
                table.append(row)
            self._mul_table = table
        return self._mul_table

    def inverse_table(self):
        if self._inv_table is None:
            p = self.p
            self._inv_table = [
                self.index_of(tuple((-e) % p for e in self.exponents(i)))
                for i in range(self.order)
            ]
        return self._inv_table

    def identity(self):
        coeffs = [0] * self.order
        coeffs[0] = 1
        return GroupRingElement(self, coeffs)

    def zero(self):
        return GroupRingElement(self, [0] * self.order)

    def generator(self, i):
        """The i-th coordinate generator, i counted from 1."""
        if not 1 <= i <= self.r:
            raise ValueError(f"generator index {i} out of range 1..{self.r}")
        exps = [0] * self.r
        exps[i - 1] = 1
        coeffs = [0] * self.order
        coeffs[self.index_of(exps)] = 1
        return GroupRingElement(self, coeffs)

    def element(self, exponents):
        coeffs = [0] * self.order
        coeffs[self.index_of(exponents)] = 1
        return GroupRingElement(self, coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, ElementaryAbelianGroup)
            and self.p == other.p
            and self.r == other.r
        )

    def __hash__(self):
        return hash((self.p, self.r))

    def __repr__(self):
        return f"ElementaryAbelianGroup({self.p}, {self.r})"

    def __str__(self):
        return f"(Z/{self.p})^{self.r}" if self.r > 1 else f"Z/{self.p}"


class GroupRingElement:
    """An element of Z[G], stored as dense integer coefficients."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != group.order:
            raise ValueError("coefficient vector has the wrong length")
        self.group = group
        self.coeffs = coeffs

    def __add__(self, other):
        self._check(other)
        return GroupRingElement(
            self.group, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other):
        self._check(other)
        return GroupRingElement(
            self.group, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self):
        return GroupRingElement(self.group, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupRingElement(self.group, [other * a for a in self.coeffs])
        self._check(other)
        mul = self.group.mul_table()
        out = [0] * self.group.order
        for i, a in enumerate(self.coeffs):
            if a:
                row = mul[i]
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[row[j]] += a * b
        return GroupRingElement(self.group, out)

    __rmul__ = __mul__

    def antipode(self):
        """The ring automorphism sending each group element to its inverse."""
        inv = self.group.inverse_table()
        out = [0] * self.group.order
        for i, a in enumerate(self.coeffs):
            if a:
                out[inv[i]] = a
        return GroupRingElement(self.group, out)

    def is_zero(self):
        return not any(self.coeffs)

    def _check(self, other):
        if self.group != other.group:
            raise ValueError("elements live over different groups")

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElement)
            and self.group == other.group
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.group.p, self.group.r, self.coeffs))

    def __repr__(self):
        return f"GroupRingElement({self.group!r}, {list(self.coeffs)!r})"


def antipode(a):
    return a.antipode()


def norm_element(group, generator_index):
    """1 + g + ... + g^(p-1) for the given coordinate generator (1-based)."""
    if not 1 <= generator_index <= group.r:
        raise ValueError(
            f"generator index {generator_index} out of range 1..{group.r}"
        )
    coeffs = [0] * group.order
    exps = [0] * group.r
    for k in range(group.p):
        exps[generator_index - 1] = k
        coeffs[group.index_of(exps)] = 1
    return GroupRingElement(group, coeffs)


def full_norm(group):
    """The sum of all group elements."""
    return GroupRingElement(group, [1] * group.order)


class GroupRingMatrix:
    """An nrows x ncols matrix over Z[G], kept as sparse rows.

    ``entries[i]`` is a ``{col: element}`` dict holding the nonzero
    entries of row i, keys ascending.  The constructor is the only
    writer: it drops zero elements and rejects a column outside
    0..ncols-1 or an entry over another group.  Matrices are shared,
    so callers must not change ``entries`` afterwards.
    """

    __slots__ = ("group", "rows", "cols", "entries", "_expanded")

    def __init__(self, group, rows, nrows, ncols):
        rows = list(rows)
        if len(rows) != nrows:
            raise ValueError(f"got {len(rows)} rows, expected {nrows}")
        self.group = group
        self.rows = nrows
        self.cols = ncols
        self.entries = [self._nonzero(row) for row in rows]
        self._expanded = None

    def _nonzero(self, row):
        kept = {}
        for c in sorted(row):
            e = row[c]
            if not 0 <= c < self.cols:
                raise ValueError(f"column {c} outside 0..{self.cols - 1}")
            if e.group != self.group:
                raise ValueError("entry over the wrong group")
            if not e.is_zero():
                kept[c] = e
        return kept

    @classmethod
    def zero(cls, group, rows, cols):
        return cls(group, [{}] * rows, rows, cols)

    @classmethod
    def scalar(cls, group, n, element):
        return cls(group, [{i: element} for i in range(n)], n, n)

    def mul(self, other):
        if self.group != other.group or self.cols != other.rows:
            raise ValueError("shape or group mismatch in ring product")
        # A closed-form d_n has at most 4r distinct entries, so each
        # product a * b is formed once, as its nonzero terms, and summed
        # into one coefficient list per output entry.
        n = self.group.order
        products = {}
        rows = []
        for a_row in self.entries:
            out = {}
            for k, a in a_row.items():
                for j, b in other.entries[k].items():
                    terms = products.get((a, b))
                    if terms is None:
                        terms = [(h, v) for h, v in enumerate((a * b).coeffs) if v]
                        products[a, b] = terms
                    acc = out.get(j)
                    if acc is None:
                        acc = out[j] = [0] * n
                    for h, v in terms:
                        acc[h] += v
            rows.append({j: GroupRingElement(self.group, acc) for j, acc in out.items()})
        return GroupRingMatrix(self.group, rows, self.rows, other.cols)

    def antipode_transpose(self):
        """Transpose with the antipode applied entrywise (the dual map)."""
        cols = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.entries):
            for j, e in row.items():
                cols[j][i] = e.antipode()
        return GroupRingMatrix(self.group, cols, self.cols, self.rows)

    def is_zero(self):
        return not any(self.entries)

    def sparse_rows(self):
        """Fresh {col: value} rows of the left-regular expansion.

        Entry (i, j) becomes a |G| x |G| block; its row h holds the
        coefficient of g at column g^-1 h, keys in ascending g.  Zero
        coefficients write nothing.
        """
        n = self.group.order
        mul = self.group.mul_table()
        inv = self.group.inverse_table()
        rows = [{} for _ in range(self.rows * n)]
        for i, entry_row in enumerate(self.entries):
            block = rows[i * n : (i + 1) * n]
            for j, e in entry_row.items():
                terms = [(mul[inv[g]], v) for g, v in enumerate(e.coeffs) if v]
                base = j * n
                for h, row in enumerate(block):
                    for shift, v in terms:
                        row[base + shift[h]] = v
        return rows

    def sparse_columns(self, skip=()):
        """Fresh {row: value} columns of :meth:`sparse_rows`, the rows of
        the transposed expansion, without the rows in ``skip``."""
        rows = self.sparse_rows()
        cols = [{} for _ in range(self.cols * self.group.order)]
        for i, row in enumerate(rows):
            rows[i] = None  # freed as it is read
            if i not in skip:
                for c, v in row.items():
                    cols[c][i] = v
        return cols

    def expand(self):
        """Integer matrix of the map on underlying Z-modules, the sparse
        columns of :meth:`sparse_rows`, cached on the matrix."""
        if self._expanded is None:
            rows = self.rows * self.group.order
            self._expanded = IntMatrix.from_sparse(self.sparse_columns(), rows)
        return self._expanded

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingMatrix)
            and self.group == other.group
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"GroupRingMatrix({self.group!r}, rows={self.rows}, cols={self.cols})"


def encode_columns(ring_matrix):
    """Identity-basis columns of the expansion of a group-ring matrix:
    column c of the result stacks the coefficients of column c."""
    n = ring_matrix.group.order
    cols = [{} for _ in range(ring_matrix.cols)]
    for b, row in enumerate(ring_matrix.entries):
        for c, e in row.items():
            col = cols[c]
            for h, v in enumerate(e.coeffs):
                if v:
                    col[b * n + h] = v
    return IntMatrix.from_sparse(cols, ring_matrix.rows * n)


def decode_columns(group, mat, row_blocks):
    """Inverse of :func:`encode_columns`.

    ``mat`` has ``row_blocks * |G|`` rows; column ``c`` is read as the
    image of a free-module generator, giving the group-ring matrix
    whose expansion agrees with ``mat`` on identity-basis columns.
    """
    n = group.order
    if mat.rows != row_blocks * n:
        raise ValueError("row count is not a multiple of the group order")
    rows = [{} for _ in range(row_blocks)]
    for c, col in enumerate(mat.columns):
        for i, v in col.items():
            b, h = divmod(i, n)
            (rows[b].get(c) or rows[b].setdefault(c, [0] * n))[h] = v
    rows = [{c: GroupRingElement(group, x) for c, x in row.items()} for row in rows]
    return GroupRingMatrix(group, rows, row_blocks, mat.cols)


def act_rows(group, i, mat):
    """The generator g_i (counted from 1) acting on ZG^k, applied to an
    integer matrix with k|G| rows: row b|G| + h moves to b|G| + g_i h.

    The result equals ``GroupRingMatrix.scalar(group, k, g_i).expand()
    .mul(mat)``, without the expansion or the product.
    """
    if not 1 <= i <= group.r:
        raise ValueError(f"generator index {i} out of range 1..{group.r}")
    n = group.order
    if mat.rows % n:
        raise ValueError("row count is not a multiple of the group order")
    shift = group.mul_table()[group.p ** (group.r - i)]
    cols = [
        {k - k % n + shift[k % n]: v for k, v in col.items()} for col in mat.columns
    ]
    return IntMatrix.from_sparse(cols, mat.rows)
