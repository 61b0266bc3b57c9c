"""Integral group rings of elementary abelian p-groups.

Group elements are exponent vectors of length r with entries mod p,
ordered lexicographically; the element with exponents (e_1, ..., e_r)
sits at index e_1*p^(r-1) + ... + e_r.  A ring element is the dense
tuple of its integer coefficients in that order.

``GroupRingMatrix.sparse_rows`` turns a ring matrix into the sparse
rows of an integer matrix through the left regular representation, one
|G| x |G| block per entry, and is the only code that writes that
expansion; ``expand`` is its dense form.  Identity-basis columns of the
expansion recover the ring data, which is how every module-level
computation round-trips.
"""

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


class ElementaryAbelianGroup:
    """The group (Z/p)^r with its fixed element order."""

    def __init__(self, p, r):
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if r < 1:
            raise ValueError(f"r must be positive, got {r}")
        self.p = p
        self.r = r
        self.order = p**r
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


def ring_multiply(a, b):
    """Convolution product of two group-ring elements."""
    return a * b


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
    """A rows x cols matrix with group-ring entries."""

    __slots__ = ("group", "rows", "cols", "entries", "_expanded")

    def __init__(self, group, entries, rows=None, cols=None):
        if rows is None:
            rows = len(entries)
        if cols is None:
            cols = len(entries[0]) if rows else 0
        self.group = group
        self.rows = rows
        self.cols = cols
        self.entries = [list(r) for r in entries]
        self._expanded = None
        for row in self.entries:
            if len(row) != cols:
                raise ValueError("ragged entry data")
            for e in row:
                if e.group != group:
                    raise ValueError("entry over the wrong group")

    @classmethod
    def zero(cls, group, rows, cols):
        z = group.zero()
        return cls(group, [[z] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def scalar(cls, group, n, element):
        m = cls.zero(group, n, n)
        for i in range(n):
            m.entries[i][i] = element
        return m

    def mul(self, other):
        if self.group != other.group or self.cols != other.rows:
            raise ValueError("shape or group mismatch in ring product")
        # The nonzero entries of each row of ``other``, indexed once.
        nonzero = [
            [(j, b) for j, b in enumerate(row) if not b.is_zero()]
            for row in other.entries
        ]
        out = GroupRingMatrix.zero(self.group, self.rows, other.cols)
        for a_row, out_row in zip(self.entries, out.entries):
            for a, right in zip(a_row, nonzero):
                if right and not a.is_zero():
                    for j, b in right:
                        out_row[j] = out_row[j] + a * b
        return out

    def antipode_transpose(self):
        """Transpose with the antipode applied entrywise (the dual map)."""
        return GroupRingMatrix(
            self.group,
            [
                [self.entries[i][j].antipode() for i in range(self.rows)]
                for j in range(self.cols)
            ],
            self.cols,
            self.rows,
        )

    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

    def sparse_rows(self):
        """Fresh {col: value} rows of the left-regular expansion.

        Entry (i, j) becomes a |G| x |G| block; its row h holds the
        coefficient of g at column g^-1 h, keys in ascending g.  Zero
        entries and coefficients write nothing.
        """
        n = self.group.order
        mul = self.group.mul_table()
        inv = self.group.inverse_table()
        rows = [{} for _ in range(self.rows * n)]
        for i, entry_row in enumerate(self.entries):
            block = rows[i * n : (i + 1) * n]
            for j, e in enumerate(entry_row):
                terms = [(mul[inv[g]], v) for g, v in enumerate(e.coeffs) if v]
                if not terms:
                    continue
                base = j * n
                for h, row in enumerate(block):
                    for shift, v in terms:
                        row[base + shift[h]] = v
        return rows

    def expand(self):
        """Integer matrix of the map on underlying Z-modules, cached on
        the matrix; its nonzero entries are those of :meth:`sparse_rows`."""
        if self._expanded is None:
            n = self.group.order
            out = IntMatrix.zeros(self.rows * n, self.cols * n)
            for dense, row in zip(out.data, self.sparse_rows()):
                for c, v in row.items():
                    dense[c] = v
            self._expanded = out
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


def decode_columns(group, mat, row_blocks):
    """Inverse of identity-column encoding.

    ``mat`` has ``row_blocks * |G|`` rows; column ``c`` is read as the
    image of a free-module generator, giving the group-ring matrix
    whose expansion agrees with ``mat`` on identity-basis columns.
    """
    n = group.order
    if mat.rows != row_blocks * n:
        raise ValueError("row count is not a multiple of the group order")
    out = GroupRingMatrix.zero(group, row_blocks, mat.cols)
    for c in range(mat.cols):
        for b in range(row_blocks):
            coeffs = [mat.data[b * n + h][c] for h in range(n)]
            if any(coeffs):
                out.entries[b][c] = GroupRingElement(group, coeffs)
    return out
