"""Integral group rings of elementary abelian p-groups.

Group elements are exponent vectors of length r with entries mod p,
ordered lexicographically; the element with exponents (e_1, ..., e_r)
sits at index e_1*p^(r-1) + ... + e_r.  A ring element keeps only its
terms, the (index, coefficient) pairs with nonzero coefficient, indices
ascending.  Products work on indices: the product of the elements at
i and j sits at the digitwise sum mod p of i and j in base p (for p = 2,
i XOR j), so no ring product allocates |G| entries.

A ``GroupRingMatrix`` keeps only its nonzero entries, one
``{col: element}`` dict per row, so products, duals and expansions cost
O(nnz).  ``left_regular`` reads a ring element's left-regular action on
ZG off the group's translation rows h -> g h, one per term g.
``GroupRingMatrix.sparse_rows`` writes it into the sparse rows of an
integer matrix, one |G| x |G| block per entry; ``expand`` transposes
those into the one column form of a ring matrix, an ``IntMatrix``
cached on the matrix whose columns callers share and only read.  A
scalar acts on ZG^k as k copies of one |G| block, which is how ``tate``
reads the action of its free coefficients.  The identity-basis columns
of the expansion carry the ring data, and ``decode_columns`` reads them
back: it turns integer vectors, such as cycles, into the group-ring
columns that map free generators onto them.  ``act_rows`` applies a group
generator to ZG^k as a permutation of rows.
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


# Entries of the largest block one ring element expands to: a dense
# element, such as the full norm d_0, expands to |G| x |G| entries, and
# its translation rows, cached on the group, hold as many.  2^22 admits
# (Z/2)^11, (Z/3)^6 and (Z/5)^4.
TABLE_BUDGET = 1 << 22


def _digit_sum(p, i, j):
    """Index of the product of the elements at i and j: their base-p
    digits added mod p."""
    k, w = 0, 1
    while i or j:
        i, a = divmod(i, p)
        j, b = divmod(j, p)
        k += (a + b) % p * w
        w *= p
    return k


class ElementaryAbelianGroup:
    """The group (Z/p)^r with its fixed element order.

    Expanding a dense ring element, such as the full norm d_0, writes
    a |G| x |G| block, so a group whose |G|^2 exceeds ``TABLE_BUDGET``
    raises ResourceLimit before anything is allocated, unless
    ``allow_large`` is set.  The budget is applied before p is tested
    for primality, so a huge p or r is refused at once.  With
    ``allow_large`` a huge p is still tested by trial division.
    """

    def __init__(self, p, r, allow_large=False):
        if r < 1:
            raise ValueError(f"r must be positive, got {r}")
        # p^(2r) >= 2^(2r (b - 1)) for a b-bit p >= 2, so a huge p or r is
        # refused without forming the power.
        if not allow_large and p >= 2 and (
            2 * r * (p.bit_length() - 1) >= TABLE_BUDGET.bit_length()
            or p ** (2 * r) > TABLE_BUDGET
        ):
            if 2 * r * p.bit_length() <= 256:
                order, square = p**r, p ** (2 * r)
            else:
                order, square = f"{p}^{r}", f"{p}^{2 * r}"
            raise ResourceLimit(
                f"(Z/{p})^{r}: |G| = {order}, so a dense ring element such as "
                f"the full norm expands to {square} entries, over the budget "
                f"of {TABLE_BUDGET}; allow_large=True (--allow-large) lifts it"
            )
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        self.p = p
        self.r = r
        self.order = p**r
        self._translations = {}

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

    def _translation(self, g):
        """The indices of g h for h = 0, ..., |G| - 1; cached per g."""
        row = self._translations.get(g)
        if row is None:
            p = self.p
            row = [0]
            for d in self.exponents(g):
                digits = [(d + e) % p for e in range(p)]
                row = [x * p + e for x in row for e in digits]
            self._translations[g] = row
        return row

    def identity(self):
        return GroupRingElement(self, {0: 1})

    def zero(self):
        return GroupRingElement(self, {})

    def generator(self, i):
        """The i-th coordinate generator, i counted from 1."""
        if not 1 <= i <= self.r:
            raise ValueError(f"generator index {i} out of range 1..{self.r}")
        return GroupRingElement(self, {self.p ** (self.r - i): 1})

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
    """An element of Z[G], built from a ``{index: coeff}`` mapping.

    ``terms`` is the tuple of its (index, coeff) pairs with nonzero
    coeff, indices ascending; an index outside 0..|G|-1 is rejected.
    """

    __slots__ = ("group", "terms")

    def __init__(self, group, terms):
        terms = tuple(sorted((i, v) for i, v in terms.items() if v))
        if terms and not (terms[0][0] >= 0 and terms[-1][0] < group.order):
            raise ValueError(f"group element index outside 0..{group.order - 1}")
        self.group = group
        self.terms = terms

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for i, b in other.terms:
            out[i] = out.get(i, 0) + b
        return GroupRingElement(self.group, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return GroupRingElement(self.group, {i: -a for i, a in self.terms})

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupRingElement(self.group, {i: other * a for i, a in self.terms})
        self._check(other)
        p = self.group.p
        out = {}
        for i, a in self.terms:
            for j, b in other.terms:
                k = _digit_sum(p, i, j)
                out[k] = out.get(k, 0) + a * b
        return GroupRingElement(self.group, out)

    __rmul__ = __mul__

    def antipode(self):
        """The ring automorphism sending each group element to its inverse."""
        g = self.group
        return GroupRingElement(
            g, {g.index_of([-e for e in g.exponents(i)]): a for i, a in self.terms}
        )

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.group != other.group:
            raise ValueError("elements live over different groups")

    def __eq__(self, other):
        return (
            isinstance(other, GroupRingElement)
            and self.group == other.group
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.group.p, self.group.r, self.terms))

    def __repr__(self):
        return f"GroupRingElement({self.group!r}, {dict(self.terms)!r})"


def antipode(a):
    return a.antipode()


def norm_element(group, generator_index):
    """1 + g + ... + g^(p-1) for the given coordinate generator (1-based)."""
    if not 1 <= generator_index <= group.r:
        raise ValueError(
            f"generator index {generator_index} out of range 1..{group.r}"
        )
    step = group.p ** (group.r - generator_index)
    return GroupRingElement(group, {k * step: 1 for k in range(group.p)})


def full_norm(group):
    """The sum of all group elements."""
    return GroupRingElement(group, dict.fromkeys(range(group.order), 1))


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
            if e.group is not self.group and e.group != self.group:
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
        # product a * b is formed once, keyed on the terms, and summed
        # into one {index: coeff} dict per output entry.
        products = {}
        rows = []
        for a_row in self.entries:
            out = {}
            for k, a in a_row.items():
                for j, b in other.entries[k].items():
                    key = a.terms, b.terms
                    terms = products.get(key)
                    if terms is None:
                        terms = products[key] = (a * b).terms
                    acc = out.get(j)
                    if acc is None:
                        acc = out[j] = {}
                    for h, v in terms:
                        acc[h] = acc.get(h, 0) + v
            rows.append({j: GroupRingElement(self.group, acc) for j, acc in out.items()})
        return GroupRingMatrix(self.group, rows, self.rows, other.cols)

    def antipode_transpose(self):
        """Transpose with the antipode applied entrywise (the dual map).

        The antipode is formed once per distinct entry, keyed on its
        terms, and shared by every entry that holds it.
        """
        dual = {}
        cols = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.entries):
            for j, e in row.items():
                a = dual.get(e.terms)
                if a is None:
                    a = dual[e.terms] = e.antipode()
                cols[j][i] = a
        return GroupRingMatrix(self.group, cols, self.cols, self.rows)

    def is_zero(self):
        return not any(self.entries)

    def sparse_rows(self):
        """Fresh {col: value} rows of the left-regular expansion.

        Entry (i, j) becomes a |G| x |G| block; the coefficient of g
        sits at row g h of column h for every h, so each row holds its
        keys in ascending g.  Zero coefficients write nothing.
        """
        n = self.group.order
        rows = [{} for _ in range(self.rows * n)]
        for i, entry_row in enumerate(self.entries):
            block = rows[i * n : (i + 1) * n]
            for j, e in entry_row.items():
                base = j * n
                for row, v in left_regular(e):
                    for h, gh in enumerate(row, base):
                        block[gh][h] = v
        return rows

    def expand(self):
        """Integer matrix of the map on underlying Z-modules, cached on
        the matrix: the one column form of a ring matrix, the transpose
        of :meth:`sparse_rows`.  Its columns are shared, so callers only
        read them."""
        if self._expanded is None:
            rows = self.sparse_rows()
            cols = [{} for _ in range(self.cols * self.group.order)]
            for i, row in enumerate(rows):
                rows[i] = None  # freed as it is read
                for c, v in row.items():
                    cols[c][i] = v
            self._expanded = IntMatrix.from_sparse(cols, len(rows))
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


def left_regular(element):
    """The left-regular action of ``element`` on ZG, one ``(row, coeff)``
    pair per term g: ``row`` is the group's cached translation row
    h -> g h, so column h of the action holds ``coeff`` at ``row[h]``.
    The rows are shared, so callers only read them."""
    translation = element.group._translation
    return [(translation(g), v) for g, v in element.terms]


def decode_columns(group, mat, row_blocks):
    """The group-ring matrix whose expansion agrees with ``mat`` on
    identity-basis columns.

    ``mat`` has ``row_blocks * |G|`` rows; column ``c`` is read as the
    image of a free-module generator.
    """
    n = group.order
    if mat.rows != row_blocks * n:
        raise ValueError("row count is not a multiple of the group order")
    rows = [{} for _ in range(row_blocks)]
    for c, col in enumerate(mat.columns):
        for i, v in col.items():
            b, h = divmod(i, n)
            (rows[b].get(c) or rows[b].setdefault(c, {}))[h] = v
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
    shift = group._translation(group.p ** (group.r - i))
    cols = [
        {k - k % n + shift[k % n]: v for k, v in col.items()} for col in mat.columns
    ]
    return IntMatrix.from_sparse(cols, mat.rows)
