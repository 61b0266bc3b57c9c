"""Independent reference implementations used to cross-check the package.

Everything here is written against dense row-lists with deliberately
different algorithms from the library code: Smith form by recursive
corner reduction, or over Z/p^e by least-valuation pivots where the
invariant factors are known to divide p^(e-1), rank over the rationals
via Fraction Gaussian elimination, and homology read off those
primitives.  The one
exception is the tensor oracle: ``tensor_complex`` is the generic
tensor product of free complexes, with a block layout and Koszul
signs, and ``oracle_product_complex`` folds it over hand-written lens
complexes.  The library builds products from the closed form of the
complete resolution instead, so each checks the other.

``DenseIntMatrix`` and the ``dense_*`` functions are the library's
integer matrices and lattice solvers as they were before matrices kept
sparse columns: dense row lists, with the same elimination kernels.
``oracle_random_free_complex`` is ``random_free_complex`` written on
them.  The sparse code is checked against them.  ``encode_columns``
writes the identity-basis columns that ``groupring.decode_columns``
reads back.  ``oracle_total_maps`` builds the maps of a hyper table
from whole expansions, as ``tate`` did before it read each ring
element's action off one |G| block.  ``greedy_generators`` is the
cover ``resolve`` took before its covers were minimal, and
``oracle_generator_count`` the minimal number, d(M), by a dense rank
over F_p.  ``oracle_homology_data`` presents a homology module as
``modpres`` did before it read cycle coordinates off unit rows, by one
``solve_preimage`` in the cycle basis.  Slow and simple on purpose.
"""

import random
from fractions import Fraction

from tatekit import _elim_py
from tatekit.errors import NoSolution, SublatticeViolation
from tatekit.exactlin import (
    IntMatrix,
    homology_invariants,
    kernel_basis,
    lattice_basis,
    solve_in_lattice,
    solve_preimage,
)
from tatekit.groupring import (
    ElementaryAbelianGroup,
    GroupRingElement,
    GroupRingMatrix,
    act_rows,
    norm_element,
)
from tatekit.modpres import FreeChainComplex


class DenseIntMatrix:
    """A dense integer matrix: the package's ``IntMatrix`` before it
    kept sparse columns, kept as the reference that the sparse one is
    checked against.

    >>> a = DenseIntMatrix([[1, 2], [3, 4]])
    >>> a.mul(DenseIntMatrix.identity(2)) == a
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
        out = DenseIntMatrix.zeros(self.rows, other.cols)
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
        return DenseIntMatrix(
            [
                [self.data[i][j] + other.data[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, c):
        return DenseIntMatrix([[c * v for v in row] for row in self.data], self.rows, self.cols)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return DenseIntMatrix(
            [self.data[i] + other.data[i] for i in range(self.rows)],
            self.rows,
            self.cols + other.cols,
        )

    def submatrix(self, row_range, col_range):
        return DenseIntMatrix(
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
            isinstance(other, DenseIntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(map(tuple, self.data))))

    def __repr__(self):
        return f"DenseIntMatrix({self.data!r})"


def dense_smith_diagonal(a):
    """Positive diagonal of the Smith form (ones included; length = rank)."""
    return _elim_py.smith_diagonal(a.sparse_rows(), a.cols)


def dense_augmented_hermite(a):
    """Hermite of the columns of ``a``, column ``j`` tagged with 1 at
    ``a.rows + j``, so each reduced row carries its coordinates in the
    columns of ``a``."""
    rows = a.sparse_columns()
    for j, row in enumerate(rows):
        row[a.rows + j] = 1
    return _elim_py.hermite(rows, a.rows)


def dense_solve_preimage(a, b):
    """Some integer solution ``x`` of ``a * x == b``, or NoSolution.

    ``b`` may have several columns; they are solved together and
    NoSolution names the first that fails.  When the system is
    underdetermined any valid solution may be returned.
    """
    if a.rows != b.rows:
        raise ValueError("shape mismatch between matrix and right-hand side")
    pivots, _ = dense_augmented_hermite(a)
    rows = [row for _, row in pivots]
    basis = DenseIntMatrix.from_columns(
        [[row.get(i, 0) for i in range(a.rows)] for row in rows], a.rows
    )
    transform = DenseIntMatrix.from_columns(
        [[row.get(a.rows + j, 0) for j in range(a.cols)] for row in rows], a.cols
    )
    return transform.mul(dense_solve_in_lattice(basis, b))


def dense_kernel_basis(a):
    """Basis of the integer kernel lattice of ``a``, as matrix columns."""
    _, free = dense_augmented_hermite(a)
    columns = [[row.get(a.rows + j, 0) for j in range(a.cols)] for row in free]
    return DenseIntMatrix.from_columns(columns, a.cols)


def dense_lattice_basis(a):
    """Echelon basis of the lattice spanned by the columns of ``a``.

    Column ``j`` of the result has its first nonzero entry positive and
    strictly below the first nonzero entry of column ``j - 1``, which is
    what :func:`dense_solve_in_lattice` relies on.
    """
    pivots, _ = _elim_py.hermite(a.sparse_columns(), a.rows)
    columns = []
    for _, row in pivots:
        columns.append([row.get(i, 0) for i in range(a.rows)])
    return DenseIntMatrix.from_columns(columns, a.rows)


def dense_solve_in_lattice(basis, targets):
    """Coordinates of ``targets`` columns in an echelon ``basis``.

    Raises NoSolution naming the first failing column.  ``basis`` must
    come from :func:`dense_lattice_basis` (leading entries strictly
    descending by column).
    """
    supports = []
    leads = []
    for j in range(basis.cols):
        sup = [(i, basis.data[i][j]) for i in range(basis.rows) if basis.data[i][j]]
        supports.append(sup)
        leads.append(sup[0][0])
    out = DenseIntMatrix.zeros(basis.cols, targets.cols)
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


def dense_quotient_invariants(k, l):
    """Invariants of span(k) / span(l) for integer column spans.

    The columns of ``l`` must lie in the lattice spanned by the columns
    of ``k``; otherwise SublatticeViolation names the first offender.
    Both arguments may be spanning sets rather than bases.
    """
    if k.rows != l.rows:
        raise ValueError("ambient rank mismatch between the two spans")
    basis = dense_lattice_basis(k)
    try:
        coords = dense_solve_in_lattice(basis, l)
    except NoSolution as exc:
        raise SublatticeViolation(str(exc), column=exc.column) from exc
    return homology_invariants(basis.cols, dense_smith_diagonal(coords), ())


def dense_cokernel_invariants(a):
    """Invariants of Z^rows / column-span(a)."""
    return homology_invariants(a.rows, dense_smith_diagonal(a), ())


def oracle_smith_diagonal(mat):
    """Nontrivial-prefixed full Smith diagonal by recursive corner reduction."""
    a = [list(row) for row in mat]
    diag = []
    while a and a[0]:
        if all(v == 0 for row in a for v in row):
            break
        # move a smallest nonzero entry to the corner
        bi, bj = min(
            ((i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v),
            key=lambda t: abs(a[t[0]][t[1]]),
        )
        a[0], a[bi] = a[bi], a[0]
        for row in a:
            row[0], row[bj] = row[bj], row[0]
        # euclid down the first row and column until both are clean
        while True:
            changed = False
            for i in range(1, len(a)):
                if a[i][0]:
                    q = a[i][0] // a[0][0]
                    a[i] = [x - q * y for x, y in zip(a[i], a[0])]
                    if a[i][0]:
                        a[0], a[i] = a[i], a[0]
                        changed = True
            for j in range(1, len(a[0])):
                if a[0][j]:
                    q = a[0][j] // a[0][0]
                    for row in a:
                        row[j] -= q * row[0]
                    if a[0][j]:
                        for row in a:
                            row[0], row[j] = row[j], row[0]
                        changed = True
            if not changed:
                break
        # absorb any entry the corner does not divide, then redo
        piv = a[0][0]
        bad = None
        for i in range(1, len(a)):
            for j in range(1, len(a[0])):
                if a[i][j] % piv:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            a[0] = [x + y for x, y in zip(a[0], a[bad])]
            continue
        diag.append(abs(piv))
        a = [row[1:] for row in a[1:]]
    return diag


def oracle_local_smith_diagonal(rows, ncols, p, e):
    """Smith diagonal of the sparse map ``(rows, ncols)`` over Z/p^e, by
    dense elimination that pivots on an entry of least p-valuation.

    That entry divides every other one in Z/p^e, so clearing its row and
    column records it and leaves a smaller matrix.  The result is the
    integer Smith diagonal whenever every invariant factor divides
    p^(e-1), so that none vanishes mod p^e: the maps of a Tate table
    over (Z/p)^r at e = r + 1, since |G| = p^r kills Tate cohomology.
    Entries stay below p^e, so it does not stall on maps where
    ``oracle_smith_diagonal`` grows its entries.
    """
    q = p**e
    a = [[row.get(k, 0) % q for k in range(ncols)] for row in rows]
    a = [r for r in a if any(r)]
    diag = []
    while a:
        # every entry is nonzero mod p^e somewhere, so some v < e has one
        # of valuation v, the least
        for v in range(e):
            step = p ** (v + 1)
            i, j = next(
                ((i, j) for i, r in enumerate(a) for j, x in enumerate(r) if x % step),
                (None, None),
            )
            if i is not None:
                break
        pivot = a.pop(i)
        scale = pow(pivot[j] // p**v, -1, q)
        for r in a:
            if r[j]:
                f = r[j] // p**v * scale % q
                r[:] = [(x - f * y) % q for x, y in zip(r, pivot)]
        a = [r for r in a if any(r)]
        diag.append(p**v)
    return sorted(diag)


def oracle_rank(mat):
    """Rank over Q by plain Gaussian elimination on Fractions."""
    a = [[Fraction(v) for v in row] for row in mat]
    rank = 0
    cols = len(a[0]) if a else 0
    row = 0
    for col in range(cols):
        piv = None
        for i in range(row, len(a)):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        for i in range(row + 1, len(a)):
            if a[i][col]:
                f = a[i][col] / a[row][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[row])]
        row += 1
        rank += 1
    return rank


def oracle_rank_mod_p(columns, nrows, p):
    """Rank over F_p of sparse ``{row: value}`` columns, by dense
    Gaussian elimination on rows, pivots taken left to right."""
    a = [[col.get(i, 0) % p for col in columns] for i in range(nrows)]
    rank = 0
    for col in range(len(columns)):
        piv = next((i for i in range(rank, nrows) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        for i in range(rank + 1, nrows):
            if a[i][col]:
                f = a[i][col] * inv
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


def oracle_generator_count(module):
    """d(M) = dim_Fp M/(pM + IM), the number of generators a minimal
    cover of M by free ZG-modules needs (Nakayama): ``gens`` less the
    F_p rank of the relations and the columns of A_i - I."""
    k = module.gens
    columns = list(module.relations.columns)
    for a in module.actions:
        for c in range(k):
            col = dict(a.columns[c])
            col[c] = col.get(c, 0) - 1
            columns.append(col)
    return k - oracle_rank_mod_p(columns, k, module.group.p)


def greedy_generators(module):
    """The generators a walk in index order keeps: e_c is skipped when it
    lies in the Z-span of the relations and of the G-orbits of the
    generators kept before it.  They generate the module over ZG, but
    their number need not be minimal.  The reference for
    ``resolve.resolution_step``, whose cover it once was."""
    k = module.gens
    chosen = []
    span = module.relation_basis()
    for c in range(k):
        if span.cols:
            try:
                solve_in_lattice(span, IntMatrix.from_sparse([{c: 1}], k))
                continue
            except NoSolution:
                pass
        orbit = [module.act_element(h).columns[c] for h in range(module.group.order)]
        chosen.append(c)
        span = lattice_basis(span.hstack(IntMatrix.from_sparse(orbit, k)))
    return chosen


def oracle_cokernel(mat, nrows):
    """Invariants (torsion list, free rank) of Z^nrows / column span."""
    diag = oracle_smith_diagonal(mat) if mat and mat[0] else []
    torsion = [d for d in diag if d > 1]
    return torsion, nrows - len(diag)


def oracle_expand(ring_matrix):
    """Integer block expansion of a group-ring matrix, done from scratch.

    Column (c, h) is the image of h times basis vector c, written in the
    basis (b, g): the entry of d[b][c] at group index g * h^-1.
    """
    group = ring_matrix.group
    n = group.order
    rows = ring_matrix.rows * n
    out = [[0] * (ring_matrix.cols * n) for _ in range(rows)]
    for b in range(ring_matrix.rows):
        for c, entry in ring_matrix.entries[b].items():
            for k, v in entry.terms:
                k_exp = group.exponents(k)
                for h in range(n):
                    # product index of k and h
                    h_exp = group.exponents(h)
                    prod = [
                        (x + y) % group.p for x, y in zip(k_exp, h_exp)
                    ]
                    out[b * n + group.index_of(prod)][c * n + h] += v
    return out


def oracle_total_maps(window, complex_, lo, hi, blocks):
    """Reference for ``tate._total_maps`` over a free complex C, built
    from whole expansions: each delta^n : Tot^n -> Tot^(n+1), n in
    [lo - 1, hi - 1], as the sparse rows (keys ascending) and the
    source dimension, with a ring entry x of F's differentials acting
    on C_j by ``GroupRingMatrix.scalar(group, rank C_j, x).expand()``
    and d_j by ``complex_.expanded(j)``.  ``blocks`` maps degrees j to
    C's unit pairs (r, t): the rows at the copies of each T_j are left
    empty, and delta^(lo-1) drops its columns at the copies of each
    R_j.  Every entry is collected first and written in sorted order."""
    group = complex_.group
    dim = {j: complex_.rank(j) * group.order for j in complex_.degrees()}
    lost = {j: {t for _, t in pairs} for j, pairs in blocks.items()}
    first = {j - 1: {r for r, _ in pairs} for j, pairs in blocks.items()}

    def offsets(n):
        out, off = {}, 0
        for j in dim:
            out[j] = off
            off += window.rank(n + j) * dim[j]
        return out, off

    for n in range(lo - 1, hi):
        (src, ncols), (dst, nrows) = offsets(n), offsets(n + 1)
        sign = -1 if n % 2 == 0 else 1
        entries = {}
        for j in dim:
            df = window.differential(n + j + 1)
            for b, row in enumerate(df.entries if df is not None else []):
                for f2, x in row.items():
                    act = GroupRingMatrix.scalar(group, complex_.rank(j), x).expand()
                    for t, col in enumerate(act.columns):
                        for i, v in col.items():
                            entries[dst[j] + f2 * dim[j] + i, src[j] + b * dim[j] + t] = sign * v
            if j - 1 in dim:
                d = complex_.expanded(j)
                for b in range(window.rank(n + j)):
                    for t, col in enumerate(d.columns):
                        for r, v in col.items():
                            entries[dst[j - 1] + b * dim[j - 1] + r, src[j] + b * dim[j] + t] = v
        empty = {
            dst[j] + b * dim[j] + t
            for j, ts in lost.items()
            for b in range(window.rank(n + 1 + j))
            for t in ts
        }
        dropped = set()
        if n == lo - 1:
            dropped = {
                src[j] + b * dim[j] + r
                for j, rs in first.items()
                for b in range(window.rank(n + j))
                for r in rs
            }
        rows = [{} for _ in range(nrows)]
        for (i, k), v in sorted(entries.items()):
            if i not in empty and k not in dropped:
                rows[i][k] = v
        yield rows, ncols


def encode_columns(ring_matrix):
    """Identity-basis columns of the expansion of a group-ring matrix:
    column c of the result stacks the coefficients of column c.  The
    round-trip reference for ``groupring.decode_columns``."""
    n = ring_matrix.group.order
    cols = [{} for _ in range(ring_matrix.cols)]
    for b, row in enumerate(ring_matrix.entries):
        for c, e in row.items():
            col = cols[c]
            for h, v in e.terms:
                col[b * n + h] = v
    return IntMatrix.from_sparse(cols, ring_matrix.rows * n)


def oracle_antipode_transpose(ring_matrix):
    """The dual map of a group-ring matrix, entry by entry from scratch:
    entry (c, b) is entry (b, c) with every group element inverted."""
    group = ring_matrix.group
    cols = [{} for _ in range(ring_matrix.cols)]
    for b, row in enumerate(ring_matrix.entries):
        for c, entry in row.items():
            inverted = {
                group.index_of([-e for e in group.exponents(k)]): v for k, v in entry.terms
            }
            cols[c][b] = GroupRingElement(group, inverted)
    return GroupRingMatrix(group, cols, ring_matrix.cols, ring_matrix.rows)


def oracle_homology(complex_, i):
    """Invariants of H_i for a free complex: (torsion list, free rank)."""
    n = complex_.group.order
    dim = complex_.rank(i) * n

    def dense(idx):
        d = complex_.differential(idx)
        if d is None:
            return None
        return oracle_expand(d)

    d_in = dense(i)
    d_out = dense(i + 1)
    rank_in = oracle_rank(d_in) if d_in else 0
    rank_out = oracle_rank(d_out) if d_out else 0
    free = dim - rank_in - rank_out
    torsion = (
        [d for d in oracle_smith_diagonal(d_out) if d > 1] if d_out else []
    )
    return torsion, free


def oracle_homology_data(complex_, n):
    """The cycle basis at degree ``n`` and the generator count,
    relations and actions of H_n, each column solved for in the cycle
    basis by ``solve_preimage``."""
    group = complex_.group
    if complex_.rank(n) == 0:
        return IntMatrix.zeros(0, 0), 0, IntMatrix.zeros(0, 0), [IntMatrix.zeros(0, 0)] * group.r
    cycles = kernel_basis(complex_.expanded(n))
    relations = lattice_basis(solve_preimage(cycles, complex_.expanded(n + 1)))
    actions = [solve_preimage(cycles, act_rows(group, i, cycles)) for i in range(1, group.r + 1)]
    return cycles, cycles.cols, relations, actions


def oracle_lens_complex(p, k):
    """Free Z/p complex on S^(2k-1): rank 1 in degrees 0..2k-1, with
    d_i = g - 1 for odd i and the norm for even i."""
    group = ElementaryAbelianGroup(p, 1)
    minus = group.generator(1) - group.identity()
    norm = norm_element(group, 1)
    top = 2 * k - 1
    ranks = {i: 1 for i in range(top + 1)}
    diffs = {
        i: GroupRingMatrix(group, [{0: minus if i % 2 else norm}], 1, 1)
        for i in range(1, top + 1)
    }
    return FreeChainComplex(group, ranks, diffs)


def oracle_product_complex(p, k_list):
    """The lens complexes of k_list tensored together from the left."""
    out = oracle_lens_complex(p, k_list[0])
    for k in k_list[1:]:
        out = tensor_complex(out, oracle_lens_complex(p, k))
    return out


def _tensor_elements(a, b, group):
    """a (x) b inside the group ring of the product group."""
    o2 = b.group.order
    return GroupRingElement(
        group, {i * o2 + j: x * y for i, x in a.terms for j, y in b.terms}
    )


def tensor_complex(c, d):
    """Tensor product over Z of two free complexes.

    The factors live over (Z/p)^r1 and (Z/p)^r2; the result lives over
    (Z/p)^(r1+r2), with the left factor's generators first.  The
    differential carries the sign (-1)^deg on the left factor.
    """
    if c.group.p != d.group.p:
        raise ValueError("tensor factors must share the prime")
    group = ElementaryAbelianGroup(c.group.p, c.group.r + d.group.r)
    ident_c = c.group.identity()
    ident_d = d.group.identity()

    layouts = {}

    def layout(n):
        got = layouts.get(n)
        if got is None:
            got = []
            offset = 0
            for i in sorted(c.ranks):
                j = n - i
                kd = d.rank(j)
                if kd:
                    got.append((i, j, offset))
                    offset += c.rank(i) * kd
            layouts[n] = got
        return got

    ranks = {}
    for n in range(c.lo + d.lo, c.hi + d.hi + 1):
        total = sum(c.rank(i) * d.rank(j) for i, j, _ in layout(n))
        if total:
            ranks[n] = total

    diffs = {}
    for n in sorted(ranks):
        if (n - 1) not in ranks:
            continue
        src, dst = layout(n), layout(n - 1)
        dst_off = {(i, j): off for i, j, off in dst}
        rows = [{} for _ in range(ranks[n - 1])]
        for i, j, off in src:
            kc, kd = c.rank(i), d.rank(j)
            dc = c.differential(i)
            if dc is not None and (i - 1, j) in dst_off:
                base = dst_off[(i - 1, j)]
                for u2, row in enumerate(dc.entries):
                    for u, e in row.items():
                        te = _tensor_elements(e, ident_d, group)
                        for v in range(kd):
                            rows[base + u2 * kd + v][off + u * kd + v] = te
            dd = d.differential(j)
            if dd is not None and (i, j - 1) in dst_off:
                base = dst_off[(i, j - 1)]
                sign = -1 if i % 2 else 1
                kd2 = dd.rows
                for v2, row in enumerate(dd.entries):
                    for v, e in row.items():
                        te = _tensor_elements(ident_c, e, group)
                        if sign < 0:
                            te = -te
                        for u in range(kc):
                            rows[base + u * kd2 + v2][off + u * kd + v] = te
        diffs[n] = GroupRingMatrix(group, rows, ranks[n - 1], ranks[n])

    return FreeChainComplex(group, ranks, diffs)


def oracle_random_free_complex(group, ranks, seed):
    """``gallery.random_free_complex`` on dense matrices: the same draws
    in the same order, so the same complex entry for entry."""
    ranks = list(ranks)
    rng = random.Random(f"{group.p}.{group.r}|{ranks}|{seed}")
    n = group.order
    rank_map = {i: k for i, k in enumerate(ranks)}
    diffs = {}
    prev = DenseIntMatrix.zeros(0, rank_map.get(0, 0) * n)
    for i in range(1, len(ranks)):
        ka = rank_map.get(i - 1, 0)
        kb = rank_map.get(i, 0)
        if ka == 0 or kb == 0:
            prev = DenseIntMatrix.zeros(ka * n, kb * n)
            continue
        lattice = dense_kernel_basis(prev)
        coefs = DenseIntMatrix.zeros(lattice.cols, kb)
        for a in range(lattice.cols):
            row = coefs.data[a]
            for b in range(kb):
                row[b] = rng.choice((-1, 0, 0, 1))
        cols = lattice.mul(coefs)
        rows = [{} for _ in range(ka)]
        for c in range(kb):
            col = cols.column(c)
            for b in range(ka):
                coeffs = col[b * n : (b + 1) * n]
                if any(coeffs):
                    rows[b][c] = GroupRingElement(group, dict(enumerate(coeffs)))
        d = GroupRingMatrix(group, rows, ka, kb)
        diffs[i] = d
        prev = DenseIntMatrix(oracle_expand(d), ka * n, kb * n)
    return FreeChainComplex(group, rank_map, diffs)
