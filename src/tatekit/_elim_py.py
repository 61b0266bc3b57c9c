"""Exact integer elimination kernels (sparse Hermite and Smith reduction).

Both kernels work on lists of ``{column: value}`` dicts with Python
ints throughout, so coefficient growth is handled by arbitrary
precision rather than ever overflowing.  They consume their input rows.

``smith_diagonal`` spends nearly all its time on +-1 pivots.  It
first peels: a +-1 that is, or becomes, the only live entry of its row
is a pivot whose column clears with no fill and no row operation on
what is left, the free-face collapse of reduction pairs
(Kaczynski, Mrozek & Slusarek 1998; Mrozek & Batko, "Coreduction
homology algorithm", Discrete Comput. Geom. 41, 2009).  Once a chain
has cancelled the previous map's unit pivots, most maps are nearly all
such collapses.  The unit phase that follows takes the pivots, not the
entries: it queues rows, each at most once, and in each popped row
pivots on the +-1 entry whose column has the fewest live rows, a local
Markowitz choice that costs one pass over the row.  When no +-1 is
left, it queues every live row again and divides out the content, the
gcd of the live entries, before its general phase, whose row updates
are ``hermite``'s, since Smith(gA) = g Smith(A) (Dumas, Saunders &
Villard, J. Symbolic Comput. 32, 2001): a Tate coboundary with trivial
coefficients has entries 0 and +-p only, and divided by p it is all
unit pivots, which still cancel columns of the next map of a chain.
"""

from collections import defaultdict, deque
from math import gcd


def _negate_row(row):
    for k in row:
        row[k] = -row[k]


def hermite(rows, ncols):
    """Row-reduce ``rows`` to echelon form over the first ``ncols`` columns.

    Columns ``>= ncols`` are carried along unreduced, which lets callers
    augment with an identity block to read off kernel coordinates.

    Returns ``(pivots, free_rows)`` where ``pivots`` is a list of
    ``(col, row_dict)`` with strictly increasing pivot columns, positive
    pivot entries and no support before the pivot column, and
    ``free_rows`` lists the surviving rows with no support below
    ``ncols``.  Input dicts are mutated and absorbed into the result.
    """
    col_rows = {}
    for i, row in enumerate(rows):
        for c in row:
            if c < ncols:
                col_rows.setdefault(c, set()).add(i)

    active = set(range(len(rows)))
    pivots = []
    for c in sorted(col_rows):
        live = col_rows[c]
        while len(live) > 1:
            r0 = min(live, key=lambda r: (abs(rows[r][c]), r))
            if rows[r0][c] < 0:
                _negate_row(rows[r0])
            v0 = rows[r0][c]
            for r in sorted(live - {r0}):
                q = rows[r][c] // v0
                if q:
                    _axpy(rows, col_rows, r, r0, -q, ncols)
        if not live:
            continue
        (r0,) = live
        if rows[r0][c] < 0:
            _negate_row(rows[r0])
        for k in rows[r0]:
            if k < ncols:
                col_rows[k].discard(r0)
        active.discard(r0)
        pivots.append((c, rows[r0]))

    free_rows = [rows[i] for i in sorted(active)]
    return pivots, free_rows


def _axpy(rows, col_rows, r, src, coef, ncols):
    """rows[r] += coef * rows[src], maintaining the column index."""
    target = rows[r]
    for k, v in rows[src].items():
        new = target.get(k, 0) + coef * v
        if new:
            if k not in target and k < ncols:
                col_rows.setdefault(k, set()).add(r)
            target[k] = new
        elif k in target:
            del target[k]
            if k < ncols:
                col_rows[k].discard(r)


def _peel(rows):
    """The peel phase of :func:`smith_diagonal`: pivot on every +-1 that
    is, or becomes, the only live entry of its row, and return the rows
    so peeled, in pivot order.

    Such a pivot's column is cleared by adding multiples of its row,
    which is zero off the pivot in the live columns, so the column just
    dies: each row keeps the count of its live entries and the sum of
    their columns, which names the last one when the count reaches 1.
    At the end the peeled rows are emptied and the others lose their
    dead columns, once.
    """
    # Rows whose one entry is +-1; the first map of a chain often has none.
    stack = [i for i, row in enumerate(rows) if len(row) == 1 and abs(sum(row.values())) == 1]
    if not stack:
        return []
    count = [len(row) for row in rows]
    colsum = [sum(row) for row in rows]
    col_rows = defaultdict(list)
    for i, row in enumerate(rows):
        for c in row:
            col_rows[c].append(i)
    peeled = []
    while stack:
        i = stack.pop()
        if count[i] != 1:
            continue  # its last live column was peeled meanwhile
        c = colsum[i]
        count[i] = 0
        peeled.append(i)
        for r in col_rows.pop(c):
            n = count[r] - 1
            if n < 0:
                continue  # r is i
            count[r] = n
            colsum[r] -= c
            if n == 1 and rows[r][colsum[r]] in (1, -1):
                stack.append(r)
    for i, row in enumerate(rows):
        if count[i] != len(row):
            rows[i] = {k: v for k, v in row.items() if k in col_rows} if count[i] else {}
    return peeled


def smith_diagonal(rows, ncols, unit_rows=None):
    """Elementary divisors of a sparse integer matrix.

    Returns the full positive diagonal of the Smith normal form without
    computing transforms: ones first, then the nontrivial divisors, each
    dividing the next.  The length of the result is the rank.  Input
    rows are consumed.

    The peel phase (:func:`_peel`) comes first: it pivots on each +-1
    that is, or becomes, the only live entry of its row, which clears
    its column with no fill, and leaves the other rows without the
    peeled columns.  The unit phase then pivots on the +-1 entries of
    what is left.  It queues rows, not entries, each at most once, the
    shortest rows first; a row is queued again only when a row
    operation gives it a new +-1 entry.  In a popped live row it pivots
    on the +-1 entry whose column has the fewest live rows (a local
    Markowitz choice, no heap), then clears that column.  When no live
    row has a +-1 entry, the live rows form a direct summand, and they
    are all queued again, in index order.  If the gcd g of their
    entries (read until it is 1) exceeds 1, they are divided by g, a
    running scale is multiplied by g, and the unit phase resumes on
    them; every later pivot v is recorded as scale * v.  Otherwise the
    general phase pivots on the smallest remaining entry, updating rows
    by ``hermite``'s ``_axpy``, and the unit phase resumes.

    If ``unit_rows`` is a list, the row index of every +-1 pivot taken
    before the first general (non-unit) pivot is appended to it, in
    pivot order, the peeled rows first.  A content division scales all
    live rows by the same g, so a later "row r += c row y" on divided
    rows is that same integer operation on the undivided ones, and a
    pivot that is +-1 after divisions by g_1, g_2, ... is the nonzero
    +-g_1 g_2 ... of the undivided rows.  So until the general phase
    every row operation, on the undivided rows, adds a multiple of one
    of these rows, and each of their pivot columns is left nonzero at
    its own row and elsewhere only at rows pivoted before it: a retired
    row keeps its entries in the columns still live.  For a peeled row
    those row operations are implied, not made: they would only zero
    its column, since the earlier peels leave the row zero off its
    pivot.  ``exactlin.chain_diagonals``, the only caller that asks for
    them, relies on both to shrink the next map of a chain.  The
    general phase combines rows with rows that are not pivots, so it
    stops the recording.
    """
    peeled = _peel(rows)
    if unit_rows is not None:
        unit_rows += peeled
    nrows = len(rows)
    col_rows = {}
    for i, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(i)

    row_alive = [True] * nrows
    queue = deque(sorted((i for i in range(nrows) if rows[i]), key=lambda i: len(rows[i])))
    queued = [False] * nrows
    for i in queue:
        queued[i] = True

    def retire(i):
        for k in rows[i]:
            col_rows[k].discard(i)
        row_alive[i] = False

    ones = len(peeled)  # unit pivots at the current scale
    tail = []
    scale = 1
    while True:
        # Unit phase: a +-1 pivot clears its column without fill in its
        # own row.
        while queue:
            i = queue.popleft()
            queued[i] = False
            if not row_alive[i]:
                continue
            row = rows[i]
            c, fewest = None, nrows + 1
            for k, v in row.items():
                if v == 1 or v == -1:
                    n = len(col_rows[k])
                    if n < fewest:
                        c, fewest = k, n
            if c is None:
                continue
            retire(i)
            ones += 1
            if unit_rows is not None:
                unit_rows.append(i)
            others = col_rows.pop(c)
            if not others:
                continue
            # rows[r] -= rows[r][c] * v * rows[i] for every other row r
            # of column c; with the pivot row scaled by v = +-1, the
            # multiplier is -rows[r][c], and column c itself just drops.
            v = row[c]
            pivot = [(k, w * v) for k, w in row.items() if k != c]
            for r in others:
                target = rows[r]
                a = -target.pop(c)
                for k, w in pivot:
                    old = target.get(k)
                    if old is None:
                        new = a * w
                        col_rows[k].add(r)
                    else:
                        new = old + a * w
                        if not new:
                            del target[k]
                            col_rows[k].discard(r)
                            continue
                    target[k] = new
                    if (new == 1 or new == -1) and not queued[r]:
                        queued[r] = True
                        queue.append(r)

        # General phase: smallest remaining entry becomes the pivot.
        best = None
        for i in range(nrows):
            if not row_alive[i]:
                continue
            for c, v in rows[i].items():
                key = (abs(v), i, c)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        g, i, c = best
        # The unit phase resumes on every live row, in index order, after
        # a content division or a general pivot.
        live = [r for r in range(nrows) if row_alive[r] and rows[r]]
        for r in live:
            queued[r] = True
        queue.extend(live)
        for r in live:
            if g == 1:
                break
            g = gcd(g, *rows[r].values())
        if g > 1:
            # Smith(gA) = g Smith(A): divide the content out of the live
            # rows, which form a direct summand, and resume the unit phase.
            tail += [scale] * ones
            ones = 0
            scale *= g
            for r in live:
                row = rows[r]
                for k in row:
                    row[k] //= g
            continue
        # From here on rows are combined with non-unit pivot rows, so
        # later unit pivots are not recorded.
        unit_rows = None

        while True:
            live = col_rows[c]
            while len(live) > 1:
                r0 = min(live, key=lambda r: (abs(rows[r][c]), r))
                if rows[r0][c] < 0:
                    _negate_row(rows[r0])
                v0 = rows[r0][c]
                for r in sorted(live - {r0}):
                    q = rows[r][c] // v0
                    if q:
                        _axpy(rows, col_rows, r, r0, -q, ncols)
            (i,) = live
            if rows[i][c] < 0:
                _negate_row(rows[i])
            v = rows[i][c]

            # The pivot column is clean, so clearing the pivot row by
            # column operations touches no other row.
            remainder_cols = []
            for k in list(rows[i]):
                if k == c:
                    continue
                w = rows[i][k] % v
                if w:
                    rows[i][k] = w
                    remainder_cols.append(k)
                else:
                    del rows[i][k]
                    col_rows[k].discard(i)
            if remainder_cols:
                c = min(remainder_cols, key=lambda k: (rows[i][k], k))
                continue

            # Pivot isolated; make it divide everything that remains.
            violator = None
            for r in range(nrows):
                if r == i or not row_alive[r]:
                    continue
                for w in rows[r].values():
                    if w % v:
                        violator = r
                        break
                if violator is not None:
                    break
            if violator is None:
                tail.append(scale * v)
                retire(i)
                break
            _axpy(rows, col_rows, i, violator, 1, ncols)

    # Each recorded pivot divides every later one, so sorting puts the
    # units of each scale in their place in the chain.
    return sorted(tail + [scale] * ones)
