"""Exact integer elimination kernels (sparse Hermite and Smith reduction).

Both kernels work on lists of ``{column: value}`` dicts with Python
ints throughout, so coefficient growth is handled by arbitrary
precision rather than ever overflowing.  They consume their input rows.

``smith_diagonal`` spends nearly all its time on +-1 pivots, so its
unit phase follows the pivots, not the entries: it queues rows, each
at most once, and in each popped row pivots on the +-1 entry whose
column has the fewest live rows, a local Markowitz choice that costs
one pass over the row.  Before its general phase it divides out the
content, the gcd of the live entries, since Smith(gA) = g Smith(A)
(Dumas, Saunders & Villard, J. Symbolic Comput. 32, 2001): a Tate
coboundary with trivial coefficients has entries 0 and +-p only, and
divided by p it is all unit pivots.
"""

from collections import deque
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


def smith_diagonal(rows, ncols, unit_rows=None):
    """Elementary divisors of a sparse integer matrix.

    Returns the full positive diagonal of the Smith normal form without
    computing transforms: ones first, then the nontrivial divisors, each
    dividing the next.  The length of the result is the rank.  Input
    rows are consumed.

    The unit phase pivots on +-1 entries.  It queues rows, not entries,
    each at most once, the shortest rows first; a row is queued again
    only when a row operation gives it a new +-1 entry.  In a popped
    live row it pivots on the +-1 entry whose column has the fewest
    live rows (a local Markowitz choice, no heap), then clears that
    column.  When no live row has a +-1 entry, the live rows form a
    direct summand.  If the gcd g of their entries (read until it is 1)
    exceeds 1, they are divided by g, a running scale is multiplied by
    g, and the unit phase resumes on them; every later pivot v is
    recorded as scale * v.  Otherwise the general phase pivots on the
    smallest remaining entry, and the unit phase resumes.

    If ``unit_rows`` is a list, the row index of every +-1 pivot taken
    before the first content division or general (non-unit) pivot is
    appended to it.  Until then every row operation adds a multiple of
    one of these rows, and each of their pivot columns is left +-1 at
    its row and 0 elsewhere; ``exactlin.chain_diagonals``, the only
    caller that asks for them, relies on both to shrink the next map of
    a chain.  A pivot that is +-1 only after a division is +-g in the
    input and is not reported.
    """
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

    def axpy(r, src, coef):
        target = rows[r]
        for k, v in rows[src].items():
            new = target.get(k, 0) + coef * v
            if new:
                if k not in target:
                    col_rows.setdefault(k, set()).add(r)
                target[k] = new
                if (new == 1 or new == -1) and not queued[r]:
                    queued[r] = True
                    queue.append(r)
            elif k in target:
                del target[k]
                col_rows[k].discard(r)

    def retire(i):
        for k in rows[i]:
            col_rows[k].discard(i)
        row_alive[i] = False

    ones = 0  # unit pivots at the current scale
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
        # From here on rows are combined with non-unit pivot rows, or
        # divided, so later unit pivots are not recorded.
        unit_rows = None
        g, i, c = best
        live = [r for r in range(nrows) if row_alive[r] and rows[r]]
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
                queued[r] = True
            queue.extend(live)
            continue

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
                        axpy(r, r0, -q)
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
            axpy(i, violator, 1)

    # Each recorded pivot divides every later one, so sorting puts the
    # units of each scale in their place in the chain.
    return sorted(tail + [scale] * ones)
