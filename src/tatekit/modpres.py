"""Finitely generated ZG-modules and free chain complexes over ZG.

A module is presented by integers: ``gens`` generators, a relation
matrix whose columns span the relation lattice, and one action matrix
per group generator.  Chain complexes are kept free over the group
ring.
"""

import copy
from collections import Counter

from . import exactlin
from .errors import InvalidPresentation, NoSolution, WindowViolation
from .exactlin import AbelianInvariants, IntMatrix, chain_diagonals, homology_invariants
from .groupring import act_rows


class ModulePresentation:
    """A ZG-module given by generators, relations, and G-action.

    A presentation is checked when it is built and is never changed
    afterwards: the constructor raises ``InvalidPresentation`` with the
    problems :func:`validate` reports.  Modules that the library derives
    from checked data are built as ``_Derived``, valid as built.
    """

    def __init__(self, group, gens, relations=None, actions=None):
        self.group = group
        self.gens = gens
        if relations is None:
            relations = IntMatrix.zeros(gens, 0)
        self.relations = relations
        if actions is None:
            actions = [IntMatrix.identity(gens) for _ in range(group.r)]
        self.actions = list(actions)
        self._relation_basis = None
        self._orbits = {}
        self._ring_actions = {}
        if not isinstance(self, _Derived):
            problems = validate(self)
            if problems:
                raise InvalidPresentation(problems)

    def invariants(self):
        """Invariant factors of the underlying abelian group."""
        return exactlin.cokernel_invariants(self.relations)

    def relation_basis(self):
        if self._relation_basis is None:
            self._relation_basis = exactlin.lattice_basis(self.relations)
        return self._relation_basis

    def in_relation_span(self, cols):
        """Whether every column of ``cols`` lies in the relation lattice.

        Returns the index of the first offending column, or None.
        """
        try:
            exactlin.solve_in_lattice(self.relation_basis(), cols)
        except NoSolution as exc:
            return exc.column
        return None

    def orbit(self, c):
        """Column c of the action of each group element h, in index
        order, as the |G| columns of an ``IntMatrix``; cached per module
        and shared, so callers only read it.  With h = g_j h', g_j the
        last generator in h, column h is A_j times column h', so h acts
        by A_r^e_r ... A_1^e_1, e its exponents; one matrix-vector
        product per element, and no |G| action matrices are built."""
        cached = self._orbits.get(c)
        if cached is None:
            p, r = self.group.p, self.group.r
            out = [{c: 1}]
            for h in range(1, self.group.order):
                place, j = 1, r - 1
                while h // place % p == 0:
                    place, j = place * p, j - 1
                col = {}
                for k, x in out[h - place].items():
                    for i, v in self.actions[j].columns[k].items():
                        col[i] = col.get(i, 0) + v * x
                out.append({i: v for i, v in col.items() if v})
            cached = self._orbits[c] = IntMatrix.from_sparse(out, self.gens)
        return cached

    def act_columns(self, element):
        """Sparse {row: value} columns of a group-ring element acting on
        Z^gens: column c sums the columns of ``orbit(c)`` at the
        element's terms, each times its coefficient.  Cached per element
        and shared, so callers must not mutate them."""
        cached = self._ring_actions.get(element.terms)
        if cached is None:
            cached = []
            for c in range(self.gens):
                orbit = self.orbit(c).columns
                col = {}
                for h, a in element.terms:
                    for i, v in orbit[h].items():
                        col[i] = col.get(i, 0) + a * v
                cached.append({i: v for i, v in col.items() if v})
            self._ring_actions[element.terms] = cached
        return cached

    def acts_exactly(self):
        """Whether the actions of a valid presentation commute and have
        order dividing p on Z^gens itself, not only modulo the relations."""
        if self.relation_basis().cols == 0:
            return True  # validity already asks this of Z^gens itself
        return all(defect.is_zero() for _, defect in self._action_defects())

    def _action_defects(self):
        """(problem, matrix) for each condition on the actions: every
        commutator, then every p-th power minus the identity.  A valid
        presentation has each matrix in the relation span."""
        acts = self.actions
        for i in range(len(acts)):
            for j in range(i + 1, len(acts)):
                yield (
                    f"actions {i + 1} and {j + 1} do not commute",
                    acts[i].mul(acts[j]).sub(acts[j].mul(acts[i])),
                )
        ident = IntMatrix.identity(self.gens)
        for i, a in enumerate(acts):
            power = ident
            for _ in range(self.group.p):
                power = a.mul(power)
            yield f"action {i + 1} does not have order dividing p", power.sub(ident)

    def pruned(self):
        """The same module on fewer generators, by Tietze moves.

        While some relation column r has a coefficient u = +-1 on a
        generator c, the relation gives e_c = -u * sum_{k != c} r_k e_k:
        substitute that into the other relations, drop r and c, and
        conjugate each action A to pi A iota, where pi: Z^gens -> Z^kept
        is the substitution and iota the inclusion of the kept
        generators.  pi is onto with kernel inside the relation lattice,
        so the quotient and its G-action are unchanged; the new actions
        may commute and have order p only modulo the new relations,
        even when the old ones do so exactly.  Each move takes the unit
        entry of least Markowitz cost (other entries in its column times
        other relations on its generator), which keeps the fill low.

        Returns ``self`` when no relation has a unit entry.
        """
        cols = [col for col in self.relations.sparse_columns() if col]
        eliminated = []  # (c, pi(e_c) over the generators alive then)
        while True:
            uses = Counter(c for col in cols for c in col)
            units = [
                ((len(col) - 1) * (uses[c] - 1), k, c)
                for k, col in enumerate(cols)
                for c, v in col.items()
                if abs(v) == 1
            ]
            if not units:
                break
            _, k, c = min(units)
            pivot = cols.pop(k)
            u = pivot.pop(c)
            for col in cols:
                f = u * col.pop(c, 0)
                if not f:
                    continue
                for r, w in pivot.items():
                    x = col.get(r, 0) - f * w
                    if x:
                        col[r] = x
                    else:
                        del col[r]
            cols = [col for col in cols if col]
            eliminated.append((c, {r: -u * w for r, w in pivot.items()}))
        if not eliminated:
            return self

        dropped = {c for c, _ in eliminated}
        kept = [i for i in range(self.gens) if i not in dropped]
        n = len(kept)
        # Column c of pi is pi(e_c); it reads only generators kept or
        # eliminated after c.
        pi = IntMatrix.zeros(n, self.gens)
        for i, s in enumerate(kept):
            pi.columns[s] = {i: 1}
        for c, expr in reversed(eliminated):
            pi.columns[c] = pi.mul(IntMatrix.from_sparse([expr], self.gens)).columns[0]
        index = {s: i for i, s in enumerate(kept)}
        relations = IntMatrix.from_sparse(
            [{index[s]: v for s, v in col.items()} for col in cols], n
        )
        actions = [pi.mul(a.submatrix(range(self.gens), kept)) for a in self.actions]
        return _Derived(self.group, n, relations, actions)

    def has_trivial_action(self):
        """True when every generator acts as the identity mod relations."""
        ident = IntMatrix.identity(self.gens)
        for a in self.actions:
            if self.in_relation_span(a.sub(ident)) is not None:
                return False
        return True

    def __repr__(self):
        return (
            f"ModulePresentation({self.group!r}, gens={self.gens}, "
            f"relations={self.relations.cols} cols)"
        )


class _Derived(ModulePresentation):
    """A presentation the library derives from checked data, valid as
    built, so the constructor skips the check: a homology module (G-stable
    cycles and boundaries, the regular action restricted), a kernel of a
    G-map out of a valid module, a pruned module (Tietze moves keep the
    module and its action), the relation lattice of a module that acts
    exactly, a free module (permutation actions), and Z and 0."""


def trivial_module(group):
    """Z with every generator acting as the identity."""
    return _Derived(group, 1)


def zero_module(group):
    return _Derived(group, 0)


class _Free(_Derived):
    """ZG^k on the basis e_(j|G| + h), group element h in copy j: a ring
    element x sends e_(j|G| + c) to the sum of a e_(j|G| + hc) over its
    terms (h, a), hc read off the group's cached translation row of h,
    so its ``act_columns`` walks no orbit."""

    def act_columns(self, element):
        cached = self._ring_actions.get(element.terms)
        if cached is None:
            n = self.group.order
            shifts = [(self.group._translation(h), a) for h, a in element.terms]
            cached = [
                {base + row[c]: a for row, a in shifts}
                for base in range(0, self.gens, n)
                for c in range(n)
            ]
            self._ring_actions[element.terms] = cached
        return cached


def free_module_presentation(group, k):
    """ZG^k as a presented module: regular permutation actions, no relations."""
    if k < 0:
        raise ValueError("rank must be nonnegative")
    gens = k * group.order
    ident = IntMatrix.identity(gens)
    actions = [act_rows(group, i, ident) for i in range(1, group.r + 1)]
    return _Free(group, gens, IntMatrix.zeros(gens, 0), actions)


def validate(module):
    """Check the presentation invariants; return a list of problems.

    An empty list means the presentation is valid.  Reported strings
    name the first counterexample column of each failed check.
    """
    problems = []
    m = module
    g = m.gens
    if m.relations.rows != g:
        problems.append(
            f"relation matrix has {m.relations.rows} rows, expected {g}"
        )
        return problems
    if len(m.actions) != m.group.r:
        problems.append(
            f"got {len(m.actions)} action matrices, expected {m.group.r}"
        )
        return problems
    for i, a in enumerate(m.actions):
        if (a.rows, a.cols) != (g, g):
            problems.append(f"action {i + 1} is {a.rows}x{a.cols}, expected {g}x{g}")
            return problems

    for i, a in enumerate(m.actions):
        col = m.in_relation_span(a.mul(m.relations))
        if col is not None:
            problems.append(
                f"action {i + 1} does not preserve relations (column {col})"
            )
    for problem, defect in m._action_defects():
        col = m.in_relation_span(defect)
        if col is not None:
            problems.append(f"{problem} (column {col})")
    return problems


class FreeChainComplex:
    """A finite complex of free ZG-modules.

    ``ranks`` maps degree to a nonnegative rank, zero ranks dropped;
    ``diffs`` maps degree i to the GroupRingMatrix of d_i : degree i ->
    degree i-1.  ``d o d = 0`` is checked in the group ring on
    construction, except for a ``_Window``, exact as built; the
    intermediate complexes of ``surgery.glue``, built without maps and
    given them after, are checked once glued.
    """

    def __init__(self, group, ranks, diffs):
        self.group = group
        for i, k in ranks.items():
            if k < 0:
                raise ValueError(f"negative rank {k} at degree {i}")
        self.ranks = {i: k for i, k in ranks.items() if k}
        self.diffs = {}
        self._diags = None
        for i, d in diffs.items():
            if d is None or d.is_zero():
                continue
            ka, kb = self.ranks.get(i - 1, 0), self.ranks.get(i, 0)
            if (d.rows, d.cols) != (ka, kb):
                raise ValueError(
                    f"differential at degree {i} is {d.rows}x{d.cols}, "
                    f"expected {ka}x{kb}"
                )
            if d.group != group:
                raise ValueError("differential over the wrong group")
            self.diffs[i] = d
        if not isinstance(self, _Window):
            for i, d in self.diffs.items():
                up = self.diffs.get(i + 1)
                if up is not None and not d.mul(up).is_zero():
                    raise ValueError(f"d_{i} o d_{i + 1} != 0 in the group ring")

    def degrees(self):
        return sorted(self.ranks)

    def rank(self, i):
        return self.ranks.get(i, 0)

    @property
    def lo(self):
        return min(self.ranks) if self.ranks else 0

    @property
    def hi(self):
        return max(self.ranks) if self.ranks else 0

    def is_empty(self):
        return not self.ranks

    def differential(self, i):
        return self.diffs.get(i)

    def expanded(self, i):
        """Integer matrix of d_i, materializing zeros when absent."""
        d = self.diffs.get(i)
        if d is not None:
            return d.expand()
        n = self.group.order
        return IntMatrix.zeros(self.rank(i - 1) * n, self.rank(i) * n)

    def shifted(self, s):
        """The same complex and type, degrees up by ``s``, unchecked."""
        out = copy.copy(self)
        out.ranks = {i + s: k for i, k in self.ranks.items()}
        out.diffs = {i + s: d for i, d in self.diffs.items()}
        out._diags = None
        return out

    def sparse_rows(self, i):
        """Fresh sparse rows of expand(d_i), all empty when d_i is absent."""
        d = self.diffs.get(i)
        if d is None:
            return [{} for _ in range(self.rank(i - 1) * self.group.order)]
        return d.sparse_rows()

    def _diagonals(self):
        """Smith diagonal of expand(d_i) for lo < i <= hi, from one
        top-down chain of ``exactlin.chain_diagonals`` on first use.  A
        missing differential enters as a zero map, which has no unit
        pivots to cancel in the map below it."""
        if self._diags is None:
            degrees = range(self.hi, self.lo, -1)
            self._diags = dict(zip(degrees, chain_diagonals(self._maps(degrees))))
        return self._diags

    def _maps(self, degrees):
        """Sparse rows and column count of expand(d_i) for i in
        ``degrees``, each without the columns sent back for it."""
        cancelled = None
        for i in degrees:
            rows = self.sparse_rows(i)
            if cancelled:
                for row in rows:
                    for k in cancelled.intersection(row):
                        del row[k]
            cancelled = yield rows, self.rank(i) * self.group.order

    def __repr__(self):
        span = f"[{self.lo},{self.hi}]" if self.ranks else "empty"
        return f"FreeChainComplex({self.group!r}, degrees {span})"


class _Window(FreeChainComplex):
    """Degrees lo..hi of the complete resolution of Z, certified exact
    strictly inside ``valid_range`` = (lo, hi) by ``complete_resolution``:
    d o d is not rechecked, and ``homology`` answers 0 inside without
    reducing and raises WindowViolation at or past the edges."""

    def __init__(self, group, ranks, diffs, valid_range):
        super().__init__(group, ranks, diffs)
        self.valid_range = valid_range

    def shifted(self, s):
        out = super().shifted(s)
        out.valid_range = tuple(e + s for e in self.valid_range)
        return out


def _in_window(complex_, n):
    """Whether ``complex_`` is a window, so exact at ``n``; raises
    WindowViolation at or past a window's edges."""
    if not isinstance(complex_, _Window):
        return False
    lo, hi = complex_.valid_range
    if not lo < n < hi:
        raise WindowViolation(f"degree {n} outside the validated interior of [{lo},{hi}]")
    return True


def homology(complex_, n):
    """Homology at degree ``n`` as abelian invariants.

    Uses that the ambient module is free: the torsion of the quotient
    is read off the Smith diagonal of the incoming differential, and
    the free rank from the two ranks.  Inside a window of the complete
    resolution it is 0 without any reduction.
    """
    k = complex_.rank(n)
    if _in_window(complex_, n) or k == 0:
        return AbelianInvariants()
    diag = complex_._diagonals()
    into, outof = diag.get(n + 1, ()), diag.get(n, ())
    return homology_invariants(k * complex_.group.order, into, outof)


def homology_range(complex_, lo, hi):
    return {n: homology(complex_, n) for n in range(lo, hi + 1)}


def _unit_coordinates(basis, targets):
    """Coordinates in ``basis`` of ``targets``, columns in the lattice
    it spans, read off private unit rows, or None.  If each basis column
    k has a row i_k where it holds v_k = +-1 and the others 0, then
    x_k = v_k z[i_k] for a target z: the columns are then independent,
    so these are the unique coordinates a solve gives.  None when some
    column has no such row, as a zero column or dependent columns do.
    """
    uses = Counter(i for col in basis.columns for i in col)
    unit = {}
    for k, col in enumerate(basis.columns):
        i = next((i for i, v in col.items() if uses[i] == 1 and abs(v) == 1), None)
        if i is None:
            return None
        unit[i] = (k, col[i])
    out = []
    for z in targets.columns:
        coords = {}
        for i, w in z.items():
            if i in unit:
                k, v = unit[i]
                coords[k] = v * w
        out.append(coords)
    return IntMatrix.from_sparse(out, basis.cols)


def _cycle_coordinates(cycles, targets):
    """Coordinates in the basis ``cycles`` of ``targets``, columns in
    the lattice it spans: :func:`_unit_coordinates`, else
    ``solve_preimage``, which gives the same unique coordinates."""
    coords = _unit_coordinates(cycles, targets)
    if coords is None:
        return exactlin.solve_preimage(cycles, targets)
    return coords


def _homology_data(complex_, n):
    """Cycle basis at degree ``n`` together with the homology module,
    its relations and actions the :func:`_cycle_coordinates` of the
    boundaries, cycles as d o d = 0 (checked when a complex is built,
    true by construction in a glue), and of g_i times the cycles, cycles
    as the expanded d_n is G-linear."""
    _in_window(complex_, n)
    k = complex_.rank(n)
    group = complex_.group
    if k == 0:
        return IntMatrix.zeros(0, 0), zero_module(group)
    cycles = exactlin.kernel_basis(complex_.expanded(n))
    # One read for the boundaries and the r action targets side by side.
    boundaries = complex_.expanded(n + 1)
    targets = boundaries
    for i in range(1, group.r + 1):
        targets = targets.hstack(act_rows(group, i, cycles))
    solved = _cycle_coordinates(cycles, targets)

    def block(start, width):
        return solved.submatrix(range(solved.rows), range(start, start + width))

    gens, nb = cycles.cols, boundaries.cols
    relations = exactlin.lattice_basis(block(0, nb))
    actions = [block(nb + i * gens, gens) for i in range(group.r)]
    module = _Derived(group, gens, relations, actions)
    module._relation_basis = relations  # an echelon basis already
    return cycles, module


def homology_module(complex_, n):
    """Homology at degree ``n`` as a presented ZG-module."""
    return _homology_data(complex_, n)[1]


def dual_complex(complex_):
    """Z-linear dual: degree i becomes -i, maps become antipode-transposes."""
    ranks = {-i: k for i, k in complex_.ranks.items()}
    diffs = {}
    for i in complex_.diffs:
        # d_i : C_i -> C_{i-1} dualizes to (dual C)_{1-i} -> (dual C)_{-i}.
        diffs[1 - i] = complex_.diffs[i].antipode_transpose()
    return FreeChainComplex(complex_.group, ranks, diffs)
