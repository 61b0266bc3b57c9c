"""Gluing of homology up a free complex, and its consequences.

glue(C, m, n) kills H_m in n - m attachments: for k = m, ..., n - 1
it covers H_k of the complex so far by ``resolution_step`` and attaches
one free cell in degree k + 1 per chosen generator, bounding its
cycle.  H_k is then 0, and as H_(k+1)(C) = 0 for k + 1 < n, the new
homology at k + 1 is exactly the kernel of the cover, which the next
attachment covers in turn: the cells are a free resolution of H_m,
and the result is the mapping cone of its lift into C, D_i being C_i
followed by the new cells.  A new cell bounds a cycle, so d o d = 0
holds by construction and is checked once, when the returned cone is
built.  The certificate re-verifies the three structural claims:
homology outside [m, n] untouched, homology inside killed, and H_n(D)
an extension of the syzygy of H_m(C) by H_n(C) -- witnessed by an
explicitly constructed short exact sequence, not just order
bookkeeping.

glue_rows iterates glue over a schedule; dimension_rows produces the
degree rows of a product of spheres; filtration_exponent_check and
browder_check implement the exponent-divisibility verdicts.
"""

from itertools import combinations
from math import prod

from .errors import (
    FiltrationInvalid,
    GapViolation,
    NoSolution,
    NotConnected,
    NotNonnegative,
    SublatticeViolation,
)
from .exactlin import (
    AbelianInvariants,
    IntMatrix,
    cokernel_invariants,
    exponent,
    kernel_basis,
    lattice_basis,
    quotient_invariants,
    solve_in_lattice,
)
from .groupring import GroupRingMatrix, decode_columns
from .modpres import (
    FreeChainComplex,
    _cycle_coordinates,
    _homology_data,
    homology,
    homology_module,
)
from .resolve import resolution_step
from .tate import tate_cohomology


class GluingCertificate:
    """Verified record of one glue step."""

    __slots__ = (
        "m",
        "n",
        "before",
        "after",
        "claim_outside",
        "claim_collapsed",
        "claim_ses",
        "sub_invariants",
        "middle_invariants",
        "quotient_invariants",
    )

    def __init__(
        self,
        m,
        n,
        before,
        after,
        claim_outside,
        claim_collapsed,
        claim_ses,
        sub_invariants,
        middle_invariants,
        quotient_invariants,
    ):
        self.m = m
        self.n = n
        self.before = before
        self.after = after
        self.claim_outside = claim_outside
        self.claim_collapsed = claim_collapsed
        self.claim_ses = claim_ses
        self.sub_invariants = sub_invariants
        self.middle_invariants = middle_invariants
        self.quotient_invariants = quotient_invariants

    @property
    def ok(self):
        return self.claim_outside and self.claim_collapsed and self.claim_ses

    def __repr__(self):
        state = "ok" if self.ok else "FAILED"
        return f"GluingCertificate(m={self.m}, n={self.n}, {state})"


def _attach(complex_, k):
    """Cover H_k(complex_) by free cells in degree k + 1.

    One cell per generator that ``resolution_step`` chooses, bounding
    its cycle: d_(k+1) gains one column per cell and d_(k+2) one zero
    row.  Returns the step and a plain complex, its degree k + 1 the old
    cells followed by the new ones, which is not checked again: d o d = 0
    by construction.
    """
    group = complex_.group
    cycles, module = _homology_data(complex_, k)
    step = resolution_step(module)
    ranks, diffs = dict(complex_.ranks), dict(complex_.diffs)
    if step.rank:
        below, old = complex_.rank(k), complex_.rank(k + 1)
        chosen = cycles.submatrix(range(cycles.rows), step.generators)
        d = complex_.differential(k + 1)
        rows = [{} for _ in range(below)] if d is None else [dict(r) for r in d.entries]
        for row, cell in zip(rows, decode_columns(group, chosen, below).entries):
            row.update((old + j, e) for j, e in cell.items())
        ranks[k + 1] = old + step.rank
        diffs[k + 1] = GroupRingMatrix(group, rows, below, ranks[k + 1])
        up = complex_.differential(k + 2)
        if up is not None:
            rows = up.entries + [{}] * step.rank
            diffs[k + 2] = GroupRingMatrix(group, rows, ranks[k + 1], up.cols)
    out = FreeChainComplex(group, ranks, {})  # no maps, so nothing to check
    out.diffs = diffs
    return out, step


def _verify_ses(complex_, cone, n, top_basis):
    """Exactness of 0 -> H_n(C) -> H_n(D) -> Omega^{n-m}H_m(C) -> 0.

    alpha reads the padded C-cycles in the cone's cycle basis by
    ``_cycle_coordinates``, once d_n(D) kills them: that basis spans
    ker d_n(D), so this is lattice membership, and a failure is not ok.
    """
    group = complex_.group
    zc, hc = _homology_data(complex_, n)
    zd, hd = _homology_data(cone, n)
    rc = complex_.rank(n) * group.order
    rd = cone.rank(n) * group.order
    rel_c = hc.relations
    rel_d = hd.relations

    # alpha: classes of C-cycles, zero-padded on the F-summand, inside
    # the cycle lattice of the cone.
    padded = IntMatrix.from_sparse(zc.columns, rd)
    if not cone.expanded(n).mul(padded).is_zero():
        return False
    alpha = _cycle_coordinates(zd, padded)
    # beta: the F-part of each cone cycle written in the syzygy basis.
    proj = zd.submatrix(range(rc, rd), range(zd.cols))
    try:
        beta = solve_in_lattice(top_basis, proj)
        # well-defined: alpha maps relations into relations ...
        solve_in_lattice(rel_d, alpha.mul(rel_c))
    except NoSolution:
        return False
    # ... and beta kills them
    ok = beta.mul(rel_d).is_zero() and beta.mul(alpha).is_zero()

    # injectivity of alpha on classes
    ker = kernel_basis(alpha.hstack(rel_d))
    pre = ker.submatrix(range(alpha.cols), range(ker.cols))
    ok = ok and quotient_invariants(pre.hstack(rel_c), rel_c).is_trivial()
    # exactness in the middle: ker beta = im alpha modulo relations
    kmid = kernel_basis(beta)
    mid = quotient_invariants(kmid.hstack(rel_d), alpha.hstack(rel_d))
    ok = ok and mid.is_trivial()
    # surjectivity of beta onto the free syzygy lattice
    return ok and cokernel_invariants(beta).is_trivial()


def glue(complex_, m, n):
    """Kill H_m by gluing it to degree n along a free resolution.

    Attaches cells in degrees m+1..n, one degree at a time (see the
    module docstring): the last step's kernel lattice is the (n-m)-th
    syzygy of H_m(C) inside the new cells of degree n.  Returns the
    cone D, a plain ``FreeChainComplex`` whose constructor checks
    d o d = 0, together with a certificate verifying that homology
    outside [m, n] is unchanged, homology at m..n-1 is gone, and H_n(D)
    extends that syzygy by H_n(C).
    """
    if m >= n:
        raise ValueError("glue needs m < n")
    for k in range(m + 1, n):
        h = homology(complex_, k)
        if not h.is_trivial():
            raise GapViolation(
                f"homology at degree {k} is {h}, blocking a glue from "
                f"{m} to {n}",
                degree=k,
            )
    cone = complex_
    for k in range(m, n):
        cone, step = _attach(cone, k)
    cone = FreeChainComplex(cone.group, cone.ranks, cone.diffs)
    top_basis = step.kernel_basis

    # m and n may lie outside both supports, where H_m = 0
    lo = min(complex_.lo, cone.lo, m)
    hi = max(complex_.hi, cone.hi, n)
    before = {i: homology(complex_, i) for i in range(lo, hi + 1)}
    after = {i: homology(cone, i) for i in range(lo, hi + 1)}
    claim_outside = all(
        before[i] == after[i]
        for i in range(lo, hi + 1)
        if i < m or i > n
    )
    claim_collapsed = all(after[k].is_trivial() for k in range(m, n))
    exact = _verify_ses(complex_, cone, n, top_basis)
    sub_inv, mid_inv, t = before[n], after[n], top_basis.cols
    quot_inv = AbelianInvariants((), t)
    arithmetic = (
        mid_inv.free_rank == sub_inv.free_rank + t
        and prod(mid_inv.torsion) == prod(sub_inv.torsion)
    )
    cert = GluingCertificate(
        m,
        n,
        before,
        after,
        claim_outside,
        claim_collapsed,
        exact and arithmetic,
        sub_inv,
        mid_inv,
        quot_inv,
    )
    return cone, cert


def glue_rows(complex_, schedule):
    """Run a gluing schedule: per step, glue each source degree onto
    the target, working downward from the highest source so each glue
    sees the gap it needs.

    The whole schedule is checked before the first glue: a step whose
    source lies above its target raises ValueError naming the step.
    Returns the final complex and the certificates in execution order.
    """
    for idx, (sources, target) in enumerate(schedule):
        for src in sources:
            if src > target:
                raise ValueError(
                    f"schedule step {idx} (glue {src} -> {target}): "
                    "source lies above the target"
                )
    current = complex_
    certs = []
    for idx, (sources, target) in enumerate(schedule):
        for src in sorted(set(sources), reverse=True):
            if src == target:
                continue
            try:
                current, cert = glue(current, src, target)
            except GapViolation as exc:
                raise GapViolation(
                    f"schedule step {idx} (glue {src} -> {target}): {exc}",
                    degree=exc.degree,
                ) from exc
            certs.append(cert)
    return current, certs


class RowTable:
    """Homology-degree rows of a product of spheres."""

    __slots__ = ("n_list", "n", "a_list", "rows", "separated")

    def __init__(self, n_list, n, a_list, rows, separated):
        self.n_list = n_list
        self.n = n
        self.a_list = a_list
        self.rows = rows
        self.separated = separated

    def schedule(self):
        """Gluing schedule sending each row onto its top degree j*n."""
        out = []
        for j in sorted(self.rows):
            target = j * self.n
            sources = sorted({d for d in self.rows[j] if d != target})
            out.append((sources, target))
        return out

    def __repr__(self):
        body = "; ".join(f"{j}: {self.rows[j]}" for j in sorted(self.rows))
        return f"RowTable(n={self.n}, {body}, separated={self.separated})"


def dimension_rows(k, n_list):
    """Degree rows {jn - (a_{i_1}+...+a_{i_j})} for a sphere product.

    n is the largest sphere dimension, a_i = n - n_i, and row j lists
    the homology degrees contributed by j-fold products, as a sorted
    multiset.  The separation flag records n > a_1 + ... + a_k.
    """
    if k != len(n_list):
        raise ValueError("k must equal the number of sphere dimensions")
    if any(x < 1 for x in n_list):
        raise ValueError("sphere dimensions must be at least 1")
    n = max(n_list)
    a_list = [n - x for x in n_list]
    rows = {}
    for j in range(1, k + 1):
        rows[j] = sorted(j * n - sum(sub) for sub in combinations(a_list, j))
    return RowTable(list(n_list), n, a_list, rows, n > sum(a_list))


class FiltrationVerdict:
    """Outcome of an exponent-divisibility check along a filtration."""

    __slots__ = ("degree", "exponent", "section_exponents", "product", "divides")

    def __init__(self, degree, exponent_, section_exponents, product, divides):
        self.degree = degree
        self.exponent = exponent_
        self.section_exponents = section_exponents
        self.product = product
        self.divides = divides

    def __repr__(self):
        rel = "divides" if self.divides else "DOES NOT divide"
        return (
            f"FiltrationVerdict(exp={self.exponent} {rel} "
            f"prod{tuple(self.section_exponents)}={self.product})"
        )


def _span_contains(basis_cols, targets):
    try:
        solve_in_lattice(lattice_basis(basis_cols), targets)
    except NoSolution:
        return False
    return True


def filtration_exponent_check(sections, module, witnesses, i):
    """Check exp H^i(G, M) divides the product over filtration sections.

    ``witnesses`` lists generator matrices V_0 .. V_k of nested
    lattices in Z^gens with V_0 spanning the relations, V_k spanning
    everything, each V_j stable under the group action, and
    V_j / V_{j-1} presenting sections[j-1].  Raises FiltrationInvalid
    when any of that fails; otherwise compares exponents at degree i.
    """
    if len(witnesses) != len(sections) + 1:
        raise FiltrationInvalid(
            f"{len(sections)} sections need {len(sections) + 1} witness "
            f"lattices, got {len(witnesses)}"
        )
    g = module.gens
    for j, v in enumerate(witnesses):
        if v.rows != g:
            raise FiltrationInvalid(
                f"witness {j} lives in Z^{v.rows}, the module has {g} generators"
            )
    rel = module.relations
    if not (_span_contains(witnesses[0], rel) and _span_contains(rel, witnesses[0])):
        raise FiltrationInvalid("witness 0 does not span the relation lattice")
    if not cokernel_invariants(witnesses[-1]).is_trivial():
        raise FiltrationInvalid("last witness does not span the full module")
    for j in range(1, len(witnesses)):
        if not _span_contains(witnesses[j], witnesses[j - 1]):
            raise FiltrationInvalid(f"witness {j - 1} is not inside witness {j}")
    for j, v in enumerate(witnesses):
        for idx, act in enumerate(module.actions):
            if not _span_contains(v, act.mul(v)):
                raise FiltrationInvalid(
                    f"witness {j} is not stable under generator {idx + 1}"
                )
    for j in range(1, len(witnesses)):
        try:
            got = quotient_invariants(witnesses[j], witnesses[j - 1])
        except SublatticeViolation as exc:
            raise FiltrationInvalid(f"witness {j - 1} vs {j}: {exc}") from exc
        want = sections[j - 1].invariants()
        if got != want:
            raise FiltrationInvalid(
                f"section {j} has invariants {got}, the given module has {want}"
            )
    group = module.group
    lhs = exponent(tate_cohomology(group, module, i))
    factors = [exponent(tate_cohomology(group, s, i)) for s in sections]
    product = prod(factors)
    return FiltrationVerdict(i, lhs, factors, product, product % lhs == 0)


class BrowderReport:
    """Exponent-product divisibility data for a connected free complex."""

    __slots__ = ("group_order", "rows", "product", "divides")

    def __init__(self, group_order, rows, product, divides):
        self.group_order = group_order
        self.rows = rows
        self.product = product
        self.divides = divides

    def __repr__(self):
        rel = "divides" if self.divides else "DOES NOT divide"
        return f"BrowderReport(|G|={self.group_order} {rel} {self.product})"


def browder_check(complex_):
    """Verify |G| divides the product over j of exp H^{j+1}(G, H_j(C)).

    The complex must be nonnegative and connected: H_0 = Z with the
    trivial induced action.
    """
    if complex_.is_empty():
        raise NotConnected("the complex has no chain groups at all")
    if complex_.lo < 0:
        raise NotNonnegative(
            f"chain group in negative degree {complex_.lo}"
        )
    h0 = homology_module(complex_, 0)
    inv0 = h0.invariants()
    if inv0.torsion or inv0.free_rank != 1 or not h0.has_trivial_action():
        raise NotConnected(
            f"H_0 is {inv0} with "
            f"{'trivial' if h0.has_trivial_action() else 'nontrivial'} "
            "action, expected Z with trivial action"
        )
    group = complex_.group
    rows = []
    product = 1
    for j in range(1, complex_.hi + 1):
        hj = homology(complex_, j)  # a zero H_j needs no module: exponent 1
        e = 1
        if not hj.is_trivial():
            e = exponent(tate_cohomology(group, homology_module(complex_, j), j + 1))
        rows.append((j, hj, e))
        product *= e
    return BrowderReport(
        group.order, rows, product, product % group.order == 0
    )
