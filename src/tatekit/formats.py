"""Text and JSON serialization for complexes, modules, and reports.

The complex and module text formats are canonical: ``render(parse(render(x)))``
reproduces ``render(x)`` byte for byte.  Group-ring coefficients are written
as integer arrays of length p^r in the fixed lexicographic element order used
throughout the package; ring elements keep only their nonzero terms, and are
converted to and from these arrays here alone.  Every report renderer has a
``*_data`` twin that returns plain dict/list structures suitable for
``json.dumps``.
"""

from .exactlin import INFINITE, IntMatrix
from .groupring import ElementaryAbelianGroup, GroupRingElement, GroupRingMatrix
from .modpres import FreeChainComplex, ModulePresentation, trivial_module


def format_exponent(e):
    """Render an exponent, using ``inf`` for groups of infinite exponent."""
    return "inf" if e == INFINITE else str(e)


def exponent_data(e):
    return None if e == INFINITE else e


def invariants_data(inv):
    return {"torsion": list(inv.torsion), "free": inv.free_rank}


def _ints(tokens, what):
    """The integers spelled by ``tokens``; errors name ``what`` and the text."""
    try:
        return [int(t) for t in tokens]
    except ValueError:
        text = " ".join(tokens)
        raise ValueError(f"{what}: expected integers, got {text!r}") from None


def _content_lines(text):
    """Non-blank, non-comment lines with surrounding whitespace stripped."""
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


# ---------------------------------------------------------------------------
# complex files


def _dense_rows(d):
    """Every entry of a group-ring matrix as a coefficient list, zeros
    included, row by row."""
    n = d.group.order
    out = []
    for row in d.entries:
        dense = [[0] * n for _ in range(d.cols)]
        for c, e in row.items():
            for h, v in e.terms:
                dense[c][h] = v
        out.append(dense)
    return out


def render_complex(complex_):
    """Canonical text form of a free chain complex.

    One ``deg`` line per nonzero chain group, then each stored differential
    as a ``d i`` header followed by rows*cols coefficient lines, target
    index varying slowest.  Zero differentials are omitted.
    """
    group = complex_.group
    lines = [f"group {group.p} {group.r}"]
    for i in complex_.degrees():
        lines.append(f"deg {i} rank {complex_.rank(i)}")
    for i in sorted(complex_.diffs):
        lines.append(f"d {i}")
        for row in _dense_rows(complex_.diffs[i]):
            lines.extend(" ".join(str(v) for v in coeffs) for coeffs in row)
    return "\n".join(lines) + "\n"


def parse_complex(text, allow_large=False):
    lines = _content_lines(text)
    if not lines:
        raise ValueError("empty complex file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "group":
        raise ValueError(f"expected 'group p r' header, got {lines[0]!r}")
    group = ElementaryAbelianGroup(*_ints(head[1:], "group"), allow_large=allow_large)
    # a d line reads its shape from the deg lines before it
    kinds = [line.split()[0] for line in lines]
    if "d" in kinds and "deg" in kinds[kinds.index("d") :]:
        late = lines[kinds.index("deg", kinds.index("d"))]
        raise ValueError(f"degree line {late!r} after the first differential")
    n = group.order
    ranks = {}
    diffs = {}
    idx = 1
    while idx < len(lines):
        parts = lines[idx].split()
        if parts[0] == "deg":
            if len(parts) != 4 or parts[2] != "rank":
                raise ValueError(f"malformed degree line {lines[idx]!r}")
            i, k = _ints(parts[1::2], "degree line")
            if i in ranks:
                raise ValueError(f"degree {i} declared twice")
            if k < 0:
                raise ValueError(f"negative rank at degree {i}")
            ranks[i] = k
            idx += 1
        elif parts[0] == "d":
            if len(parts) != 2:
                raise ValueError(f"malformed differential header {lines[idx]!r}")
            (i,) = _ints(parts[1:], "differential header")
            if i in diffs:
                raise ValueError(f"differential {i} declared twice")
            ka, kb = ranks.get(i - 1, 0), ranks.get(i, 0)
            count = ka * kb
            if idx + 1 + count > len(lines):
                raise ValueError(f"differential {i} needs {count} coefficient lines")
            rows = [{} for _ in range(ka)]
            pos = idx + 1
            for b in range(ka):
                for c in range(kb):
                    vals = _ints(lines[pos].split(), f"d {i} entry ({b}, {c})")
                    if len(vals) != n:
                        raise ValueError(
                            f"coefficient line {pos + 1} has {len(vals)} entries, "
                            f"expected {n}"
                        )
                    rows[b][c] = GroupRingElement(group, dict(enumerate(vals)))
                    pos += 1
            diffs[i] = GroupRingMatrix(group, rows, ka, kb)
            idx = pos
        else:
            raise ValueError(f"unrecognized line {lines[idx]!r}")
    return FreeChainComplex(group, ranks, diffs)


def complex_data(complex_):
    return {
        "group": {"p": complex_.group.p, "r": complex_.group.r},
        "ranks": {str(i): complex_.rank(i) for i in complex_.degrees()},
        "differentials": {
            str(i): _dense_rows(complex_.diffs[i]) for i in sorted(complex_.diffs)
        },
    }


# ---------------------------------------------------------------------------
# module files


def render_module(module):
    """Canonical text form of a module presentation."""
    g = module.gens
    q = module.relations.cols
    lines = [f"gens {g}", f"relations {q}"]
    if q:
        lines.extend(" ".join(map(str, row)) for row in module.relations.data)
    for a_idx, mat in enumerate(module.actions, start=1):
        lines.append(f"action {a_idx}")
        lines.extend(" ".join(map(str, row)) for row in mat.data)
    return "\n".join(lines) + "\n"


def parse_module(text, group):
    """Parse a module presentation over ``group``.

    A file whose only content is the literal ``trivial`` denotes Z with
    every generator acting as the identity.
    """
    lines = _content_lines(text)
    if lines == ["trivial"]:
        return trivial_module(group)
    if not lines:
        raise ValueError("empty module file")

    head = lines[0].split()
    if len(head) != 2 or head[0] != "gens":
        raise ValueError(f"expected 'gens g' header, got {lines[0]!r}")
    (g,) = _ints(head[1:], "gens")
    if g < 0:
        raise ValueError("negative generator count")

    def matrix_rows(start, rows, cols, what):
        if start + rows > len(lines):
            raise ValueError(f"{what} needs {rows} rows")
        data = []
        for i in range(rows):
            vals = _ints(lines[start + i].split(), f"{what} row {i}")
            if len(vals) != cols:
                raise ValueError(
                    f"{what} row {i} has {len(vals)} entries, expected {cols}"
                )
            data.append(vals)
        return IntMatrix(data, rows, cols)

    if len(lines) < 2:
        raise ValueError("missing relations section")
    rel_head = lines[1].split()
    if len(rel_head) != 2 or rel_head[0] != "relations":
        raise ValueError(f"expected 'relations q', got {lines[1]!r}")
    (q,) = _ints(rel_head[1:], "relations")
    if q < 0:
        raise ValueError("negative relation count")
    idx = 2
    if q:
        relations = matrix_rows(idx, g, q, "relations")
        idx += g
    else:
        relations = IntMatrix.zeros(g, 0)

    actions = []
    for a_idx in range(1, group.r + 1):
        if idx >= len(lines) or lines[idx].split() != ["action", str(a_idx)]:
            raise ValueError(f"expected 'action {a_idx}' header")
        idx += 1
        actions.append(matrix_rows(idx, g, g, f"action {a_idx}"))
        idx += g
    if idx != len(lines):
        raise ValueError(f"trailing content from line {idx + 1}")

    return ModulePresentation(group, g, relations, actions)


def module_data(module):
    return {
        "gens": module.gens,
        "relations": module.relations.data,
        "actions": [m.data for m in module.actions],
    }


# ---------------------------------------------------------------------------
# report tables


def _aligned_rows(rows):
    """Align ``label = invariants  [tail]`` rows on the two columns."""
    if not rows:
        return "(empty range)\n"
    lw = max(len(label) for label, _, _ in rows)
    iw = max(len(str(inv)) for _, inv, _ in rows)
    out = [f"{label.ljust(lw)} = {str(inv).ljust(iw)}  [{tail}]" for label, inv, tail in rows]
    return "\n".join(out) + "\n"


def render_cohomology_table(table, symbol="Ĥ"):
    return _aligned_rows(
        [(f"{symbol}^{i}", inv, f"exponent {format_exponent(e)}") for i, inv, e in table.rows()]
    )


def render_homology_table(pairs):
    """``pairs`` is a list of (degree, AbelianInvariants)."""
    return _aligned_rows(
        [(f"H_{i}", inv, f"exponent {format_exponent(inv.exponent())}") for i, inv in pairs]
    )


def _table_data(rows):
    """The ``--json`` form of (degree, invariants, exponent) rows."""
    return {
        "rows": [
            {
                "degree": i,
                "invariants": invariants_data(inv),
                "exponent": exponent_data(e),
            }
            for i, inv, e in rows
        ]
    }


def cohomology_table_data(table):
    return _table_data(table.rows())


def homology_table_data(pairs):
    return _table_data((i, inv, inv.exponent()) for i, inv in pairs)


def _ok(flag):
    return "ok" if flag else "FAIL"


def render_certificate(cert):
    claims = [
        ("outside unchanged:", cert.claim_outside),
        (f"collapsed {cert.m}..{cert.n - 1}:", cert.claim_collapsed),
        ("ses exact:", cert.claim_ses),
    ]
    width = max(len(label) for label, _ in claims)
    lines = [f"glue {cert.m} -> {cert.n}"]
    lines += [f"{label.ljust(width)} {_ok(flag)}" for label, flag in claims]
    lines += [
        f"sub      {cert.sub_invariants}",
        f"middle   {cert.middle_invariants}",
        f"quotient {cert.quotient_invariants}",
        f"verdict {'ok' if cert.ok else 'FAILED'}",
    ]
    return "\n".join(lines) + "\n"


def certificate_data(cert):
    return {
        "m": cert.m,
        "n": cert.n,
        "claims": {
            "outside_unchanged": cert.claim_outside,
            "collapsed": cert.claim_collapsed,
            "ses_exact": cert.claim_ses,
        },
        "sub": invariants_data(cert.sub_invariants),
        "middle": invariants_data(cert.middle_invariants),
        "quotient": invariants_data(cert.quotient_invariants),
        "homology_before": {
            str(i): invariants_data(v) for i, v in sorted(cert.before.items())
        },
        "homology_after": {
            str(i): invariants_data(v) for i, v in sorted(cert.after.items())
        },
        "ok": cert.ok,
    }


def render_browder(report):
    rows = [
        (f"H_{j}", inv, f"Ĥ^{j + 1} exponent {format_exponent(e)}")
        for j, inv, e in report.rows
    ]
    verdict = "DIVIDES" if report.divides else "DOES NOT DIVIDE"
    return (
        f"group order {report.group_order}\n"
        + (_aligned_rows(rows) if rows else "")
        + f"product {report.product} {verdict} group order {report.group_order}\n"
    )


def browder_data(report):
    return {
        "group_order": report.group_order,
        "rows": [
            {
                "degree": j,
                "homology": invariants_data(inv),
                "exponent": exponent_data(e),
            }
            for j, inv, e in report.rows
        ],
        "product": report.product,
        "divides": report.divides,
    }


def render_row_table(table):
    """One-line form: each row as ``{d1,d2,...}`` top degree first."""
    parts = []
    for j in sorted(table.rows):
        degs = sorted(table.rows[j], reverse=True)
        parts.append("{" + ",".join(str(d) for d in degs) + "}")
    return ",".join(parts) + "\n"


def row_table_data(table):
    return {
        "n": table.n,
        "offsets": list(table.a_list),
        "rows": {str(j): list(table.rows[j]) for j in sorted(table.rows)},
        "separated": table.separated,
        "schedule": [
            {"sources": list(sources), "target": target}
            for sources, target in table.schedule()
        ],
    }
