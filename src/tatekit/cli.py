"""Command-line interface.

Subcommands generate example complexes, compute (hyper)cohomology and
syzygies, run gluing schedules, and check the exponent-product divisibility
bound.  Plain output is the aligned report format; ``--json`` switches every
subcommand to a machine-readable rendering of the same numbers.

Exit codes: 0 success, 2 invalid input or failed validation, 3 when the
divisibility check ran cleanly but the product does not divide the group
order.
"""

import argparse
import json
import re
import sys

from . import formats
from .errors import TatekitError
from .gallery import lens_complex, product_complex, random_free_complex
from .groupring import ElementaryAbelianGroup
from .modpres import homology
from .resolve import syzygy
from .surgery import browder_check, dimension_rows, glue, glue_rows
from .tate import (
    exponent_profile,
    tate_cohomology_range,
    tate_hypercohomology_range,
)


def _parse_range(text):
    """Parse a ``--deg`` range ``A..B`` (negatives allowed)."""
    sep = text.find("..", 1) if text.startswith("-") else text.find("..")
    bad = ValueError(f"--deg must look like A..B with integers A and B, got {text!r}")
    if sep < 0:
        raise bad
    try:
        a, b = int(text[:sep]), int(text[sep + 2 :])
    except ValueError:
        raise bad from None
    if a > b:
        raise ValueError(f"--deg {text!r} is an empty degree range")
    return a, b


def _parse_int_list(text, what):
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated integer list")


def _parse_schedule(text):
    """Parse ``s1,s2->t;s3->u`` into [(sources, target), ...]."""
    steps = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "->" not in chunk:
            raise ValueError(f"--schedule step {chunk!r} needs '->'")
        left, right = chunk.split("->", 1)
        sources = _parse_int_list(left, "--schedule sources") if left.strip() else []
        try:
            target = int(right)
        except ValueError:
            raise ValueError(
                f"--schedule target must be an integer, got {right.strip()!r} "
                f"in step {chunk!r}"
            ) from None
        steps.append((sources, target))
    if not steps:
        raise ValueError("--schedule is empty")
    return steps


def _read_complex(path, allow_large):
    with open(path, "r", encoding="utf-8") as fh:
        return formats.parse_complex(fh.read(), allow_large)


def _read_module(spec, group):
    """Load a module from a file path, or the literal word ``trivial``."""
    if spec == "trivial":
        return formats.parse_module("trivial", group)
    with open(spec, "r", encoding="utf-8") as fh:
        return formats.parse_module(fh.read(), group)


def _emit(args, text, data):
    if args.json:
        print(json.dumps(data, indent=2))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _write_complex(path, complex_):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(formats.render_complex(complex_))


def _cmd_gen(args):
    if args.kind == "lens":
        c = lens_complex(args.p, args.k, args.allow_large)
    elif args.kind == "product":
        c = product_complex(args.p, _parse_int_list(args.ks, "--ks"), args.allow_large)
    else:
        group = ElementaryAbelianGroup(args.p, args.r, args.allow_large)
        c = random_free_complex(group, _parse_int_list(args.ranks, "--ranks"), args.seed)
    _emit(args, formats.render_complex(c), formats.complex_data(c))
    return 0


def _cmd_homology(args):
    c = _read_complex(args.infile, args.allow_large)
    a, b = _parse_range(args.deg)
    pairs = [(i, homology(c, i)) for i in range(a, b + 1)]
    _emit(
        args,
        formats.render_homology_table(pairs),
        formats.homology_table_data(pairs),
    )
    return 0


def _cmd_tate(args):
    group = ElementaryAbelianGroup(args.p, args.r, args.allow_large)
    module = _read_module(args.module, group)
    a, b = _parse_range(args.deg)
    table = tate_cohomology_range(group, module, a, b)
    _emit(
        args,
        formats.render_cohomology_table(table),
        formats.cohomology_table_data(table),
    )
    return 0


def _cmd_hyper(args):
    c = _read_complex(args.infile, args.allow_large)
    a, b = _parse_range(args.deg)
    table = tate_hypercohomology_range(c.group, c, a, b)
    _emit(
        args,
        formats.render_cohomology_table(table),
        formats.cohomology_table_data(table),
    )
    return 0


def _cmd_syzygy(args):
    group = ElementaryAbelianGroup(args.p, args.r, args.allow_large)
    module = _read_module(args.module, group)
    result = syzygy(module, args.n)
    _emit(args, formats.render_module(result), formats.module_data(result))
    return 0


def _cmd_glue(args):
    c = _read_complex(args.infile, args.allow_large)
    cone, cert = glue(c, args.m, args.n)
    if args.out:
        _write_complex(args.out, cone)
    _emit(args, formats.render_certificate(cert), formats.certificate_data(cert))
    return 0


def _cmd_gluerows(args):
    c = _read_complex(args.infile, args.allow_large)
    schedule = _parse_schedule(args.schedule)
    final, certs = glue_rows(c, schedule)
    if args.out:
        _write_complex(args.out, final)
    text = "".join(formats.render_certificate(cert) for cert in certs)
    if not certs:
        text = "(no glue steps)\n"
    _emit(
        args,
        text,
        {"certificates": [formats.certificate_data(cert) for cert in certs]},
    )
    return 0


def _cmd_browder(args):
    c = _read_complex(args.infile, args.allow_large)
    report = browder_check(c)
    _emit(args, formats.render_browder(report), formats.browder_data(report))
    return 0 if report.divides else 3


def _cmd_rows(args):
    dims = _parse_int_list(args.dims, "--dims")
    if not dims:
        raise ValueError("--dims needs at least one dimension")
    table = dimension_rows(len(dims), dims)
    _emit(args, formats.render_row_table(table), formats.row_table_data(table))
    return 0


def _cmd_exponents(args):
    group = ElementaryAbelianGroup(args.p, args.r, args.allow_large)
    module = _read_module(args.module, group)
    a, b = _parse_range(args.deg)
    table = exponent_profile(group, module, a, b)
    _emit(
        args,
        formats.render_cohomology_table(table, symbol="H"),
        formats.cohomology_table_data(table),
    )
    return 0


def _add_group_flags(sub):
    sub.add_argument("--p", type=int, required=True, help="prime p")
    sub.add_argument("--r", type=int, required=True, help="rank r of (Z/p)^r")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    common.add_argument("--allow-large", action="store_true", help="lift the size budget")

    parser = argparse.ArgumentParser(
        prog="tatekit",
        description="Exact Tate (hyper)cohomology, syzygies, and gluing over Z[(Z/p)^r].",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate example complexes")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    g_lens = gen_sub.add_parser("lens", parents=[common], help="lens space chain complex")
    g_lens.add_argument("--p", type=int, required=True)
    g_lens.add_argument("--k", type=int, required=True, help="dimension 2k-1")
    g_lens.set_defaults(func=_cmd_gen)
    g_prod = gen_sub.add_parser(
        "product", parents=[common], help="product of lens space complexes"
    )
    g_prod.add_argument("--p", type=int, required=True)
    g_prod.add_argument("--ks", required=True, help="comma list k1,k2,...")
    g_prod.set_defaults(func=_cmd_gen)
    g_rand = gen_sub.add_parser(
        "random", parents=[common], help="random free complex with exact differentials"
    )
    _add_group_flags(g_rand)
    g_rand.add_argument("--ranks", required=True, help="ranks from degree 0 up")
    g_rand.add_argument("--seed", type=int, default=0)
    g_rand.set_defaults(func=_cmd_gen)

    hom = sub.add_parser("homology", parents=[common], help="integral homology")
    hom.add_argument("--in", dest="infile", required=True)
    hom.add_argument("--deg", required=True, help="degree range A..B")
    hom.set_defaults(func=_cmd_homology)

    tate = sub.add_parser("tate", parents=[common], help="Tate cohomology of a module")
    _add_group_flags(tate)
    tate.add_argument("--module", required=True, help="module file or 'trivial'")
    tate.add_argument("--deg", required=True, help="degree range A..B")
    tate.set_defaults(func=_cmd_tate)

    hyp = sub.add_parser(
        "hyper", parents=[common], help="Tate hypercohomology of a complex"
    )
    hyp.add_argument("--in", dest="infile", required=True)
    hyp.add_argument("--deg", required=True, help="degree range A..B")
    hyp.set_defaults(func=_cmd_hyper)

    syz = sub.add_parser("syzygy", parents=[common], help="iterated syzygy module")
    _add_group_flags(syz)
    syz.add_argument("--module", required=True, help="module file or 'trivial'")
    syz.add_argument("--n", type=int, required=True)
    syz.set_defaults(func=_cmd_syzygy)

    gl = sub.add_parser("glue", parents=[common], help="one verified glue step")
    gl.add_argument("--in", dest="infile", required=True)
    gl.add_argument("--m", type=int, required=True)
    gl.add_argument("--n", type=int, required=True)
    gl.add_argument("--out", help="write the glued complex here")
    gl.set_defaults(func=_cmd_glue)

    glr = sub.add_parser("gluerows", parents=[common], help="run a gluing schedule")
    glr.add_argument("--in", dest="infile", required=True)
    glr.add_argument(
        "--schedule", required=True, help="steps 's1,s2->t;...' (empty sources ok)"
    )
    glr.add_argument("--out", help="write the final complex here")
    glr.set_defaults(func=_cmd_gluerows)

    br = sub.add_parser(
        "browder", parents=[common], help="exponent-product divisibility check"
    )
    br.add_argument("--in", dest="infile", required=True)
    br.set_defaults(func=_cmd_browder)

    rows = sub.add_parser(
        "rows", parents=[common], help="homology rows of a sphere product"
    )
    rows.add_argument("--dims", required=True, help="sphere dimensions n1,n2,...")
    rows.set_defaults(func=_cmd_rows)

    exps = sub.add_parser(
        "exponents", parents=[common], help="cohomology exponent profile"
    )
    _add_group_flags(exps)
    exps.add_argument("--module", required=True, help="module file or 'trivial'")
    exps.add_argument("--deg", required=True, help="degree range A..B (A >= 1)")
    exps.set_defaults(func=_cmd_exponents)

    return parser


def _merge_negative_values(argv):
    """Rewrite ``--flag -2..2`` as ``--flag=-2..2``.

    argparse reads a leading dash as an option prefix, so values like
    negative degrees or schedules starting at a negative source would
    otherwise be rejected.  ``--json`` and ``--allow-large`` take no value.
    """
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok.startswith("--")
            and tok not in ("--json", "--allow-large")
            and "=" not in tok
            and nxt is not None
            and re.match(r"^-\d", nxt)
        ):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_negative_values(list(argv)))
    # Exact answers print and parse back at any length, so the limit on
    # integer digits (0 when off, absent before Python 3.10.7) is lifted.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (TatekitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
