"""File-format round trips and end-to-end runs of the command line."""

import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tatekit import cli
from tatekit.errors import InvalidPresentation, ResourceLimit
from tatekit.exactlin import AbelianInvariants, IntMatrix
from tatekit.formats import (
    complex_data,
    module_data,
    parse_complex,
    parse_module,
    render_browder,
    render_complex,
    render_module,
    render_row_table,
)
from tatekit.gallery import lens_complex, product_complex, random_free_complex
from tatekit.groupring import ElementaryAbelianGroup
from tatekit.modpres import ModulePresentation, homology_module, trivial_module, zero_module
from tatekit.resolve import syzygy
from tatekit.surgery import BrowderReport, dimension_rows


def test_complex_round_trip_is_bit_exact():
    for p, r in [(2, 1), (3, 1), (2, 2)]:
        g = ElementaryAbelianGroup(p, r)
        for seed in range(3):
            c = random_free_complex(g, [2, 3, 2], seed)
            text = render_complex(c)
            again = render_complex(parse_complex(text))
            assert text == again, (p, r, seed)


def test_complex_round_trip_preserves_the_data():
    c = product_complex(2, [1, 1])
    d = parse_complex(render_complex(c))
    assert d.group.p == 2 and d.group.r == 2
    assert [d.rank(i) for i in range(3)] == [1, 2, 1]
    for i in (1, 2):
        assert d.differential(i).entries == c.differential(i).entries


def test_complex_with_zero_entries_round_trips():
    # zero entries are not stored, yet the file and the JSON spell out
    # every entry, zeros included
    c = product_complex(2, [2, 1])
    text = render_complex(c)
    assert " ".join(["0"] * c.group.order) in text.splitlines()
    d = parse_complex(text)
    assert render_complex(d) == text
    assert complex_data(d) == complex_data(c)
    for i, rows in complex_data(c)["differentials"].items():
        diff = c.differential(int(i))
        assert [len(row) for row in rows] == [diff.cols] * diff.rows


def test_parse_complex_rejects_malformed_text():
    good = render_complex(lens_complex(2, 1))
    cases = [
        "deg 0 rank 1",  # no group header
        "group 2\ndeg 0 rank 1",  # short header
        "group 4 1\ndeg 0 rank 1",  # composite order
        "group 2 1\ndeg 0 rank 1\ndeg 0 rank 2",  # duplicate degree
        "group 2 1\ndeg 0 rank -1",  # negative rank
        "group 2 1\ndeg 0 rank 1\nd 1\n1 1",  # d without a source degree
        good + "\nextra",  # trailing garbage
        good.replace("-1 1", "-1 1 1"),  # wrong entry width
        good.replace("-1 1", "-1 x"),  # non-integer coefficient
        "group 2 x\ndeg 0 rank 1",
        "group 2 1\ndeg 0 rank 1.5",
        "group 2 1\ndeg 0 rank 1\ndeg 1 rank 1\nd x",
    ]
    for text in cases:
        try:
            parse_complex(text)
        except ValueError as exc:
            assert "invalid literal" not in str(exc), text
        else:
            raise AssertionError(f"parse accepted: {text!r}")
    # a d line reads its shape from the deg lines before it, so a later
    # deg line is refused, with or without coefficient lines
    for text in (
        "group 2 1\nd 1\ndeg 0 rank 2\ndeg 1 rank 2",
        "group 2 1\nd 1\n-1 1\n0 0\n0 0\n-1 1\ndeg 0 rank 2\ndeg 1 rank 2",
        good + "deg 2 rank 1",
    ):
        with pytest.raises(ValueError, match="'deg .*' after the first differential"):
            parse_complex(text)


def test_parse_module_rejects_malformed_text():
    g = ElementaryAbelianGroup(2, 1)
    cases = [
        "gens -1\nrelations 0\naction 1",  # negative generator count
        "gens 0\nrelations -1\naction 1",  # negative relation count
        "gens 1\nrelations -1\naction 1\n1",
        "gens 1\nrelations 1\n2 3\naction 1\n1",  # wrong entry width
        "gens 1\naction 1\n1",  # no relations section
        "gens x\nrelations 0\naction 1",
        "gens 1\nrelations x\naction 1\n1",
        "gens 1\nrelations 1\nx\naction 1\n1",
        "gens 1\nrelations 0\naction 1\n1.5",
    ]
    for text in cases:
        try:
            parse_module(text, g)
        except ValueError as exc:
            assert "invalid literal" not in str(exc), text
        else:
            raise AssertionError(f"parse accepted: {text!r}")
    with pytest.raises(ValueError, match="action 1 row 0: expected integers, got '1.5'"):
        parse_module(cases[-1], g)


def test_parse_complex_ignores_comments_and_blanks():
    text = render_complex(lens_complex(2, 2))
    noisy = "# a sphere\n\n" + text.replace("\n", "\n# noise\n", 1)
    assert render_complex(parse_complex(noisy)) == text


def test_module_round_trip():
    g = ElementaryAbelianGroup(2, 2)
    m = syzygy(trivial_module(g), 1)
    text = render_module(m)
    m2 = parse_module(text, g)
    assert m2.gens == m.gens
    assert m2.relations.data == m.relations.data
    assert [a.data for a in m2.actions] == [a.data for a in m.actions]
    assert render_module(m2) == text


_complexes = st.builds(
    lambda pr, ranks, seed: random_free_complex(
        ElementaryAbelianGroup(*pr), ranks, seed
    ),
    st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]),
    st.lists(st.integers(0, 3), min_size=2, max_size=4),
    st.integers(0, 2**16),
)


@settings(max_examples=40)
@given(_complexes)
def test_complex_files_round_trip(c):
    text = render_complex(c)
    d = parse_complex(text)
    assert render_complex(d) == text
    assert d.group == c.group
    assert d.ranks == c.ranks
    assert d.diffs == c.diffs


@settings(max_examples=25)
@given(_complexes)
def test_module_files_round_trip(c):
    # homology modules carry relations, unlike syzygies; their pruned
    # forms and the zero module often have 0 generators or 0 relations
    modules = [zero_module(c.group)]
    for j in c.degrees():
        m = homology_module(c, j)
        modules += [m, m.pruned()]
    for m in modules:
        text = render_module(m)
        m2 = parse_module(text, c.group)
        assert render_module(m2) == text, m
        assert m2.gens == m.gens
        assert m2.relations.data == m.relations.data
        assert [a.data for a in m2.actions] == [a.data for a in m.actions]


def test_parse_module_trivial_literal():
    g = ElementaryAbelianGroup(3, 2)
    m = parse_module("trivial", g)
    assert m.gens == 1
    assert m.invariants().free_rank == 1


def test_parse_module_validates_the_presentation(tmp_path, capsys):
    g = ElementaryAbelianGroup(2, 1)
    # action of order 3 over a p = 2 group
    text = "gens 1\nrelations 0\naction 1\n-1"
    m = parse_module(text, g)
    assert m.actions[0].data == [[-1]]
    bad = "gens 2\nrelations 0\naction 1\n0 -1\n1 -1"
    problem = "action 1 does not have order dividing p (column 0)"
    with pytest.raises(InvalidPresentation) as exc:
        parse_module(bad, g)
    assert exc.value.problems == [problem]
    # the same file on the command line exits 2 naming the problem
    path = tmp_path / "bad.mod"
    path.write_text(bad)
    for cmd in (["tate", "--deg", "0..0"], ["syzygy", "--n", "1"]):
        assert cli.main(cmd + ["--p", "2", "--r", "1", "--module", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {problem}\n" and captured.out == ""




def test_cli_prints_and_reads_back_integers_past_the_digit_limit(tmp_path, capsys, digit_limit):
    # the syzygy of Z/(2^20000 + 1) acts by 20,001-bit entries, which
    # the command prints, in text and as JSON, and reads back from a
    # module file; the limit is back in place afterwards
    g = ElementaryAbelianGroup(2, 1)
    module = ModulePresentation(g, 1, IntMatrix([[2**20000 + 1]]))
    want = syzygy(module, 1)
    assert max(abs(v) for a in want.actions for col in a.columns for v in col.values()) > 2**20000
    sys.set_int_max_str_digits(0)
    path = tmp_path / "big.mod"
    path.write_text(render_module(module))
    sys.set_int_max_str_digits(digit_limit)
    args = ["syzygy", "--p", "2", "--r", "1", "--module", str(path), "--n", "1"]
    assert cli.main(args) == 0
    text = capsys.readouterr().out
    assert cli.main(args + ["--json"]) == 0
    data = capsys.readouterr().out
    assert sys.get_int_max_str_digits() == digit_limit
    sys.set_int_max_str_digits(0)
    got = parse_module(text, g)
    assert (got.gens, got.relations, got.actions) == (want.gens, want.relations, want.actions)
    assert json.loads(data) == module_data(want)


def test_render_browder_failure_branch():
    report = BrowderReport(8, [(1, AbelianInvariants((3,), 0), 3)], 3, False)
    text = render_browder(report)
    assert "DOES NOT DIVIDE" in text
    assert "group order 8" in text
    assert "H_1" in text


def test_render_row_table_pinned_example():
    assert render_row_table(dimension_rows(2, [3, 2])) == "{3,2},{5}\n"


def test_cli_rows_pinned_output(capsys):
    assert cli.main(["rows", "--dims", "3,2"]) == 0
    assert capsys.readouterr().out == "{3,2},{5}\n"
    assert cli.main(["rows", "--dims", "3,2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["separated"] is True
    assert data["rows"] == {"1": [2, 3], "2": [5]}
    assert data["schedule"] == [
        {"sources": [2], "target": 3},
        {"sources": [5], "target": 6},
    ]


def test_cli_tate_pinned_output(capsys):
    code = cli.main(
        ["tate", "--p", "2", "--r", "2", "--module", "trivial", "--deg", "0..0"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Ĥ^0 = Z/4" in out


def test_cli_tate_module_file_with_relations(tmp_path, capsys):
    f2 = tmp_path / "f2.mod"
    f2.write_text("gens 1\nrelations 1\n2\naction 1\n1\naction 2\n1\n")
    code = cli.main(
        ["tate", "--p", "2", "--r", "2", "--module", str(f2), "--deg", "-2..2"]
    )
    assert code == 0
    assert capsys.readouterr().out == (
        "Ĥ^-2 = Z/2 + Z/2        [exponent 2]\n"
        "Ĥ^-1 = Z/2              [exponent 2]\n"
        "Ĥ^0  = Z/2              [exponent 2]\n"
        "Ĥ^1  = Z/2 + Z/2        [exponent 2]\n"
        "Ĥ^2  = Z/2 + Z/2 + Z/2  [exponent 2]\n"
    )


def test_cli_tate_module_file_pruned_to_trivial(tmp_path, capsys):
    # Z on three generators identified by two unit relations; the swaps
    # commute and square to 1 only modulo the relations
    z = tmp_path / "z.mod"
    z.write_text(
        "gens 3\nrelations 2\n1 0\n-1 1\n0 -1\n"
        "action 1\n0 1 0\n1 0 0\n0 0 1\n"
        "action 2\n1 0 0\n0 0 1\n0 1 0\n"
    )
    args = ["tate", "--p", "2", "--r", "2", "--deg", "-3..3", "--module"]
    assert cli.main(args + ["trivial"]) == 0
    want = capsys.readouterr().out
    assert cli.main(args + [str(z)]) == 0
    assert capsys.readouterr().out == want


def test_cli_tate_handles_negative_ranges(capsys):
    code = cli.main(
        ["tate", "--p", "3", "--r", "1", "--module", "trivial", "--deg", "-2..1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 4
    assert lines[0].startswith("Ĥ^-2")


def _gen(tmp_path, capsys, args, name):
    """Run a gen subcommand and catch its stdout in a file, the way a
    shell redirect would."""
    assert cli.main(["gen"] + args) == 0
    path = tmp_path / name
    path.write_text(capsys.readouterr().out)
    return path


def test_cli_gen_homology_browder_pipeline(tmp_path, capsys):
    path = _gen(tmp_path, capsys, ["product", "--p", "2", "--ks", "1,1"],
                "torus.cx")
    assert cli.main(["homology", "--in", str(path), "--deg", "0..2"]) == 0
    out = capsys.readouterr().out
    assert "H_1 = Z^2" in out
    assert cli.main(["browder", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert "product 4 DIVIDES group order 4" in out


def test_cli_browder_json(tmp_path, capsys):
    path = _gen(tmp_path, capsys, ["lens", "--p", "3", "--k", "2"], "c.cx")
    assert cli.main(["browder", "--in", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["group_order"] == 3
    assert data["divides"] is True
    assert data["product"] % 3 == 0
    assert [row["degree"] for row in data["rows"]] == [1, 2, 3]


def test_cli_glue_writes_a_parseable_complex(tmp_path, capsys):
    src = _gen(tmp_path, capsys, ["lens", "--p", "2", "--k", "2"], "in.cx")
    dst = tmp_path / "out.cx"
    assert cli.main(["glue", "--in", str(src), "--m", "0", "--n", "1",
                     "--out", str(dst)]) == 0
    out = capsys.readouterr().out
    assert "verdict ok" in out
    glued = parse_complex(dst.read_text())
    assert cli.main(["homology", "--in", str(dst), "--deg", "0..0"]) == 0
    h0 = capsys.readouterr().out
    assert "H_0 = 0" in h0
    assert glued.group.p == 2


def test_cli_gluerows_schedule(tmp_path, capsys):
    src = _gen(tmp_path, capsys, ["lens", "--p", "2", "--k", "2"], "in.cx")
    dst = tmp_path / "out.cx"
    code = cli.main(["gluerows", "--in", str(src), "--schedule", "2->3;1->3",
                     "--out", str(dst)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("verdict ok") == 2
    # the final complex, read back: S^3 with H_1 and H_2 glued away
    assert cli.main(["homology", "--in", str(dst), "--deg", "0..4"]) == 0
    assert capsys.readouterr().out == (
        "H_0 = Z  [exponent inf]\n"
        "H_1 = 0  [exponent 1]\n"
        "H_2 = 0  [exponent 1]\n"
        "H_3 = Z  [exponent inf]\n"
        "H_4 = 0  [exponent 1]\n"
    )


def test_cli_gluerows_rejects_a_source_above_its_target(tmp_path, capsys):
    src = _gen(tmp_path, capsys, ["lens", "--p", "2", "--k", "2"], "in.cx")
    for schedule, step in [("5->3", "schedule step 0"), ("2->3;5->3", "schedule step 1")]:
        assert cli.main(["gluerows", "--in", str(src), "--schedule", schedule]) == 2
        captured = capsys.readouterr()
        assert step in captured.err and "5 -> 3" in captured.err
        assert captured.out == ""  # the valid step before it never ran


def test_cli_gluerows_without_glue_steps(tmp_path, capsys):
    # a step whose sources equal its target glues nothing
    src = _gen(tmp_path, capsys, ["product", "--p", "2", "--ks", "1,1"], "t.cx")
    dst = tmp_path / "out.cx"
    assert cli.main(["gluerows", "--in", str(src), "--schedule", "1->1",
                     "--out", str(dst)]) == 0
    assert capsys.readouterr().out == "(no glue steps)\n"
    assert dst.read_text() == src.read_text()
    assert cli.main(["gluerows", "--in", str(src), "--schedule", "1->1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"certificates": []}


def test_cli_hyper_of_a_free_complex(tmp_path, capsys):
    # a finite free complex has zero Tate hypercohomology in every degree
    path = _gen(tmp_path, capsys, ["product", "--p", "2", "--ks", "1,1"], "t.cx")
    assert cli.main(["hyper", "--in", str(path), "--deg", "-1..1"]) == 0
    assert capsys.readouterr().out == (
        "Ĥ^-1 = 0  [exponent 1]\n"
        "Ĥ^0  = 0  [exponent 1]\n"
        "Ĥ^1  = 0  [exponent 1]\n"
    )
    assert cli.main(["hyper", "--in", str(path), "--deg", "-1..1", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["degree"] for row in rows] == [-1, 0, 1]
    for row in rows:
        assert row["invariants"] == {"torsion": [], "free": 0} and row["exponent"] == 1
    assert cli.main(["hyper", "--in", str(path), "--deg", "2..1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --deg '2..1' is an empty degree range\n"
    assert captured.out == ""


def test_cli_syzygy_emits_module_format(tmp_path, capsys):
    assert cli.main(["syzygy", "--p", "2", "--r", "2", "--module", "trivial",
                     "--n", "1"]) == 0
    out = capsys.readouterr().out
    g = ElementaryAbelianGroup(2, 2)
    m = parse_module(out, g)
    assert m.gens == syzygy(trivial_module(g), 1).gens
    assert cli.main(["syzygy", "--p", "2", "--r", "2", "--module", "trivial",
                     "--n", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: syzygy index must be nonnegative\n"
    assert captured.out == ""


def test_cli_exponents(capsys):
    code = cli.main(
        ["exponents", "--p", "2", "--r", "1", "--module", "trivial",
         "--deg", "1..4"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "H^2" in out and "exponent 2" in out


def test_cli_refuses_a_group_over_the_size_budget(capsys):
    start = time.perf_counter()
    assert cli.main(["tate", "--p", "2", "--r", "24", "--module", "trivial",
                     "--deg", "0..0"]) == 2
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert "(Z/2)^24" in err and "16777216" in err and "--allow-large" in err
    # the override is accepted, also before a negative degree range
    assert cli.main(["tate", "--p", "2", "--r", "1", "--module", "trivial",
                     "--allow-large", "--deg", "-1..0"]) == 0
    assert "Ĥ^0  = Z/2" in capsys.readouterr().out


def test_cli_refuses_a_huge_prime_before_testing_it():
    # 2^89 - 1 is prime, and trial division would not finish, so the
    # command runs in a child that the timeout stops.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    run = subprocess.run(
        [sys.executable, "-m", "tatekit.cli", "tate", "--p", "618970019642690137449562111",
         "--r", "1", "--module", "trivial", "--deg", "0..0"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=30,
    )
    assert run.returncode == 2
    assert "(Z/618970019642690137449562111)^1" in run.stderr
    assert "over the budget" in run.stderr and "--allow-large" in run.stderr


def test_cli_reads_back_an_over_budget_complex_with_the_override(tmp_path, capsys):
    assert cli.main(["gen", "random", "--allow-large", "--p", "2", "--r", "12",
                     "--ranks", "1"]) == 0
    big = tmp_path / "big.cx"
    big.write_text(capsys.readouterr().out)
    assert cli.main(["homology", "--in", str(big), "--deg", "0..0"]) == 2
    assert "(Z/2)^12" in capsys.readouterr().err
    assert cli.main(["homology", "--in", str(big), "--deg", "0..0",
                     "--allow-large"]) == 0
    assert "H_0 = Z^4096" in capsys.readouterr().out
    with pytest.raises(ResourceLimit):
        parse_complex(big.read_text())
    assert parse_complex(big.read_text(), allow_large=True).group.order == 4096
    # the generated complexes take the override too
    assert cli.main(["gen", "lens", "--p", "2053", "--k", "1"]) == 2
    assert "(Z/2053)^1" in capsys.readouterr().err
    assert lens_complex(2053, 1, allow_large=True).rank(1) == 1


def test_cli_error_exits(tmp_path, capsys):
    # missing file
    assert cli.main(["homology", "--in", str(tmp_path / "nope.cx"),
                     "--deg", "0..1"]) == 2
    assert "error:" in capsys.readouterr().err
    # malformed range
    assert cli.main(["tate", "--p", "2", "--r", "1", "--module", "trivial",
                     "--deg", "1..x"]) == 2
    err = capsys.readouterr().err
    assert "error: --deg" in err and "'1..x'" in err
    # malformed module file
    bad = tmp_path / "bad.mod"
    bad.write_text("gens x")
    assert cli.main(["tate", "--p", "2", "--r", "1", "--module", str(bad),
                     "--deg", "0..0"]) == 2
    assert "error:" in capsys.readouterr().err
    # a degree declared after a differential
    late = tmp_path / "late.cx"
    late.write_text("group 2 1\nd 1\ndeg 0 rank 2\ndeg 1 rank 2\n")
    assert cli.main(["homology", "--in", str(late), "--deg", "0..1"]) == 2
    assert "error: degree line 'deg 0 rank 2' after the first" in capsys.readouterr().err
    # glue across a homology gap
    torus = _gen(tmp_path, capsys, ["product", "--p", "2", "--ks", "1,1"],
                 "t.cx")
    assert cli.main(["glue", "--in", str(torus), "--m", "0", "--n", "2"]) == 2
    assert "blocking" in capsys.readouterr().err
    # malformed schedule target
    assert cli.main(["gluerows", "--in", str(torus), "--schedule", "1->x"]) == 2
    err = capsys.readouterr().err
    assert "error: --schedule target" in err and "'x'" in err


def test_cli_browder_failure_exit_code(tmp_path, capsys, monkeypatch):
    path = _gen(tmp_path, capsys, ["lens", "--p", "2", "--k", "1"], "c.cx")

    def fake(complex_):
        return BrowderReport(2, [], 1, False)

    monkeypatch.setattr(cli, "browder_check", fake)
    assert cli.main(["browder", "--in", str(path)]) == 3
    assert "DOES NOT DIVIDE" in capsys.readouterr().out


def test_cli_internal_errors_exit_2_without_a_traceback(tmp_path, capsys, monkeypatch):
    path = _gen(tmp_path, capsys, ["lens", "--p", "2", "--k", "1"], "c.cx")

    def broken(complex_):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "browder_check", broken)
    assert cli.main(["browder", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: boom\n"
    assert captured.out == ""


def test_cli_gen_random_round_trip(tmp_path, capsys):
    path = _gen(tmp_path, capsys, ["random", "--p", "3", "--r", "1",
                                   "--ranks", "2,2,1", "--seed", "5"], "r.cx")
    g = ElementaryAbelianGroup(3, 1)
    want = render_complex(random_free_complex(g, [2, 2, 1], 5))
    assert path.read_text() == want
