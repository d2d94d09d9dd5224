import argparse
import io
import json
import os
import pathlib
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

import ascentseq
from ascentseq import cli, core, series
from ascentseq import gentree_0021 as gt
from ascentseq import gentree_pair as gp
from ascentseq.cli import main


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def test_count_formula():
    code, out = run(["count", "--patterns", "201,210", "--n", "7", "--method", "formula"])
    assert code == 0
    assert out.strip() == "731"


@pytest.mark.parametrize("method", ["brute", "tree", "recurrence", "gf", "formula"])
def test_count_methods_agree_pair(method):
    code, out = run(["count", "--patterns", "201,210", "--n", "7", "--method", method])
    assert code == 0
    assert out.strip() == "731"


@pytest.mark.parametrize("method", ["brute", "tree", "recurrence", "gf", "formula"])
def test_count_methods_agree_0021(method):
    code, out = run(["count", "--patterns", "0021", "--n", "8", "--method", method])
    assert code == 0
    assert out.strip() == "2950"


def test_count_1012_formula_and_gf():
    for method in ("brute", "gf", "formula"):
        code, out = run(["count", "--patterns", "1012", "--n", "7", "--method", method])
        assert (code, out.strip()) == (0, "731")


NO_TREE = "needs a generating tree; available for pattern sets 201,210 and 0021 only"
NO_CLOSED_FORM = (
    "is only available for the pattern sets 201,210 and 0021 and 1012, "
    "whose counts have a closed form"
)


def test_count_method_availability_errors(capsys):
    for patterns, method, reason in [
        ("1012", "tree", NO_TREE), ("1012", "recurrence", NO_TREE),
        ("010", "gf", NO_CLOSED_FORM), ("010", "formula", NO_CLOSED_FORM),
    ]:
        argv = ["count", "--patterns", patterns, "--n", "5", "--method", method]
        assert run(argv) == (2, ""), argv
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"ascentseq: error: method {method!r} {reason}", argv


def test_count_reads_the_parsed_pattern_set():
    # the set is looked up as parsed, so the order it was written in is no matter
    argv = ["count", "--patterns", "210,201", "--n", "7", "--method"]
    assert {run(argv + [m]) for m in ("tree", "recurrence", "gf")} == {(0, "731\n")}
    # brute force works for any pattern set
    code, out = run(["count", "--patterns", "010", "--n", "5", "--method", "brute"])
    assert code == 0 and out.strip().isdigit()


def test_count_json_and_csv():
    code, out = run(
        ["count", "--patterns", "0021", "--n", "6", "--format", "json", "--method", "gf"]
    )
    data = json.loads(out)
    assert data == {"patterns": "0021", "n": 6, "method": "gf", "count": 188}
    code, out = run(["count", "--patterns", "0021", "--n", "6", "--format", "csv"])
    assert out.splitlines()[0] == "patterns,n,method,count"


def test_enumerate():
    code, out = run(["enumerate", "--patterns", "0021", "--n", "1"])
    assert (code, out.strip()) == (0, "0")
    code, out = run(["enumerate", "--patterns", "201,210", "--n", "3"])
    assert out.split() == ["000", "001", "010", "011", "012"]
    code, out = run(["enumerate", "--patterns", "0021", "--n", "4", "--format", "json"])
    data = json.loads(out)
    assert len(data["sequences"]) == 15


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("text", ["1012", "0021"])
def test_enumerate_writes_format_sequence_of_each_avoider(text, fmt):
    words = core.enumerate_avoiders(9, core.parse_patterns(text))
    seqs = [core.format_sequence(w) for w in words]
    obj = {"patterns": text, "n": 9, "sequences": seqs}
    buf = io.StringIO()
    with redirect_stdout(buf):
        cli._emit(argparse.Namespace(format=fmt, out=None), obj, ["sequence", *seqs], seqs)
    argv = ["enumerate", "--patterns", text, "--n", "9", "--format", fmt]
    assert run(argv) == (0, buf.getvalue())


def test_enumerate_writes_a_digit_above_9_dotted():
    assert run(["enumerate", "--patterns", "00", "--n", "11"]) == (0, "0.1.2.3.4.5.6.7.8.9.10\n")


def test_table_pair():
    code, out = run(["table", "--family", "pair", "--n", "4"])
    assert out.splitlines() == ["1 5 0 0", "0 3 1 0", "0 0 4 0", "0 0 0 1"]
    code, out = run(["table", "--family", "pair", "--n", "4", "--format", "csv"])
    assert out.splitlines()[0] == "n,p,q,g"
    assert "4,0,2,5" in out.splitlines()
    code, out = run(["table", "--family", "pair", "--n", "4", "--format", "json"])
    assert json.loads(out)["array"][0] == [1, 5, 0, 0]


def test_table_a0_a1():
    code, out = run(["table", "--family", "a0", "--n", "5"])
    assert out.splitlines() == ["14 6 1", "4 1 0", "1 0 0"]
    code, out = run(["table", "--family", "a1", "--n", "4", "--format", "json"])
    assert json.loads(out)["array"] == [[1, 3, 1], [1, 1, 0], [1, 0, 0]]
    code, out = run(["table", "--family", "a0", "--n", "4", "--format", "csv"])
    lines = out.splitlines()
    assert lines[0] == "n,class,q,r,count"
    assert lines[1:] == ["4,g0,1,2,4", "4,g0,1,3,1", "4,g0,2,2,1"]


@pytest.mark.parametrize("family", ["pair", "a0", "a1"])
def test_table_runs_the_recurrence_once(monkeypatch, family):
    if family == "pair":
        module, name = gp, "pair_recurrence_levels"
    else:
        module, name = gt, "triple_recurrence_levels"
    real = getattr(module, name)
    calls = []

    def counted(n_max):
        calls.append(n_max)
        return real(n_max)

    monkeypatch.setattr(module, name, counted)
    for fmt in ("plain", "csv", "json"):
        calls.clear()
        code, _ = run(["table", "--family", family, "--n", "6", "--format", fmt])
        assert code == 0 and calls == [6], fmt


def test_csv_output_is_stable():
    first = run(["table", "--family", "a1", "--n", "6", "--format", "csv"])
    second = run(["table", "--family", "a1", "--n", "6", "--format", "csv"])
    assert first == second


def test_coeffs_plain_and_json():
    code, out = run(["coeffs", "--gf", "C2", "--order", "7"])
    assert out.splitlines() == ["2 1", "3 3", "4 8", "5 23", "6 74", "7 262"]
    code, out = run(["coeffs", "--gf", "f", "--order", "5", "--format", "json"])
    data = json.loads(out)
    assert data["variables"] == ["z"]
    assert data["terms"][0] == [0, "1/1"]
    code, out = run(["coeffs", "--gf", "C_pair", "--order", "5", "--format", "csv"])
    assert out.splitlines()[0] == "x,y,coeff"


# `coeffs --gf f --order 6` byte for byte: a one-variable series in each format
F_ORDER_6 = {
    "plain": "0 1\n1 1\n2 3\n3 10\n4 36\n5 137\n6 543\n",
    "csv": "z,coeff\n0,1/1\n1,1/1\n2,3/1\n3,10/1\n4,36/1\n5,137/1\n6,543/1\n",
    "json": '{"variables": ["z"], "order": 6, "terms": [[0, "1/1"], [1, "1/1"], '
    '[2, "3/1"], [3, "10/1"], [4, "36/1"], [5, "137/1"], [6, "543/1"]]}\n',
}


@pytest.mark.parametrize("fmt", sorted(F_ORDER_6))
def test_coeffs_univariate_output_is_pinned(fmt):
    assert run(["coeffs", "--gf", "f", "--order", "6", "--format", fmt]) == (0, F_ORDER_6[fmt])


# a three-variable series in plain text, where each exponent is its own column
def test_coeffs_multivariate_plain_is_pinned():
    assert run(["coeffs", "--gf", "D_0021", "--order", "5"]) == (0, "1 1 2 1\n1 1 3 1\n")


@pytest.mark.parametrize(
    "fmt, text",
    [
        ("plain", "0 0 -1/2\n0 2 5/21\n1 0 11\n"),
        ("csv", "x,y,coeff\n0,0,-1/2\n0,2,5/21\n1,0,11/1\n"),
    ],
)
def test_coeffs_writes_a_fraction_as_num_over_den(monkeypatch, fmt, text):
    # no closed form has a non-integer coefficient, so one is patched in; a
    # denominator ending in 1 keeps it, and an integer drops its "/1"
    terms = {(1, 0): 11, (0, 0): Fraction(-1, 2), (0, 2): Fraction(5, 21)}

    def built(ring):
        return series.MSeries(("x", "y"), ring.order, terms)

    monkeypatch.setitem(series._BUILDERS, "f", built)
    assert run(["coeffs", "--gf", "f", "--order", "3", "--format", fmt]) == (0, text)


def test_gf_choices_are_the_closed_forms():
    # named in cli.py so that building the parser loads no series; the order
    # is that of --help and of the invalid-choice error
    assert cli.GF_CHOICES == series.GF_NAMES


def test_count_sets_are_the_tree_modules_sets():
    # named in cli.py so that a count loads no module beyond its own pipeline
    assert cli.PAIR_SET == frozenset(gp.PAIR_PATTERNS)
    assert cli.SET_0021 == frozenset({gt.QUAD_PATTERN})
    assert set(cli.TOTAL_GF.values()) <= set(series.GF_NAMES)


def test_coeffs_json_roundtrip():
    from ascentseq.series import build_closed_form

    code, out = run(["coeffs", "--gf", "D_0021", "--order", "9", "--format", "json"])
    assert json.loads(out) == build_closed_form("D_0021", 9).to_json_dict()


def test_verify_suite_exit_codes():
    code, out = run(["verify", "--suite", "wilf", "--n-max", "6"])
    assert code == 0
    assert "overall: PASS" in out
    code, out = run(["verify", "--suite", "pair", "--n-max", "6", "--order", "16"])
    assert code == 0
    code, out = run(
        ["verify", "--suite", "0021", "--n-max", "6", "--order", "16", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_usage_errors_exit_2(tmp_path):
    assert run([])[0] == 2
    assert run(["count", "--patterns", "12", "--n", "3"])[0] == 2  # unreduced
    assert run(["count", "--patterns", "0021", "--n", "0"])[0] == 2
    assert run(["verify", "--suite", "pair", "--n-max", "10", "--order", "5"])[0] == 2
    assert run(["verify", "--suite", "pair", "--order", "5"])[0] == 2
    assert run(["verify", "--suite", "0021", "--order", "5"])[0] == 2
    assert run(["verify", "--suite", "all", "--n-max", "1", "--order", "1"])[0] == 2
    assert run(["verify", "--suite", "wilf", "--n-max", "0"])[0] == 2
    assert run(["verify", "--suite", "wilf", "--n-max", "5", "--order", "3"])[0] == 2
    assert run(["coeffs", "--gf", "nope", "--order", "5"])[0] == 2
    assert run(["count", "--patterns", "\u0660\u0661", "--n", "3"])[0] == 2  # Arabic-Indic 01
    assert run(["count", "--patterns", "\u00b2", "--n", "3"])[0] == 2  # superscript two
    count = ["count", "--patterns", "201,210", "--n", "3", "--out"]
    assert run(count + [str(tmp_path / "missing" / "x.txt")])[0] == 2
    assert run(count + [str(tmp_path)])[0] == 2


def _with_extra_child(real, parent, extra):
    """The succession rule real, but parent also has the child extra."""

    def wrong(label):
        yield from real(label)
        if label == parent:
            yield extra

    return wrong


@pytest.mark.parametrize(
    "module, parent, extra, suite",
    [(gt, (1, 3, 0), (3, 5, 0), "0021"), (gp, (0, 2), (3, 2), "pair")],
    ids=["0021", "pair"],
)
def test_a_wrong_rule_is_no_usage_error(monkeypatch, module, parent, extra, suite):
    monkeypatch.setattr(module, "_rule", _with_extra_child(module._rule, parent, extra))
    try:
        code = run(["verify", "--suite", suite, "--n-max", "5", "--order", "10"])[0]
    except ValueError:  # uncaught, the error exits 1
        code = 1
    assert code == 1


def test_out_file_written_atomically(tmp_path):
    target = tmp_path / "out.txt"
    code, out = run(
        ["count", "--patterns", "201,210", "--n", "5", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "51\n"
    leftovers = [p for p in tmp_path.iterdir() if p != target]
    assert leftovers == []


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask-022", "umask-077"])
def test_out_file_has_the_mode_open_would_give(tmp_path, umask):
    # a new file gets 0666 less the umask, and a file written over keeps its mode
    new, old, plain = (tmp_path / name for name in ("new.txt", "old.txt", "plain.txt"))
    old.write_text("")
    old.chmod(0o640)
    saved = os.umask(umask)
    try:
        for target in (new, old):
            argv = ["count", "--patterns", "201,210", "--n", "5", "--out", str(target)]
            assert run(argv) == (0, "")
        with open(plain, "w"):
            pass
    finally:
        os.umask(saved)
    modes = [p.stat().st_mode & 0o777 for p in (new, old, plain)]
    assert modes == [0o666 & ~umask, 0o640, 0o666 & ~umask]
    assert old.read_text() == "51\n"


def test_out_writes_through_a_symlink(tmp_path):
    # as open(link, "w") would: the target gets the output, the link stays
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("x\n")
    target.chmod(0o640)
    link.symlink_to(target.name)
    assert run(["count", "--patterns", "0021", "--n", "3", "--out", str(link)]) == (0, "")
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_text() == "5\n" and target.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]


# `verify --suite all --n-max 5 --order 12` byte for byte: the merged report's
# sort order, its wilf rows and the text format
VERIFY_ALL_TEXT = """\
suite: all
PASS pair.counts.pentagon [n<=5] -- counts [1, 2, 5, 15, 51]...
PASS pair.counts.recurrence_vs_formula [n<=20]
PASS pair.gf.coefficients [n<=6]
PASS pair.gf.diagonal_ones [n<=6]
PASS pair.gf.residual_c [order<=12] -- identically zero
PASS pair.gf.residual_d [order<=12] -- identically zero
PASS pair.gf.total_vs_formula [n<=40]
PASS pair.golden.level_arrays [n<=5]
PASS pair.labels.rule_vs_definition [n<=8]
PASS pair.relations.seven_identities [2<=n<=15] -- all seven identities hold
PASS t0021.columns.first_vs_f [n<=20] -- alignment: sum_n g0(n,1,2) z^n = z^2 (f(z)-1)/(1-z)
PASS t0021.columns.ratio_is_g [2<=r<18, n<=20] -- alignment: \
sum_n g0(n,1,r+1) z^n = z g(z) sum_n g0(n,1,r) z^n
PASS t0021.counts.pentagon [n<=5] -- counts [1, 2, 5, 15, 51]...
PASS t0021.counts.recurrence_vs_formula [n<=20]
PASS t0021.counts.simulation_vs_recurrence [n<=5]
PASS t0021.gf.coefficients [n<=6]
PASS t0021.gf.level_totals [n<=6] -- g0 + g1 sums plus the single increasing node
PASS t0021.gf.residual_c [order<=12] -- identically zero
PASS t0021.gf.residual_d [order<=12] -- identically zero
PASS t0021.gf.total_vs_formula [n<=40] -- matches the pair-class closed form coefficientwise
PASS t0021.golden.level_arrays [n<=8]
PASS t0021.labels.rule_vs_definition [n<=8]
PASS t0021.relations.row_shift [n<=20] -- \
each level array is the previous one pushed down one row
PASS t0021.relations.single_increasing_node [n<=20]
PASS wilf.counts.equal [n<=5] -- both reach 51 at n=5
PASS wilf.counts.formula [n<=5]
overall: PASS
"""


def test_verify_all_text_is_pinned():
    argv = ["verify", "--suite", "all", "--n-max", "5", "--order", "12"]
    assert run(argv) == (0, VERIFY_ALL_TEXT)


# `table --format csv` byte for byte: rows come straight from the level's cells
TABLE_CSV = {
    "pair": "n,p,q,g\n4,0,1,1\n4,0,2,5\n4,1,2,3\n4,1,3,1\n4,2,3,4\n4,3,4,1\n",
    "a1": "n,class,q,r,count\n3,g1,1,1,1\n3,g1,1,2,1\n3,g1,2,1,1\n",
}


@pytest.mark.parametrize("family,n", [("pair", "4"), ("a1", "3")])
def test_table_csv_is_pinned(family, n):
    argv = ["table", "--family", family, "--n", n, "--format", "csv"]
    assert run(argv) == (0, TABLE_CSV[family])


def _is_json_object(text):
    try:
        return isinstance(json.loads(text), dict)
    except ValueError:
        return False


# one invocation per subcommand, with its csv header (None: no csv format)
SUBCOMMANDS = {
    "count": (["count", "--patterns", "201,210", "--n", "5"], "patterns,n,method,count"),
    "enumerate": (["enumerate", "--patterns", "0021", "--n", "3"], "sequence"),
    "table-pair": (["table", "--family", "pair", "--n", "3"], "n,p,q,g"),
    "table-a0": (["table", "--family", "a0", "--n", "4"], "n,class,q,r,count"),
    "coeffs": (["coeffs", "--gf", "f", "--order", "4"], "z,coeff"),
    "verify": (["verify", "--suite", "wilf", "--n-max", "3"], None),
}


@pytest.mark.parametrize(
    "argv,header,fmt",
    [pytest.param(argv, header, fmt, id=f"{name}-{fmt}")
     for name, (argv, header) in SUBCOMMANDS.items()
     for fmt in ("plain", "json", "csv") if header or fmt != "csv"],
)
def test_each_format_produces_that_format(argv, header, fmt):
    code, out = run(argv + ["--format", fmt])
    assert code == 0 and out.endswith("\n")
    first = out.splitlines()[0]
    assert _is_json_object(out) == (fmt == "json")
    assert (first == header) == (fmt == "csv")


def test_verify_rejects_csv():
    argv = ["verify", "--suite", "wilf", "--n-max", "3", "--format", "csv"]
    assert run(argv) == (2, "")
    code, out = run(["verify", "--help"])
    assert code == 0 and "{plain,json}" in out


# `coeffs --order 0`: the constant term of every closed form, as plain text
ORDER_0_PLAIN = {
    "C_pair": "0", "D_pair": "0", "C2": "0", "C_total_pair": "0", "C_0021": "0",
    "D_0021": "0", "total_0021": "0", "f": "0 1", "g": "0 1",
}


def test_coeffs_order_0_is_the_constant_term():
    assert sorted(ORDER_0_PLAIN) == sorted(series.GF_NAMES)
    for gf, text in ORDER_0_PLAIN.items():
        assert run(["coeffs", "--gf", gf, "--order", "0"]) == (0, text + "\n"), gf
    argv = ["coeffs", "--gf", "C_pair", "--order", "0", "--format", "csv"]
    assert run(argv) == (0, "x,y,coeff\n")
    argv = ["coeffs", "--gf", "f", "--order", "0", "--format", "json"]
    assert run(argv) == (0, '{"variables": ["z"], "order": 0, "terms": [[0, "1/1"]]}\n')
    assert run(["coeffs", "--gf", "f", "--order", "-1"]) == (2, "")


COUNT_METHODS = ("brute", "tree", "recurrence", "gf", "formula")


def _plus_one_at_top(real):
    """+1 on the t^order term of every one-variable closed form built."""

    def wrong(name, order):
        gf = real(name, order)
        return gf + series.MSeries(gf.vars, order, {(order,): 1})

    return wrong


@pytest.mark.parametrize(
    "module, name, perturb, method",
    [
        (series, "a007317", lambda real: lambda n: real(n) + 1, "formula"),
        (series, "build_closed_form", _plus_one_at_top, "gf"),
        (gp, "simulate_pair_levels", lambda real: lambda n: real(n)[:-1], "tree"),
        (gp, "pair_recurrence_levels", lambda real: lambda n: real(n)[:-1], "recurrence"),
        (core, "count_avoiders", lambda real: lambda n, p: [c + 1 for c in real(n, p)], "brute"),
    ],
    ids=["formula", "gf", "tree", "recurrence", "brute"],
)
def test_each_method_runs_its_own_pipeline(monkeypatch, module, name, perturb, method):
    argv = ["count", "--patterns", "201,210", "--n", "6", "--method"]
    assert {run(argv + [m]) for m in COUNT_METHODS} == {(0, "188\n")}
    monkeypatch.setattr(module, name, perturb(getattr(module, name)))
    changed = {m for m in COUNT_METHODS if run(argv + [m]) != (0, "188\n")}
    assert changed == {method}


def _loaded_by(script, *args, root="ascentseq"):
    """The modules under root that a fresh interpreter holds after running
    script, or every module it holds when root is None."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ascentseq.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script += f"\nimport sys\nprint(*(m for m in sys.modules if {root!r} in (None, m.split('.')[0])))"
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_a_count_past_4300_digits_prints_in_full():
    # lifting the str(int) digit limit is process-wide, so the CLI runs in a
    # fresh interpreter, and this one lifts it only to read the answer
    src = os.path.dirname(os.path.dirname(os.path.abspath(ascentseq.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["count", "--patterns", "0021", "--method", "formula", "--n", "6200"]
    outs = [
        subprocess.run(
            [sys.executable, "-m", "ascentseq.cli", *argv, "--format", fmt],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
        )
        for fmt in ("plain", "json")
    ]
    assert [(o.returncode, o.stderr) for o in outs] == [(0, ""), (0, "")]
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)  # Python < 3.10.7
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit(0)
    try:
        expected = series.a007317(6200)
        assert len(str(expected)) == 4328
        assert outs[0].stdout == f"{expected}\n"
        assert json.loads(outs[1].stdout)["count"] == expected
    finally:
        set_limit(limit)


RUN_MAIN = """\
import io, sys
from contextlib import redirect_stdout
from fractions import Fraction
from ascentseq.cli import main
with redirect_stdout(io.StringIO()):
    main(sys.argv[1:])"""

# the package modules `from ascentseq import *` loads: every one on disk but
# the package root and the front end, which is imported by name
EVERY_MODULE = tuple(sorted(
    p.stem for p in pathlib.Path(ascentseq.__file__).parent.glob("*.py")
    if p.stem not in ("__init__", "cli")
))


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["count", "--patterns", "201,210", "--n", "5", "--method", "brute"], ("core",)),
        (["enumerate", "--patterns", "0021", "--n", "4"], ("core",)),
        (["coeffs", "--gf", "C_pair", "--order", "4"], ("series",)),
        (["table", "--family", "pair", "--n", "4"], ("gentree", "gentree_pair")),
        (["table", "--family", "a1", "--n", "4"], ("gentree", "gentree_0021")),
        (["count", "--patterns", "0021", "--n", "5", "--method", "tree"],
         ("core", "gentree", "gentree_0021")),
        (["count", "--patterns", "0021", "--n", "5", "--method", "recurrence"],
         ("core", "gentree", "gentree_0021")),
        (["count", "--patterns", "201,210", "--n", "5", "--method", "tree"],
         ("core", "gentree", "gentree_pair")),
        (["count", "--patterns", "201,210", "--n", "5", "--method", "gf"], ("core", "series")),
        (["count", "--patterns", "201,210", "--n", "5", "--method", "formula"],
         ("core", "series")),
        (["count", "--patterns", "1012", "--n", "5", "--method", "gf"], ("core", "series")),
        (["verify", "--suite", "wilf", "--n-max", "3"], EVERY_MODULE),
        (["verify", "--suite", "pair", "--n-max", "3", "--order", "6"], EVERY_MODULE),
    ],
    ids=["count-brute", "enumerate", "coeffs", "table-pair", "table-a1", "count-tree",
         "count-recurrence", "count-tree-pair", "count-gf", "count-formula", "count-gf-1012",
         "verify", "verify-pair"],
)
def test_each_command_imports_only_its_pipeline(argv, loaded):
    expected = {"ascentseq", "ascentseq.cli"} | {f"ascentseq.{m}" for m in loaded}
    assert _loaded_by(RUN_MAIN, *argv) == expected


def test_no_command_loads_dataclasses_or_inspect():
    # dataclasses loads inspect and ten more modules; a module that the bare
    # interpreter already holds (through site, say) is not the package's doing
    bare = _loaded_by("pass", root=None)
    for argv, module in [
        (["table", "--family", "a0", "--n", "3"], "ascentseq.gentree_0021"),
        (["verify", "--suite", "pair", "--n-max", "3", "--order", "6"], "ascentseq.verify"),
    ]:
        loaded = _loaded_by(RUN_MAIN, *argv, root=None)
        assert module in loaded
        assert not ({"dataclasses", "inspect"} - bare) & loaded, argv


def test_series_commands_load_no_fractions_or_decimal():
    # fractions loads decimal; a series is integer numerators over one
    # denominator, and no Fraction is made unless a coefficient is read.  The
    # script is RUN_MAIN without its own import of fractions
    run_main = RUN_MAIN.replace("from fractions import Fraction\n", "")
    assert "fractions" not in run_main
    bare = _loaded_by("pass", root=None)
    for argv, module in [
        (["coeffs", "--gf", "D_0021", "--order", "6"], "ascentseq.series"),
        (["coeffs", "--gf", "f", "--order", "6", "--format", "csv"], "ascentseq.series"),
        (["count", "--patterns", "0021", "--n", "9", "--method", "formula"], "ascentseq.series"),
        (["verify", "--suite", "wilf", "--n-max", "5"], "ascentseq.verify"),
    ]:
        loaded = _loaded_by(run_main, *argv, root=None)
        assert module in loaded
        assert not ({"fractions", "decimal", "_decimal"} - bare) & loaded, argv


def test_plain_tree_commands_load_no_json():
    # cli.py imports json only to write json; the tree modules need none
    bare = _loaded_by("pass", root=None)
    for argv, module in [
        (["count", "--patterns", "0021", "--n", "9", "--method", "tree"], "ascentseq.gentree_0021"),
        (["table", "--family", "pair", "--n", "4"], "ascentseq.gentree_pair"),
    ]:
        loaded = _loaded_by(RUN_MAIN, *argv, root=None)
        assert module in loaded
        assert not ({"json"} - bare) & loaded, argv


def test_package_root_imports_submodules_on_first_use():
    assert _loaded_by("import ascentseq") == {"ascentseq"}
    assert ascentseq.verify.crosscheck_pair.__module__ == "ascentseq.verify"
    with pytest.raises(AttributeError, match="'ascentseq' has no attribute 'nope'"):
        getattr(ascentseq, "nope")
    assert ascentseq.gentree.simulate.__module__ == "ascentseq.gentree"
    names = {}
    exec("from ascentseq import *", names)
    assert {k: v.__name__ for k, v in names.items() if k != "__builtins__"} == {
        m: f"ascentseq.{m}" for m in EVERY_MODULE
    }
