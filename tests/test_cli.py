import io
import json
from contextlib import redirect_stdout

import pytest

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


def test_count_method_availability_errors():
    code, _ = run(["count", "--patterns", "1012", "--n", "5", "--method", "tree"])
    assert code == 2
    code, _ = run(["count", "--patterns", "010", "--n", "5", "--method", "formula"])
    assert code == 2
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
    count = ["count", "--patterns", "201,210", "--n", "3", "--out"]
    assert run(count + [str(tmp_path / "missing" / "x.txt")])[0] == 2
    assert run(count + [str(tmp_path)])[0] == 2


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
