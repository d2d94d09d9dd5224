import copy
import json
from fractions import Fraction

import pytest

from ascentseq import verify
from ascentseq import gentree_0021 as gt
from ascentseq import gentree_pair as gp


def test_golden_constants_match_recurrences():
    pair = gp.pair_recurrence_levels(max(verify.GOLDEN_PAIR_ARRAYS))
    for n, rows in verify.GOLDEN_PAIR_ARRAYS.items():
        assert pair[n - 1].dense() == rows
    triple = gt.triple_recurrence_levels(8)
    for n in range(2, 9):
        tables = triple[n - 1]
        assert gt.dense_a0(tables) == verify.GOLDEN_A0_ARRAYS[n]
        assert gt.dense_a1(tables) == verify.GOLDEN_A1_ARRAYS[n]


def test_crosscheck_pair_small_passes():
    report = verify.crosscheck_pair(n_max=7, gf_order=20)
    assert report.passed, report.to_text()
    counts_rec = next(
        r for r in report.records if r.check_id == "pair.counts.pentagon"
    )
    assert "1, 2, 5, 15, 51, 188, 731" in counts_rec.detail


def test_crosscheck_0021_small_passes():
    report = verify.crosscheck_0021(n_max=7, gf_order=20)
    assert report.passed, report.to_text()
    ratio = next(
        r for r in report.records if r.check_id == "t0021.columns.ratio_is_g"
    )
    assert "z g(z)" in ratio.detail  # the alignment is stated explicitly


def test_wilf_check_small_passes():
    report = verify.wilf_equivalence_check(7)
    assert report.passed
    assert [r.check_id for r in report.records] == [
        "wilf.counts.equal",
        "wilf.counts.formula",
    ]


def test_mutated_pair_golden_is_reported(monkeypatch):
    golden = copy.deepcopy(verify.GOLDEN_PAIR_ARRAYS)
    golden[5][1][2] = golden[5][1][2] + 1  # entry (p=1, q=3)
    monkeypatch.setattr(verify, "GOLDEN_PAIR_ARRAYS", golden)
    report = verify.crosscheck_pair(n_max=6, gf_order=12)
    assert not report.passed
    failing = [r for r in report.records if not r.passed]
    assert len(failing) == 1
    assert failing[0].check_id == "pair.golden.level_arrays"
    assert "(5, 1, 3)" in failing[0].detail


def test_mutated_0021_golden_is_reported(monkeypatch):
    golden = copy.deepcopy(verify.GOLDEN_A1_ARRAYS)
    golden[6][0][1] = golden[6][0][1] + 1  # g1 entry (q=1, r=2)
    monkeypatch.setattr(verify, "GOLDEN_A1_ARRAYS", golden)
    report = verify.crosscheck_0021(n_max=6, gf_order=12)
    assert not report.passed
    failing = [r for r in report.records if not r.passed]
    assert failing[0].check_id == "t0021.golden.level_arrays"
    assert "(6, 'g1', 1, 2)" in failing[0].detail


def _record(report, check_id):
    return next(r for r in report.records if r.check_id == check_id)


def test_wrong_pair_rule_fails_rule_vs_definition(monkeypatch):
    real = gp.pair_children

    def wrong(label):
        children = real(label)
        if label == (1, 3):
            children[(0, 3)] += 1  # one child too many
        return children

    monkeypatch.setattr(gp, "pair_children", wrong)
    report = verify.crosscheck_pair(n_max=5, gf_order=10, oracle_max=6)
    rec = _record(report, "pair.labels.rule_vs_definition")
    assert not rec.passed
    # the shortest, then lexicographically first, failing avoider
    assert rec.detail == (
        "first counterexample: ((0, 1, 0, 1), "
        "[((0, 3), 1), ((1, 3), 1), ((2, 4), 1), ((3, 4), 1)], "
        "[((0, 3), 2), ((1, 3), 1), ((2, 4), 1), ((3, 4), 1)])"
    )


def test_wrong_0021_rule_fails_rule_vs_definition(monkeypatch):
    real = gt.triple_children

    def wrong(label):
        children = real(label)
        if label == (1, 1, 2):
            children[(0, 1, 2)] -= 1  # one child missing
        return +children

    monkeypatch.setattr(gt, "triple_children", wrong)
    report = verify.crosscheck_0021(n_max=5, gf_order=10, oracle_max=6)
    rec = _record(report, "t0021.labels.rule_vs_definition")
    assert not rec.passed
    assert rec.detail == (
        "first counterexample: ((0, 0, 1), "
        "[((0, 1, 2), 1), ((1, 1, 2), 2)], [((1, 1, 2), 2)])"
    )


def test_wrong_simulated_increasing_node_fails_its_record(monkeypatch):
    real = gt.simulate_0021_levels

    def wrong(n_max):
        levels = real(n_max)
        levels[3] = levels[3]._replace(g2_q=levels[3].g2_q + 1)
        return levels

    monkeypatch.setattr(gt, "simulate_0021_levels", wrong)
    report = verify.crosscheck_0021(n_max=6, gf_order=12)
    rec = _record(report, "t0021.relations.single_increasing_node")
    assert not rec.passed
    assert rec.detail == "first counterexample: ('simulation', 4, 6)"


def _perturb(monkeypatch, gf, exps, c):
    """Add the term c * exps to the closed form gf wherever verify builds it."""
    real = verify.build_closed_form

    def perturbed(which, order):
        series = real(which, order)
        if which == gf:
            series = series + verify.MSeries(series.vars, order, {exps: c})
        return series

    monkeypatch.setattr(verify, "build_closed_form", perturbed)


@pytest.mark.parametrize(
    "suite, gf, exps",
    [
        ("pair", "C_pair", (2, 4)),  # a wrong coefficient
        ("pair", "D_pair", (6, 4)),  # a term off the support, i > n
        ("pair", "C_pair", (1, 0)),  # a term at level 0
        ("0021", "C_0021", (1, 2, 5)),
        ("0021", "D_0021", (1, 0, 4)),  # g1 needs r >= 1
        ("0021", "C_0021", (0, 0, 0)),
    ],
)
def test_perturbed_closed_form_fails_gf_coefficients(monkeypatch, suite, gf, exps):
    _perturb(monkeypatch, gf, exps, 1)
    crosscheck, prefix = {
        "pair": (verify.crosscheck_pair, "pair"),
        "0021": (verify.crosscheck_0021, "t0021"),
    }[suite]
    report = crosscheck(n_max=4, gf_order=12, oracle_max=3)
    rec = _record(report, f"{prefix}.gf.coefficients")
    assert not rec.passed
    assert str(exps) in rec.detail
    assert "Fraction" not in rec.detail


def test_counterexamples_write_fractions_as_coeffs_does(monkeypatch):
    _perturb(monkeypatch, "C_0021", (1, 2, 5), Fraction(-1, 2))
    report = verify.crosscheck_0021(n_max=4, gf_order=12, oracle_max=3)
    details = {r.check_id: r.detail for r in report.records if not r.passed}
    assert details == {
        "t0021.gf.coefficients": "first counterexample: ('C', (1, 2, 5), 27/2, 14)",
        "t0021.gf.level_totals": "first counterexample: (5, 101/2, 51)",
    }


def test_show_writes_plain_sequences_by_element_and_records_by_repr():
    v = gp.RelationViolation("interior_shift", 15, (1, 3), 7214467, 7214466)
    assert verify._show(v) == (
        "RelationViolation(relation='interior_shift', n=15, where=(1, 3), "
        "lhs=7214467, rhs=7214466)"
    )
    assert verify._show((9, Fraction(-1, 2))) == "(9, -1/2)"
    assert verify._show(("x",)) == "('x',)"
    assert verify._show([Fraction(1, 3), (2,)]) == "[1/3, (2,)]"


def test_reports_are_deterministic_and_sorted():
    a = verify.crosscheck_pair(n_max=5, gf_order=10)
    b = verify.crosscheck_pair(n_max=5, gf_order=10)
    assert a.to_json() == b.to_json()
    ids = [r.check_id for r in a.records]
    assert ids == sorted(ids)


def test_report_json_schema():
    report = verify.wilf_equivalence_check(5)
    data = json.loads(report.to_json())
    assert data["suite"] == "wilf"
    assert data["passed"] is True
    for rec in data["records"]:
        assert set(rec) == {"id", "scope", "status", "detail"}


def test_combine_reports():
    merged = verify.combine_reports(
        [verify.wilf_equivalence_check(4), verify.wilf_equivalence_check(5)]
    )
    assert merged.suite == "all"
    assert len(merged.records) == 4


def test_invalid_ranges_rejected():
    with pytest.raises(ValueError):
        verify.crosscheck_pair(n_max=0)
    with pytest.raises(ValueError):
        verify.crosscheck_0021(n_max=0)
    # the gf order is checked against the effective depth, default or not
    with pytest.raises(ValueError, match="gf_order 5 must be at least n_max 12"):
        verify.crosscheck_pair(gf_order=5)
    with pytest.raises(ValueError, match="gf_order 5 must be at least n_max 6"):
        verify.crosscheck_0021(n_max=6, gf_order=5)
    # an oracle depth below 1 would check no avoider and still pass
    for depth in (0, -3):
        with pytest.raises(ValueError, match="oracle_max must be at least 1"):
            verify.crosscheck_pair(n_max=5, gf_order=10, oracle_max=depth)
        with pytest.raises(ValueError, match="oracle_max must be at least 1"):
            verify.crosscheck_0021(n_max=5, gf_order=10, oracle_max=depth)
    # a gf order below 2 would check no level and still pass
    for crosscheck in (verify.crosscheck_pair, verify.crosscheck_0021):
        with pytest.raises(ValueError, match="gf_order 1 must be at least 2"):
            crosscheck(n_max=1, gf_order=1)
    with pytest.raises(ValueError):
        verify.wilf_equivalence_check(0)
    for depth in (0, -3):
        with pytest.raises(verify.DepthError, match="n_max must be at least 1"):
            verify.wilf_equivalence_check(depth)


# check id, scope at gf_order 12, scope at gf_order 44 (n_max 5 for both),
# detail: every depth a suite derives from n_max and gf_order, written out
_PINNED = [
    ("pair.counts.pentagon", "n<=5", "n<=5", "counts [1, 2, 5, 15, 51]..."),
    ("pair.counts.recurrence_vs_formula", "n<=20", "n<=20", ""),
    ("pair.gf.coefficients", "n<=6", "n<=22", ""),
    ("pair.gf.diagonal_ones", "n<=6", "n<=22", ""),
    ("pair.gf.residual_c", "order<=12", "order<=30", "identically zero"),
    ("pair.gf.residual_d", "order<=12", "order<=30", "identically zero"),
    ("pair.gf.total_vs_formula", "n<=40", "n<=40", ""),
    ("pair.golden.level_arrays", "n<=5", "n<=5", ""),
    ("pair.labels.rule_vs_definition", "n<=8", "n<=8", ""),
    ("pair.relations.seven_identities", "2<=n<=15", "2<=n<=15",
     "all seven identities hold"),
    ("t0021.columns.first_vs_f", "n<=20", "n<=22",
     "alignment: sum_n g0(n,1,2) z^n = z^2 (f(z)-1)/(1-z)"),
    ("t0021.columns.ratio_is_g", "2<=r<18, n<=20", "2<=r<20, n<=22",
     "alignment: sum_n g0(n,1,r+1) z^n = z g(z) sum_n g0(n,1,r) z^n"),
    ("t0021.counts.pentagon", "n<=5", "n<=5", "counts [1, 2, 5, 15, 51]..."),
    ("t0021.counts.recurrence_vs_formula", "n<=20", "n<=20", ""),
    ("t0021.counts.simulation_vs_recurrence", "n<=5", "n<=5", ""),
    ("t0021.gf.coefficients", "n<=6", "n<=22", ""),
    ("t0021.gf.level_totals", "n<=6", "n<=22",
     "g0 + g1 sums plus the single increasing node"),
    ("t0021.gf.residual_c", "order<=12", "order<=25", "identically zero"),
    ("t0021.gf.residual_d", "order<=12", "order<=25", "identically zero"),
    ("t0021.gf.total_vs_formula", "n<=40", "n<=40",
     "matches the pair-class closed form coefficientwise"),
    ("t0021.golden.level_arrays", "n<=8", "n<=8", ""),
    ("t0021.labels.rule_vs_definition", "n<=8", "n<=8", ""),
    ("t0021.relations.row_shift", "n<=20", "n<=20",
     "each level array is the previous one pushed down one row"),
    ("t0021.relations.single_increasing_node", "n<=20", "n<=20", ""),
]


def test_derived_depths_are_pinned():
    # gf_order 44 takes the gf records past the recurrence depth 20
    for column, gf_order in ((1, 12), (2, 44)):
        for suite, prefix, crosscheck in (
            ("pair", "pair.", verify.crosscheck_pair),
            ("0021", "t0021.", verify.crosscheck_0021),
        ):
            records = [
                {"id": row[0], "scope": row[column], "status": "pass", "detail": row[3]}
                for row in _PINNED
                if row[0].startswith(prefix)
            ]
            want = {"suite": suite, "passed": True, "records": records}
            got = crosscheck(n_max=5, gf_order=gf_order).to_json()
            assert got == json.dumps(want, indent=2), (suite, gf_order)
