import copy
import io
import json
from contextlib import redirect_stdout

import pytest

from ascentseq import core, verify
from ascentseq import gentree_0021 as gt
from ascentseq import gentree_pair as gp
from ascentseq.cli import main


def test_golden_constants_match_recurrences():
    for n, rows in verify.GOLDEN_PAIR_ARRAYS.items():
        assert gp.dense_array(n) == rows
    for n in range(2, 9):
        tables = gt.triple_recurrence_tables(n)
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
    report = verify.crosscheck_0021(n_max=7, gf_order=20, recur_max=12)
    assert report.passed, report.to_text()
    ratio = next(
        r for r in report.records if r.check_id == "t0021.columns.ratio_is_g"
    )
    assert "z g(z)" in ratio.detail  # the alignment is stated explicitly


def test_crosscheck_0021_bounds_golden_max_by_the_tables():
    # the golden tables stop at n = 8: a deeper request reports what they hold
    report = verify.crosscheck_0021(n_max=4, gf_order=8, golden_max=9)
    golden = next(r for r in report.records if r.check_id == "t0021.golden.level_arrays")
    assert golden.passed and golden.scope == "n<=8"


def test_wilf_check_small_passes():
    report = verify.wilf_equivalence_check(7)
    assert report.passed
    assert [r.check_id for r in report.records] == [
        "wilf.counts.equal",
        "wilf.counts.formula",
    ]


def test_mutated_pair_golden_is_reported():
    golden = copy.deepcopy(verify.GOLDEN_PAIR_ARRAYS)
    golden[5][1][2] = golden[5][1][2] + 1  # entry (p=1, q=3)
    report = verify.crosscheck_pair(n_max=6, gf_order=12, golden_tables=golden)
    assert not report.passed
    failing = [r for r in report.records if not r.passed]
    assert len(failing) == 1
    assert failing[0].check_id == "pair.golden.level_arrays"
    assert "(5, 1, 3)" in failing[0].detail


def test_mutated_0021_golden_is_reported():
    golden = copy.deepcopy(verify.GOLDEN_A1_ARRAYS)
    golden[6][0][1] = golden[6][0][1] + 1  # g1 entry (q=1, r=2)
    report = verify.crosscheck_0021(
        n_max=6, gf_order=12, recur_max=8, golden_a1=golden
    )
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
    report = verify.crosscheck_pair(
        n_max=5, gf_order=10, relations_max=5, total_max=10, oracle_max=6
    )
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
    report = verify.crosscheck_0021(
        n_max=5, gf_order=10, recur_max=8, total_max=10, oracle_max=6
    )
    rec = _record(report, "t0021.labels.rule_vs_definition")
    assert not rec.passed
    assert rec.detail == (
        "first counterexample: ((0, 0, 1), "
        "[((0, 1, 2), 1), ((1, 1, 2), 2)], [((1, 1, 2), 2)])"
    )


def test_reports_are_deterministic_and_sorted():
    a = verify.crosscheck_pair(n_max=5, gf_order=10, relations_max=5, total_max=10)
    b = verify.crosscheck_pair(n_max=5, gf_order=10, relations_max=5, total_max=10)
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


def test_shallow_recur_max_still_reports():
    # the pentagon reads n_max levels and the 0021 golden arrays golden_max
    # levels, both deeper than recur_max here
    pair = verify.crosscheck_pair(n_max=10, gf_order=10, recur_max=2)
    t0021 = verify.crosscheck_0021(n_max=4, gf_order=8, recur_max=5)
    assert pair.passed and t0021.passed
    assert _record(pair, "pair.counts.pentagon").scope == "n<=10"
    assert _record(pair, "pair.counts.recurrence_vs_formula").scope == "n<=2"
    assert _record(t0021, "t0021.golden.level_arrays").scope == "n<=8"
    assert _record(t0021, "t0021.counts.recurrence_vs_formula").scope == "n<=5"


def test_verify_all_walks_0021_once(monkeypatch):
    real = core._walk
    walks = []

    def counted(n_max, patterns, want_length, visit=None):
        if visit is None:
            walks.append(patterns)
        return real(n_max, patterns, want_length, visit)

    monkeypatch.setattr(core, "_COUNT_CACHE", {})
    monkeypatch.setattr(core, "_walk", counted)
    with redirect_stdout(io.StringIO()):
        code = main(["verify", "--suite", "all", "--n-max", "6", "--order", "12"])
    assert code == 0
    assert walks.count((gt.QUAD_PATTERN,)) == 1
    assert len(walks) == len(set(walks)) == 3


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
    with pytest.raises(ValueError):
        verify.wilf_equivalence_check(0)
