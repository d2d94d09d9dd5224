"""Every verify record can fail: one perturbation per row, and the exact set
of records it makes fail.

Each row injects one fault by monkeypatch where verify reads its inputs and
runs the three suites of `verify --suite all` at small depths.  Together the
rows make each of the 26 record ids fail at least once, so no record passes
on any code.
"""

import copy
import dataclasses
from types import ModuleType
from typing import Callable, NamedTuple

import pytest

from ascentseq import series, verify
from ascentseq import gentree_0021 as gt
from ascentseq import gentree_pair as gp

PAIR = gp.PAIR_PATTERNS
T0021 = (gt.QUAD_PATTERN,)
C1012 = ((1, 0, 1, 2),)


def _brute(monkeypatch, patterns, n):
    """+1 on the brute-force count of one class at length n."""
    real = verify.count_avoiders

    def wrong(n_max, pats):
        counts = real(n_max, pats)  # a fresh list, never the cached one
        if tuple(pats) == patterns and n <= n_max:
            counts[n - 1] += 1
        return counts

    monkeypatch.setattr(verify, "count_avoiders", wrong)


def _level(monkeypatch, module, fn, n, field, key=None):
    """+1 on one field of level n of a tree's levels: the cell key of a
    table, or the field itself when key is None."""
    real = getattr(module, fn)

    def wrong(n_max):
        levels = real(n_max)
        if n <= n_max:
            t = levels[n - 1]
            if key is None:
                value = getattr(t, field) + 1
            else:
                value = dict(getattr(t, field))
                value[key] = value.get(key, 0) + 1
            levels[n - 1] = dataclasses.replace(t, **{field: value})
        return levels

    monkeypatch.setattr(module, fn, wrong)


def _term(monkeypatch, name, exps):
    """+1 on one term of a closed form, in the table every build reads."""
    real = series._BUILDERS[name]

    def wrong(order):
        gf = real(order)
        return gf + series.MSeries(gf.vars, order, {exps: 1})

    monkeypatch.setitem(series._BUILDERS, name, wrong)


def _formula(monkeypatch, n):
    """+1 on A007317 at n."""
    real = verify.a007317
    monkeypatch.setattr(verify, "a007317", lambda k: real(k) + (k == n))


def _golden(monkeypatch, name, n, row, col):
    """+1 on one entry of a published level array."""
    golden = copy.deepcopy(getattr(verify, name))
    golden[n][row][col] += 1
    monkeypatch.setattr(verify, name, golden)


def _children(monkeypatch, module, fn, label, child):
    """One child too many under one label of a succession rule."""
    real = getattr(module, fn)

    def wrong(lab):
        kids = real(lab)
        if lab == label:
            kids[child] += 1
        return kids

    monkeypatch.setattr(module, fn, wrong)


def _extra_child(monkeypatch, module, label, child):
    """One child too many under one label of the succession rule itself, as
    both the simulator and the children multiset read it."""
    real = module._rule

    def wrong(lab):
        yield from real(lab)
        if lab == label:
            yield child

    monkeypatch.setattr(module, "_rule", wrong)


class Row(NamedTuple):
    perturb: Callable
    args: tuple
    fails: set  # the exact ids of the failing records
    details: dict = {}  # id -> pinned detail of a failing record


ROWS = [
    Row(_brute, (PAIR, 5), {"pair.counts.pentagon"}),
    Row(_brute, (C1012, 6), {"wilf.counts.equal"}),
    Row(_brute, (T0021, 6),
        {"t0021.counts.pentagon", "wilf.counts.equal", "wilf.counts.formula"}),
    Row(_level, (gp, "simulate_pair_levels", 5, "g", (1, 3)), {"pair.counts.pentagon"}),
    Row(_level, (gt, "simulate_0021_levels", 5, "g0", (1, 2)),
        {"t0021.counts.pentagon", "t0021.counts.simulation_vs_recurrence"}),
    Row(_level, (gt, "simulate_0021_levels", 4, "g2_q"),
        {"t0021.counts.simulation_vs_recurrence",
         "t0021.relations.single_increasing_node"}),
    Row(_level, (gp, "pair_recurrence_levels", 15, "g", (1, 3)),
        {"pair.counts.recurrence_vs_formula", "pair.relations.seven_identities"}),
    Row(_level, (gt, "triple_recurrence_levels", 15, "g0", (1, 2)),
        {"t0021.columns.first_vs_f", "t0021.columns.ratio_is_g",
         "t0021.counts.recurrence_vs_formula", "t0021.relations.row_shift"}),
    Row(_level, (gt, "triple_recurrence_levels", 15, "g1", (1, 2)),
        {"t0021.counts.recurrence_vs_formula", "t0021.relations.row_shift"}),
    Row(_formula, (30,), {"pair.gf.total_vs_formula", "t0021.gf.total_vs_formula"}),
    # the last sequence of the pentagon alone is wrong
    Row(_formula, (5,),
        {"pair.counts.pentagon", "pair.counts.recurrence_vs_formula",
         "pair.gf.total_vs_formula", "t0021.counts.pentagon",
         "t0021.counts.recurrence_vs_formula", "t0021.gf.level_totals",
         "t0021.gf.total_vs_formula", "wilf.counts.formula"}),
    # the residuals read C and D from the same table as gf.coefficients
    Row(_term, ("C_pair", (3, 5)),
        {"pair.gf.coefficients", "pair.gf.residual_c", "pair.gf.residual_d"}),
    Row(_term, ("C_pair", (4, 4)),
        {"pair.gf.coefficients", "pair.gf.diagonal_ones",
         "pair.gf.residual_c", "pair.gf.residual_d"},
        {"pair.gf.diagonal_ones": "first counterexample: (4, 2, 1)"}),
    Row(_term, ("C2", (5,)), {"pair.gf.residual_c"}),
    Row(_term, ("C_total_pair", (0,)), {"pair.gf.total_vs_formula"},
        {"pair.gf.total_vs_formula": "first counterexample: (0, 1, 0)"}),
    Row(_term, ("C_0021", (1, 2, 5)),
        {"t0021.gf.coefficients", "t0021.gf.level_totals",
         "t0021.gf.residual_c", "t0021.gf.residual_d"}),
    Row(_term, ("total_0021", (0,)), {"t0021.gf.total_vs_formula"},
        {"t0021.gf.total_vs_formula": "first counterexample: (0, 1, 0)"}),
    Row(_term, ("f", (7,)), {"t0021.columns.first_vs_f"}),
    Row(_term, ("g", (7,)), {"t0021.columns.ratio_is_g"}),
    Row(_golden, ("GOLDEN_PAIR_ARRAYS", 5, 1, 2), {"pair.golden.level_arrays"}),
    Row(_golden, ("GOLDEN_A1_ARRAYS", 6, 0, 1), {"t0021.golden.level_arrays"}),
    Row(_children, (gp, "pair_children", (1, 3), (0, 3)),
        {"pair.labels.rule_vs_definition"}),
    Row(_children, (gt, "triple_children", (1, 1, 2), (0, 1, 2)),
        {"t0021.labels.rule_vs_definition"}),
    Row(_extra_child, (gp, (1, 3), ((0, 3), 1)),
        {"pair.counts.pentagon", "pair.labels.rule_vs_definition"}),
    Row(_extra_child, (gt, (1, 1, 2), (0, 1, 2)),
        {"t0021.counts.pentagon", "t0021.counts.simulation_vs_recurrence",
         "t0021.labels.rule_vs_definition"}),
]


def _run() -> dict[str, str]:
    """Every record of the three suites, id -> detail if it fails else None."""
    reports = (
        verify.crosscheck_pair(7, 24, oracle_max=5),
        verify.crosscheck_0021(7, 24, oracle_max=5),
        verify.wilf_equivalence_check(8),
    )
    return {
        r.check_id: None if r.passed else r.detail for rep in reports for r in rep.records
    }


def _row_id(row: Row) -> str:
    args = tuple(a for a in row.args if not isinstance(a, ModuleType))
    return f"{row.perturb.__name__.lstrip('_')}{args}"


@pytest.mark.parametrize("row", ROWS, ids=map(_row_id, ROWS))
def test_perturbation_fails_exactly_its_records(monkeypatch, row):
    row.perturb(monkeypatch, *row.args)
    failing = {k: v for k, v in _run().items() if v is not None}
    assert set(failing) == row.fails
    for check_id, detail in row.details.items():
        assert failing[check_id] == detail


def test_every_record_fails_in_some_row():
    records = _run()
    assert all(v is None for v in records.values())
    assert len(records) == 26
    assert set().union(*(row.fails for row in ROWS)) == set(records)
