"""Every verify record can fail: one perturbation per row, and the exact set
of records it makes fail, each with its first counterexample.

Each row injects one fault by monkeypatch where verify reads its inputs and
runs the three suites of `verify --suite all` at small depths.  Together the
rows make each of the 26 record ids fail at least once, so no record passes
on any code.
"""

import copy
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
            levels[n - 1] = t._replace(**{field: value})
        return levels

    monkeypatch.setattr(module, fn, wrong)


def _term(monkeypatch, name, exps):
    """+1 on one term of a closed form, in the table every build reads; a
    build at y = 1 or x = y gets the term through the ring's exponent map."""
    real = series._BUILDERS[name]

    def wrong(ring):
        return real(ring) + ring.poly({exps: 1})

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
    fails: dict  # id -> detail, for exactly the failing records


def _first(example: str) -> str:
    return f"first counterexample: {example}"


# the rule-vs-definition counterexamples: (avoider, its children's labels
# from the definition, the rule's)
PAIR_LABELS = _first(
    "((0, 1, 0, 1), [((0, 3), 1), ((1, 3), 1), ((2, 4), 1), ((3, 4), 1)], "
    "[((0, 3), 2), ((1, 3), 1), ((2, 4), 1), ((3, 4), 1)])"
)
T0021_LABELS = _first(
    "((0, 0, 1), [((0, 1, 2), 1), ((1, 1, 2), 2)], [((0, 1, 2), 2), ((1, 1, 2), 2)])"
)

ROWS = [
    Row(_brute, (PAIR, 5), {"pair.counts.pentagon": _first("(5, 52, 51, 51, 51)")}),
    Row(_brute, (C1012, 6), {"wilf.counts.equal": _first("(6, 188, 189)")}),
    Row(_brute, (T0021, 6),
        {"t0021.counts.pentagon": _first("(6, 189, 188, 188, 188)"),
         "wilf.counts.equal": _first("(6, 189, 188)"),
         "wilf.counts.formula": _first("(6, 189, 188)")}),
    Row(_level, (gp, "simulate_pair_levels", 5, "g", (1, 3)),
        {"pair.counts.pentagon": _first("(5, 51, 52, 51, 51)")}),
    Row(_level, (gt, "simulate_0021_levels", 5, "g0", (1, 2)),
        {"t0021.counts.pentagon": _first("(5, 51, 52, 51, 51)"),
         "t0021.counts.simulation_vs_recurrence": _first("(5,)")}),
    Row(_level, (gt, "simulate_0021_levels", 4, "g2_q"),
        {"t0021.counts.simulation_vs_recurrence": _first("(4,)"),
         "t0021.relations.single_increasing_node": _first("('simulation', 4, 6)")}),
    Row(_level, (gp, "pair_recurrence_levels", 15, "g", (1, 3)),
        {"pair.counts.recurrence_vs_formula": _first("(15, 86211886, 86211885)"),
         "pair.relations.seven_identities": _first(
             "RelationViolation(relation='interior_shift', n=15, where=(1, 3), "
             "lhs=7214467, rhs=7214466)")}),
    Row(_level, (gt, "triple_recurrence_levels", 15, "g0", (1, 2)),
        {"t0021.columns.first_vs_f": _first("(15, 19181100, 19181099)"),
         "t0021.columns.ratio_is_g": _first("(2, 16, 61462522, 61462521)"),
         "t0021.counts.recurrence_vs_formula": _first("(15, 86211886, 86211885)"),
         "t0021.relations.row_shift": _first("('g0', 16, 2, 2)")}),
    Row(_level, (gt, "triple_recurrence_levels", 15, "g1", (1, 2)),
        {"t0021.counts.recurrence_vs_formula": _first("(15, 86211886, 86211885)"),
         "t0021.relations.row_shift": _first("('g1', 16, 2, 2)")}),
    Row(_formula, (30,),
        {"pair.gf.total_vs_formula":
             _first("(30, 911225151259732188, 911225151259732189)"),
         "t0021.gf.total_vs_formula":
             _first("(30, 911225151259732188, 911225151259732189)")}),
    # the last sequence of the pentagon alone is wrong
    Row(_formula, (5,),
        {"pair.counts.pentagon": _first("(5, 51, 51, 51, 52)"),
         "pair.counts.recurrence_vs_formula": _first("(5, 51, 52)"),
         "pair.gf.total_vs_formula": _first("(5, 51, 52)"),
         "t0021.counts.pentagon": _first("(5, 51, 51, 51, 52)"),
         "t0021.counts.recurrence_vs_formula": _first("(5, 51, 52)"),
         "t0021.gf.level_totals": _first("(5, 51, 52)"),
         "t0021.gf.total_vs_formula": _first("(5, 51, 52)"),
         "wilf.counts.formula": _first("(5, 51, 52)")}),
    # the residuals read C and D from the same table as gf.coefficients
    Row(_term, ("C_pair", (3, 5)),
        {"pair.gf.coefficients": _first("('C', (3, 5), 20, 19)"),
         "pair.gf.residual_c": _first("((3, 5), 1)"),
         "pair.gf.residual_d": _first("((4, 6), -1)")}),
    Row(_term, ("C_pair", (4, 4)),
        {"pair.gf.coefficients": _first("('C', (4, 4), 2, 1)"),
         "pair.gf.diagonal_ones": _first("(4, 2, 1)"),
         "pair.gf.residual_c": _first("((4, 4), 1)"),
         "pair.gf.residual_d": _first("((5, 5), -1)")}),
    Row(_term, ("C2", (5,)), {"pair.gf.residual_c": _first("((2, 5), -1)")}),
    Row(_term, ("C_total_pair", (0,)), {"pair.gf.total_vs_formula": _first("(0, 1, 0)")}),
    Row(_term, ("C_0021", (1, 2, 5)),
        {"t0021.gf.coefficients": _first("('C', (1, 2, 5), 15, 14)"),
         "t0021.gf.level_totals": _first("(5, 52, 51)"),
         "t0021.gf.residual_c": _first("((1, 2, 5), -1)"),
         "t0021.gf.residual_d": _first("((1, 3, 6), 1)")}),
    Row(_term, ("total_0021", (0,)), {"t0021.gf.total_vs_formula": _first("(0, 1, 0)")}),
    Row(_term, ("f", (7,)), {"t0021.columns.first_vs_f": _first("(9, 2949, 2950)")}),
    Row(_term, ("g", (7,)), {"t0021.columns.ratio_is_g": _first("(2, 11, 35644, 35643)")}),
    Row(_golden, ("GOLDEN_PAIR_ARRAYS", 5, 1, 2),
        {"pair.golden.level_arrays": _first("(5, 1, 3)")}),
    Row(_golden, ("GOLDEN_A1_ARRAYS", 6, 0, 1),
        {"t0021.golden.level_arrays": _first("(6, 'g1', 1, 2)")}),
    Row(_children, (gp, "pair_children", (1, 3), (0, 3)),
        {"pair.labels.rule_vs_definition": PAIR_LABELS}),
    Row(_children, (gt, "triple_children", (1, 1, 2), (0, 1, 2)),
        {"t0021.labels.rule_vs_definition": T0021_LABELS}),
    Row(_extra_child, (gp, (1, 3), (0, 3)),
        {"pair.counts.pentagon": _first("(5, 51, 52, 51, 51)"),
         "pair.labels.rule_vs_definition": PAIR_LABELS}),
    Row(_extra_child, (gt, (1, 1, 2), (0, 1, 2)),
        {"t0021.counts.pentagon": _first("(4, 15, 16, 15, 15)"),
         "t0021.counts.simulation_vs_recurrence": _first("(4,)"),
         "t0021.labels.rule_vs_definition": T0021_LABELS}),
    # (0, 2) is already yielded twice by (2, 3): a third occurrence of a child
    Row(_extra_child, (gp, (2, 3), (0, 2)),
        {"pair.counts.pentagon": _first("(4, 15, 16, 15, 15)"),
         "pair.labels.rule_vs_definition": _first(
             "((0, 1, 2), [((0, 2), 2), ((2, 3), 1), ((3, 4), 1)], "
             "[((0, 2), 3), ((2, 3), 1), ((3, 4), 1)])")}),
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
    assert failing == row.fails


def test_every_record_fails_in_some_row():
    records = _run()
    assert all(v is None for v in records.values())
    assert len(records) == 26
    assert set().union(*(row.fails for row in ROWS)) == set(records)
