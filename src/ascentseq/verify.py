"""Cross-validation harness tying the four counting pipelines together.

For each avoidance class the same numbers are produced four independent
ways: definition-level brute force, generating-tree simulation, the
label-count recurrences, and coefficient extraction from the closed-form
generating functions; the binomial convolution of the Catalan numbers is
the common target.  Each crosscheck also replays the published level
arrays, the structural identities between them, and the rule-vs-
definition agreement of child labels for every small avoider.  Checks
report their first counterexample instead of raising, and a suite passes
only if every record passes.  The tree modules hand out level lists only;
the records shared by both trees, the gf coefficients among them, are
written once from the class table.  Each suite returns its records as rows
(id, scope, failures[, note]), and one runner, `_report`, makes and sorts
the records.

A tree suite takes the brute-force depth n_max >= 1, the series order
gf_order >= max(n_max, 2) and the label-oracle depth oracle_max >= 1;
every other depth follows from them:

- pentagon, 0021 simulation vs recurrence: n <= n_max;
- pair golden arrays: n <= min(n_max, 7); 0021 golden arrays: n <= 8,
  as far as the published tables reach;
- recurrence vs formula, 0021 row shift and single increasing node:
  n <= max(n_max, 20);
- pair structural identities: 2 <= n <= max(n_max, 15);
- gf coefficients, pair diagonal, 0021 level totals: n <= gf_order // 2;
- 0021 columns: n <= max(n_max, 20, gf_order // 2);
- residuals: order <= min(gf_order, 30) for the pair, min(gf_order, 25)
  for 0021;
- total vs formula, both trees: the constant term is 0 and n <= 40;
- rule vs definition: n <= oracle_max.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import gentree_0021 as g0021
from . import gentree_pair as gpair
from .core import count_avoiders, visit_avoiders
from .series import MSeries, a007317, build_closed_form, residual

__all__ = [
    "CheckRecord",
    "VerificationReport",
    "GOLDEN_PAIR_ARRAYS",
    "GOLDEN_A0_ARRAYS",
    "GOLDEN_A1_ARRAYS",
    "crosscheck_pair",
    "crosscheck_0021",
    "wilf_equivalence_check",
    "combine_reports",
]


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    scope: str
    status: str  # "pass" or "fail"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class VerificationReport:
    suite: str
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "records": [
                {"id": r.check_id, "scope": r.scope, "status": r.status, "detail": r.detail}
                for r in self.records
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        for r in self.records:
            line = f"{r.status.upper():4s} {r.check_id} [{r.scope}]"
            if r.detail:
                line += f" -- {r.detail}"
            lines.append(line)
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def combine_reports(reports: list[VerificationReport]) -> VerificationReport:
    records = [r for rep in reports for r in rep.records]
    return VerificationReport("all", sorted(records, key=lambda r: r.check_id))


def _show(x) -> str:
    """repr(x), but with each Fraction inside written as coeffs writes it: 9, -1/2."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (tuple, list)):
        inner = ", ".join(map(_show, x))
        if isinstance(x, list):
            return f"[{inner}]"
        return f"({inner},)" if len(x) == 1 else f"({inner})"
    return repr(x)


def _record(check_id: str, scope: str, failures: list, note: str = "") -> CheckRecord:
    if failures:
        return CheckRecord(check_id, scope, "fail", f"first counterexample: {_show(failures[0])}")
    return CheckRecord(check_id, scope, "pass", note)


def _report(suite: str, rows: list[tuple]) -> VerificationReport:
    """The one runner: a record per row (id, scope, failures[, note]), sorted by id."""
    records = sorted((_record(*row) for row in rows), key=lambda r: r.check_id)
    return VerificationReport(suite, records)


def _mismatches(ns, *seqs) -> list[tuple]:
    """(n, each sequence's value at n) for every n in ns where the sequences,
    functions of n, disagree."""
    rows = ((n, *(seq(n) for seq in seqs)) for n in ns)
    return [row for row in rows if any(v != row[1] for v in row[2:])]


def _rule_vs_definition(spec: _ClassSpec, oracle_max) -> list[tuple]:
    """The avoiders whose children's labels from the definition differ from
    the succession rule's output, shortest first.

    One walk to length oracle_max + 1 visits every avoider with its append
    set, from which spec.label gives its label.  The open parents along the
    DFS path are checked as the walk leaves them.
    """
    bad = []
    path: list[tuple] = []  # (avoider, rule's children, labels of children seen)

    def close() -> None:
        a, want, got = path.pop()
        if got != want:
            bad.append((a, sorted(got.items()), sorted(want.items())))

    def visit(seq, appendable) -> None:
        while path and len(path[-1][0]) >= len(seq):
            close()
        label = spec.label(seq, appendable)
        if path:
            path[-1][2][label] += 1
        if len(seq) <= oracle_max:
            path.append((seq, spec.children(label), Counter()))

    visit_avoiders(oracle_max + 1, spec.patterns, visit)
    while path:
        close()
    return sorted(bad, key=lambda b: (len(b[0]), b[0]))  # shortest, then lexicographic


# ---------------------------------------------------------------------------
# Published level arrays (dense orientation as in the source tables)
# ---------------------------------------------------------------------------

GOLDEN_PAIR_ARRAYS: dict[int, list[list[int]]] = {
    1: [[1]],
    2: [[1, 0], [0, 1]],
    3: [[1, 1, 0], [0, 2, 0], [0, 0, 1]],
    4: [[1, 5, 0, 0], [0, 3, 1, 0], [0, 0, 4, 0], [0, 0, 0, 1]],
    5: [
        [1, 19, 1, 0, 0],
        [0, 4, 6, 0, 0],
        [0, 0, 12, 1, 0],
        [0, 0, 0, 6, 0],
        [0, 0, 0, 0, 1],
    ],
    6: [
        [1, 69, 9, 0, 0, 0],
        [0, 5, 25, 1, 0, 0],
        [0, 0, 35, 8, 0, 0],
        [0, 0, 0, 25, 1, 0],
        [0, 0, 0, 0, 8, 0],
        [0, 0, 0, 0, 0, 1],
    ],
    7: [
        [1, 256, 53, 1, 0, 0, 0],
        [0, 6, 94, 10, 0, 0, 0],
        [0, 0, 109, 42, 1, 0, 0],
        [0, 0, 0, 94, 10, 0, 0],
        [0, 0, 0, 0, 42, 1, 0],
        [0, 0, 0, 0, 0, 10, 0],
        [0, 0, 0, 0, 0, 0, 1],
    ],
}

GOLDEN_A0_ARRAYS: dict[int, list[list[int]]] = {
    2: [],
    3: [[1]],
    4: [[4, 1], [1, 0]],
    5: [[14, 6, 1], [4, 1, 0], [1, 0, 0]],
    6: [[50, 27, 8, 1], [14, 6, 1, 0], [4, 1, 0, 0], [1, 0, 0, 0]],
    7: [
        [187, 113, 44, 10, 1],
        [50, 27, 8, 1, 0],
        [14, 6, 1, 0, 0],
        [4, 1, 0, 0, 0],
        [1, 0, 0, 0, 0],
    ],
    8: [
        [730, 468, 212, 65, 12, 1],
        [187, 113, 44, 10, 1, 0],
        [50, 27, 8, 1, 0, 0],
        [14, 6, 1, 0, 0, 0],
        [4, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
    ],
}

GOLDEN_A1_ARRAYS: dict[int, list[list[int]]] = {
    2: [[1]],
    3: [[1, 1], [1, 0]],
    4: [[1, 3, 1], [1, 1, 0], [1, 0, 0]],
    5: [[1, 8, 5, 1], [1, 3, 1, 0], [1, 1, 0, 0], [1, 0, 0, 0]],
    6: [
        [1, 23, 19, 7, 1],
        [1, 8, 5, 1, 0],
        [1, 3, 1, 0, 0],
        [1, 1, 0, 0, 0],
        [1, 0, 0, 0, 0],
    ],
    7: [
        [1, 74, 69, 34, 9, 1],
        [1, 23, 19, 7, 1, 0],
        [1, 8, 5, 1, 0, 0],
        [1, 3, 1, 0, 0, 0],
        [1, 1, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0],
    ],
    8: [
        [1, 262, 256, 147, 53, 11, 1],
        [1, 74, 69, 34, 9, 1, 0],
        [1, 23, 19, 7, 1, 0, 0],
        [1, 8, 5, 1, 0, 0, 0],
        [1, 3, 1, 0, 0, 0, 0],
        [1, 1, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0],
    ],
}


# ---------------------------------------------------------------------------
# The supported classes: which pipeline counts which
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ClassSpec:
    """The pipelines of one avoidance class counted by A007317.  Its
    functions look their targets up in their modules at call time, so a
    wrapper or a patch put on a module after import is the one that runs."""

    name: str  # prefix of the check ids
    patterns: tuple[tuple[int, ...], ...]
    simulate: Callable[[int], list] | None  # levels 1..n of the tree
    recurrence: Callable[[int], list] | None
    label: Callable | None  # (avoider, its appendable digits) -> label
    children: Callable | None  # label -> Counter of child labels
    total_gf: str  # closed form whose t^n coefficient counts length n
    residuals: tuple[str, ...] = ()  # the C and D functional equations
    residual_cap: int = 0  # residual order: min(gf_order, cap)
    cd_gf: tuple[str, ...] = ()  # the C and D closed forms of the tree
    cells: Callable | None = None  # level -> its C and D cells by exponent
    total_note: str = ""  # detail of the passing total_vs_formula record


def _pair_cells(cd: gpair.CDTable) -> tuple[dict, dict]:
    """Column sums c and diagonals d of a pair level, keyed (i, n)."""
    return tuple({(i, cd.n): v for i, v in enumerate(col, 1)} for col in (cd.c, cd.d))


_PAIR = _ClassSpec(
    "pair",
    gpair.PAIR_PATTERNS,
    simulate=lambda n: gpair.simulate_pair_levels(n),
    recurrence=lambda n: gpair.pair_recurrence_levels(n),
    label=lambda seq, appendable: gpair.pair_label_from_appendable(seq, appendable),
    children=lambda label: gpair.pair_children(label),
    total_gf="C_total_pair",
    residuals=("pair_c", "pair_d"),
    residual_cap=30,
    cd_gf=("C_pair", "D_pair"),
    cells=lambda t: _pair_cells(gpair.cd_tables_from(t)),
)
_T0021 = _ClassSpec(
    "t0021",
    (g0021.QUAD_PATTERN,),
    simulate=lambda n: g0021.simulate_0021_levels(n),
    recurrence=lambda n: g0021.triple_recurrence_levels(n),
    label=lambda seq, appendable: g0021.triple_label_from_appendable(seq, appendable),
    children=lambda label: g0021.triple_children(label),
    total_gf="total_0021",
    residuals=("t0021_c", "t0021_d"),
    residual_cap=25,
    cd_gf=("C_0021", "D_0021"),
    # g0 and g1 of the level, keyed (q, r, n)
    cells=lambda t: tuple({(*k, t.n): v for k, v in g.items()} for g in (t.g0, t.g1)),
    total_note="matches the pair-class closed form coefficientwise",
)
# no generating tree is known for 1012; the class shares the 0021 total
_C1012 = _ClassSpec("1012", ((1, 0, 1, 2),), None, None, None, None, "total_0021")

_CLASSES = {frozenset(c.patterns): c for c in (_PAIR, _T0021, _C1012)}

_TOTAL_MAX = 40  # the total_vs_formula records read the closed forms alone


def _tree_rows(spec: _ClassSpec, n_max, gf_order, oracle_max):
    """The rows a tree suite writes the same way for every class.

    Checks the depths and writes the pentagon (brute force, simulation,
    recurrence and formula agree on the counts), recurrence-vs-formula,
    rule-vs-definition, residual, gf-coefficient and total-vs-formula rows.
    The gf-coefficient row compares every term of the C and D closed forms up
    to level gf_order // 2 with the cells spec.cells reads off that level of
    the recurrence, so a wrong value, a term off the support and a term at
    level 0 all fail it.  Returns the rows and the inputs the suites share:
    the recurrence depth recur_max, the simulated and the recurrence levels,
    and the C and D closed forms.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if oracle_max < 1:
        raise ValueError("oracle_max must be at least 1")
    if gf_order < n_max:
        # the gf checks cover levels up to gf_order // 2, the counts n_max
        raise ValueError(f"gf_order {gf_order} must be at least n_max {n_max}")
    if gf_order < 2:
        # below 2 the gf records would check no level and still pass
        raise ValueError(f"gf_order {gf_order} must be at least 2")
    name = spec.name
    recur_max = max(n_max, 20)
    residual_order = min(gf_order, spec.residual_cap)
    depth = gf_order // 2
    sim = spec.simulate(n_max)
    # as deep as the deepest row reading it: recurrence and gf checks
    recur = spec.recurrence(max(recur_max, depth))
    brute = count_avoiders(n_max, spec.patterns)

    rows = [
        (f"{name}.counts.pentagon", f"n<={n_max}",
         _mismatches(range(1, n_max + 1), lambda n: brute[n - 1],
                     lambda n: sim[n - 1].total(), lambda n: recur[n - 1].total(),
                     a007317),
         f"counts {brute[:7]}..."),
        (f"{name}.counts.recurrence_vs_formula", f"n<={recur_max}",
         _mismatches(range(1, recur_max + 1), lambda n: recur[n - 1].total(), a007317)),
        (f"{name}.labels.rule_vs_definition", f"n<={oracle_max}",
         _rule_vs_definition(spec, oracle_max)),
        *((f"{name}.gf.residual_{side}", f"order<={residual_order}",
           sorted(residual(which, residual_order).terms.items())[:1], "identically zero")
          for side, which in zip("cd", spec.residuals)),
    ]

    C, D = (build_closed_form(form, gf_order) for form in spec.cd_gf)
    want: tuple[dict, dict] = ({}, {})  # no cell at level 0
    for t in recur[:depth]:
        for side, cells in zip(want, spec.cells(t)):
            side.update(cells)
    bad = sorted(
        (
            (side, e, gf.terms.get(e, 0), cells.get(e, 0))
            for side, gf, cells in zip("CD", (C, D), want)
            for e in cells.keys() | {e for e in gf.terms if e[-1] <= depth}
            if gf.terms.get(e, 0) != cells.get(e, 0)
        ),
        key=lambda b: (b[1][-1], b[0], b[1]),  # level, then side, then exponent
    )
    total = build_closed_form(spec.total_gf, _TOTAL_MAX)
    rows += [
        (f"{name}.gf.coefficients", f"n<={depth}", bad),
        (f"{name}.gf.total_vs_formula", f"n<={_TOTAL_MAX}",
         _mismatches(range(_TOTAL_MAX + 1), lambda n: total.coeff((n,)),
                     lambda n: a007317(n) if n else 0),
         spec.total_note),
    ]
    return rows, recur_max, sim, recur, C, D


# ---------------------------------------------------------------------------
# Pair suite
# ---------------------------------------------------------------------------


def crosscheck_pair(
    n_max: int = 12, gf_order: int = 40, *, oracle_max: int = 8
) -> VerificationReport:
    """Full cross-validation of the {201, 210} pipelines.

    Brute force, tree simulation, recurrence, and the closed-form
    coefficients must all agree with the Catalan-convolution formula;
    the published level arrays and the seven structural identities are
    replayed; the functional-equation residuals must vanish.
    """
    rows, _, _, recur, C, _ = _tree_rows(_PAIR, n_max, gf_order, oracle_max)
    relations_max = max(n_max, 15)
    golden_hi = min(n_max, max(GOLDEN_PAIR_ARRAYS))
    golden = []
    for n in range(1, golden_hi + 1):
        dense, expected = recur[n - 1].dense(), GOLDEN_PAIR_ARRAYS[n]
        golden += [(n, p, qi + 1) for p in range(n) for qi in range(n)
                   if dense[p][qi] != expected[p][qi]]
    depth = gf_order // 2
    diag = C.diagonal()
    return _report("pair", rows + [
        ("pair.golden.level_arrays", f"n<={golden_hi}", golden),
        ("pair.relations.seven_identities", f"2<=n<={relations_max}",
         gpair.check_structure_relations(recur[:relations_max]),
         "all seven identities hold"),
        ("pair.gf.diagonal_ones", f"n<={depth}",
         _mismatches(range(depth + 1), lambda n: diag.coeff((n,)),
                     lambda n: int(n > 0))),  # 0 at z^0, 1 on every level
    ])


# ---------------------------------------------------------------------------
# 0021 suite
# ---------------------------------------------------------------------------


def _column_series(levels: list[g0021.TripleLevelTables], r: int) -> MSeries:
    """Top-row entries g0(n, 1, r) across levels, as a series in z."""
    return MSeries(
        ("z",), len(levels), {(n,): t.value0(1, r) for n, t in enumerate(levels, 1)}
    )


def crosscheck_0021(
    n_max: int = 12, gf_order: int = 40, *, oracle_max: int = 8
) -> VerificationReport:
    """Full cross-validation of the 0021 pipelines.

    Same pentagon as the pair suite, plus the published g0/g1 arrays, the
    row-shift structure, the single-increasing-node convention, and the
    column-structure relations through f(z) and g(z).
    """
    rows, recur_max, sim, recur, C, D = _tree_rows(_T0021, n_max, gf_order, oracle_max)

    sim_vs_recur = [(n,) for n, s, r in zip(range(1, n_max + 1), sim, recur)
                    if (s.g0, s.g1, s.g2_q) != (r.g0, r.g1, r.g2_q)]

    golden_max = max(GOLDEN_A0_ARRAYS)  # the g0 and g1 tables both stop here
    golden = []
    for n in range(2, golden_max + 1):
        t = recur[n - 1]
        for name, offset, got, want in (
            ("g0", 2, g0021.dense_a0(t), GOLDEN_A0_ARRAYS[n]),
            ("g1", 1, g0021.dense_a1(t), GOLDEN_A1_ARRAYS[n]),
        ):
            golden += [(n, name, qi + 1, ri + offset)
                       for qi, row in enumerate(want) for ri, val in enumerate(row)
                       if got[qi][ri] != val]

    row_shift = []
    for n in range(2, recur_max + 1):
        now, prev = recur[n - 1], recur[n - 2]
        for side, cells, value in (("g0", prev.g0, now.value0), ("g1", prev.g1, now.value1)):
            row_shift += [(side, n, q + 1, r) for (q, r), val in cells.items()
                          if value(q + 1, r) != val]

    depth = gf_order // 2
    tot = (C + D).substitute("x", 1).substitute("y", 1)

    # Column structure of the g0 arrays.  Alignment: with T_r(z) defined as
    # sum_n g0(n, 1, r) z^n (top-row entries across levels, which by the
    # row shift are the r-column entries of any one array read upward),
    # T_2(z) = z^2 (f(z) - 1)/(1 - z) and T_{r+1}(z) = T_r(z) g(z).
    depth_cols = len(recur)
    f = build_closed_form("f", depth_cols)
    g = build_closed_form("g", depth_cols)
    zs = ("z",)
    first_expected = (
        (f - MSeries.one(zs, depth_cols))
        * MSeries(zs, depth_cols, {(0,): 1, (1,): -1}).invert_unit()
        * MSeries(zs, depth_cols, {(2,): 1})
    )
    t2 = _column_series(recur, 2)
    ratio = []
    for r in range(2, depth_cols - 2):
        prod, t_next = _column_series(recur, r) * g, _column_series(recur, r + 1)
        # column r+1 starts one level later than column r, hence the z shift
        ratio += [(r, *m) for m in _mismatches(range(1, depth_cols + 1),
                                               lambda n: prod.coeff((n - 1,)),
                                               lambda n: t_next.coeff((n,)))]

    return _report("0021", rows + [
        ("t0021.counts.simulation_vs_recurrence", f"n<={n_max}", sim_vs_recur),
        ("t0021.golden.level_arrays", f"n<={golden_max}", golden),
        ("t0021.relations.row_shift", f"n<={recur_max}", row_shift,
         "each level array is the previous one pushed down one row"),
        # the simulated levels report the q they found, the recurrence its own
        ("t0021.relations.single_increasing_node", f"n<={recur_max}", [
            (source, t.n, t.g2_q)
            for source, levels in (("simulation", sim), ("recurrence", recur[:recur_max]))
            for t in levels
            if t.g2_q != t.n + 1
        ]),
        ("t0021.gf.level_totals", f"n<={depth}",
         _mismatches(range(1, depth + 1), lambda n: tot.coeff((0, 0, n)) + 1, a007317),
         "g0 + g1 sums plus the single increasing node"),
        ("t0021.columns.first_vs_f", f"n<={depth_cols}",
         _mismatches(range(depth_cols + 1), lambda n: t2.coeff((n,)),
                     lambda n: first_expected.coeff((n,))),
         "alignment: sum_n g0(n,1,2) z^n = z^2 (f(z)-1)/(1-z)"),
        ("t0021.columns.ratio_is_g", f"2<=r<{depth_cols - 2}, n<={depth_cols}", ratio,
         "alignment: sum_n g0(n,1,r+1) z^n = z g(z) sum_n g0(n,1,r) z^n"),
    ])


# ---------------------------------------------------------------------------
# Wilf equivalence
# ---------------------------------------------------------------------------


def wilf_equivalence_check(n_max: int = 11) -> VerificationReport:
    """Brute-force check that 0021 and 1012 have equinumerous avoidance

    classes, both counted by the Catalan convolution."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    counts_0021 = count_avoiders(n_max, _T0021.patterns)
    counts_1012 = count_avoiders(n_max, _C1012.patterns)
    ns = range(1, n_max + 1)
    return _report("wilf", [
        ("wilf.counts.equal", f"n<={n_max}",
         _mismatches(ns, lambda n: counts_0021[n - 1], lambda n: counts_1012[n - 1]),
         f"both reach {counts_0021[-1]} at n={n_max}"),
        ("wilf.counts.formula", f"n<={n_max}",
         _mismatches(ns, lambda n: counts_0021[n - 1], a007317)),
    ])
