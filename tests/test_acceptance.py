"""Acceptance suite: every criterion at its full stated range.

Each test prints one pass/fail line (run with -s to watch them); the full
suite doubles as the release gate.
"""

import random
from collections import Counter
from fractions import Fraction

from ascentseq import core
from ascentseq import gentree_0021 as gt
from ascentseq import gentree_pair as gp
from ascentseq import verify
from ascentseq.series import (
    MSeries,
    _radical,
    a007317,
    build_closed_form,
    residual,
)

FIRST_SEVEN = [1, 2, 5, 15, 51, 188, 731]


def report(num: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_pair_counting_pentagon():
    brute = core.count_avoiders(12, gp.PAIR_PATTERNS)
    sim = [t.total() for t in gp.simulate_pair_levels(12)]
    recur = [t.total() for t in gp.pair_recurrence_levels(25)]
    C = build_closed_form("C_pair", 50)
    # the column sums: the x-degree of a term is at most its y-degree
    gf = [sum(c for (_, m), c in C.terms.items() if m == n) for n in range(1, 26)]
    formula = [a007317(n) for n in range(1, 26)]
    ok = (
        brute == recur[:12] == sim == formula[:12]
        and recur == gf == formula
        and brute[:7] == FIRST_SEVEN
    )
    report(1, "pair pentagon: brute=tree=recurrence=gf=formula", ok)


def test_criterion_02_pair_level_array_goldens():
    levels = gp.pair_recurrence_levels(7)
    ok = all(
        levels[n - 1].dense() == verify.GOLDEN_PAIR_ARRAYS[n] for n in range(1, 8)
    )
    t7 = levels[-1]
    ok = ok and t7.value(0, 2) == 256 and t7.value(2, 3) == 109
    report(2, "pair level arrays reproduce the published data for n <= 7", ok)


def test_criterion_03_seven_identities():
    violations = gp.check_structure_relations(gp.pair_recurrence_levels(15))
    report(3, "all seven structural identities hold for 2 <= n <= 15", violations == [])


def test_criterion_04_diagonal_ones():
    C = build_closed_form("C_pair", 50)
    ok = C.coeff((0, 0)) == 0 and all(C.coeff((n, n)) == 1 for n in range(1, 26))
    report(4, "diagonal coefficients of the pair column gf are all 1 (n <= 25)", ok)


def test_criterion_05_functional_equation_residuals():
    ok = residual("pair_c", 30).is_zero()
    ok = ok and residual("pair_d", 30).is_zero()
    ok = ok and residual("t0021_c", 25).is_zero()
    ok = ok and residual("t0021_d", 25).is_zero()
    report(5, "cleared-denominator residuals vanish (pair @30, 0021 @25)", ok)


def test_criterion_06_0021_counting_pentagon():
    brute = core.count_avoiders(12, [gt.QUAD_PATTERN])
    sim = [t.total() for t in gt.simulate_0021_levels(12)]
    recur_levels = gt.triple_recurrence_levels(20)
    recur = [t.total() for t in recur_levels]
    C = build_closed_form("C_0021", 40)
    D = build_closed_form("D_0021", 40)
    # the level sums: the x- and y-degree of a term add to at most its z-degree
    cd = (C + D).terms
    gf = [sum(c for (_, _, m), c in cd.items() if m == n) + 1 for n in range(1, 21)]
    formula = [a007317(n) for n in range(1, 21)]
    ok = (
        brute == sim == recur[:12] == formula[:12]
        and recur == gf == formula
        and brute[:7] == FIRST_SEVEN
    )
    for n in range(2, 9):
        t = recur_levels[n - 1]
        ok = ok and gt.dense_a0(t) == verify.GOLDEN_A0_ARRAYS[n]
        ok = ok and gt.dense_a1(t) == verify.GOLDEN_A1_ARRAYS[n]
    t8 = recur_levels[7]
    ok = ok and t8.value0(1, 2) == 730 and t8.value1(1, 2) == 262
    report(6, "0021 pentagon and published arrays for n <= 8", ok)


def test_criterion_07_punchline_identity():
    pair_total = build_closed_form("C_total_pair", 40)
    quad_total = build_closed_form("total_0021", 40)
    ok = all(
        pair_total.coeff((n,)) == quad_total.coeff((n,)) == a007317(n)
        for n in range(1, 41)
    )
    report(7, "class totals match the Catalan convolution for n <= 40", ok)


def test_criterion_08_wilf_equivalence():
    counts_0021 = core.count_avoiders(11, [gt.QUAD_PATTERN])
    counts_1012 = core.count_avoiders(11, [(1, 0, 1, 2)])
    formula = [a007317(n) for n in range(1, 12)]
    ok = counts_0021 == counts_1012 == formula and counts_0021[-1] == 223191
    report(8, "0021 and 1012 avoiders are equinumerous for n <= 11", ok)


def test_criterion_09_rule_vs_definition_labels():
    # every label is read off a fresh append set, independently of the walk
    mismatches = []
    for name, patterns, label_of, children in (
        ("pair", gp.PAIR_PATTERNS, gp.pair_label_from_appendable, gp.pair_children),
        ("0021", [gt.QUAD_PATTERN], gt.triple_label_from_appendable, gt.triple_children),
    ):
        def label(seq):
            return label_of(seq, core.valid_append_set(seq, patterns))

        for n in range(1, 9):
            for a in core.enumerate_avoiders(n, patterns):
                got = Counter(
                    label(a + (d,)) for d in core.valid_append_set(a, patterns)
                )
                if got != children(label(a)):
                    mismatches.append((name, a))
    if mismatches:
        print("witnesses:", mismatches[:5])
    report(9, "succession rules match definition-level labels (n <= 8)", not mismatches)


def test_criterion_10_series_property_suite():
    rng = random.Random(20210021)
    ok = True
    for _ in range(100):
        coeffs = [
            Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(13)
        ]
        while not coeffs[0]:
            coeffs[0] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        a = MSeries(("z",), 12, {(k,): c for k, c in enumerate(coeffs)})
        ok = ok and a * a.invert_unit() == MSeries(("z",), 12, {(0,): 1})
    for _ in range(100):
        a = MSeries(
            ("z",),
            12,
            {(k,): Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for k in range(13)},
        )
        b = MSeries(("z",), 12, {(0,): rng.randrange(1, 5), (1,): rng.randrange(-4, 4)})
        ok = ok and (a * b) * b.invert_unit() == a
    quad = MSeries(("z",), 64, {(0,): 1, (1,): -6, (2,): 5})
    s = MSeries(("z",), 64, {(k,): c for k, c in enumerate(_radical(64))})
    ok = ok and s * s == quad
    report(10, "series round trips (100 cases each) and radical square @64", ok)


def test_criterion_11_column_structure_report():
    rep = verify.crosscheck_0021(n_max=4, gf_order=12)
    records = {r.check_id: r for r in rep.records}
    first = records["t0021.columns.first_vs_f"]
    ratio = records["t0021.columns.ratio_is_g"]
    print(f"  column alignment: {first.detail}; {ratio.detail}")
    ok = first.passed and ratio.passed
    ok = ok and "z^2 (f(z)-1)/(1-z)" in first.detail
    ok = ok and "z g(z)" in ratio.detail
    report(11, "column structure matches f and g at the stated alignment", ok)
