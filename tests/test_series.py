import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ascentseq import gentree_0021 as gt
from ascentseq import gentree_pair as gp
from ascentseq.series import (
    GF_NAMES,
    MSeries,
    _radical,
    a007317,
    binom,
    build_closed_form,
    catalan,
    residual,
)


def zpoly(order, terms, var="z"):
    """A polynomial in one variable, given as {power: coefficient}."""
    return MSeries((var,), order, {(k,): c for k, c in terms.items()})


def coeffs(series):
    """Every coefficient of a one-variable series, constant term first."""
    return [series.coeff((k,)) for k in range(series.order + 1)]


def test_arith_examples():
    one_plus = zpoly(5, {0: 1, 1: 1})
    one_minus = zpoly(5, {0: 1, 1: -1})
    assert one_plus * one_minus == zpoly(5, {0: 1, 2: -1})
    geo = one_minus.invert_unit()
    z = zpoly(5, {1: 1})
    assert coeffs((z * geo) + MSeries(("z",), 5, {})) == [0, 1, 1, 1, 1, 1]
    vs = ("x", "y")
    a = MSeries(vs, 2, {(0, 0): 1, (0, 1): 1})
    b = MSeries(vs, 2, {(0, 0): 1, (1, 0): 1})
    assert a * b == MSeries(vs, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})


def test_arith_rejects_mismatched_operands():
    with pytest.raises(ValueError):
        zpoly(4, {0: 1}) + zpoly(4, {0: 1}, var="y")
    with pytest.raises(ValueError):
        zpoly(4, {0: 1}) + zpoly(5, {0: 1})
    with pytest.raises(ValueError):
        MSeries(("x", "y"), 4, {}) * MSeries(("x", "z"), 4, {})
    for variables in [(), ("x", "x"), ("w", "x", "y", "z")]:
        with pytest.raises(ValueError, match="one to three distinct"):
            MSeries(variables, 4, {})


def test_invert_examples():
    geo = zpoly(6, {0: 1, 1: -1}).invert_unit()
    assert coeffs(geo) == [Fraction(1)] * 7
    assert zpoly(3, {0: 2}).invert_unit().coeff((0,)) == Fraction(1, 2)
    inv = zpoly(6, {0: 1, 1: -6, 2: 5}).invert_unit()
    assert coeffs(inv)[:3] == [1, 6, 31]
    assert inv * zpoly(6, {0: 1, 1: -6, 2: 5}) == MSeries.one(("z",), 6)
    with pytest.raises(ValueError):
        zpoly(4, {1: 1}).invert_unit()
    with pytest.raises(ValueError):
        MSeries(("x", "y"), 4, {(1, 0): 1}).invert_unit()


def test_sqrt_examples():
    s = _radical(300)
    assert _radical(0) == [1]
    assert s[:5] == [1, -3, -2, -6, -20]
    # exact integer check: s * s = 1 - 6t + 5t^2 through t^300
    assert all(type(c) is int for c in s)
    square = [sum(s[i] * s[n - i] for i in range(n + 1)) for n in range(301)]
    assert square == [1, -6, 5] + [0] * 298


def test_substitute():
    C = build_closed_form("C_pair", 16)
    at_one = C.substitute("x", 1)
    for n in range(1, 9):
        assert at_one.coeff((0, n)) == a007317(n)
    D = build_closed_form("D_0021", 10)
    merged = D.substitute("x", "y")
    direct = {}
    for (q, r, n), c in D.terms.items():
        key = (0, q + r, n)
        direct[key] = direct.get(key, Fraction(0)) + c
    assert merged.terms == {e: c for e, c in direct.items() if c}
    const = MSeries(("x", "y"), 5, {(0, 0): 7})
    assert const.substitute("x", 1) == const
    with pytest.raises(ValueError):
        const.substitute("w", 1)


def test_diagonal():
    vs = ("x", "y")
    assert MSeries(vs, 8, {(1, 1): 1}).diagonal() == zpoly(4, {1: 1})
    assert MSeries(vs, 8, {(2, 1): 1}).diagonal() == MSeries(("z",), 4, {})
    C = build_closed_form("C_pair", 20)
    assert coeffs(C.diagonal()) == [0] + [1] * 10


def test_mseries_coeff_rejects_bad_exponents():
    C = build_closed_form("C_0021", 8)
    assert C.coeff((1, 2, 3)) == 1  # g0(3; 1, 2)
    # a check written with the wrong arity must not read a silent zero
    with pytest.raises(ValueError, match="bad exponent tuple"):
        C.coeff((1, 2))
    with pytest.raises(ValueError, match="bad exponent tuple"):
        C.coeff((1, 2, 3, 0))
    with pytest.raises(ValueError, match="bad exponent tuple"):
        C.coeff((-1, 2, 3))
    with pytest.raises(IndexError):
        C.coeff((1, 2, 6))


def test_reference_sequences():
    assert [catalan(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]
    assert binom(6, 2) == 15 and binom(5, 7) == 0
    assert a007317(5) == 51
    assert a007317(7) == 731
    assert a007317(10) == 51822
    with pytest.raises(ValueError):
        a007317(0)


def test_build_c2():
    c2 = build_closed_form("C2", 7)
    assert c2.vars == ("y",)
    assert coeffs(c2) == [0, 0, 1, 3, 8, 23, 74, 262]


def test_build_f():
    # the closed form settles the printed-exponent question: coefficient 3
    # sits on z^2
    f = build_closed_form("f", 5)
    assert coeffs(f) == [1, 1, 3, 10, 36, 137]


def test_build_g():
    g = build_closed_form("g", 5)
    assert coeffs(g) == [1, 2, 5, 15, 51, 188]
    assert coeffs(g) == [a007317(n + 1) for n in range(6)]


def test_build_totals():
    tot = build_closed_form("C_total_pair", 10)
    assert coeffs(tot) == [0] + [a007317(n) for n in range(1, 11)]
    tot2 = build_closed_form("total_0021", 10)
    assert (tot.vars, tot2.vars) == (("y",), ("z",))
    assert coeffs(tot) == coeffs(tot2)


def test_build_pair_gfs_match_recurrence():
    C = build_closed_form("C_pair", 24)
    D = build_closed_form("D_pair", 24)
    levels = gp.pair_recurrence_levels(12)
    for n in range(1, 13):
        cd = gp.cd_tables_from(levels[n - 1])
        for i in range(1, n + 1):
            assert C.coeff((i, n)) == cd.c[i - 1], (n, i)
            assert D.coeff((i, n)) == cd.d[i - 1], (n, i)


def test_build_0021_gfs_match_recurrence():
    C = build_closed_form("C_0021", 24)
    D = build_closed_form("D_0021", 24)
    levels = gt.triple_recurrence_levels(12)
    for n in range(1, 13):
        t = levels[n - 1]
        for q in range(1, n + 1):
            for r in range(0, n - q + 1):
                if q + r + n <= 24:
                    assert C.coeff((q, r, n)) == t.value0(q, r), (n, q, r)
                    assert D.coeff((q, r, n)) == t.value1(q, r), (n, q, r)


def test_unknown_names_rejected():
    with pytest.raises(ValueError):
        build_closed_form("nope", 5)
    with pytest.raises(ValueError):
        residual("nope", 5)
    assert set(GF_NAMES) == set(
        ("C_pair", "D_pair", "C2", "C_total_pair", "C_0021", "D_0021",
         "total_0021", "f", "g")
    )


def test_residuals_vanish():
    assert residual("pair_c", 16).is_zero()
    assert residual("pair_d", 16).is_zero()
    assert residual("t0021_c", 12).is_zero()
    assert residual("t0021_d", 12).is_zero()


def test_perturbed_column_gf_leaves_residual():
    # push the column equation off by y^2: the defect -x^2 y^2 (1 - y)
    # first shows up at total degree 4
    order = 10
    vs = ("x", "y")
    C = build_closed_form("C_pair", order)
    D = build_closed_form("D_pair", order)
    c2 = build_closed_form("C2", order)
    c2_m = MSeries(vs, order, {(0, k): c for (k,), c in c2.terms.items()})
    perturbed = c2_m + MSeries(vs, order, {(0, 2): 1})
    one_minus_y = MSeries(vs, order, {(0, 0): 1, (0, 1): -1})
    lhs = (
        MSeries(vs, order, {(0, 0): 1, (1, 0): -1}) * one_minus_y * C
        + MSeries(vs, order, {(1, 0): 1}) * one_minus_y * D
    )
    rhs = MSeries(vs, order, {(1, 1): 1}) + (
        MSeries(vs, order, {(2, 0): 1}) * one_minus_y * perturbed
    )
    res = lhs - rhs
    assert not res.is_zero()
    assert min(sum(e) for e in res.terms) == 4
    assert res.terms == {(2, 2): Fraction(-1), (2, 3): Fraction(1)}


def test_series_json_roundtrip():
    # the documented output format: variables, order, and the nonzero terms
    # as [exponents..., "num/den"] in increasing exponent order
    f = build_closed_form("f", 6)
    assert json.loads(json.dumps(f.to_json_dict())) == {
        "variables": ["z"],
        "order": 6,
        "terms": [[0, "1/1"], [1, "1/1"], [2, "3/1"], [3, "10/1"],
                  [4, "36/1"], [5, "137/1"], [6, "543/1"]],
    }
    u = zpoly(3, {1: Fraction(-1, 2), 3: 4}, var="y")
    assert u.to_json_dict()["terms"] == [[1, "-1/2"], [3, "4/1"]]
    C = build_closed_form("C_pair", 8)
    d = json.loads(json.dumps(C.to_json_dict()))
    assert d["variables"] == ["x", "y"] and d["order"] == 8
    assert d["terms"][:2] == [[1, 1, "1/1"], [1, 2, "1/1"]]
    assert [tuple(t[:-1]) for t in d["terms"]] == sorted(C.terms)
    assert all(Fraction(t[-1]) == C.coeff(tuple(t[:-1])) for t in d["terms"])


# ---------------------------------------------------------------------------
# The integer kernels against schoolbook Fraction arithmetic, and the ring
# laws, in one, two and three variables
# ---------------------------------------------------------------------------

VARIABLES = st.sampled_from([("z",), ("x", "y"), ("x", "y", "z")])
ORDERS = st.integers(0, 8)
# denominators up to 12, most of them not powers of 2
COEFFS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12))
UNITS = st.sampled_from([Fraction(-3, 2), Fraction(5, 3)]) | st.builds(
    Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 12)
)


def ref_mul(a, b, order):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= order:
                out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def ref_inv(a, nvars, order):
    zero = (0,) * nvars
    exps = [e for e in itertools.product(range(order + 1), repeat=nvars) if sum(e) <= order]
    out = {}
    for e in sorted(exps, key=sum):
        acc = Fraction(e == zero)
        for f, c in a.items():
            rest = tuple(x - y for x, y in zip(e, f))
            if f != zero and min(rest) >= 0:
                acc -= c * out[rest]
        out[e] = acc / a[zero]
    return {e: c for e, c in out.items() if c}


def all_fractions(values):
    return all(type(v) is Fraction for v in values)


@st.composite
def series_tuples(draw, count, constant=None):
    """count series in one ring; constant, if given, draws their constant terms."""
    vs = draw(VARIABLES)
    order = draw(ORDERS)
    # exponents past the order are dropped by the constructor
    exps = st.tuples(*[st.integers(0, order)] * len(vs))
    out = []
    for _ in range(count):
        terms = draw(st.dictionaries(exps, COEFFS, max_size=10))
        if constant is not None:
            terms[(0,) * len(vs)] = draw(constant)
        out.append(MSeries(vs, order, terms))
    return out


@given(series_tuples(2))
def test_mseries_mul_matches_schoolbook(pair):
    a, b = pair
    for prod, ref in [
        (a * b, ref_mul(a.terms, b.terms, a.order)),
        (a * a, ref_mul(a.terms, a.terms, a.order)),
    ]:
        assert prod.terms == ref
        assert all(prod.terms.values()) and all_fractions(prod.terms.values())
    # a(t) * a(-t) cancels every term of odd total degree
    neg = MSeries(a.vars, a.order, {e: -c if sum(e) % 2 else c for e, c in a.terms.items()})
    cancel = a * neg
    assert cancel.terms == ref_mul(a.terms, neg.terms, a.order)
    assert all(sum(e) % 2 == 0 for e in cancel.terms)
    assert all(cancel.terms.values()) and all_fractions(cancel.terms.values())


@given(series_tuples(1, UNITS))
def test_mseries_invert_matches_schoolbook(single):
    (a,) = single
    inv = a.invert_unit()
    assert inv.terms == ref_inv(a.terms, len(a.vars), a.order)
    assert all(inv.terms.values()) and all_fractions(inv.terms.values())


def ref_umul(a, b):
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(len(a))]


def ref_uinv(a):
    out = [1 / a[0]]
    for d in range(1, len(a)):
        out.append(-sum((a[u] * out[d - u] for u in range(1, d + 1)), Fraction(0)) / a[0])
    return out


@st.composite
def dense_zseries_pairs(draw):
    """Two one-variable series with every coefficient up to the order drawn."""
    order = draw(ORDERS)
    cs = st.lists(COEFFS, min_size=order + 1, max_size=order + 1)
    return tuple(zpoly(order, dict(enumerate(draw(cs)))) for _ in range(2))


@given(dense_zseries_pairs())
def test_useries_mul_matches_schoolbook(pair):
    a, b = pair
    prod = a * b
    assert coeffs(prod) == ref_umul(coeffs(a), coeffs(b))
    assert all_fractions(prod.terms.values())
    odd_negated = {k: -c if k % 2 else c for k, c in enumerate(coeffs(a))}
    cancel = a * zpoly(a.order, odd_negated)
    assert not any(coeffs(cancel)[1::2])
    assert all_fractions(cancel.terms.values())


@given(dense_zseries_pairs(), UNITS)
def test_useries_invert_matches_schoolbook(pair, c0):
    a = pair[0] + zpoly(pair[0].order, {0: c0 - pair[0].coeff((0,))})
    inv = a.invert_unit()
    assert coeffs(inv) == ref_uinv(coeffs(a))
    assert all_fractions(inv.terms.values())


@given(series_tuples(1, UNITS))
def test_invert_round_trip_randomized(single):
    (a,) = single
    assert a * a.invert_unit() == MSeries.one(a.vars, a.order)


@given(series_tuples(3))
def test_ring_axioms_randomized(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert (a - b) + b == a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


def test_catalan_matches_the_convolution_recurrence():
    ref = [1]
    for m in range(200):
        ref.append(sum(ref[i] * ref[m - i] for i in range(m + 1)))
    assert [catalan(k) for k in range(201)] == ref
    with pytest.raises(ValueError):
        catalan(-1)
