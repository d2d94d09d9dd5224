"""Exact truncated formal power series over arbitrary-precision rationals.

MSeries is a sparse series in one, two or three variables truncated by
total degree (the count tables are triangular, so total-degree order N
captures levels 1..N exactly).  Stored coefficients are fractions.Fraction
throughout, so every operation is exact; equality of series means equality
of every stored coefficient.  The O(N^2) kernels (products and inverses)
write their operands as integer numerators over one common denominator and
pack each exponent tuple into one int, sum e_i (N+1)^i, so that adding
exponents is adding ints; the total-degree cut keeps every digit below the
base, so the sums never carry.  The loops run on plain ints, and each
Fraction and exponent tuple is built once at the end.

On top of the ring operations sit the closed forms used by the avoidance
counts: the column and diagonal generating functions of the pair tree,
the g0/g1 generating functions of the 0021 tree, the class totals, and
the two one-variable series f and g tied to the column structure of the
g0 arrays.  All of them are rational expressions over the one univariate
radical sqrt(5t^2 - 6t + 1), t being y or z.  Its coefficients are
integers read off the three-term recurrence
n s_n = (6n - 9) s_{n-1} - (5n - 15) s_{n-2}, s_0 = 1, s_1 = -3; for the
multivariate forms the one-variable series is lifted into the ring of
their variables, and the rest is exact multiplication and inversion.
`residual` substitutes the closed forms into the functional equations
they are supposed to solve, with denominators cleared to polynomial
form, and returns what should be the zero series.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping, Sequence, Union

__all__ = [
    "MSeries",
    "catalan",
    "binom",
    "a007317",
    "GF_NAMES",
    "RESIDUAL_NAMES",
    "build_closed_form",
    "residual",
]

F0 = Fraction(0)


def _over_common(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """The values as integer numerators over their least common denominator."""
    values = list(values)
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


# ---------------------------------------------------------------------------
# The series ring
# ---------------------------------------------------------------------------

Exp = tuple[int, ...]


def _packing(nvars: int, order: int):
    """Kronecker packing of exponent tuples into ints, e -> sum e_i b^i with
    base b = order + 1, and its inverse.  Every digit of a sum of keys whose
    total degree stays within the order is at most the order, so the sum
    never carries: it is the key of the summed exponents."""
    base = order + 1
    weights = [base**i for i in range(nvars)]

    def pack(e: Exp) -> int:
        return sum(map(mul, e, weights))

    def unpack(k: int) -> Exp:
        e = []
        for _ in weights:
            k, r = divmod(k, base)
            e.append(r)
        return tuple(e)

    return pack, unpack


class MSeries:
    """Sparse power series in one to three variables, truncated by total
    degree."""

    __slots__ = ("vars", "order", "terms")

    def __init__(self, variables: Sequence[str], order: int, terms: Mapping[Exp, int | Fraction]):
        if order < 0:
            raise ValueError("order must be non-negative")
        vs = tuple(variables)
        if not 1 <= len(vs) <= 3 or len(set(vs)) != len(vs):
            raise ValueError("need one to three distinct variable names")
        self.vars = vs
        self.order = order
        clean: dict[Exp, Fraction] = {}
        for e, c in terms.items():
            e = tuple(e)
            if len(e) != len(vs) or any(x < 0 for x in e):
                raise ValueError(f"bad exponent tuple {e}")
            if sum(e) > order:
                continue
            c = Fraction(c)
            if c:
                clean[e] = clean.get(e, F0) + c
                if not clean[e]:
                    del clean[e]
        self.terms = clean

    @classmethod
    def one(cls, variables: Sequence[str], order: int) -> "MSeries":
        return cls(variables, order, {(0,) * len(tuple(variables)): 1})

    def coeff(self, exps: Exp) -> Fraction:
        e = tuple(exps)
        if len(e) != len(self.vars) or min(e) < 0:
            raise ValueError(f"bad exponent tuple {e} for variables {self.vars}")
        if sum(e) > self.order:
            raise IndexError(f"exponent {e} outside truncation order {self.order}")
        return self.terms.get(e, F0)

    def is_zero(self) -> bool:
        return not self.terms

    def truncate(self, order: int) -> "MSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return MSeries(
            self.vars, order, {e: c for e, c in self.terms.items() if sum(e) <= order}
        )

    def _check_compatible(self, other: "MSeries") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, MSeries):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.order == other.order
            and self.terms == other.terms
        )

    def __add__(self, other: "MSeries") -> "MSeries":
        self._check_compatible(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            nv = out.get(e, F0) + c
            if nv:
                out[e] = nv
            else:
                out.pop(e, None)
        return self._wrap(out)

    def __sub__(self, other: "MSeries") -> "MSeries":
        return self + -other

    def __neg__(self) -> "MSeries":
        return self._wrap({e: -c for e, c in self.terms.items()})

    def _wrap(self, terms: dict[Exp, Fraction]) -> "MSeries":
        out = MSeries.__new__(MSeries)
        out.vars = self.vars
        out.order = self.order
        out.terms = terms
        return out

    def __mul__(self, other: "MSeries") -> "MSeries":
        self._check_compatible(other)
        pack, unpack = _packing(len(self.vars), self.order)
        a, da = _over_common(self.terms.values())
        nb, db = _over_common(other.terms.values())
        # other's terms by total degree: each term of self meets the prefix
        # that stays within the order, so no sum of keys carries
        b = sorted(zip(map(sum, other.terms), map(pack, other.terms), nb))
        degs = [t[0] for t in b]
        b = [t[1:] for t in b]
        acc: defaultdict[int, int] = defaultdict(int)
        for ea, ca in zip(self.terms, a):
            ka = pack(ea)
            for kb, cb in b[: bisect_right(degs, self.order - sum(ea))]:
                acc[ka + kb] += ca * cb
        den = da * db
        return self._wrap({unpack(k): Fraction(c, den) for k, c in acc.items() if c})

    def invert_unit(self) -> "MSeries":
        """Multiplicative inverse; requires a nonzero constant term.

        With self = A / da over integers and |e| the total degree of e, the
        coefficient of e in the inverse is da * q[e] / A[0]^(|e|+1), where
        q[0] = 1 and q[e] = -sum_{f != 0} A[f] * A[0]^(|f|-1) * q[e-f].
        Once every q of degree d is known, its products with the terms of
        self are pushed into the degrees above.
        """
        pack, unpack = _packing(len(self.vars), self.order)
        nums, da = _over_common(self.terms.values())
        a = dict(zip(self.terms, nums))
        a0 = a.pop((0,) * len(self.vars), 0)
        if not a0:
            raise ValueError("series with zero constant term is not invertible")
        b = sorted((sum(e), pack(e), c * a0 ** (sum(e) - 1)) for e, c in a.items())
        degs = [t[0] for t in b]
        pushed = [defaultdict(int) for _ in range(self.order + 1)]  # -q by degree
        pushed[0][0] = -1
        out = {}
        p = 1
        for d in range(self.order + 1):
            q = {k: -c for k, c in pushed[d].items() if c}
            p *= a0
            out.update((unpack(k), Fraction(da * c, p)) for k, c in q.items())
            above = pushed[d:]
            cut = bisect_right(degs, self.order - d)
            for kq, cq in q.items():
                for u, kb, cb in b[:cut]:
                    above[u][kq + kb] += cb * cq
        return self._wrap(out)

    def substitute(self, var: str, value: Union[int, str]) -> "MSeries":
        """Set a variable to 1, or rename it onto another variable.

        The variable list is preserved; the substituted variable simply no
        longer occurs.  Total degree never grows, so truncation is safe.
        """
        if var not in self.vars:
            raise ValueError(f"unknown variable {var!r}")
        i = self.vars.index(var)
        if value == 1:
            j = None
        elif isinstance(value, str):
            if value not in self.vars or value == var:
                raise ValueError(f"cannot substitute {var!r} by {value!r}")
            j = self.vars.index(value)
        else:
            raise ValueError("substitution value must be 1 or another variable name")
        nums, den = _over_common(self.terms.values())
        acc: defaultdict[Exp, int] = defaultdict(int)
        for e, c in zip(self.terms, nums):
            le = list(e)
            if j is not None:
                le[j] += le[i]
            le[i] = 0
            acc[tuple(le)] += c
        return self._wrap({e: Fraction(c, den) for e, c in acc.items() if c})

    def diagonal(self) -> "MSeries":
        """For a bivariate series, the series in z of equal-exponent
        coefficients; reliable through half the truncation order."""
        if len(self.vars) != 2:
            raise ValueError("diagonal extraction needs a bivariate series")
        return MSeries(
            ("z",), self.order // 2, {(i,): c for (i, j), c in self.terms.items() if i == j}
        )

    def __repr__(self) -> str:
        items = sorted(self.terms.items())[:6]
        parts = [f"{c}*{e}" for e, c in items] or ["0"]
        more = " + ..." if len(self.terms) > 6 else ""
        return f"MSeries{self.vars}({' + '.join(parts)}{more})"

    def to_json_dict(self) -> dict:
        return {
            "variables": list(self.vars),
            "order": self.order,
            "terms": [
                [*e, f"{c.numerator}/{c.denominator}"]
                for e, c in sorted(self.terms.items())
            ],
        }


# ---------------------------------------------------------------------------
# Reference sequences
# ---------------------------------------------------------------------------


def catalan(k: int) -> int:
    """Catalan numbers, binom(2k, k) / (k + 1)."""
    if k < 0:
        raise ValueError("negative index")
    return math.comb(2 * k, k) // (k + 1)


def binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def a007317(n: int) -> int:
    """Binomial convolution of the Catalan numbers (OEIS A007317):
    sum over k of C(n-1, k) * catalan(k), for n >= 1."""
    if n < 1:
        raise ValueError("index must be at least 1")
    return sum(binom(n - 1, k) * catalan(k) for k in range(n))


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def _poly1(var: str, order: int, terms: Mapping[int, int]) -> MSeries:
    """A polynomial in the one variable var, given as {power: coefficient}."""
    return MSeries((var,), order, {(k,): c for k, c in terms.items()})


def _radical(order: int) -> list[int]:
    """The coefficients s_0..s_order of s = sqrt(1 - 6t + 5t^2).

    Squaring gives 2 s s' = -6 + 10t, so (1 - 6t + 5t^2) s' = (-3 + 5t) s,
    and the coefficient of t^(n-1) reads
    n s_n = (6n - 9) s_{n-1} - (5n - 15) s_{n-2}.  The division by n is
    exact: s = 1 - t - 2t f, where f = 1 - t + t f + t f^2 has integer
    coefficients.
    """
    s = [1, -3]
    for n in range(2, order + 1):
        s.append(((6 * n - 9) * s[-1] - (5 * n - 15) * s[-2]) // n)
    return s[: order + 1]


def _radical_u(var: str, order: int) -> MSeries:
    """sqrt(5 t^2 - 6 t + 1) as a one-variable series."""
    return _poly1(var, order, dict(enumerate(_radical(order))))


def _lift(u: MSeries, variables: Sequence[str], var: str) -> MSeries:
    """The one-variable series u, in variable var of a multivariate ring of
    the same truncation order."""
    vs = tuple(variables)
    i = vs.index(var)
    pad = (0,) * (len(vs) - i - 1)
    return MSeries(vs, u.order, {(0,) * i + e + pad: c for e, c in u.terms.items()})


def _total_formula(var: str, order: int) -> MSeries:
    """(-1 + t + sqrt(5 t^2 - 6 t + 1)) / (2 (t - 1))."""
    rad = _radical_u(var, order)
    num = _poly1(var, order, {0: -1, 1: 1}) + rad
    den = _poly1(var, order, {0: -2, 1: 2})
    return num * den.invert_unit()


def _build_c2(order: int) -> MSeries:
    rad = _radical_u("y", order)
    num = (_poly1("y", order, {0: -1, 1: 1}) + rad) * _poly1("y", order, {1: -1})
    den = _poly1("y", order, {0: 2, 1: -4, 2: 2})
    return num * den.invert_unit()


def _build_f(order: int) -> MSeries:
    # f = (1 - z - rad) / (2z), so f_{k-1} = (-[k=1] - s_k) / 2
    s = _radical(order + 1)
    f = {k - 1: Fraction(-(k == 1) - s[k], 2) for k in range(1, order + 2)}
    return _poly1("z", order, f)


def _build_g(order: int) -> MSeries:
    # the last factor of the denominator, -1 + 3z + rad, is z^2 (s_2 + s_3 z
    # + ...); it cancels the z^2 of the numerator -16 z^2 (1 - z)
    s = _radical(order + 2)
    rad = _poly1("z", order, dict(enumerate(s)))
    one_minus = _poly1("z", order, {0: 1, 1: -1}) + rad
    other = _poly1("z", order, dict(enumerate(s[2:])))
    den = one_minus * one_minus * one_minus * other
    return _poly1("z", order, {0: -16, 1: 16}) * den.invert_unit()


def _build_c_pair(order: int) -> MSeries:
    vs = ("x", "y")
    rad = _lift(_radical_u("y", order), vs, "y")
    num = (
        rad * MSeries(vs, order, {(1, 0): 1})
        + MSeries(vs, order, {(1, 1): -1, (1, 0): 1, (0, 1): 2, (0, 0): -2})
    ) * MSeries(vs, order, {(1, 1): 1})
    den = MSeries(
        vs, order, {(2, 1): 2, (1, 1): 2, (1, 0): -2, (0, 1): -2, (0, 0): 2}
    ) * MSeries(vs, order, {(0, 1): 1, (0, 0): -1})
    return num * den.invert_unit()


def _build_d_pair(order: int) -> MSeries:
    vs = ("x", "y")
    rad = _lift(_radical_u("y", order), vs, "y")
    inner = rad * MSeries(vs, order, {(2, 1): 1}) + MSeries(
        vs,
        order,
        {
            (2, 2): 1,
            (2, 1): -1,
            (1, 2): 4,
            (1, 1): -6,
            (0, 2): -2,
            (1, 0): 2,
            (0, 1): 4,
            (0, 0): -2,
        },
    )
    num = (-inner) * MSeries(vs, order, {(1, 1): 1})
    den = MSeries(
        vs,
        order,
        {
            (2, 2): 2,
            (2, 1): -2,
            (1, 2): 2,
            (1, 1): -4,
            (0, 2): -2,
            (1, 0): 2,
            (0, 1): 4,
            (0, 0): -2,
        },
    ) * MSeries(vs, order, {(0, 1): 1, (0, 0): -1})
    return num * den.invert_unit()


def _build_c_0021(order: int) -> MSeries:
    vs = ("x", "y", "z")
    rad = _lift(_radical_u("z", order), vs, "z")
    w = (
        MSeries(vs, order, {(0, 0, 0): 1, (0, 0, 1): -1, (0, 1, 1): -1}) * rad
        + MSeries(vs, order, {(0, 0, 0): 1, (0, 0, 1): -3, (0, 1, 1): -1})
        * MSeries(vs, order, {(0, 0, 0): 1, (0, 0, 1): -1})
    )
    geo_xz = MSeries(vs, order, {(0, 0, 0): 1, (1, 0, 1): -1}).invert_unit()
    return MSeries(vs, order, {(1, 2, 3): 2}) * geo_xz * w.invert_unit()


def _build_d_0021(order: int) -> MSeries:
    vs = ("x", "y", "z")
    rad = _lift(_radical_u("z", order), vs, "z")
    w = rad * MSeries(vs, order, {(0, 1, 0): 1}) + MSeries(
        vs, order, {(0, 1, 1): 1, (0, 0, 1): -2, (0, 1, 0): -1, (0, 0, 0): 2}
    )
    geo_xz = MSeries(vs, order, {(0, 0, 0): 1, (1, 0, 1): -1}).invert_unit()
    return MSeries(vs, order, {(1, 1, 2): 2}) * geo_xz * w.invert_unit()


_BUILDERS = {
    "C_pair": _build_c_pair,
    "D_pair": _build_d_pair,
    "C2": _build_c2,
    "C_total_pair": lambda order: _total_formula("y", order),
    "C_0021": _build_c_0021,
    "D_0021": _build_d_0021,
    "total_0021": lambda order: _total_formula("z", order),
    "f": _build_f,
    "g": _build_g,
}

GF_NAMES = tuple(_BUILDERS)


def build_closed_form(which: str, order: int):
    """Expand one of the named closed forms to the given truncation order.

    C2 and C_total_pair are series in y; total_0021, f and g in z; C_pair
    and D_pair in x, y; C_0021 and D_0021 in x, y, z.
    """
    try:
        builder = _BUILDERS[which]
    except KeyError:
        raise ValueError(f"unknown closed form {which!r}; choose from {GF_NAMES}")
    return builder(order)


# ---------------------------------------------------------------------------
# Functional-equation residuals
# ---------------------------------------------------------------------------


def _residual_pair(which: str, order: int) -> MSeries:
    vs = ("x", "y")
    C = _BUILDERS["C_pair"](order)
    D = _BUILDERS["D_pair"](order)
    one_minus_y = MSeries(vs, order, {(0, 0): 1, (0, 1): -1})
    if which == "pair_c":
        # (1-x)(1-y) C + x(1-y) D = xy + x^2 (1-y) C2, both sides times (1-y)
        c2_m = _lift(_BUILDERS["C2"](order), vs, "y")
        lhs = (
            MSeries(vs, order, {(0, 0): 1, (1, 0): -1}) * one_minus_y * C
            + MSeries(vs, order, {(1, 0): 1}) * one_minus_y * D
        )
        rhs = MSeries(vs, order, {(1, 1): 1}) + (
            MSeries(vs, order, {(2, 0): 1}) * one_minus_y * c2_m
        )
        return lhs - rhs
    # (1-y) D - xy C = xy, times (1-y)
    lhs = one_minus_y * (one_minus_y * D - MSeries(vs, order, {(1, 1): 1}) * C)
    rhs = one_minus_y * MSeries(vs, order, {(1, 1): 1})
    return lhs - rhs


def _residual_0021_c(order: int) -> MSeries:
    vs = ("x", "y", "z")
    full = 2 * order  # substitution at y=1 folds degrees down; build deep enough
    C_full = _BUILDERS["C_0021"](full)
    D_full = _BUILDERS["D_0021"](full)
    C = C_full.truncate(order)
    D = D_full.truncate(order)
    C1 = C_full.substitute("y", 1).truncate(order)
    D1 = D_full.substitute("y", 1).truncate(order)

    def poly(t):
        return MSeries(vs, order, t)

    geo_z = poly({(0, 0, 0): 1, (0, 0, 1): -1}).invert_unit()
    geo_yz = poly({(0, 0, 0): 1, (0, 1, 1): -1}).invert_unit()
    geo_xz = poly({(0, 0, 0): 1, (1, 0, 1): -1}).invert_unit()
    y_minus_1 = poly({(0, 1, 0): 1, (0, 0, 0): -1})
    zy = poly({(0, 1, 1): 1})
    zy2 = poly({(0, 2, 1): 1})
    lhs = y_minus_1 * C
    # the standalone rational term carries z^3: it is the generating
    # function of the boundary cells q + r = n, which start at level 3
    rhs = (
        y_minus_1 * poly({(0, 0, 1): 1}) * C
        + zy * C
        - zy2 * C1
        + y_minus_1 * poly({(1, 2, 3): 1}) * geo_z * geo_yz * geo_xz
        + zy2 * (D - poly({(1, 1, 2): 1}) * geo_xz * geo_yz)
        - zy2 * (D1 - poly({(1, 0, 2): 1}) * geo_xz * geo_z)
    )
    return lhs - rhs


def _residual_0021_d(order: int) -> MSeries:
    vs = ("x", "y", "z")
    C = _BUILDERS["C_0021"](order)
    D = _BUILDERS["D_0021"](order)
    Cyy = C.substitute("x", "y")
    Dyy = D.substitute("x", "y")

    def poly(t):
        return MSeries(vs, order, t)

    geo_yz = poly({(0, 0, 0): 1, (0, 1, 1): -1}).invert_unit()
    geo_xz = poly({(0, 0, 0): 1, (1, 0, 1): -1}).invert_unit()
    x_minus_y = poly({(1, 0, 0): 1, (0, 1, 0): -1})
    zx = poly({(1, 0, 1): 1})
    lhs = x_minus_y * D
    rhs = (
        x_minus_y * poly({(1, 1, 2): 1}) * geo_xz * geo_yz
        + zx * D
        - zx * Dyy
        + zx * C
        - zx * Cyy
    )
    return lhs - rhs


_RESIDUALS = {
    "pair_c": lambda order: _residual_pair("pair_c", order),
    "pair_d": lambda order: _residual_pair("pair_d", order),
    "t0021_c": _residual_0021_c,
    "t0021_d": _residual_0021_d,
}

RESIDUAL_NAMES = tuple(_RESIDUALS)


def residual(which: str, order: int) -> MSeries:
    """Substitute the closed forms into one functional equation and return

    LHS - RHS with denominators cleared to polynomial form: the pair
    equations are multiplied through by (1-y), the 0021 C-equation by
    (y-1), and the 0021 D-equation by (x-y).  A correct transcription
    yields the zero series through the requested order.
    """
    try:
        builder = _RESIDUALS[which]
    except KeyError:
        raise ValueError(f"unknown residual {which!r}; choose from {RESIDUAL_NAMES}")
    return builder(order)
