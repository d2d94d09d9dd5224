"""Exact truncated formal power series over arbitrary-precision rationals.

MSeries is a sparse series in one, two or three variables truncated by
total degree (the count tables are triangular, so total-degree order N
captures levels 1..N exactly).  A series is integer numerators over one
positive denominator, kept in lowest terms, so every operation is exact
and equality of series is equality of that form.  Each exponent tuple is
packed into one int: in base N+1 its digits are every exponent but the
last, under a top digit holding the total degree, which fixes the last.
Adding exponents is adding ints, the total degree is one division, and
the total-degree cut of a product is one bisection of the other factor's
sorted keys.  Sums, products and inverses run on ints alone; Fractions
are made only when a coefficient is read.

On top of the ring operations sit the closed forms used by the avoidance
counts: the column and diagonal generating functions of the pair tree,
the g0/g1 generating functions of the 0021 tree, the class totals, and
the two one-variable series f and g tied to the column structure of the
g0 arrays.  All of them are rational expressions over the one univariate
radical sqrt(5t^2 - 6t + 1), t being y or z.  Its coefficients are
integers read off the three-term recurrence
n s_n = (6n - 9) s_{n-1} - (5n - 15) s_{n-2}, s_0 = 1, s_1 = -3.

Each closed form, and each residual, is written once over a ring: it makes
polynomials with `poly({exponents: coefficient})` and the radical in its
own variable with `radical`, and the rest is exact multiplication and
inversion.  The series ring sends every exponent tuple through an optional
exponent map as each polynomial is made, so C(x, 1, z), C(y, y, z) and C2
as a series in x and y are built directly: nothing is lifted into more
variables or substituted after it is built.  `residual` puts the closed
forms into the functional equations they are supposed to solve, with
denominators cleared to polynomial form, and returns what should be the
zero series.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from fractions import Fraction
from numbers import Rational
from operator import sub
from types import MappingProxyType
from typing import Callable, Collection, Iterator, Mapping, Sequence

__all__ = [
    "MSeries",
    "a007317",
    "GF_NAMES",
    "RESIDUAL_NAMES",
    "build_closed_form",
    "residual",
]

# ---------------------------------------------------------------------------
# The series ring
# ---------------------------------------------------------------------------

Exp = tuple[int, ...]


class MSeries:
    """Sparse power series in one to three variables, truncated by total
    degree, stored as integer numerators `nums` over one denominator `den`.

    With n variables, base b = order + 1 and B = b^(n-1), the exponents e
    are the key e_0 + e_1 b + ... + e_(n-2) b^(n-2) + |e| B of `nums`: the
    last exponent is |e| less the others.  Within the order every digit is
    below b, so adding keys adds exponents, a key's total degree is
    key // B, and a key is within the order exactly when it is below b B.
    `den` is positive, no numerator is zero and gcd(den, *nums) is 1, so
    each series has one form and `==` compares it.  `terms` is the
    read-only {exponents: Fraction} view, built when first read.
    """

    __slots__ = ("vars", "order", "nums", "den", "_terms")

    def __init__(self, variables: Sequence[str], order: int, terms: Mapping[Exp, int | Fraction]):
        if order < 0:
            raise ValueError("order must be non-negative")
        vs = tuple(variables)
        if not 1 <= len(vs) <= 3 or len(set(vs)) != len(vs):
            raise ValueError("need one to three distinct variable names")
        self.vars = vs
        self.order = order
        kept = {}
        for e, c in terms.items():
            e = tuple(e)
            if len(e) != len(vs) or any(x < 0 for x in e):
                raise ValueError(f"bad exponent tuple {e}")
            if not isinstance(c, Rational):
                raise TypeError(f"coefficient {c!r} of {e} is not an int or a Fraction")
            if sum(e) <= order and c:
                kept[self._key(e)] = c
        den = math.lcm(*(c.denominator for c in kept.values()))
        self._set({k: c.numerator * (den // c.denominator) for k, c in kept.items()}, den)

    def _set(self, nums: dict[int, int], den: int) -> None:
        """Store nums / den in lowest terms: den > 0, no zero numerator."""
        nums = {k: c for k, c in nums.items() if c}
        g = math.gcd(den, *nums.values()) if den != 1 else 1
        if den < 0:
            g = -g
        if g != 1:
            nums = {k: c // g for k, c in nums.items()}
        self.nums, self.den, self._terms = nums, den // g, None

    def _wrap(self, nums: dict[int, int], den: int) -> "MSeries":
        out = MSeries.__new__(MSeries)
        out.vars, out.order = self.vars, self.order
        out._set(nums, den)
        return out

    def _key(self, e: Exp) -> int:
        b = self.order + 1
        key = sum(e)
        for x in reversed(e[:-1]):
            key = key * b + x
        return key

    def _exps(self, keys: Collection[int]) -> Iterator[Exp]:
        """The exponent tuples of the keys, in their order."""
        b = self.order + 1
        *low, unit = [b**i for i in range(len(self.vars))]
        digits = [[k // w % b for k in keys] for w in low]
        last = [k // unit for k in keys]  # the total degree, less each digit
        for d in digits:
            last = list(map(sub, last, d))
        return zip(*digits, last)

    @property
    def terms(self) -> Mapping[Exp, Fraction]:
        """The nonzero coefficients as a read-only {exponents: Fraction}."""
        if self._terms is None:
            den = self.den
            self._terms = MappingProxyType(dict(zip(
                self._exps(self.nums), (Fraction(c, den) for c in self.nums.values()))))
        return self._terms

    def coeff(self, exps: Exp) -> Fraction:
        e = tuple(exps)
        if len(e) != len(self.vars) or min(e) < 0:
            raise ValueError(f"bad exponent tuple {e} for variables {self.vars}")
        if sum(e) > self.order:
            raise IndexError(f"exponent {e} outside truncation order {self.order}")
        return Fraction(self.nums.get(self._key(e), 0), self.den)

    def is_zero(self) -> bool:
        return not self.nums

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
            and self.den == other.den
            and self.nums == other.nums
        )

    def __add__(self, other: "MSeries") -> "MSeries":
        self._check_compatible(other)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        out = {k: c * sa for k, c in self.nums.items()}
        for k, c in other.nums.items():
            out[k] = out.get(k, 0) + c * sb
        return self._wrap(out, den)

    def __sub__(self, other: "MSeries") -> "MSeries":
        return self + -other

    def __neg__(self) -> "MSeries":
        return self._wrap({k: -c for k, c in self.nums.items()}, self.den)

    def __mul__(self, other: "MSeries") -> "MSeries":
        self._check_compatible(other)
        top = (self.order + 1) ** len(self.vars)
        # other's keys in order, so those of total degree at most the order
        # less a key's are one prefix: below top - key
        b = sorted(other.nums.items())
        keys = [k for k, _ in b]
        acc: defaultdict[int, int] = defaultdict(int)
        for ka, ca in self.nums.items():
            for kb, cb in b[: bisect_left(keys, top - ka)]:
                acc[ka + kb] += ca * cb
        return self._wrap(acc, self.den * other.den)

    def invert_unit(self) -> "MSeries":
        """Multiplicative inverse; requires a nonzero constant term.

        With self = A / da over integers and |e| the total degree of e, the
        coefficient of e in the inverse is da * q[e] / A[0]^(|e|+1), where
        q[0] = 1 and q[e] = -sum_{f != 0} A[f] * A[0]^(|f|-1) * q[e-f]: over
        the one denominator A[0]^(order+1), its numerator is
        da * q[e] * A[0]^(order-|e|).  Once every q of degree d is known,
        its products with the terms of self are pushed into the degrees
        above.
        """
        order, da = self.order, self.den
        unit = (order + 1) ** (len(self.vars) - 1)  # B, one step of total degree
        a = dict(self.nums)
        a0 = a.pop(0, 0)
        if not a0:
            raise ValueError("series with zero constant term is not invertible")
        b = sorted((k, k // unit, c * a0 ** (k // unit - 1)) for k, c in a.items())
        keys = [t[0] for t in b]
        pushed = [defaultdict(int) for _ in range(order + 1)]  # -q by degree
        pushed[0][0] = -1
        out = {}
        for d in range(order + 1):
            q = {k: -c for k, c in pushed[d].items() if c}
            scale = da * a0 ** (order - d)
            out.update((k, c * scale) for k, c in q.items())
            above = pushed[d:]
            cut = bisect_left(keys, (order + 1 - d) * unit)
            for kq, cq in q.items():
                for kb, u, cb in b[:cut]:
                    above[u][kq + kb] += cb * cq
        return self._wrap(out, a0 ** (order + 1))

    def __repr__(self) -> str:
        items = sorted(self.terms.items())[:6]
        parts = [f"{c}*{e}" for e, c in items] or ["0"]
        more = " + ..." if len(self.nums) > 6 else ""
        return f"MSeries{self.vars}({' + '.join(parts)}{more})"

    def to_json_dict(self) -> dict:
        den = self.den
        terms = sorted([*e, c] for e, c in zip(self._exps(self.nums), self.nums.values()))
        for t in terms:
            g = math.gcd(t[-1], den)
            t[-1] = f"{t[-1] // g}/{den // g}"
        return {"variables": list(self.vars), "order": self.order, "terms": terms}


# ---------------------------------------------------------------------------
# Reference sequences
# ---------------------------------------------------------------------------


def a007317(n: int) -> int:
    """Binomial convolution of the Catalan numbers (OEIS A007317):
    sum over k of C(n-1, k) Cat(k), for n >= 1."""
    if n < 1:
        raise ValueError("index must be at least 1")
    # term k is C(n-1, k) Cat(k); step it by its ratio to term k-1
    total = term = 1
    for k in range(n - 1):
        term = term * (n - 1 - k) * 2 * (2 * k + 1) // ((k + 1) * (k + 2))
        total += term
    return total


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


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


class _Ring:
    """The ring the closed forms and residuals are written over: MSeries in
    the given variables at one truncation order.

    `poly` sends each exponent tuple through the exponent map before it
    makes the series, summing the terms the map merges, so a form written
    in its own variables is built at y = 1, at x = y, or inside a ring of
    more variables, one polynomial at a time.
    """

    def __init__(self, variables: Sequence[str], order: int,
                 emap: Callable[[Exp], Exp] | None = None):
        self.vars = tuple(variables)
        self.order = order
        self.emap = emap

    def mapped(self, emap: Callable[[Exp], Exp]) -> "_Ring":
        """The same ring, with emap applied before this ring's own map."""
        inner = self.emap
        return _Ring(self.vars, self.order, emap if inner is None else lambda e: inner(emap(e)))

    def poly(self, terms: Mapping[Exp, int | Fraction]) -> MSeries:
        if self.emap is not None:
            folded: defaultdict[Exp, int | Fraction] = defaultdict(int)
            for e, c in terms.items():
                folded[self.emap(e)] += c
            terms = folded
        return MSeries(self.vars, self.order, terms)

    def radical(self, unit: Exp) -> MSeries:
        """sqrt(1 - 6t + 5t^2), t being the monomial with exponents unit."""
        s = _radical(self.order)
        return self.poly({tuple(k * u for u in unit): c for k, c in enumerate(s)})


def _build_total(R) -> MSeries:
    """(-1 + t + sqrt(5 t^2 - 6 t + 1)) / (2 (t - 1)), in the one variable t."""
    num = R.poly({(0,): -1, (1,): 1}) + R.radical((1,))
    return num * R.poly({(0,): -2, (1,): 2}).invert_unit()


def _build_c2(R) -> MSeries:
    num = (R.poly({(0,): -1, (1,): 1}) + R.radical((1,))) * R.poly({(1,): -1})
    return num * R.poly({(0,): 2, (1,): -4, (2,): 2}).invert_unit()


def _build_f(R) -> MSeries:
    # f = (1 - z - rad) / (2z), so f_{k-1} = (-[k=1] - s_k) / 2
    s = _radical(R.order + 1)
    return R.poly({(k - 1,): Fraction(-(k == 1) - s[k], 2) for k in range(1, R.order + 2)})


def _build_g(R) -> MSeries:
    # the last factor of the denominator, -1 + 3z + rad, is z^2 (s_2 + s_3 z
    # + ...); it cancels the z^2 of the numerator -16 z^2 (1 - z)
    s = _radical(R.order + 2)
    one_minus = R.poly({(0,): 1, (1,): -1}) + R.radical((1,))
    other = R.poly({(k,): c for k, c in enumerate(s[2:])})
    den = one_minus * one_minus * one_minus * other
    return R.poly({(0,): -16, (1,): 16}) * den.invert_unit()


def _build_c_pair(R) -> MSeries:
    num = (
        R.radical((0, 1)) * R.poly({(1, 0): 1})
        + R.poly({(1, 1): -1, (1, 0): 1, (0, 1): 2, (0, 0): -2})
    ) * R.poly({(1, 1): 1})
    den = R.poly(
        {(2, 1): 2, (1, 1): 2, (1, 0): -2, (0, 1): -2, (0, 0): 2}
    ) * R.poly({(0, 1): 1, (0, 0): -1})
    return num * den.invert_unit()


def _build_d_pair(R) -> MSeries:
    inner = R.radical((0, 1)) * R.poly({(2, 1): 1}) + R.poly(
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
    num = (-inner) * R.poly({(1, 1): 1})
    den = R.poly(
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
    ) * R.poly({(0, 1): 1, (0, 0): -1})
    return num * den.invert_unit()


def _build_c_0021(R) -> MSeries:
    w = (
        R.poly({(0, 0, 0): 1, (0, 0, 1): -1, (0, 1, 1): -1}) * R.radical((0, 0, 1))
        + R.poly({(0, 0, 0): 1, (0, 0, 1): -3, (0, 1, 1): -1})
        * R.poly({(0, 0, 0): 1, (0, 0, 1): -1})
    )
    geo_xz = R.poly({(0, 0, 0): 1, (1, 0, 1): -1}).invert_unit()
    return R.poly({(1, 2, 3): 2}) * geo_xz * w.invert_unit()


def _build_d_0021(R) -> MSeries:
    w = R.radical((0, 0, 1)) * R.poly({(0, 1, 0): 1}) + R.poly(
        {(0, 1, 1): 1, (0, 0, 1): -2, (0, 1, 0): -1, (0, 0, 0): 2}
    )
    geo_xz = R.poly({(0, 0, 0): 1, (1, 0, 1): -1}).invert_unit()
    return R.poly({(1, 1, 2): 2}) * geo_xz * w.invert_unit()


# each builder takes a ring; f and g read the radical's list themselves and
# enter no functional equation
_BUILDERS = {
    "C_pair": _build_c_pair,
    "D_pair": _build_d_pair,
    "C2": _build_c2,
    "C_total_pair": _build_total,
    "C_0021": _build_c_0021,
    "D_0021": _build_d_0021,
    "total_0021": _build_total,
    "f": _build_f,
    "g": _build_g,
}

GF_NAMES = tuple(_BUILDERS)

_XY, _XYZ = ("x", "y"), ("x", "y", "z")
_VARIABLES = dict(C_pair=_XY, D_pair=_XY, C2=("y",), C_total_pair=("y",), C_0021=_XYZ,
                  D_0021=_XYZ, total_0021=("z",), f=("z",), g=("z",))


def build_closed_form(which: str, order: int):
    """Expand one of the named closed forms to the given truncation order.

    C2 and C_total_pair are series in y; total_0021, f and g in z; C_pair
    and D_pair in x, y; C_0021 and D_0021 in x, y, z.
    """
    try:
        builder = _BUILDERS[which]
    except KeyError:
        raise ValueError(f"unknown closed form {which!r}; choose from {GF_NAMES}")
    return builder(_Ring(_VARIABLES[which], order))


# ---------------------------------------------------------------------------
# Functional-equation residuals
# ---------------------------------------------------------------------------


def _residual_pair(which: str, R) -> MSeries:
    C = _BUILDERS["C_pair"](R)
    D = _BUILDERS["D_pair"](R)
    one_minus_y = R.poly({(0, 0): 1, (0, 1): -1})
    if which == "pair_c":
        # (1-x)(1-y) C + x(1-y) D = xy + x^2 (1-y) C2, both sides times (1-y)
        c2 = _BUILDERS["C2"](R.mapped(lambda e: (0, *e)))
        lhs = (
            R.poly({(0, 0): 1, (1, 0): -1}) * one_minus_y * C
            + R.poly({(1, 0): 1}) * one_minus_y * D
        )
        rhs = R.poly({(1, 1): 1}) + R.poly({(2, 0): 1}) * one_minus_y * c2
        return lhs - rhs
    # (1-y) D - xy C = xy, times (1-y)
    lhs = one_minus_y * (one_minus_y * D - R.poly({(1, 1): 1}) * C)
    rhs = one_minus_y * R.poly({(1, 1): 1})
    return lhs - rhs


def _residual_0021_c(R) -> MSeries:
    at_y1 = R.mapped(lambda e: (e[0], 0, e[2]))
    C = _BUILDERS["C_0021"](R)
    D = _BUILDERS["D_0021"](R)
    C1 = _BUILDERS["C_0021"](at_y1)
    D1 = _BUILDERS["D_0021"](at_y1)
    poly = R.poly
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


def _residual_0021_d(R) -> MSeries:
    at_xy = R.mapped(lambda e: (0, e[0] + e[1], e[2]))
    C = _BUILDERS["C_0021"](R)
    D = _BUILDERS["D_0021"](R)
    Cyy = _BUILDERS["C_0021"](at_xy)
    Dyy = _BUILDERS["D_0021"](at_xy)
    poly = R.poly
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
    "pair_c": (_XY, lambda R: _residual_pair("pair_c", R)),
    "pair_d": (_XY, lambda R: _residual_pair("pair_d", R)),
    "t0021_c": (_XYZ, _residual_0021_c),
    "t0021_d": (_XYZ, _residual_0021_d),
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
        variables, builder = _RESIDUALS[which]
    except KeyError:
        raise ValueError(f"unknown residual {which!r}; choose from {RESIDUAL_NAMES}")
    return builder(_Ring(variables, order))
