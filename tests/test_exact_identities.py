"""The closed forms satisfy their functional equations exactly: a check at
random rational points instead of a truncated series.

Every closed form is a rational function of x, y, z and sqrt(d), with
d = 1 - 6t + 5t^2 and t = y for the pair forms, t = z for the 0021 forms.
At a rational point where d is no rational square, such a value is a pair
a + b sqrt(d) of rationals, and it is zero only if a = b = 0.  `PointRing`
is that field with `poly` and `radical` as the series ring has them, so the
unchanged builders and residuals of `series` run on it.  A nonzero
identity can vanish at a random point only with small probability
(Schwartz, J. ACM 27, 1980), so one point tests an identity at every order
at once, where `residual` checks it through one truncation order.

This checks the transcription of the closed forms against the equations as
`series` writes them.  It does not check that the equations follow from the
succession rules; the gf.coefficients records of verify, which compare the
series with the recurrence cells, remain that tie.
"""

import math
import random
from fractions import Fraction

import pytest

from ascentseq import series


class Surd:
    """a + b sqrt(d) for rationals a, b and a rational d that is no square."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        self.a, self.b, self.d = Fraction(a), Fraction(b), d

    def __add__(self, other):
        return Surd(self.a + other.a, self.b + other.b, self.d)

    def __neg__(self):
        return Surd(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        a, b, d = self.a, self.b, self.d
        return Surd(a * other.a + b * other.b * d, a * other.b + b * other.a, d)

    def invert_unit(self):
        norm = self.a * self.a - self.b * self.b * self.d  # zero only for zero
        return Surd(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        return self * other.invert_unit()

    def is_zero(self):
        return not (self.a or self.b)


def _d(t):
    return 1 - 6 * t + 5 * t * t


class PointRing:
    """Q(sqrt d) at one point: poly is a polynomial's value there, after the
    exponent map, and radical is sqrt(d)."""

    def __init__(self, point, emap=None):
        # t, the radical's variable, is the last one: y for x, y and z for x, y, z
        self.point, self.d, self.emap = point, _d(point[-1]), emap

    def mapped(self, emap):
        inner = self.emap
        return PointRing(self.point, emap if inner is None else lambda e: inner(emap(e)))

    def _value(self, e):
        return math.prod(map(pow, self.point, e if self.emap is None else self.emap(e)))

    def poly(self, terms):
        return Surd(sum(c * self._value(e) for e, c in terms.items()), 0, self.d)

    def radical(self, unit):
        assert _d(self._value(unit)) == self.d, "a radical in another variable"
        return Surd(0, 1, self.d)


def _checks(x, y, z):
    """Each check's value at (x, y, z): the four residuals and the two total
    identities, all zero for a correct transcription."""
    build = series._BUILDERS
    values = {name: residual(PointRing((x, y, z)[: len(variables)]))
              for name, (variables, residual) in series._RESIDUALS.items()}
    values["C_pair(1, y) = C_total_pair(y)"] = (
        build["C_pair"](PointRing((1, y))) - build["C_total_pair"](PointRing((y,)))
    )
    at_z = PointRing((z,))
    values["C_0021(1, 1, z) + D_0021(1, 1, z) + z/(1 - z) = total_0021(z)"] = (
        build["C_0021"](PointRing((1, 1, z)))
        + build["D_0021"](PointRing((1, 1, z)))
        + at_z.poly({(1,): 1}) / at_z.poly({(0,): 1, (1,): -1})
        - build["total_0021"](at_z)
    )
    return values


def _is_square(q):
    return q >= 0 and all(math.isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))


def _points(rng, count):
    """count points p/q with |p|, q <= 10^6 at which d is no square, for
    t = y and for t = z."""
    points = []
    while len(points) < count:
        point = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in "xyz"]
        if not any(_is_square(_d(t)) for t in point[1:]):
            points.append(tuple(point))
    return points


POINTS = _points(random.Random(2014), 6)


def test_surd_arithmetic():
    d = Fraction(7, 3)
    r = Surd(0, 1, d)
    assert (r * r - Surd(d, 0, d)).is_zero()
    u = Surd(Fraction(2, 5), -3, d)
    assert (u * u.invert_unit() - Surd(1, 0, d)).is_zero()
    assert (u / u - Surd(1, 0, d)).is_zero() and (r / u * u - r).is_zero()
    assert not (u - u * Surd(1, 1, d)).is_zero()
    assert PointRing((Fraction(1, 2), 2)).poly({(1, 1): 3, (0, 2): -1}).a == -1


@pytest.mark.parametrize("point", POINTS, ids=range(len(POINTS)))
def test_equations_and_identities_hold_at_random_points(point):
    values = _checks(*point)
    assert len(values) == 6
    assert [name for name, value in values.items() if not value.is_zero()] == []


class Bumped:
    """A ring whose k-th polynomial gets +1 on its first coefficient, as if
    one coefficient of a closed form were mistyped; k = -1 bumps none."""

    def __init__(self, ring, k):
        self.ring, self.k, self.made = ring, k, 0

    def poly(self, terms):
        terms = dict(terms)
        if self.made == self.k:
            terms[next(iter(terms))] += 1
        self.made += 1
        return self.ring.poly(terms)

    def radical(self, unit):
        return self.ring.radical(unit)


def _polys_made(name):
    ring = Bumped(PointRing(POINTS[0][: len(series._VARIABLES[name])]), -1)
    series._BUILDERS[name](ring)
    return ring.made


FORMS = ["C_pair", "D_pair", "C2", "C_total_pair", "C_0021", "D_0021", "total_0021"]
MUTANTS = [(name, k) for name in FORMS for k in range(_polys_made(name))]


@pytest.mark.parametrize("name, k", MUTANTS, ids=[f"{n}-{k}" for n, k in MUTANTS])
def test_one_coefficient_off_fails_a_check(monkeypatch, name, k):
    real = series._BUILDERS[name]
    monkeypatch.setitem(series._BUILDERS, name, lambda ring: real(Bumped(ring, k)))
    assert any(not value.is_zero() for value in _checks(*POINTS[0]).values())
