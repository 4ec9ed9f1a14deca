"""Crossing-number statements derived from certified cost optima.

A certified lower bound g on the cycle-pair cost problem at m rows turns
into the quadratic statement cr(K_{m,n}) >= (g/2) n^2 - (B/2) n with
B = floor((m-1)^2/4), because an optimal drawing restricted to the m-side
induces n(n-1) ordered cycle pairs whose costs undercount the crossings.
Counting k-row subdrawings lifts any such bound from k to every m >= k,
and dividing by the quadratic count behind the Zarankiewicz drawing gives
the asymptotic ratio.

Everything here is exact rational arithmetic; floats appear only in the
display helpers.  Ceilings sit close to integers (the balanced bound at
n=13 misses one by about 1e-2), so the exactness is not decorative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .errors import ArgumentError


def zarankiewicz(m: int, n: int) -> int:
    """Crossings of the standard grid drawing, the conjectured optimum."""
    return ((m - 1) // 2) * (m // 2) * ((n - 1) // 2) * (n // 2)


def exact(value) -> Fraction:
    """Read a bound value exactly.  Floats are taken at their shortest
    decimal form, so quoting a printed constant means the decimal itself
    rather than its nearest binary float."""
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


@dataclass(frozen=True)
class QuadraticBound:
    """cr(K_{m,n}) >= a n^2 - b n for all n, from one certified optimum."""

    m: int
    optimum: Fraction
    source: str
    a: Fraction
    b: Fraction

    def evaluate(self, n: int) -> int:
        """Exact ceiling of the quadratic at n >= 0, sanity-capped by the
        grid drawing: a claimed lower bound above it would mean bad input."""
        if n < 0:
            raise ArgumentError(f"column count must be nonnegative, got {n}")
        value = max(0, ceil(self.a * n * n - self.b * n))
        cap = zarankiewicz(self.m, n)
        if value > cap:
            raise ArgumentError(
                f"bound {value} exceeds the drawing count {cap}; "
                f"the input is not a valid cost optimum"
            )
        return value


@dataclass(frozen=True)
class LiftedBound:
    """cr(K_{m,n}) >= c m(m-1) n^2 - e m(m-1) n for every m >= k."""

    k: int
    optimum: Fraction
    source: str
    c: Fraction
    e: Fraction

    def evaluate(self, m: int, n: int) -> int:
        """The lifted quadratic at m rows, evaluated as a QuadraticBound."""
        if m < self.k:
            raise ArgumentError(f"lift from {self.k} rows only covers m >= {self.k}")
        mm = m * (m - 1)
        return QuadraticBound(m, self.optimum, self.source, self.c * mm, self.e * mm).evaluate(n)


def quadratic_bound(m: int, optimum, source: str = "beta") -> QuadraticBound:
    if m < 3:
        raise ArgumentError("crossing-number bounds need m >= 3")
    g = exact(optimum)
    return QuadraticBound(
        m=m, optimum=g, source=source, a=g / 2, b=Fraction((m - 1) ** 2 // 4, 2)
    )


def lift_bound(base: QuadraticBound) -> LiftedBound:
    """Spread a k-row bound over all larger m: each crossing of K_{m,n}
    appears in the same share of k-row subdrawings, so the quadratic
    coefficients divide by k(k-1) and pick up the factor m(m-1)."""
    kk = base.m * (base.m - 1)
    return LiftedBound(
        k=base.m, optimum=base.optimum, source=base.source,
        c=base.a / kk, e=base.b / kk,
    )


def asymptotic_ratio(k: int, optimum) -> Fraction:
    """Limit ratio against the grid count guaranteed by a k-row optimum:
    8 g / (k(k-1)), exact."""
    if k < 3:
        raise ArgumentError("asymptotic ratio needs k >= 3")
    return 8 * exact(optimum) / (k * (k - 1))


def knn_table(levels: dict[int, object], source: str = "beta") -> dict[int, int]:
    """Balanced bounds: n -> certified floor on cr(K_{n,n})."""
    return {
        n: quadratic_bound(n, g, source).evaluate(n)
        for n, g in sorted(levels.items())
    }


def _decimal_string(whole: int, places: int, negative: bool) -> str:
    digits = str(whole).rjust(places + 1, "0")
    out = f"{digits[:-places]}.{digits[-places:]}" if places else digits
    return f"-{out}" if negative and whole else out


def truncated(value, places: int) -> str:
    """Decimal string cut toward zero, trailing zeros kept."""
    f = exact(value)
    scaled = abs(f) * 10**places
    return _decimal_string(scaled.numerator // scaled.denominator, places, f < 0)


def plain(value) -> str:
    """Exact display: integers bare, terminating decimals as decimals,
    everything else as a fraction."""
    f = exact(value)
    if f.denominator == 1:
        return str(f.numerator)
    twos = fives = 0
    den = f.denominator
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        return truncated(f, max(twos, fives))
    return f"{f.numerator}/{f.denominator}"
