"""Exact field arithmetic over the Gaussian rationals Q(i).

Every zero-sum test in the partition machinery runs on these scalars, so
nothing here may round: a single inexact comparison would silently corrupt
the enumeration downstream.  Rational components are ``fractions.Fraction``
(always reduced, positive denominator, arbitrary precision), values are
immutable and hashable, and equality is componentwise exact equality.
"""

from __future__ import annotations

import re as _regex
from dataclasses import dataclass
from fractions import Fraction

from .errors import UnitMultiplierError

# "p", "p/q", "p/q+r/si", "-ri" ... one optional real term, one optional
# imaginary term tagged by a trailing lowercase i, no internal spaces.
_GAUSS_RE = _regex.compile(
    r"^(?P<re>[+-]?\d+(?:/\d+)?)?(?:(?P<im>[+-]?\d+(?:/\d+)?)i)?$"
)


@dataclass(frozen=True)
class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    # -- construction ---------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        """Parse ``p/q``, ``p`` or ``p/q+r/si`` (lowercase i, no spaces)."""
        match = _GAUSS_RE.match(text.strip())
        if match is None or (match.group("re") is None and match.group("im") is None):
            raise ValueError(f"not a Gaussian rational literal: {text!r}")
        try:
            re_part = Fraction(match.group("re") or 0)
            im_part = Fraction(match.group("im") or 0)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in literal: {text!r}") from None
        return cls(re_part, im_part)

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other) -> "GaussianRational | None":
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(Fraction(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        norm = other.norm()
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def norm(self) -> Fraction:
        """Exact squared modulus re^2 + im^2."""
        return self.re * self.re + self.im * self.im

    # -- predicates and conversions --------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def sort_key(self) -> tuple[Fraction, Fraction]:
        return (self.re, self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


Scalar = int | Fraction | str | GaussianRational

ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def as_gaussian(value: Scalar) -> GaussianRational:
    """Coerce an int, Fraction, literal string or GaussianRational."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, str):
        return GaussianRational.parse(value)
    return GaussianRational(Fraction(value))


def reciprocal_shift(multiplier: Scalar) -> GaussianRational:
    """Map a fixed-point multiplier m to its shift 1/(1-m).

    The shift is the coordinate in which all block conditions become plain
    zero sums.  m = 1 corresponds to a multiple fixed point and has no
    shift.
    """
    m = as_gaussian(multiplier)
    if m == ONE:
        raise UnitMultiplierError("multiplier 1 has no reciprocal shift")
    return ONE / (ONE - m)


def multiplier_from_shift(shift: Scalar) -> GaussianRational:
    """Inverse of :func:`reciprocal_shift`: shift s maps back to 1 - 1/s."""
    s = as_gaussian(shift)
    return ONE - ONE / s
