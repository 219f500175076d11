"""Exact Gaussian rationals Q(i): the literal grammar and the field arithmetic.

A literal is ``p``, ``p/q``, ``ri`` or ``p/q+r/si``: optional surrounding
whitespace, decimal digits, a sign before a term, and a lowercase i after
the imaginary term.  ``parse_literal`` splits one into integers, and both
``GaussianRational.parse`` and the spectrum parser read it that way.  The
spectrum parser stops at integers: a spectrum holds its shifts over one
common denominator, so its zero-sum tests are integer sums.
``GaussianRational`` carries the exact views of a spectrum (shifts and
multipliers as numbers) and their written form.  Its components are
``fractions.Fraction`` (reduced, positive denominator, arbitrary
precision); values are immutable and hashable, and equality is
componentwise exact equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import UnitMultiplierError
from .frozen import Frozen


def _terms(text: str, *terms: str) -> list[tuple[int, int]]:
    """Each ``[+-]p`` or ``[+-]p/q`` term of ``text`` as (p, q), q > 0; the syntax of all first."""
    split = []
    for term in terms:
        unsigned = term[1:] if term.startswith(("+", "-")) else term
        num, slash, den = unsigned.partition("/")
        if not num.isdecimal() or (slash and not den.isdecimal()):
            raise ValueError(f"not a Gaussian rational literal: {text!r}")
        split.append((term.startswith("-"), num, den or "1"))
    values = []
    for negative, num, den in split:  # real term first, numerator first
        p, q = int(num), int(den)
        if not q:
            raise ValueError(f"zero denominator in literal: {text!r}")
        values.append((-p if negative else p, q))
    return values


def parse_literal(text: str) -> tuple[int, int, int]:
    """A literal as integers (x, y, n): the value (x + y i) / n, with n > 0.

    The imaginary term starts at the last sign after the first character,
    so ``12i`` is 12i.  Raises ``ValueError`` for bad syntax, a zero
    denominator, or digits past the interpreter's integer-string limit.
    """
    body = text.strip()
    if not body.endswith("i"):
        ((p, q),) = _terms(text, body)
        return p, 0, q
    body = body[:-1]
    cut = max(body.rfind("+"), body.rfind("-"), 0)
    (p, q), (r, s) = _terms(text, body[:cut] or "0", body[cut:])
    n = lcm(q, s)
    return p * (n // q), r * (n // s), n


class GaussianRational(Frozen):
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        super().__init__(Fraction(re), Fraction(im))

    # -- construction ---------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        """Parse ``p/q``, ``p``, ``ri`` or ``p/q+r/si`` (see ``parse_literal``)."""
        x, y, n = parse_literal(text)
        return cls(Fraction(x, n), Fraction(y, n))

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


def gaussian_parts(value: Scalar) -> tuple[int, int, int]:
    """``value`` as integers (x, y, n), the Gaussian rational (x + y i) / n with n > 0.

    Takes what ``as_gaussian`` takes; a literal string is read by
    ``parse_literal`` and no ``Fraction`` is built.
    """
    if isinstance(value, str):
        return parse_literal(value)
    if isinstance(value, GaussianRational):
        (a, b), (c, d) = value.re.as_integer_ratio(), value.im.as_integer_ratio()
        return a * d, c * b, b * d
    if not isinstance(value, (int, Fraction)):
        value = Fraction(value)  # a float exactly; refuses nan and inf
    return value.numerator, 0, value.denominator


def reciprocal_shift(multiplier: Scalar) -> GaussianRational:
    """Map a fixed-point multiplier m to its shift 1/(1-m).

    The shift is the coordinate in which all block conditions become plain
    zero sums.  m = 1 corresponds to a multiple fixed point and has no
    shift.  The spectrum parser makes its own check, which names the index.
    """
    m = as_gaussian(multiplier)
    if m == ONE:
        raise UnitMultiplierError("multiplier 1 has no reciprocal shift")
    return ONE / (ONE - m)


def multiplier_from_shift(shift: Scalar) -> GaussianRational:
    """Inverse of :func:`reciprocal_shift`: shift s maps back to 1 - 1/s."""
    s = as_gaussian(shift)
    return ONE - ONE / s
