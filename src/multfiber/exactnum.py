"""The literal form of exact Gaussian rationals Q(i).

An exact value is the integer triple (x, y, n), the Gaussian rational
(x + y i) / n with n > 0; a spectrum's shift and multiplier views are
triples in lowest terms.  ``parse_literal`` reads a literal into a triple,
``format_literal`` writes a triple back in lowest terms, each part as
``p`` or ``p/q``, and ``gaussian_parts`` takes a literal, a triple or a
real number to a triple.  A literal, stripped of surrounding whitespace,
is ``term (sterm? "i")?``: a term is ``[+-]?p`` or ``[+-]?p/q``, an sterm
a term with its sign, p and q Unicode decimal digits, and the imaginary
term starts at the last sign after the first character, so ``12i`` is
12i.  Of several faults the first is reported: bad syntax in either term
(``1/0+xi``); then, real term first and numerator first, digits past the
interpreter's integer-string limit or a zero denominator.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import index


def _term(text: str, term: str) -> tuple[str, str]:
    """A ``[+-]p`` or ``[+-]p/q`` term of ``text`` as the digit strings ``[+-]p`` and ``q``."""
    num, slash, den = term.partition("/")
    if (num[1:] if num[:1] in "+-" else num).isdecimal() and (den.isdecimal() or not slash):
        return num, den or "1"
    raise ValueError(f"not a Gaussian rational literal: {text!r}")


def parse_literal(text: str) -> tuple[int, int, int]:
    """A literal as (x, y, n), the value (x + y i) / n with n > 0; faults raise ``ValueError``."""
    body = text.strip()
    if body[-1:] != "i":
        num, den = _term(text, body)
        p, q = int(num), int(den)
        if q:
            return p, 0, q
    else:
        cut = max(body.rfind("+"), body.rfind("-"), 0)
        num_im, den_im = _term(text, body[cut:-1])
        num, den = _term(text, body[:cut]) if cut else ("0", "1")
        p, q = int(num), int(den)
        if q:
            r, s = int(num_im), int(den_im)
            if q == s:
                return p, r, q
            if s:
                n = lcm(q, s)
                return p * (n // q), r * (n // s), n
    raise ValueError(f"zero denominator in literal: {text!r}")


def _ratio(p: int, q: int) -> str:
    g = gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


def format_literal(x: int, y: int, n: int) -> str:
    """(x + y i) / n, n > 0, as the literal ``p``, ``p/q``, ``p+ri`` or ``p/q-r/si``.

    Each part is in lowest terms, and a zero real part is written when the
    imaginary part is not zero (``0+1i``).  Raises ``ValueError`` for a
    part past the interpreter's integer-string limit.
    """
    if not y:
        return _ratio(x, n)
    return f"{_ratio(x, n)}{'+' if y > 0 else '-'}{_ratio(abs(y), n)}i"


def gaussian_parts(value) -> tuple[int, int, int]:
    """``value`` as integers (x, y, n), the Gaussian rational (x + y i) / n with n > 0.

    Takes a literal string (read by ``parse_literal``), a triple (x, y, n)
    of ints with n > 0, a real number with ``as_integer_ratio`` (an int,
    a float exactly, a rational) or any other integer, such as a numpy
    integer; nan and inf raise ``ValueError`` and ``OverflowError``,
    anything else ``TypeError``.
    """
    if isinstance(value, str):
        return parse_literal(value)
    if isinstance(value, tuple):
        if len(value) != 3 or any(type(v) is not int for v in value) or value[2] <= 0:
            raise ValueError(f"not a Gaussian rational triple (x, y, n > 0): {value!r}")
        return value
    if hasattr(value, "as_integer_ratio"):
        p, q = value.as_integer_ratio()
        return p, 0, q
    return index(value), 0, 1
