"""The literal form of exact Gaussian rationals Q(i).

An exact value is the integer triple (x, y, n), the Gaussian rational
(x + y i) / n with n > 0; a spectrum's shift and multiplier views are
triples in lowest terms.  A literal is ``p``, ``p/q``, ``ri`` or
``p/q+r/si``: optional surrounding whitespace, decimal digits, a sign
before a term, and a lowercase i after the imaginary term.
``parse_literal`` reads one into a triple and ``format_literal`` writes a
triple back in lowest terms, each part as ``p`` or ``p/q``.
``gaussian_parts`` takes a literal, a triple or a real number to a triple.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import index


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
