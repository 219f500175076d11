"""Validated spectra, stored as integer shift vectors, and their value classes.

A spectrum of degree d is an ordered tuple of d multipliers, none equal
to 1, whose reciprocal shifts mu_i = 1/(1-lambda_i) sum to zero exactly.
A ``Spectrum`` stores the shifts once, over their least common denominator
D: mu_i = (re[i] + im[i] i) / D, so equal spectra have equal fields.  The
parser reads each literal into integers (``exactnum.parse_literal``) and
takes 1/(1-lambda) over the Gaussian integers; every count, zero-sum test
and value class then reads the integers ``re`` and ``im`` alone.  ``mu``
and ``lam`` are exact views, built when read: each value a triple
(x, y, n), the Gaussian rational (x + y i) / n in lowest terms (see
``exactnum``).  Instances are immutable and freely shareable.
"""

from __future__ import annotations

import random
import sys
from math import factorial, gcd, lcm

from .errors import (
    BlockSumError,
    DegreeTooSmallError,
    DimensionCapError,
    ExactShapeError,
    OffHyperplaneError,
    SpectrumFormatError,
    UnitMultiplierError,
    ZeroShiftTargetError,
)
from .exactnum import format_literal, gaussian_parts
from .frozen import Frozen
from .lattice import MAX_SCAN_DEGREE, check_pair_floor, packed_shifts, zero_sum_join


class Spectrum(Frozen):
    """Shifts mu_i = (re[i] + im[i] i) / D, with D > 0 their least common denominator.

    ``validate``, ``from_shifts`` and ``spectrum_from_obj`` check a spectrum
    and bring D to lowest terms; the constructor takes the fields as given.
    """

    __slots__ = ("D", "re", "im")

    @property
    def d(self) -> int:
        return len(self.re)

    @property
    def mu(self) -> tuple[tuple[int, int, int], ...]:
        """Each shift (r + s i) / D as a triple in lowest terms."""
        return tuple(_lowest(r, s, self.D) for r, s in zip(self.re, self.im))

    @property
    def lam(self) -> tuple[tuple[int, int, int], ...]:
        """Each multiplier 1 - 1/mu = (N - D r + D s i) / N, N = r^2 + s^2, in lowest terms."""
        D = self.D
        return tuple(
            _lowest(N - D * r, D * s, N)
            for r, s in zip(self.re, self.im)
            for N in (r * r + s * s,)
        )

    def permuted(self, order: tuple[int, ...]) -> "Spectrum":
        return Spectrum(self.D, tuple(self.re[i] for i in order), tuple(self.im[i] for i in order))


class ValueClasses(Frozen):
    """Partition of spectrum indices by exact multiplier equality."""

    __slots__ = ("classes",)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(k) for k in self.classes)


def group_order(sizes) -> int:
    """Order of the class-preserving permutation group, prod (#K)!."""
    order = 1
    for n in sizes:
        order *= factorial(n)
    return order


# Each value below is a Gaussian rational as integers (x, y, n): (x + y i) / n, n > 0.

def _lowest(x: int, y: int, n: int) -> tuple[int, int, int]:
    g = gcd(x, y, n)
    return x // g, y // g, n // g


def _shift_vector(values, shift, what: str, min_len=2, error=OffHyperplaneError) -> Spectrum:
    """``shift(i, v)`` over ``values``: checks the count first, the zero sum last."""
    if len(values) < min_len:
        raise DegreeTooSmallError(f"need degree >= {min_len}, got {len(values)}")
    shifts = [shift(i, v) for i, v in enumerate(values)]
    D = lcm(*[n for _, _, n in shifts])
    re = [x * (D // n) for x, _, n in shifts]
    im = [y * (D // n) for _, y, n in shifts]
    if sum(re) or sum(im):
        try:
            verdict = f"sum to {format_literal(sum(re), sum(im), D)}, not 0"
        except ValueError:  # a part past the int-to-string digit limit
            verdict = "do not sum to 0"
        raise error(f"{what} {verdict}")
    g = gcd(D, *re, *im)  # above 1 only when some shift was not in lowest terms
    return Spectrum(D // g, tuple(v // g for v in re), tuple(v // g for v in im))


def _shift_of_multiplier(i: int, v: tuple[int, int, int]) -> tuple[int, int, int]:
    """1/(1-lambda) for lambda = (x + y i)/n: n (n - x + y i) / ((n - x)^2 + y^2)."""
    x, y, n = v
    a = n - x
    if y:
        return _lowest(n * a, n * y, a * a + y * y)
    if not a:
        raise UnitMultiplierError(f"multiplier at index {i} equals 1")
    return (n, 0, a) if a > 0 else (-n, 0, -a)


def _nonzero_shift(i: int, v: tuple[int, int, int]) -> tuple[int, int, int]:
    if not (v[0] or v[1]):
        raise ZeroShiftTargetError(f"shift at index {i} is 0")
    return v


def _spectrum(values, form: str) -> Spectrum:
    """The spectrum of multipliers (``form`` "lambda") or shifts ("mu")."""
    if form == "lambda":
        return _shift_vector(values, _shift_of_multiplier, "reciprocal shifts")
    return _shift_vector(values, _nonzero_shift, "shifts")


def validate(raw) -> Spectrum:
    """Build a Spectrum from multiplier values, rejecting invalid input."""
    return _spectrum([gaussian_parts(v) for v in raw], "lambda")


def from_shifts(shifts) -> Spectrum:
    """Build a Spectrum from its shift vector (each mu_i = 1/(1-lambda_i))."""
    return _spectrum([gaussian_parts(v) for v in shifts], "mu")


def value_classes(spec: Spectrum) -> ValueClasses:
    """Group indices by equal shifts, i.e. equal multipliers, in order of first index."""
    seen: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(zip(spec.re, spec.im)):
        seen.setdefault(key, []).append(i)
    return ValueClasses(tuple(map(tuple, seen.values())))


# --- test-spectrum generation -------------------------------------------------

TARGET_BOUND = 20  # numerator and denominator bound of random shift targets
EXACT_TRIES = 500  # redraws before ``generate(exact=True)`` gives up


def _random_nonzero_fraction(rng: random.Random) -> tuple[int, int, int]:
    num = rng.randint(-TARGET_BOUND, TARGET_BOUND)
    while num == 0:
        num = rng.randint(-TARGET_BOUND, TARGET_BOUND)
    return num, 0, rng.randint(1, TARGET_BOUND)


def _draw_block(rng: random.Random, size: int) -> list[tuple[int, int, int]]:
    """Random zero-sum block of nonzero rational shift targets."""
    while True:
        head = [_random_nonzero_fraction(rng) for _ in range(size - 1)]
        n = lcm(*[q for _, _, q in head])
        last = -sum(p * (n // q) for p, _, q in head)
        if last:
            return [*head, (last, 0, n)]


def generate(plan, *, seed: int = 0, exact: bool = False) -> Spectrum:
    """Build a spectrum whose lattice contains the block structure of ``plan``.

    Each plan item is either an explicit list of nonzero shift targets that
    sum to zero within the block, or an integer block size >= 2 meaning
    "draw random targets" (nonzero rationals with numerator and denominator
    bounded by ``TARGET_BOUND``); drawing is deterministic under a fixed
    seed.  Accidental zero sums may add extra lattice elements; with
    ``exact=True`` candidates are redrawn, at most ``EXACT_TRIES`` times,
    until the zero-sum subsets are precisely the unions of whole plan blocks.
    A plan of total degree above ``lattice.MAX_SCAN_DEGREE``, which no
    command reads, raises ``DimensionCapError`` before any draw, as does an
    exact plan whose 2^B - 2 block unions fail ``lattice.check_pair_floor``.
    """
    rng = random.Random(seed)
    fixed: list[list[tuple[int, int, int]] | None] = []
    sizes: list[int] = []
    for block in plan:
        if isinstance(block, int):
            if block < 2:
                raise ZeroShiftTargetError(
                    f"random block size must be >= 2, got {block}"
                )
            fixed.append(None)
            sizes.append(block)
        else:
            targets = [gaussian_parts(v) for v in block]
            _shift_vector(
                targets, _nonzero_shift, "plan block shifts", min_len=1, error=BlockSumError
            )
            fixed.append(targets)
            sizes.append(len(targets))
    if not sizes:
        raise DegreeTooSmallError("empty plan")
    if sum(sizes) > MAX_SCAN_DEGREE:
        raise DimensionCapError(f"degree {sum(sizes)} above the scan limit {MAX_SCAN_DEGREE}")
    if exact:
        check_pair_floor(2 ** len(sizes) - 2, sum(sizes))

    has_random = any(b is None for b in fixed)

    for _ in range(EXACT_TRIES):
        targets: list[tuple[int, int, int]] = []
        for block, size in zip(fixed, sizes):
            targets.extend(block if block is not None else _draw_block(rng, size))
        spec = _spectrum(targets, "mu")
        if not exact:
            return spec
        # the 2^B - 2 proper nonempty unions of whole plan blocks are always zero-sum,
        # so there are no others iff the join counts 2^B, the empty and full sets too
        if zero_sum_join([(p, 1) for p in packed_shifts(spec)])[-1] == 2 ** len(sizes):
            return spec
        if not has_random:
            raise ExactShapeError(
                "explicit targets produce zero sums beyond the plan blocks"
            )
    raise ExactShapeError(f"no exact-lattice spectrum found in {EXACT_TRIES} tries")


# --- JSON document form -------------------------------------------------------

def spectrum_to_obj(spec: Spectrum) -> dict:
    """JSON-ready document: {"d": n, "lambda": ["p/q+r/si", ...]}.

    A multiplier part with more digits than the interpreter writes out
    raises ``SpectrumFormatError``.
    """
    try:
        return {"d": spec.d, "lambda": [format_literal(*v) for v in spec.lam]}
    except ValueError:  # only the int-to-string digit limit raises here
        raise SpectrumFormatError(
            f"a multiplier has more than {sys.get_int_max_str_digits()} digits,"
            " the interpreter's limit for writing an integer"
        ) from None


def scalars_from_obj(values, what: str) -> list[tuple[int, int, int]]:
    """A JSON list of scalars (literal strings, integers, floats) as ``gaussian_parts`` triples."""
    # JSON true/false decode as bool, a subclass of int: not scalars here
    if not isinstance(values, list) or any(type(v) not in (str, int, float) for v in values):
        raise SpectrumFormatError(f"{what} must be a list of scalars")
    try:
        return [gaussian_parts(v) for v in values]
    except (ValueError, OverflowError) as exc:  # OverflowError: 1e400 is inf
        raise SpectrumFormatError(str(exc)) from None


def spectrum_from_obj(obj) -> Spectrum:
    """Parse a spectrum document carrying exactly one of "lambda" / "mu"."""
    if not isinstance(obj, dict):
        raise SpectrumFormatError("spectrum document must be a JSON object")
    keys = [k for k in ("lambda", "mu") if k in obj]
    if len(keys) != 1:
        raise SpectrumFormatError('exactly one of "lambda" or "mu" is required')
    parsed = scalars_from_obj(obj[keys[0]], f'"{keys[0]}"')
    d = obj.get("d", len(parsed))
    if type(d) is not int or d != len(parsed):
        raise SpectrumFormatError(f'"d" must be the integer {len(parsed)}; got {d!r}')
    return _spectrum(parsed, keys[0])
