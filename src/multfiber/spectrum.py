"""Validated spectra, stored as shift vectors, and their value classes.

A spectrum of degree d is an ordered tuple of d multipliers, none equal
to 1, whose reciprocal shifts mu_i = 1/(1-lambda_i) sum to zero exactly.
A ``Spectrum`` stores each quantity once, as its shift vector: every count
and lattice membership test reads mu alone, and the multipliers are
derived from it on first use.  Instances are immutable and freely shareable.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import factorial

from .errors import (
    BlockSumError,
    DegreeTooSmallError,
    ExactShapeError,
    OffHyperplaneError,
    SpectrumFormatError,
    UnitMultiplierError,
    ZeroShiftTargetError,
)
from .exactnum import (
    GaussianRational,
    ONE,
    ZERO,
    as_gaussian,
    multiplier_from_shift,
    reciprocal_shift,
)


@dataclass(frozen=True)
class Spectrum:
    """A shift vector, the only field; ``lam`` is derived from it and cached."""

    mu: tuple[GaussianRational, ...]

    @property
    def d(self) -> int:
        return len(self.mu)

    @cached_property
    def lam(self) -> tuple[GaussianRational, ...]:
        return tuple(multiplier_from_shift(m) for m in self.mu)

    def permuted(self, order: tuple[int, ...]) -> "Spectrum":
        return Spectrum(tuple(self.mu[i] for i in order))


@dataclass(frozen=True)
class ValueClasses:
    """Partition of spectrum indices by exact multiplier equality."""

    classes: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(k) for k in self.classes)


def group_order(sizes) -> int:
    """Order of the class-preserving permutation group, prod (#K)!."""
    order = 1
    for n in sizes:
        order *= factorial(n)
    return order


def _shift_vector(values, shift, what: str, min_len: int = 2, error=OffHyperplaneError):
    """``shift(i, v)`` over ``values``: checks the count first, the zero sum last."""
    if len(values) < min_len:
        raise DegreeTooSmallError(f"need degree >= {min_len}, got {len(values)}")
    mu = tuple(shift(i, v) for i, v in enumerate(values))
    total = sum(mu, ZERO)
    if total != ZERO:
        raise error(f"{what} sum to {total}, not 0")
    return mu


def _shift_of_multiplier(i: int, v: GaussianRational) -> GaussianRational:
    if v == ONE:
        raise UnitMultiplierError(f"multiplier at index {i} equals 1")
    return reciprocal_shift(v)


def _nonzero_shift(i: int, m: GaussianRational) -> GaussianRational:
    if not m:
        raise ZeroShiftTargetError(f"shift at index {i} is 0")
    return m


def validate(raw) -> Spectrum:
    """Build a Spectrum from multiplier values, rejecting invalid input."""
    lam = tuple(as_gaussian(v) for v in raw)
    return Spectrum(_shift_vector(lam, _shift_of_multiplier, "reciprocal shifts"))


def from_shifts(shifts) -> Spectrum:
    """Build a Spectrum from its shift vector (each mu_i = 1/(1-lambda_i))."""
    return Spectrum(_shift_vector([as_gaussian(v) for v in shifts], _nonzero_shift, "shifts"))


def value_classes(spec: Spectrum) -> ValueClasses:
    """Group indices by equal shifts, i.e. equal multipliers, ordered by first index."""
    seen: dict[tuple, list[int]] = {}
    for i, v in enumerate(spec.mu):
        seen.setdefault(v.sort_key(), []).append(i)
    classes = sorted(seen.values(), key=lambda k: k[0])
    return ValueClasses(tuple(tuple(k) for k in classes))


# --- test-spectrum generation -------------------------------------------------

TARGET_BOUND = 20  # numerator and denominator bound of random shift targets
EXACT_TRIES = 500  # redraws before ``generate(exact=True)`` gives up


def _random_nonzero_fraction(rng: random.Random) -> Fraction:
    num = rng.randint(-TARGET_BOUND, TARGET_BOUND)
    while num == 0:
        num = rng.randint(-TARGET_BOUND, TARGET_BOUND)
    return Fraction(num, rng.randint(1, TARGET_BOUND))


def _draw_block(rng: random.Random, size: int) -> list[GaussianRational]:
    """Random zero-sum block of nonzero rational shift targets."""
    while True:
        head = [_random_nonzero_fraction(rng) for _ in range(size - 1)]
        last = -sum(head)
        if last != 0:
            return [GaussianRational(v) for v in head] + [GaussianRational(last)]


def generate(plan, *, seed: int = 0, exact: bool = False) -> Spectrum:
    """Build a spectrum whose lattice contains the block structure of ``plan``.

    Each plan item is either an explicit list of nonzero shift targets that
    sum to zero within the block, or an integer block size >= 2 meaning
    "draw random targets" (nonzero rationals with numerator and denominator
    bounded by ``TARGET_BOUND``); drawing is deterministic under a fixed
    seed.  Accidental zero sums may add extra lattice elements; with
    ``exact=True`` candidates are redrawn, at most ``EXACT_TRIES`` times,
    until the zero-sum subsets are precisely the unions of whole plan blocks.
    """
    rng = random.Random(seed)
    fixed: list[tuple[GaussianRational, ...] | None] = []
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
            targets = _shift_vector(
                [as_gaussian(v) for v in block], _nonzero_shift, "plan block shifts",
                min_len=1, error=BlockSumError,
            )
            fixed.append(targets)
            sizes.append(len(targets))
    if not sizes:
        raise DegreeTooSmallError("empty plan")

    has_random = any(b is None for b in fixed)

    for _ in range(EXACT_TRIES):
        targets: list[GaussianRational] = []
        for block, size in zip(fixed, sizes):
            targets.extend(block if block is not None else _draw_block(rng, size))
        spec = from_shifts(targets)
        if not exact:
            return spec
        from .lattice import zero_sum_subsets

        # the 2^B - 2 proper nonempty unions of whole plan blocks are always
        # zero-sum, so the zero-sum subsets are exactly those iff they are as many
        if len(zero_sum_subsets(spec)) == 2 ** len(sizes) - 2:
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
        return {"d": spec.d, "lambda": [str(v) for v in spec.lam]}
    except ValueError:  # only the int-to-string digit limit raises here
        raise SpectrumFormatError(
            f"a multiplier has more than {sys.get_int_max_str_digits()} digits,"
            " the interpreter's limit for writing an integer"
        ) from None


def scalars_from_obj(values, what: str) -> list[GaussianRational]:
    """A JSON list of scalars (literal strings, integers, floats) parsed exactly."""
    # JSON true/false decode as bool, a subclass of int: not scalars here
    if not isinstance(values, list) or any(type(v) not in (str, int, float) for v in values):
        raise SpectrumFormatError(f"{what} must be a list of scalars")
    try:
        return [as_gaussian(v) for v in values]
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
    return validate(parsed) if keys[0] == "lambda" else from_shifts(parsed)
