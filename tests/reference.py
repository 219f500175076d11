"""Slow references that the tests hold faster production paths to.

``multfiber.polyfam`` computes each coarsening sum by a recurrence over the
subsets of the blocks and never lists a partition.  The listing kept here,
Bell(l) partitions cached per l, is what the tests check that recurrence
against.

``multfiber.lattice.zero_sum_vectors`` joins the sums of the class vectors
of two halves of the value classes.  The scan kept here builds the exact
sums of all 2^d index subsets, and ``product_zero_sum_vectors`` tries every
class vector of ``itertools.product``.

``multfiber.counting.class_gcds`` takes prefix and suffix gcds in one pass;
``quadratic_class_gcds`` is the definition it replaced, all r sizes
unpacked for each of the r classes.

``multfiber.lattice.enumerate_lattice`` counts the partitions by one
``block_pairs`` fold over the zero-sum masks and unfolds them top-down.
``cover_lattice`` lists them by the exact-cover search it replaced
(``cover_partitions``): always extend by a block through the smallest
uncovered index, each mask tried against the blocks chosen so far.

``multfiber.counting.fiber_report`` is the pass: it evaluates the paper's
two formulas, the sub-spectrum recursion and the closed form, in one pass
over the zero-sum class vectors.  Two tiers of references sit below it.  ``mask_counts`` is
the same pass over the zero-sum index masks, every index its own class.
The routes kept here walk the partition lattice of
``multfiber.lattice.enumerate_lattice`` instead: ``fiber_size`` recurses
into restricted sub-spectra (``subspectra``) or walks the strict
refinements with falling-span weights (``refinement``, the only user of
``falling_span``), and ``fiber_size_closed_form`` sums factorial weights
over the partitions.  The lattice order they need (``refines``,
``inner_block_count``, ``strict_refinements``) and the sub-spectrum helpers
(``restrict``, ``shift_key``) live here with them.

The package's exact values are integer triples (x, y, n), the Gaussian
rational (x + y i) / n.  ``GaussianRational`` is the field Q(i) on
``Fraction`` parts that the tests compute with and check those triples
against: ``as_gaussian`` reads a literal, a real number or a triple into
one, ``parts`` writes one back as a triple in lowest terms, ``str`` is the
written form ``multfiber.exactnum.format_literal`` must match, and
``reciprocal_shift`` and ``multiplier_from_shift`` map lambda to
mu = 1/(1-lambda) and back.

``multfiber.spectrum.spectrum_from_obj`` reads each literal into integers
and takes 1/(1-lambda) over the Gaussian integers.  ``fraction_shifts_from_obj``
is the parse it replaced: every scalar a ``GaussianRational``, every shift a
``reciprocal_shift``, the zero sum a ``GaussianRational`` sum; it returns
the shift vector, and ``spectrum_of_shifts`` clears its denominators with
``Fraction`` arithmetic.  ``regex_literal`` is the literal grammar that
``parse_literal`` replaced, one regular expression.

``multfiber.verifier.SigmaSystem.step`` solves each Newton step from the
Vandermonde structure of the Jacobian.  ``jacobian`` builds that Jacobian
densely, one d x d matrix per tuple, for a general solver to be checked
against.  ``multfiber.verifier._close`` checks the images of a batch's new
tuples under every nontrivial rotation as one array, then those of each
round's new tuples under every swap as one array;
``close_one_generator_at_a_time`` is the closure it replaced, round by
round under the rotation by omega and each swap, one check per generator,
each against the tuples accepted so far.  ``multfiber.verifier._near_pairs``
finds the pairs of rows within a tolerance in max-norm by a window sorted on
Re zeta_0, block by block; ``_within`` is the all-pairs boolean matrix it
replaced, built ``DIST_CHUNK`` rows of A at a time, whose ``np.argwhere`` is
those blocks' pairs joined and sorted.

Two references check the count from outside the partition sums:
``groebner_tuple_count`` counts the fixed-point tuples of the polynomial
system by a Groebner basis, and ``planted_spectrum`` builds a spectrum
together with one exact solution of that system.

Only the tests evaluate the rest: the count's expansion in factorial
weights over the refinement walk, and the restriction identity of
``multfiber.polyfam.coarsening_sum``.
"""

import random
import re
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import comb, factorial, gcd, lcm, prod

import numpy as np

from multfiber.counting import _exact_quotient, rising_span
from multfiber.errors import (
    DegreeTooSmallError,
    DimensionCapError,
    EngineDisagreementError,
    OffHyperplaneError,
    SpectrumFormatError,
    UnitMultiplierError,
    ZeroShiftTargetError,
)
from multfiber.exactnum import parse_literal
from multfiber.frozen import Frozen
from multfiber.lattice import (
    BlockPartition,
    Lattice,
    enumerate_lattice,
    group_by_low_bit,
    zero_sum_subsets,
)
from multfiber.polyfam import coarsening_sum
from multfiber.spectrum import Spectrum, _spectrum, from_shifts
from multfiber.verifier import _accept

MAX_LISTED_BLOCKS = 11  # Bell(11) = 678,570 partitions: about 2 s to list
DIST_CHUNK = 64  # rows of A per block of pairwise distances in ``_within``


# --- exact Gaussian rationals on Fractions ------------------------------------------


class GaussianRational(Frozen):
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        super().__init__(Fraction(re), Fraction(im))

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        """Parse ``p/q``, ``p``, ``ri`` or ``p/q+r/si`` (see ``parse_literal``)."""
        x, y, n = parse_literal(text)
        return cls(Fraction(x, n), Fraction(y, n))

    def parts(self) -> tuple[int, int, int]:
        """The triple (x, y, n), (x + y i) / n in lowest terms."""
        (a, b), (c, d) = self.re.as_integer_ratio(), self.im.as_integer_ratio()
        n = lcm(b, d)
        return a * (n // b), c * (n // d), n

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


Scalar = int | Fraction | str | tuple | GaussianRational

ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def as_gaussian(value: Scalar) -> GaussianRational:
    """Coerce an int, Fraction, literal string, triple (x, y, n) or GaussianRational."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, str):
        return GaussianRational.parse(value)
    if isinstance(value, tuple):
        x, y, n = value
        return GaussianRational(Fraction(x, n), Fraction(y, n))
    return GaussianRational(Fraction(value))


def reciprocal_shift(multiplier: Scalar) -> GaussianRational:
    """Map a fixed-point multiplier m to its shift 1/(1-m); m = 1 has none."""
    m = as_gaussian(multiplier)
    if m == ONE:
        raise UnitMultiplierError("multiplier 1 has no reciprocal shift")
    return ONE / (ONE - m)


def multiplier_from_shift(shift: Scalar) -> GaussianRational:
    """Inverse of :func:`reciprocal_shift`: shift s maps back to 1 - 1/s."""
    return ONE - ONE / as_gaussian(shift)


@lru_cache(maxsize=None)
def _set_partitions(l: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All partitions of {0,...,l-1}, blocks ordered by first element.

    There are Bell(l) of them, so l above ``MAX_LISTED_BLOCKS`` raises
    ``DimensionCapError`` before any is built.
    """
    if l > MAX_LISTED_BLOCKS:
        raise DimensionCapError(f"{l} blocks above the block limit {MAX_LISTED_BLOCKS}")
    results: list[tuple[tuple[int, ...], ...]] = []
    blocks: list[list[int]] = []

    def place(i: int):
        if i == l:
            results.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(i)
            place(i + 1)
            b.pop()
        blocks.append([i])
        place(i + 1)
        blocks.pop()

    place(0)
    return tuple(results)


def shape_partitions(l: int, k: int) -> list[tuple[tuple[int, ...], ...]]:
    """All partitions of {0,...,l-1} into exactly k nonempty blocks.

    Empty for k <= 0 or k >= l+1.
    """
    if l < 2:
        raise ValueError(f"need l >= 2, got {l}")
    if k <= 0 or k >= l + 1:
        return []
    return [p for p in _set_partitions(l) if len(p) == k]


def enumerated_coarsening_sum(l: int, k: int, xs) -> int:
    """``coarsening_sum`` by direct enumeration of ``shape_partitions``."""
    xs = tuple(xs)
    if len(xs) != l:
        raise ValueError(f"expected {l} values, got {len(xs)}")
    total = 0
    for partition in shape_partitions(l, k):
        term = 1
        for block in partition:
            base = -(sum(xs[u] for u in block) - 1)
            term *= base ** (len(block) - 1)
        total += term
    return total


def doubling_zero_sum_subsets(spec) -> list[int]:
    """``zero_sum_subsets`` by the packed sums of all 2^d subsets, ascending."""
    # Clear denominators and pack each shift as re*k + im; |subset im sum|
    # < k/2, so a packed sum is 0 exactly when both parts are.
    mu = [as_gaussian(m) for m in spec.mu]
    denom = 1
    for m in mu:
        denom = lcm(denom, m.re.denominator, m.im.denominator)
    ims = [int(m.im * denom) for m in mu]
    k = 2 * sum(map(abs, ims)) + 1
    sums = [0]  # sums[mask] is the packed sum over mask
    for m, im in zip(mu, ims):
        v = int(m.re * denom) * k + im
        sums += [s + v for s in sums]
    return [mask for mask in range(1, len(sums) - 1) if not sums[mask]]


def product_zero_sum_vectors(classes) -> tuple[list[int], list[int], int]:
    """``zero_sum_vectors`` by every class vector of ``itertools.product``.

    Class j, (packed value, size m_j), takes v_j in 0..m_j indices.  The
    classes are laid out largest first (ties in order), each owning m_j
    bits above those before it; the masks of the nonempty vectors with
    packed sum 0 come ascending, then the fields of the classes of size
    >= 2 and Z, the sum of prod C(m_j, v_j) over the proper ones.
    """
    classes = sorted(classes, key=lambda c: c[1], reverse=True)
    sizes = [m for _, m in classes]
    offsets = list(accumulate(sizes, initial=0))
    fields = [((1 << m) - 1) << off for m, off in zip(sizes, offsets) if m > 1]
    masks, zero_sum = [], 0
    for v in product(*(range(m + 1) for m in sizes)):
        if not any(v) or sum(c * value for c, (value, _) in zip(v, classes)):
            continue
        masks.append(sum(((1 << c) - 1) << off for c, off in zip(v, offsets)))
        if list(v) != sizes:
            zero_sum += prod(comb(m, c) for c, m in zip(v, sizes))
    return sorted(masks), fields, zero_sum


def quadratic_class_gcds(sizes) -> tuple[int, ...]:
    """For each class, the gcd of all class sizes with that one reduced by 1."""
    sizes = tuple(sizes)
    return tuple(gcd(*sizes[:w], sizes[w] - 1, *sizes[w + 1 :]) for w in range(len(sizes)))


def cover_partitions(by_low: dict[int, list[int]], full: int) -> Iterator[tuple[int, ...]]:
    """Exact covers of ``full`` by the grouped blocks, canonical order."""
    chosen: list[int] = []

    def extend(covered: int):
        if covered == full:
            yield tuple(chosen)
            return
        free = ~covered & full
        for mask in by_low.get(free & -free, ()):
            if mask & covered:
                continue
            chosen.append(mask)
            yield from extend(covered | mask)
            chosen.pop()

    yield from extend(0)


def cover_lattice(spec) -> Lattice:
    """``enumerate_lattice`` by an exact-cover search over the zero-sum masks, no partition limit."""
    subsets = zero_sum_subsets(spec)
    full = (1 << spec.d) - 1
    by_low = group_by_low_bit(subsets + [full])  # whole set sums to zero
    partitions = sorted(
        map(BlockPartition, cover_partitions(by_low, full)),
        key=lambda p: (p.block_count, p.blocks),
    )
    return Lattice(spec.d, tuple(partitions), len(subsets))


def restrict(spec, mask: int):
    """Sub-spectrum over the indices in a bitmask (bit i = index i)."""
    parts = [(r, s, spec.D) for i, (r, s) in enumerate(zip(spec.re, spec.im)) if mask >> i & 1]
    return _spectrum(parts, "mu")


def shift_key(spec) -> tuple:
    """Multiset of shift values; cache key for sub-spectrum counts.

    A spectrum's (D, re, im) are in lowest terms, so equal multisets give equal keys.
    """
    return spec.D, tuple(sorted(zip(spec.re, spec.im)))


def refines(coarse: BlockPartition, fine: BlockPartition) -> bool:
    """True iff every block of ``fine`` lies inside some block of ``coarse``.

    This is the lattice order with the one-block partition at the bottom;
    it is reflexive.  Partitions of different ground sets raise ``ValueError``.
    """
    if sum(coarse.blocks) != sum(fine.blocks):  # disjoint blocks: sum is union
        raise ValueError("partitions cover different ground sets")
    return all(not fb & ~cb for fb in fine.blocks for cb in coarse.blocks if fb & cb)


def inner_block_count(block_mask: int, fine: BlockPartition) -> int:
    """Number of ``fine`` blocks contained in the given block."""
    return sum(1 for b in fine.blocks if not (b & ~block_mask))


def strict_refinements(lat: Lattice, part: BlockPartition):
    """Proper lattice members strictly refining ``part``."""
    for other in lat.proper:
        if other.block_count > part.block_count and refines(part, other):
            yield other


def falling_span(size: int, inner: int) -> int:
    """prod_{k=size-inner+1}^{size-1} k, empty product (=1) for inner=1."""
    return factorial(size - 1) // factorial(size - inner)


def factorial_weight(part: BlockPartition) -> int:
    """prod over blocks of (size - 1)!; the leading term of a weight."""
    return prod(factorial(n - 1) for n in part.sizes)


def _refinement_span(part: BlockPartition, finer: BlockPartition) -> int:
    """prod over blocks C of ``part`` of falling_span(|C|, #finer blocks in C)."""
    return prod(falling_span(b.bit_count(), inner_block_count(b, finer)) for b in part.blocks)


def refinement_weights(lat: Lattice) -> dict[BlockPartition, int]:
    """All partition weights by downward recursion over strict refinements.

    Finer partitions have strictly more blocks, so processing in order of
    decreasing block count resolves every dependency.
    """
    weights: dict[BlockPartition, int] = {}
    for part in sorted(lat.proper, key=lambda p: -p.block_count):
        weights[part] = factorial_weight(part) - sum(
            weights[finer] * _refinement_span(part, finer)
            for finer in strict_refinements(lat, part)
        )
    return weights


def subspectra_weight(spec, part, memo=None) -> int:
    """prod over blocks C of (|C|-1) * ``fiber_size`` of the sub-spectrum on C."""
    return prod(
        (b.bit_count() - 1) * fiber_size(restrict(spec, b), None, "subspectra", memo)
        for b in part.blocks
    )


def fiber_size(spec, lat=None, engine: str = "subspectra", memo=None) -> int:
    """Fiber cardinality with multiplicity: (d-2)! minus weighted lattice terms.

    ``memo`` maps each shift multiset counted so far to its count, so the
    ``subspectra`` engine counts each restricted sub-spectrum once per call.
    """
    memo = {} if memo is None else memo
    key = shift_key(spec)
    if key not in memo:
        d = spec.d
        lat = lat if lat is not None else enumerate_lattice(spec)
        if engine == "refinement":
            weights = refinement_weights(lat)
        else:
            weights = {part: subspectra_weight(spec, part, memo) for part in lat.proper}
        memo[key] = factorial(d - 2) - sum(
            weights[part] * rising_span(d, part.block_count) for part in lat.proper
        )
    return memo[key]


def fiber_size_closed_form(spec, lat=None) -> int:
    """Fiber cardinality with multiplicity via the signed single sum.

    The sum equals (d-1) times the count; a nonzero remainder in the final
    division signals an enumeration bug, not bad input.
    """
    d = spec.d
    lat = lat if lat is not None else enumerate_lattice(spec)
    total = sum(
        (-(d - 1)) ** (part.block_count - 1) * factorial_weight(part) for part in lat.partitions
    )
    return _exact_quotient(total, d - 1, "signed lattice sum")


def mask_counts(spec) -> tuple[int, int, int]:
    """The pass of ``multfiber.counting.fiber_report`` over index masks: (count, P, Z).

    The pass with every index its own class: one row (g, F, C) per zero-sum
    mask B, and a proper partition of B is its block b holding the lowest
    index of B with a partition of B - b (zero-sum, smaller, visited
    earlier).  g[k] sums prod w(C) over the k-block partitions and
    g[1] = w(B) = (|B|-1) * count; F(B) = (|B|-1)! - (d-1) * sum_b (|b|-1)! * F(B-b);
    C(B) = 1 + sum_b C(B-b).  The masks come from ``doubling_zero_sum_subsets``.
    """
    d = spec.d
    masks = doubling_zero_sum_subsets(spec) + [(1 << d) - 1]
    fact = [factorial(i) for i in range(d + 1)]
    by_low = group_by_low_bit(masks)

    rows: dict[int, tuple[list[int], int, int]] = {}
    # Ascending masks: every proper subset of a mask comes before it.
    for mask in masks:
        n = mask.bit_count()
        g = [0] * (n // 2 + 1)  # blocks have size >= 2, index = block count
        signed = count = 0
        for b in by_low.get(mask & -mask, ()):
            if b >= mask:
                break
            if b & ~mask:
                continue
            wb = rows[b][0][1]
            rg, rf, rc = rows[mask ^ b]
            for k in range(1, len(rg)):
                g[k + 1] += wb * rg[k]
            signed += fact[b.bit_count() - 1] * rf
            count += rc
        sub = fact[n - 2] - sum(rising_span(n, k) * g[k] for k in range(2, len(g)))
        g[1] = (n - 1) * sub
        rows[mask] = (g, fact[n - 1] - (d - 1) * signed, 1 + count)

    _, signed, count = rows[masks[-1]]
    closed = _exact_quotient(signed, d - 1, "signed lattice sum")
    if sub != closed:
        raise EngineDisagreementError(
            f"count routes disagree: recursion {sub} != closed form {closed}"
        )
    return sub, count, len(masks) - 1


def expansion_in_factorial_weights(lat: Lattice) -> dict[BlockPartition, int]:
    """Coefficients of the fiber size in the factorial-weight basis.

    Expanding every partition weight through the refinement recursion and
    substituting into the fiber-size formula writes the count as
    (d-2)! + sum over proper partitions of coeff * factorial_weight; this
    returns the coefficient map.
    """
    d = lat.d
    expansions: dict[BlockPartition, dict[BlockPartition, int]] = {}
    for part in sorted(lat.proper, key=lambda p: -p.block_count):
        combo = {part: 1}
        for finer in strict_refinements(lat, part):
            span = _refinement_span(part, finer)
            for basis, coeff in expansions[finer].items():
                combo[basis] = combo.get(basis, 0) - span * coeff
        expansions[part] = combo
    coeffs: dict[BlockPartition, int] = {}
    for part in lat.proper:
        span = rising_span(d, part.block_count)
        for basis, coeff in expansions[part].items():
            coeffs[basis] = coeffs.get(basis, 0) - span * coeff
    return coeffs


def restriction_identity_holds(l: int, k: int, xs) -> bool:
    """Check the one-variable restriction of the coarsening sum.

    Appending a zero entry must satisfy
    sum(l+1, k, xs||0) = sum(l, k-1, xs) - (sum(xs) - k) * sum(l, k, xs).
    """
    xs = tuple(xs)
    if len(xs) != l:
        raise ValueError(f"expected {l} values, got {len(xs)}")
    left = coarsening_sum(l + 1, k, xs + (0,))
    right = coarsening_sum(l, k - 1, xs) - (sum(xs) - k) * coarsening_sum(l, k, xs)
    return left == right


def groebner_tuple_count(spec) -> int:
    """Tuples of pairwise-distinct coordinates solving the system, with multiplicity.

    The system of ``multfiber.verifier``: sum_i zeta_i = 0,
    sum_i mu_i zeta_i^k = 0 for 1 <= k <= d-2 and sum_i mu_i zeta_i^(d-1) = -1.
    Adding t * prod_{i<j} (zeta_i - zeta_j) = 1 removes every solution with
    two equal coordinates.  The count is the number of standard monomials
    of a grevlex Groebner basis over the Gaussian rationals, the dimension
    of the quotient ring, so (d-1) times the fiber count.  A basis of [1]
    has no solution at all and counts 0.
    """
    from sympy import QQ_I, I, Rational, groebner, symbols  # only this reference needs sympy

    d = spec.d
    zeta = symbols(f"z0:{d}")
    t = symbols("t")
    mu = [Rational(x, n) + I * Rational(y, n) for x, y, n in spec.mu]
    eqs = [sum(zeta)] + [sum(m * z**k for m, z in zip(mu, zeta)) for k in range(1, d - 1)]
    eqs.append(sum(m * z ** (d - 1) for m, z in zip(mu, zeta)) + 1)
    eqs.append(t * prod(zeta[i] - zeta[j] for i in range(d) for j in range(i + 1, d)) - 1)
    basis = groebner(eqs, *zeta, t, order="grevlex", domain=QQ_I)
    if basis.exprs == [1]:
        return 0
    if not basis.is_zero_dimensional:
        raise ValueError(f"infinitely many tuples for {spec}")
    leads = [p.monoms(order="grevlex")[0] for p in basis.polys]
    # the standard monomials are closed under division: grow them from 1
    start = (0,) * (d + 1)
    standard, todo = {start}, [start]
    while todo:
        m = todo.pop()
        for i in range(d + 1):
            up = m[:i] + (m[i] + 1,) + m[i + 1 :]
            if up not in standard and not any(all(a >= b for a, b in zip(up, lead)) for lead in leads):
                standard.add(up)
                todo.append(up)
    return len(standard)


def planted_spectrum(d: int, seed: int, radius: int = 3):
    """A degree-d spectrum together with one exact tuple ``zeta`` solving its system.

    ``zeta`` is drawn as distinct Gaussian integers (parts in [-radius,
    radius]) summing to zero.  The shifts solve sum_i mu_i zeta_i^k = 0 for
    k < d-1 and = -1 for k = d-1 (k = 0 is the zero sum of the spectrum):
    by the divided-difference identity, mu_i = -1 / prod_{j != i} (zeta_i -
    zeta_j), which is never zero.  All d equations are checked exactly.
    Returns the spectrum and ``zeta``, both in the order of its shifts.
    """
    rng = random.Random(seed)
    one = GaussianRational(1, 0)
    while True:
        head = [
            GaussianRational(rng.randint(-radius, radius), rng.randint(-radius, radius))
            for _ in range(d - 1)
        ]
        zeta = head + [-sum(head, ZERO)]
        if len({z.sort_key() for z in zeta}) == d:
            break
    mu = [-one / prod((z - w for w in zeta if w != z), start=one) for z in zeta]
    powers = [one] * d
    for k in range(d):
        total = sum((m * p for m, p in zip(mu, powers)), ZERO)
        assert total == (-one if k == d - 1 else ZERO), (k, total)
        powers = [p * z for p, z in zip(powers, zeta)]
    return from_shifts([m.parts() for m in mu]), tuple(zeta)


def jacobian(system, Z):
    """The Jacobian of ``system`` at each row of Z (shape (B, d)), shape (B, d, d):
    d/dzeta_j of equation k is k * mu_j * zeta_j^(k-1)."""
    B, d = Z.shape
    J = np.empty((B, d, d), dtype=complex)
    J[:, 0, :] = 1.0
    P = np.ones_like(Z)
    for k in range(1, d):
        J[:, k, :] = k * system.mu * P
        P = P * Z
    return J


def close_one_generator_at_a_time(system, swaps, rotations, zeta, residual, last, expected):
    """``zeta`` and ``residual`` with the rows from ``last`` on closed under
    the rotation by omega = ``rotations[0]`` and the ``swaps``, as ``_close``
    does, but round by round, and the images under each generator pass
    ``_accept`` on their own, after those under the generators before it:
    omega, then each swap."""
    perms = np.vstack([np.arange(system.d), swaps])
    factors = np.r_[rotations[0], np.ones(len(swaps))]
    while last < len(zeta):
        added, last = zeta[last:], len(zeta)
        for perm, factor in zip(perms, factors):
            C = added[:, perm] * factor
            norms = np.abs(system.residual(C.T)).max(axis=0)
            zeta, residual = _accept(C, norms, zeta, residual, expected)[:2]
    return zeta, residual


def _within(A: np.ndarray, B: np.ndarray, tol) -> np.ndarray:
    """Whether each row of A is closer than ``tol`` (a scalar, or one per row
    of A) to each row of B in max-norm.  The distances are taken by columns,
    for ``DIST_CHUNK`` rows of A at a time, so only the boolean result has
    len(A) * len(B) entries."""
    out = np.empty((len(A), len(B)), dtype=bool)
    for s in range(0, len(A), DIST_CHUNK):
        part = A[s : s + DIST_CHUNK]
        D = np.zeros((len(part), len(B)))
        for a, b in zip(part.T, B.T):
            np.maximum(D, np.abs(a[:, None] - b[None, :]), out=D)
        out[s : s + DIST_CHUNK] = D < (tol if np.isscalar(tol) else tol[s : s + DIST_CHUNK])
    return out


# --- the parse that spectrum_from_obj replaced --------------------------------------

_GAUSS_RE = re.compile(r"^(?P<re>[+-]?\d+(?:/\d+)?)?(?:(?P<im>[+-]?\d+(?:/\d+)?)i)?$")


def regex_literal(text: str) -> GaussianRational:
    """A literal read by the regular expression that ``parse_literal`` replaced."""
    match = _GAUSS_RE.match(text.strip())
    if match is None or (match.group("re") is None and match.group("im") is None):
        raise ValueError(f"not a Gaussian rational literal: {text!r}")
    try:
        return GaussianRational(Fraction(match.group("re") or 0), Fraction(match.group("im") or 0))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in literal: {text!r}") from None


def regex_misreads(text: str) -> bool:
    """True when the expression splits one signless imaginary term in two.

    It lets an unsigned imaginary term follow a real term with no sign
    between them, so it reads ``12i`` as 1+2i; ``parse_literal`` reads 12i.
    """
    match = _GAUSS_RE.match(text.strip())
    return bool(match and match.group("re") and match.group("im") and match.group("im")[0] not in "+-")


def fraction_shifts_from_obj(obj) -> tuple[GaussianRational, ...]:
    """The shift vector of a spectrum document, parsed and checked on GaussianRationals."""
    if not isinstance(obj, dict):
        raise SpectrumFormatError("spectrum document must be a JSON object")
    keys = [k for k in ("lambda", "mu") if k in obj]
    if len(keys) != 1:
        raise SpectrumFormatError('exactly one of "lambda" or "mu" is required')
    values = obj[keys[0]]
    if not isinstance(values, list) or any(type(v) not in (str, int, float) for v in values):
        raise SpectrumFormatError(f'"{keys[0]}" must be a list of scalars')
    try:
        parsed = [as_gaussian(v) for v in values]
    except (ValueError, OverflowError) as exc:
        raise SpectrumFormatError(str(exc)) from None
    d = obj.get("d", len(parsed))
    if type(d) is not int or d != len(parsed):
        raise SpectrumFormatError(f'"d" must be the integer {len(parsed)}; got {d!r}')
    if len(parsed) < 2:
        raise DegreeTooSmallError(f"need degree >= 2, got {len(parsed)}")
    mu = []
    for i, v in enumerate(parsed):
        if keys[0] == "mu" and not v:
            raise ZeroShiftTargetError(f"shift at index {i} is 0")
        if keys[0] == "lambda" and v == ONE:
            raise UnitMultiplierError(f"multiplier at index {i} equals 1")
        mu.append(v if keys[0] == "mu" else reciprocal_shift(v))
    total = sum(mu, ZERO)
    if total != ZERO:
        what = "shifts" if keys[0] == "mu" else "reciprocal shifts"
        raise OffHyperplaneError(f"{what} sum to {total}, not 0")
    return tuple(mu)


def spectrum_of_shifts(mu) -> Spectrum:
    """The Spectrum of GaussianRational shifts, denominators cleared by their lcm."""
    D = lcm(*(f.denominator for m in mu for f in (m.re, m.im)))
    return Spectrum(D, tuple(int(m.re * D) for m in mu), tuple(int(m.im * D) for m in mu))
