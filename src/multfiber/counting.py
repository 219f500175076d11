"""Fiber counts over a multiplier spectrum.

The central quantity is the fiber cardinality *counted with multiplicity*
of the map sending a conjugacy class of degree-d polynomials to its
unordered multiplier collection.  Every route writes it as a sum over the
partitions of the index set into zero-sum blocks, graded by block count:

* ``subspectra``: (d-2)! minus rising-span factors times, per proper
  partition, the product over blocks C of w(C) = (|C|-1) times the count
  of the sub-spectrum restricted to C;
* ``refinement``: the same products against falling-span factors give
  w(full) = (d-1)! minus the weighted sum, and the count is w(full)/(d-1);
* the closed form: a single signed sum,
  (d-1) * count = sum over partitions of {-(d-1)}^{#blocks - 1} times the
  product of (block size - 1)!.

``fiber_report`` evaluates all three in one bottom-up pass over the zero-sum
index masks (``mask_counts``), one row per mask and no partition: the
recursions' graded sums and two scalar recurrences, the closed-form sum and
the partition count.  Since falling_span(n, k) = (n-1) * rising_span(n, k),
the two recursions share their sums and differ only in the span basis:
their agreement, checked at every mask, guards the span arithmetic, not
the sums.  The closed form uses block sizes only, never a recursive
weight, so its agreement with the recursions is the independent check.

The partition-based routes (``fiber_size`` with either engine and
``fiber_size_closed_form``) enumerate the lattice and recurse into
restricted sub-spectra or strict refinements.  They are the slow reference
the tests hold the mask pass to, and they share one refinement walk
(``refinement_weights``, over ``Lattice.strict_refinements`` with the
falling-span product ``_refinement_span``) and one sub-spectrum weight
(``_subspectra_weight``).

All routes must agree exactly; disagreement or a failed exact division is
an internal error, never bad input.  From the multiplicity count the two
discrete counts follow: the monic-centered count always, the
conjugacy-class count only when every class gcd is 1 (the remaining case
needs machinery that is out of scope, so it is reported as absent).

Everything here is a pure function of its arguments on
arbitrary-precision integers; the sub-spectrum memo lives for one call, so
concurrent evaluation is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import factorial, gcd

from .errors import (
    DivisibilityError,
    EngineDisagreementError,
    InvariantViolationError,
)
from .lattice import (
    BlockPartition,
    Lattice,
    enumerate_lattice,
    group_by_low_bit,
    inner_block_count,
    zero_sum_subsets,
)
from .spectrum import Spectrum, ValueClasses, group_order, value_classes

ENGINES = ("subspectra", "refinement")


def rising_span(d: int, block_count: int) -> int:
    """prod_{k=d-block_count+1}^{d-2} k, empty product (=1) for 2 blocks."""
    return factorial(d - 2) // factorial(d - block_count)


def falling_span(size: int, inner: int) -> int:
    """prod_{k=size-inner+1}^{size-1} k, empty product (=1) for inner=1."""
    return factorial(size - 1) // factorial(size - inner)


def _exact_quotient(total: int, divisor: int, what: str) -> int:
    """total // divisor for a division that is exact by theory."""
    if total % divisor:
        raise DivisibilityError(f"{what} {total} not divisible by {divisor}")
    return total // divisor


# --- the partition references ------------------------------------------------
# Off the count and verify path (``fiber_report`` runs ``mask_counts``), these
# stay in the library only because the traced mode of ``perfbench/worker.py``
# (``traced_count``, ``_exact_count``) times ``fiber_size`` with both engines
# and ``fiber_size_closed_form`` on the lattice of ``enumerate_lattice``.

def factorial_weight(part: BlockPartition) -> int:
    """prod over blocks of (size - 1)!; the leading term of a weight."""
    w = 1
    for n in part.sizes:
        w *= factorial(n - 1)
    return w


def _subspectra_weight(spec: Spectrum, part: BlockPartition, memo: dict) -> int:
    """prod over blocks C of (|C|-1) * count of the sub-spectrum on C."""
    w = 1
    for block in part.blocks:
        w *= (block.bit_count() - 1) * _fiber_size(spec.restrict(block), None, "subspectra", memo)
    return w


def _refinement_span(part: BlockPartition, finer: BlockPartition) -> int:
    """prod over blocks C of ``part`` of falling_span(|C|, #finer blocks in C)."""
    span = 1
    for block in part.blocks:
        span *= falling_span(block.bit_count(), inner_block_count(block, finer))
    return span


def refinement_weights(lat: Lattice) -> dict[BlockPartition, int]:
    """All partition weights by downward recursion over strict refinements.

    Finer partitions have strictly more blocks, so processing in order of
    decreasing block count resolves every dependency.
    """
    weights: dict[BlockPartition, int] = {}
    for part in sorted(lat.proper, key=lambda p: -p.block_count):
        weights[part] = factorial_weight(part) - sum(
            weights[finer] * _refinement_span(part, finer)
            for finer in lat.strict_refinements(part)
        )
    return weights


def fiber_size(spec: Spectrum, lat: Lattice | None = None, engine: str = "subspectra") -> int:
    """Fiber cardinality with multiplicity: (d-2)! minus weighted lattice terms.

    The ``subspectra`` engine counts each restricted sub-spectrum once per call.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    return _fiber_size(spec, lat, engine, {})


def _fiber_size(spec: Spectrum, lat: Lattice | None, engine: str, memo: dict) -> int:
    """``fiber_size``; ``memo`` maps each shift multiset counted so far to its count."""
    key = spec.shift_key()
    if key not in memo:
        d = spec.d
        lat = lat if lat is not None else enumerate_lattice(spec)
        if engine == "refinement":
            weights = refinement_weights(lat)
        else:
            weights = {part: _subspectra_weight(spec, part, memo) for part in lat.proper}
        memo[key] = factorial(d - 2) - sum(
            weights[part] * rising_span(d, part.block_count) for part in lat.proper
        )
    return memo[key]


def fiber_size_closed_form(spec: Spectrum, lat: Lattice | None = None) -> int:
    """Fiber cardinality with multiplicity via the signed single sum.

    The sum equals (d-1) times the count; a nonzero remainder in the final
    division signals an enumeration bug, not bad input.
    """
    d = spec.d
    if lat is None:
        lat = enumerate_lattice(spec)
    total = 0
    for part in lat.partitions:
        total += (-(d - 1)) ** (part.block_count - 1) * factorial_weight(part)
    return _exact_quotient(total, d - 1, "signed lattice sum")


# --- discrete counts ------------------------------------------------------------

def class_gcds(sizes) -> tuple[int, ...]:
    """For each class, the gcd of all class sizes with that one reduced by 1."""
    sizes = tuple(sizes)
    out = []
    for w in range(len(sizes)):
        adjusted = sizes[:w] + (sizes[w] - 1,) + sizes[w + 1 :]
        out.append(reduce(gcd, adjusted, 0))
    return tuple(out)


def _monic_centered(d: int, size: int, sizes: tuple[int, ...]) -> int:
    return _exact_quotient((d - 1) * size, group_order(sizes), "(d-1)*count")


def _conjugacy(size: int, sizes: tuple[int, ...]) -> int | None:
    if any(g != 1 for g in class_gcds(sizes)):
        return None
    return _exact_quotient(size, group_order(sizes), "count")


def monic_centered_count(
    spec: Spectrum,
    lat: Lattice | None = None,
    size: int | None = None,
    classes: ValueClasses | None = None,
) -> int:
    """Number of distinct monic centered polynomials realizing the spectrum.

    Equals (d-1) * fiber size divided by the value-class group order; the
    division is always exact, so a remainder signals a bug.  Without
    ``size`` it comes from the mask pass; ``lat`` is unused.
    """
    if size is None:
        return fiber_report(spec).mc_count
    if classes is None:
        classes = value_classes(spec)
    return _monic_centered(spec.d, size, classes.sizes)


def conjugacy_count(
    spec: Spectrum,
    lat: Lattice | None = None,
    size: int | None = None,
    classes: ValueClasses | None = None,
) -> int | None:
    """Number of distinct conjugacy classes realizing the spectrum, if defined.

    Defined exactly when every class gcd is 1; otherwise ``None`` (absence
    is a value, not an error).  ``size`` and ``lat`` as above.
    """
    if classes is None:
        classes = value_classes(spec)
    if size is None and all(g == 1 for g in class_gcds(classes.sizes)):
        size = fiber_report(spec).s_d
    return _conjugacy(size, classes.sizes)


# --- one pass over the zero-sum masks ---------------------------------------------

def mask_counts(spec: Spectrum) -> tuple[dict[str, int], int, int]:
    """All three routes in one pass over the zero-sum masks, no partitions.

    Returns the count by route name, the number of partitions P (the
    one-block partition included) and the number of zero-sum subsets Z.
    A proper partition of a mask B is its block b holding the lowest index of
    B with a partition of B - b (zero-sum, smaller, visited earlier), so each
    is counted once.  One row (g, F, C) per mask: g[k] sums prod w(C) over the
    k-block partitions and g[1] = w(B) = (|B|-1) * count; the signed sum is
    F(B) = (|B|-1)! - (d-1) * sum_b (|b|-1)! * F(B-b), d the full degree, and
    C(B) = 1 + sum_b C(B-b).  ``group_by_low_bit`` bounds the pairs (b, B).
    """
    d = spec.d
    masks = zero_sum_subsets(spec) + [(1 << d) - 1]
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
        w = fact[n - 1] - sum(falling_span(n, k) * g[k] for k in range(2, len(g)))
        if w != (n - 1) * sub:
            raise EngineDisagreementError(
                f"recursions disagree on block {mask:#x}: "
                f"weight {w} != {n - 1} * count {sub}"
            )
        g[1] = w
        rows[mask] = (g, fact[n - 1] - (d - 1) * signed, 1 + count)

    # The full mask came last, so sub and w are its values; w is divisible
    # by d-1 because w == (d-1) * sub was just checked.
    _, signed, count = rows[masks[-1]]
    by_engine = {
        "subspectra": sub,
        "refinement": w // (d - 1),
        "closed_form": _exact_quotient(signed, d - 1, "signed lattice sum"),
    }
    return by_engine, count, len(masks) - 1


# --- aggregate report -------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class FiberReport:
    """All computed counts for one spectrum.

    Only the count, the class sizes and the two sizes are stored; every
    other count derives from them, and ``fiber_report`` has checked each
    derivation before it builds the report.
    """

    d: int
    s_d: int
    kappa_sizes: tuple[int, ...]
    lattice_partitions: int
    zero_sum_subsets: int

    @property
    def e_I0(self) -> int:
        return (self.d - 1) * self.s_d

    @property
    def mc_count(self) -> int:
        return _monic_centered(self.d, self.s_d, self.kappa_sizes)

    @property
    def mp_count(self) -> int | None:
        return _conjugacy(self.s_d, self.kappa_sizes)

    @property
    def engines(self) -> dict[str, int]:
        """The count by route; ``fiber_report`` checked that they agree."""
        return dict.fromkeys((*ENGINES, "closed_form"), self.s_d)

    @property
    def gw_flags(self) -> tuple[int, ...]:
        return class_gcds(self.kappa_sizes)


def fiber_report(spec: Spectrum) -> FiberReport:
    """Run all three routes and check their agreement, bounds and divisions.

    The report derives the discrete counts from ``s_d`` and the class sizes,
    so both exact divisions are checked here, before it is built.
    """
    by_engine, partitions, zero_sum = mask_counts(spec)
    d = spec.d
    values = set(by_engine.values())
    if len(values) != 1:
        raise EngineDisagreementError(f"count routes disagree: {by_engine}")
    size = values.pop()
    if not 0 <= size <= factorial(d - 2):
        raise InvariantViolationError(
            f"count {size} outside [0, (d-2)!] for d={d}"
        )
    sizes = value_classes(spec).sizes
    _monic_centered(d, size, sizes)
    _conjugacy(size, sizes)
    return FiberReport(
        d=d,
        s_d=size,
        kappa_sizes=sizes,
        lattice_partitions=partitions,
        zero_sum_subsets=zero_sum,
    )
