"""Fiber counts over a multiplier spectrum.

The central quantity is the fiber cardinality *counted with multiplicity*
of the map sending a conjugacy class of degree-d polynomials to its
unordered multiplier collection.  The paper gives it by two formulas, each
a sum over the partitions of the index set into zero-sum blocks:

* the recursion over sub-spectra: (d-2)! minus, per proper partition,
  rising-span factors times the product over blocks C of
  w(C) = (|C|-1) times the count of the sub-spectrum restricted to C;
* the closed form, a single signed sum with no recursion:
  (d-1) * count = sum over partitions of {-(d-1)}^{#blocks - 1} times the
  product of (block size - 1)!.

``fiber_report`` is the pass: it evaluates both in one bottom-up pass over
the zero-sum class vectors, one row per vector and no partition, and
checks that they agree.  The closed form uses block sizes only, never a
recursive weight, so the agreement is an independent check.

``fiber_size`` (under either route name) and ``fiber_size_closed_form``
return the report's checked count.  Their ``lat`` argument, like that of
the discrete counts, is unused; it stays so that callers that pass the
later arguments by position keep working.  The same pass over index masks
and the partition-lattice routes live in the tests as the references.

Disagreement or a failed exact division is an internal error, never bad
input.  From the multiplicity count the two discrete counts follow: the
monic-centered count always, the conjugacy-class count only when every
class gcd is 1 (the remaining case needs machinery that is out of scope,
so it is reported as absent).

Everything here is a pure function of its arguments on
arbitrary-precision integers, so concurrent evaluation is safe.
"""

from __future__ import annotations

from math import factorial, gcd

from .errors import (
    DivisibilityError,
    EngineDisagreementError,
    InvariantViolationError,
)
from .frozen import Frozen
from .lattice import Lattice, block_pairs, packed_shifts, zero_sum_vectors
from .spectrum import Spectrum, ValueClasses, group_order, value_classes

ENGINES = ("subspectra", "refinement")


def rising_span(d: int, block_count: int) -> int:
    """prod_{k=d-block_count+1}^{d-2} k, empty product (=1) for 2 blocks."""
    return factorial(d - 2) // factorial(d - block_count)


def _exact_quotient(total: int, divisor: int, what: str) -> int:
    """total // divisor for a division that is exact by theory."""
    if total % divisor:
        raise DivisibilityError(f"{what} {total} not divisible by {divisor}")
    return total // divisor


# --- the checked count, by route name -------------------------------------------

def fiber_size(spec: Spectrum, lat: Lattice | None = None, engine: str = "subspectra") -> int:
    """Fiber cardinality with multiplicity, ``fiber_report(spec).s_d``; ``lat`` is unused."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    return fiber_report(spec).s_d


def fiber_size_closed_form(spec: Spectrum, lat: Lattice | None = None) -> int:
    """Fiber cardinality with multiplicity, ``fiber_report(spec).s_d``; ``lat`` is unused."""
    return fiber_report(spec).s_d


# --- discrete counts ------------------------------------------------------------

def class_gcds(sizes) -> tuple[int, ...]:
    """For each class, the gcd of all class sizes with that one reduced by 1."""
    sizes = tuple(sizes)
    return tuple(gcd(*sizes[:w], sizes[w] - 1, *sizes[w + 1 :]) for w in range(len(sizes)))


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
    ``size`` it comes from the class pass; ``lat`` is unused.
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


# --- aggregate report -------------------------------------------------------------

class FiberReport(Frozen):
    """All computed counts for one spectrum.

    Only the count, the class sizes and the two sizes are stored; every
    other count derives from them, the degree d too (the sizes sum to it),
    and ``fiber_report`` has checked each derivation before it builds the
    report.  ``class_sizes`` holds one byte per value class: a size is at
    most d <= ``lattice.MAX_SCAN_DEGREE``, and bytes take a third of the
    memory of a tuple.
    """

    __slots__ = ("s_d", "class_sizes", "lattice_partitions", "zero_sum_subsets")

    @property
    def d(self) -> int:
        return sum(self.class_sizes)

    @property
    def kappa_sizes(self) -> tuple[int, ...]:
        return tuple(self.class_sizes)

    @property
    def e_I0(self) -> int:
        return (self.d - 1) * self.s_d

    @property
    def mc_count(self) -> int:
        return _monic_centered(self.d, self.s_d, self.class_sizes)

    @property
    def mp_count(self) -> int | None:
        return _conjugacy(self.s_d, self.class_sizes)

    @property
    def engines(self) -> dict[str, int]:
        """The count by formula; ``fiber_report`` checked that they agree."""
        return dict.fromkeys(("subspectra", "closed_form"), self.s_d)

    @property
    def gw_flags(self) -> tuple[int, ...]:
        return class_gcds(self.class_sizes)


def fiber_report(spec: Spectrum) -> FiberReport:
    """Both formulas in one pass over the zero-sum class vectors, no partitions; all checked.

    A row serves every set B of one class vector v (``zero_sum_vectors``,
    one class per ``value_classes`` class): a proper partition of B is its
    block b holding a fixed index with a partition of B - b, as ``block_pairs``
    gives them.  g[k] sums prod w(C) over the k-block partitions and
    g[1] = w(B) = (|B|-1) * count; the signed sum is
    F(B) = (|B|-1)! - (d-1) * sum_b (|b|-1)! * F(B-b), d the full degree, and
    C(B) = 1 + sum_b C(B-b), P for the full set.  The report derives the
    discrete counts from ``s_d`` and the class sizes: the count's bounds and
    both exact divisions are checked before it is built.
    """
    d = spec.d
    classes, packed = value_classes(spec), packed_shifts(spec)
    vectors, fields, zero_sum = zero_sum_vectors([(packed[c[0]], len(c)) for c in classes.classes])
    fact = [factorial(i) for i in range(d + 1)]
    rows: dict[int, tuple[list[int], int, int]] = {}
    for v, blocks in block_pairs(vectors, fields):  # ascending: every u <= v comes first
        n = v.bit_count()
        g = [0] * (n // 2 + 1)  # blocks have size >= 2, index = block count
        signed = count = 0
        for u, rest, ways in blocks:
            wb = rows[u][0][1] * ways
            rg, rf, rc = rows[rest]
            for k in range(1, len(rg)):
                g[k + 1] += wb * rg[k]
            signed += fact[u.bit_count() - 1] * rf * ways
            count += rc * ways
        sub = fact[n - 2] - sum(rising_span(n, k) * g[k] for k in range(2, len(g)))
        g[1] = (n - 1) * sub
        rows[v] = (g, fact[n - 1] - (d - 1) * signed, 1 + count)

    # The full vector came last, so sub is its count by the recursion.
    _, signed, count = rows[vectors[-1]]
    closed = _exact_quotient(signed, d - 1, "signed lattice sum")
    if sub != closed:
        raise EngineDisagreementError(
            f"count routes disagree: recursion {sub} != closed form {closed}"
        )
    if not 0 <= sub <= fact[d - 2]:
        raise InvariantViolationError(f"count {sub} outside [0, (d-2)!] for d={d}")
    sizes = classes.sizes
    _monic_centered(d, sub, sizes)
    _conjugacy(sub, sizes)
    return FiberReport(sub, bytes(sizes), count, zero_sum)
