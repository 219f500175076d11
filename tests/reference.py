"""Slow references that the tests hold faster production paths to.

``multfiber.polyfam`` computes each coarsening sum by a recurrence over the
subsets of the blocks and never lists a partition.  The listing kept here,
Bell(l) partitions cached per l, is what the tests check that recurrence
against.

``multfiber.lattice.zero_sum_subsets`` joins the subset sums of two index
halves.  The scan kept here builds the exact sums of all 2^d subsets.

Only the tests evaluate the rest: the sub-spectrum weight of one lattice
partition, the count's expansion in factorial weights over the refinement
walk of ``multfiber.counting``, and the restriction identity of
``multfiber.polyfam.coarsening_sum``.
"""

from functools import lru_cache
from math import lcm, prod

from multfiber.counting import _refinement_span, fiber_size, rising_span
from multfiber.errors import DimensionCapError
from multfiber.lattice import BlockPartition, Lattice
from multfiber.polyfam import coarsening_sum

MAX_LISTED_BLOCKS = 11  # Bell(11) = 678,570 partitions: about 2 s to list


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
    denom = 1
    for m in spec.mu:
        denom = lcm(denom, m.re.denominator, m.im.denominator)
    ims = [int(m.im * denom) for m in spec.mu]
    k = 2 * sum(map(abs, ims)) + 1
    sums = [0]  # sums[mask] is the packed sum over mask
    for m, im in zip(spec.mu, ims):
        v = int(m.re * denom) * k + im
        sums += [s + v for s in sums]
    return [mask for mask in range(1, len(sums) - 1) if not sums[mask]]


def subspectra_weight(spec, part) -> int:
    """prod over blocks C of (|C|-1) * ``fiber_size`` of the sub-spectrum on C."""
    return prod((b.bit_count() - 1) * fiber_size(spec.restrict(b)) for b in part.blocks)


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
        for finer in lat.strict_refinements(part):
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
