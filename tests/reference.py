"""Slow references that the tests hold faster production paths to.

``multfiber.polyfam`` computes each coarsening sum by a recurrence over the
subsets of the blocks and never lists a partition.  The listing kept here,
Bell(l) partitions cached per l, is what the tests check that recurrence
against.

``multfiber.lattice.zero_sum_subsets`` joins the subset sums of two index
halves.  The scan kept here builds the exact sums of all 2^d subsets.
"""

from functools import lru_cache
from math import lcm

from multfiber.errors import DimensionCapError

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
