"""Zero-sum subset structure of a spectrum.

Index sets are bitmasks over {0,...,d-1} (bit i = index i).  A block
partition splits the full index set into disjoint blocks whose shift sums
all vanish exactly; the lattice collects every such partition, including
the trivial one-block partition, ordered by refinement.

Enumeration runs in two stages.  A meet-in-the-middle scan builds the exact
integer sums of the subsets of each index half by list doubling (a spectrum
holds its shifts as integers over one denominator) and joins the halves
whose sums cancel, so it builds at most 2 * 2^ceil(d/2) sums, not 2^d.
Then an exact-cover search assembles partitions, always extending with the
block containing the smallest uncovered index, which yields each
partition exactly once and in canonical block order.  ``MAX_SCAN_DEGREE``
bounds the scan and ``MAX_PAIR_WORK`` the block pairs that the cover search
and the counting pass try; each raises ``DimensionCapError`` before its
work.  The scan counts the zero-sum subsets Z before it builds a mask and
refuses a Z whose block pairs must pass ``MAX_PAIR_WORK``.  No spectrum
with d <= 16 reaches either limit: it has at most C(16, 8) zero-sum subsets
(Littlewood-Offord).  ``MAX_PARTITIONS`` bounds the partitions the lattice
builds (the counting pass builds none): the covers are counted first, and
past the limit ``DimensionCapError`` comes before any partition is built.
Results are immutable and shareable.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, islice, repeat
from math import comb

from .errors import DimensionCapError
from .frozen import Frozen

MAX_SCAN_DEGREE = 38  # 2 * 2^19 half sums: about 0.5 s and 100 MB
MAX_PAIR_WORK = 10**8  # block pairs: about 10 s of counting at 100 ns each
MAX_PARTITIONS = 10**6  # partitions the lattice builds: about 11 s and 300 MB


def mask_indices(mask: int) -> tuple[int, ...]:
    """0-based indices of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def subset_sums(values) -> list[int]:
    """sums[mask] is the sum of ``values`` over the bits of mask, by doubling."""
    sums = [0]
    for v in values:
        sums += [s + v for s in sums]
    return sums


def zero_sum_subsets(spec: "Spectrum") -> list[int]:
    """All proper nonempty index sets with exactly vanishing shift sum.

    Every returned subset has size >= 2, because single shifts are nonzero.
    Masks come in ascending order, so each follows all of its subsets.
    Z + 1 masks (the full one too) with at most d lowest bits need at least
    d * C(floor((Z+1)/d), 2) block pairs, so a Z past ``MAX_PAIR_WORK``
    raises ``DimensionCapError`` before any mask is built.
    """
    d = spec.d
    if d > MAX_SCAN_DEGREE:
        raise DimensionCapError(f"degree {d} above the scan limit {MAX_SCAN_DEGREE}")
    # The shifts share one denominator, so pack the integer parts as
    # re*k + im; |subset im sum| < k/2, so a packed sum is 0 exactly when
    # both parts are.
    k = 2 * sum(map(abs, spec.im)) + 1
    packed = [r * k + i for r, i in zip(spec.re, spec.im)]
    # A mask is zero-sum when its low half's negated sum equals its high
    # half's sum (Horowitz-Sahni): at most 2 * 2^ceil(d/2) sums, not 2^d.
    h = d // 2
    neg_low = subset_sums([-v for v in packed[:h]])
    high = subset_sums(packed[h:])
    buckets = Counter(neg_low)
    found = sum(map(buckets.get, high, repeat(0)))  # the empty and full masks too
    work = d * comb((found - 1) // d, 2)
    if work > MAX_PAIR_WORK:
        raise DimensionCapError(
            f"{found - 2} zero-sum subsets need at least {work} block pairs, "
            f"above the pair-work limit {MAX_PAIR_WORK}"
        )
    hits = buckets.keys() & high
    low_by_sum: dict[int, list[int]] = {}
    for i in compress(range(len(neg_low)), map(hits.__contains__, neg_low)):
        low_by_sum.setdefault(neg_low[i], []).append(i)
    # Ascending high halves, each with its ascending low halves: ascending masks.
    masks = [
        j << h | i
        for j in compress(range(len(high)), map(hits.__contains__, high))
        for i in low_by_sum[high[j]]
    ]
    return masks[1:-1]  # drop the empty and the full mask


def group_by_low_bit(masks: list[int]) -> dict[int, list[int]]:
    """Masks keyed by their lowest set bit, each list in the given order.

    The cover search and the counting pass join only masks that share their
    lowest bit, so they try at most W = sum of C(len(group), 2) pairs; W
    above ``MAX_PAIR_WORK`` raises ``DimensionCapError``.
    """
    groups: dict[int, list[int]] = {}
    for mask in masks:
        groups.setdefault(mask & -mask, []).append(mask)
    work = sum(len(g) * (len(g) - 1) // 2 for g in groups.values())
    if work > MAX_PAIR_WORK:
        raise DimensionCapError(
            f"{work} block pairs above the pair-work limit {MAX_PAIR_WORK}"
        )
    return groups


class BlockPartition(Frozen):
    """Disjoint blocks covering a ground set, canonically ordered.

    Blocks are stored sorted by smallest element, so structural equality
    and hashing are well defined.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[int, ...]):
        blocks = tuple(sorted(blocks, key=lambda b: b & -b))
        union = 0
        total = 0
        for b in blocks:
            if b <= 0:
                raise ValueError("empty block in partition")
            union |= b
            total += b.bit_count()
        if total != union.bit_count():
            raise ValueError("overlapping blocks in partition")
        super().__init__(blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(b.bit_count() for b in self.blocks)

    def index_lists(self) -> list[list[int]]:
        """Blocks as 1-based index lists (external/JSON form)."""
        return [[i + 1 for i in mask_indices(b)] for b in self.blocks]


class Lattice(Frozen):
    """All zero-sum block partitions of one spectrum: ``Lattice(d, partitions, zero_sum_count)``.

    ``partitions`` starts with the trivial one-block partition; everything
    after it is a proper partition (>= 2 blocks, each of size >= 2).
    """

    __slots__ = ("d", "partitions", "zero_sum_count")

    @property
    def trivial(self) -> BlockPartition:
        return self.partitions[0]

    @property
    def proper(self) -> tuple[BlockPartition, ...]:
        return self.partitions[1:]


def _cover_partitions(by_low: dict[int, list[int]], full: int) -> Iterator[tuple[int, ...]]:
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


def enumerate_lattice(spec: "Spectrum") -> Lattice:
    """Enumerate every partition of the index set into zero-sum blocks."""
    d = spec.d
    subsets = zero_sum_subsets(spec)
    full = (1 << d) - 1
    by_low = group_by_low_bit(subsets + [full])  # whole set sums to zero
    partitions = list(islice(_cover_partitions(by_low, full), MAX_PARTITIONS + 1))
    if len(partitions) > MAX_PARTITIONS:
        raise DimensionCapError(
            f"more than {MAX_PARTITIONS} partitions, above the partition limit"
        )
    for i, blocks in enumerate(partitions):  # in place: each cover is freed as it goes
        partitions[i] = BlockPartition(blocks)
    partitions.sort(key=lambda p: (p.block_count, p.blocks))
    return Lattice(d, tuple(partitions), len(subsets))
