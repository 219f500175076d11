"""Zero-sum subset structure of a spectrum.

Index sets are bitmasks over {0,...,d-1} (bit i = index i, d <= 63).  A
block partition splits the full index set into disjoint blocks whose shift
sums all vanish exactly; the lattice collects every such partition,
including the trivial one-block partition, ordered by refinement.

Enumeration runs in two stages: a single 2^d scan with incremental integer
sums finds all zero-sum subsets, then an exact-cover search assembles
partitions, always extending with the block containing the smallest
uncovered index, which yields each partition exactly once and in canonical
block order.  Results are immutable and shareable; enumeration itself is
single-threaded per spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import TYPE_CHECKING, Iterator

from .errors import DimensionCapError, GroundSetMismatchError

if TYPE_CHECKING:
    from .spectrum import Spectrum

FULL_ENUM_CAP = 16  # 2^d scan stays sub-second up to here
HARD_CAP = 63  # bitmask representation limit


def mask_indices(mask: int) -> tuple[int, ...]:
    """0-based indices of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def zero_sum_subsets(spec: "Spectrum", cap: int = FULL_ENUM_CAP) -> list[int]:
    """All proper nonempty index sets with exactly vanishing shift sum.

    Every returned subset has size >= 2, because single shifts are nonzero.
    Masks come in ascending order, so each follows all of its subsets.
    """
    d = spec.d
    if d > min(cap, HARD_CAP):
        raise DimensionCapError(f"degree {d} above enumeration cap {min(cap, HARD_CAP)}")
    # Clear denominators once so the 2^d scan runs on plain integers.
    denom = 1
    for m in spec.mu:
        denom = lcm(denom, m.re.denominator, m.im.denominator)
    res = [int(m.re * denom) for m in spec.mu]
    ims = [int(m.im * denom) for m in spec.mu]

    size = 1 << d
    sum_re = [0] * size
    sum_im = [0] * size
    hits = []
    full = size - 1
    for mask in range(1, size):
        low = mask & -mask
        i = low.bit_length() - 1
        rest = mask ^ low
        sum_re[mask] = sum_re[rest] + res[i]
        sum_im[mask] = sum_im[rest] + ims[i]
        if mask != full and sum_re[mask] == 0 and sum_im[mask] == 0:
            hits.append(mask)
    return hits


@dataclass(frozen=True)
class BlockPartition:
    """Disjoint blocks covering a ground set, canonically ordered.

    Blocks are stored sorted by smallest element, so structural equality
    and hashing are well defined.
    """

    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(sorted(self.blocks, key=lambda b: b & -b))
        union = 0
        total = 0
        for b in blocks:
            if b <= 0:
                raise ValueError("empty block in partition")
            union |= b
            total += b.bit_count()
        if total != union.bit_count():
            raise ValueError("overlapping blocks in partition")
        object.__setattr__(self, "blocks", blocks)

    @property
    def ground(self) -> int:
        g = 0
        for b in self.blocks:
            g |= b
        return g

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(b.bit_count() for b in self.blocks)

    def index_lists(self) -> list[list[int]]:
        """Blocks as 1-based index lists (external/JSON form)."""
        return [[i + 1 for i in mask_indices(b)] for b in self.blocks]


def refines(coarse: BlockPartition, fine: BlockPartition) -> bool:
    """True iff every block of ``fine`` lies inside some block of ``coarse``.

    This is the lattice order with the one-block partition at the bottom;
    it is reflexive.
    """
    if coarse.ground != fine.ground:
        raise GroundSetMismatchError("partitions cover different ground sets")
    for fb in fine.blocks:
        for cb in coarse.blocks:
            if fb & cb:
                if fb & ~cb:
                    return False
                break
    return True


def inner_block_count(block_mask: int, fine: BlockPartition) -> int:
    """Number of ``fine`` blocks contained in the given block."""
    return sum(1 for b in fine.blocks if not (b & ~block_mask))


@dataclass(frozen=True)
class Lattice:
    """All zero-sum block partitions of one spectrum.

    ``partitions`` starts with the trivial one-block partition; everything
    after it is a proper partition (>= 2 blocks, each of size >= 2).
    """

    d: int
    partitions: tuple[BlockPartition, ...]
    zero_sum_count: int

    @property
    def trivial(self) -> BlockPartition:
        return self.partitions[0]

    @property
    def proper(self) -> tuple[BlockPartition, ...]:
        return self.partitions[1:]

    def __contains__(self, part: BlockPartition) -> bool:
        return part in self._members

    @cached_property
    def _members(self) -> frozenset:
        return frozenset(self.partitions)

    def strict_refinements(self, part: BlockPartition) -> Iterator[BlockPartition]:
        """Proper lattice members strictly refining ``part``."""
        for other in self.proper:
            if other.block_count > part.block_count and refines(part, other):
                yield other


def _cover_partitions(candidates: list[int], full: int) -> Iterator[tuple[int, ...]]:
    """Exact covers of ``full`` by candidate blocks, canonical order."""
    by_low: dict[int, list[int]] = {}
    for mask in candidates:
        by_low.setdefault((mask & -mask).bit_length() - 1, []).append(mask)

    chosen: list[int] = []

    def extend(covered: int):
        if covered == full:
            yield tuple(chosen)
            return
        lowest_free = (~covered & full) & -(~covered & full)
        for mask in by_low.get(lowest_free.bit_length() - 1, ()):
            if mask & covered:
                continue
            chosen.append(mask)
            yield from extend(covered | mask)
            chosen.pop()

    yield from extend(0)


def enumerate_lattice(spec: "Spectrum", cap: int = FULL_ENUM_CAP) -> Lattice:
    """Enumerate every partition of the index set into zero-sum blocks."""
    d = spec.d
    subsets = zero_sum_subsets(spec, cap)
    full = (1 << d) - 1
    candidates = subsets + [full]  # whole set sums to zero by membership
    partitions = [BlockPartition(blocks) for blocks in _cover_partitions(candidates, full)]
    partitions.sort(key=lambda p: (p.block_count, p.blocks))
    return Lattice(d=d, partitions=tuple(partitions), zero_sum_count=len(subsets))
