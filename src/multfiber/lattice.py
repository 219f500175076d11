"""Zero-sum subset structure of a spectrum.

Index sets are bitmasks over {0,...,d-1} (bit i = index i).  A block
partition splits the full index set into disjoint blocks whose shift sums
all vanish exactly; the lattice collects every such partition, including
the trivial one-block partition, ordered by refinement.

Whether a set is zero-sum depends only on its class vector: how many
indices it takes from each class of equal shifts.  A meet-in-the-middle
scan sums the class vectors of each half of the classes exactly (the
shifts are integers over one denominator) and decodes only the vectors
whose halves cancel: with distinct shifts, 2 * 2^ceil(d/2) sums, not 2^d.
``zero_sum_join`` counts those vectors per high-half sum,
``zero_sum_vectors`` decodes them from those counts, and
``zero_sum_subsets`` is the scan with each index its own class.  One
pair step, ``block_pairs``, joins a set's block through its lowest index
to a partition of the rest; the lattice folds it over the zero-sum masks,
counting each mask's partitions, then unfolds the full mask, each
partition once and in canonical block order.  ``MAX_SCAN_DEGREE`` bounds
the scan, ``MAX_PAIR_WORK`` the pairs ``block_pairs`` tries and
``MAX_PARTITIONS`` the partitions the lattice builds, each refused from a
count made before the work: of the zero-sum vectors, then of the pairs per
lowest bit; of the partitions, P from ``fiber_report`` before the scan when
a shift repeats, then the fold's.  Results are immutable and shareable.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Iterator
from itertools import accumulate, compress, repeat
from math import comb, isqrt
from operator import itemgetter, mul

from .errors import DimensionCapError
from .frozen import Frozen

MAX_SCAN_DEGREE = 38  # each half at most 3 * 2^19 sums: under 1 s and 200 MB
MAX_PAIR_WORK = 10**8  # pairs: about 10 s of counting at 100 ns each
MAX_PARTITIONS = 10**6  # partitions the lattice builds: about 3.5 s and 210 MB


def mask_indices(mask: int) -> tuple[int, ...]:
    """0-based indices of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def subset_sums(values, sizes) -> list[int]:
    """sums[i] = sum of c_j * values[j], c_j <= sizes[j] the mixed-radix digits of i."""
    sums = [0]
    for v, m in zip(values, sizes):
        block = sums
        for _ in range(m):  # the sums with digit c = 1, ..., m
            sums += (block := [s + v for s in block])
    return sums


def packed_shifts(spec: "Spectrum") -> list[int]:
    """Each shift's integer parts as re*k + im; |any im sum| < k/2, so a sum is 0 iff both are."""
    k = 2 * sum(map(abs, spec.im)) + 1
    return [r * k + i for r, i in zip(spec.re, spec.im)]


def check_pair_floor(vectors: int, bits: int) -> None:
    """Refuse N = ``vectors`` proper zero-sum vectors on r = ``bits`` lowest bits before any pair.

    With the full vector they need r * C(floor((N+1)/r), 2) pairs or more.
    """
    work = bits * comb((vectors + 1) // bits, 2)
    if work > MAX_PAIR_WORK:
        raise DimensionCapError(
            f"{vectors} zero-sum class vectors need at least {work} block pairs, "
            f"above the pair-work limit {MAX_PAIR_WORK}"
        )


def zero_sum_join(classes) -> tuple:
    """The scan's matching stage: the sizes largest first, each half's sums, the matches, N + 2.

    Class j, a pair (value, size), is size copies of value.  The matches
    count, per high-half sum, the low halves that cancel it; their total
    counts the N proper zero-sum vectors and the empty and full ones.
    """
    values, sizes = zip(*sorted(classes, key=itemgetter(1), reverse=True))
    if sum(sizes) > MAX_SCAN_DEGREE:
        raise DimensionCapError(f"degree {sum(sizes)} above the scan limit {MAX_SCAN_DEGREE}")
    # Horowitz-Sahni: zero-sum when -(low half's sum) = high half's; low half <= root of all.
    prefix = list(accumulate([m + 1 for m in sizes], mul, initial=1))
    h = bisect_right(prefix, isqrt(prefix[-1])) - 1
    neg_low = subset_sums([-v for v in values[:h]], sizes[:h])
    high = subset_sums(values[h:], sizes[h:])
    matches = list(map(Counter(neg_low).get, high, repeat(0)))
    return sizes, neg_low, high, matches, sum(matches)


def zero_sum_vectors(classes) -> tuple[list[int], list[int], int]:
    """The nonempty zero-sum class vectors, ascending, the repeated classes' fields, and Z.

    The decoding stage of ``zero_sum_join``, after the pair floor refuses
    on its total: it reads the matched high halves from the join's counts
    and keeps the low halves with a matched sum.  Largest first (ties kept in
    order), each class owns that many bits, a field, above those before it;
    v is the mask of the first v_j bits of each class, so u <= v is
    ``u & ~v == 0``.  The full vector is last; Z sums prod C(m_j, v_j) over proper v.
    """
    sizes, neg_low, high, matches, found = zero_sum_join(classes)
    check_pair_floor(found - 2, len(sizes))
    repeated = sizes[: len(sizes) - sizes.count(1)]
    starts = list(accumulate(repeated, initial=0))  # the last is where the size-1 classes start
    fields = [((1 << m) - 1) << off for m, off in zip(repeated, starts)]
    matched = list(compress(range(len(high)), matches))
    hits = {high[j] for j in matched}
    low_by_sum: dict[int, list[int]] = {}
    for i in compress(range(len(neg_low)), map(hits.__contains__, neg_low)):
        low_by_sum.setdefault(neg_low[i], []).append(i)
    vectors, zero_sum = [], -2  # the empty and the full vector are not proper
    # Ascending high halves, each with its ascending low halves: ascending vectors.
    for j in matched:
        for i in low_by_sum[high[j]]:
            i += j * len(neg_low)
            v, ways = 0, 1
            for m, off in zip(repeated, starts):
                i, c = divmod(i, m + 1)
                v |= ((1 << c) - 1) << off
                ways *= comb(m, c)
            vectors.append(v | i << starts[-1])
            zero_sum += ways
    return vectors[1:], fields, zero_sum


def zero_sum_subsets(spec: "Spectrum") -> list[int]:
    """All proper nonempty index sets with exactly vanishing shift sum, ascending.

    The scan with each index its own class.  Every subset has size >= 2,
    because single shifts are nonzero, and follows all of its subsets.
    """
    return zero_sum_vectors(zip(packed_shifts(spec), repeat(1)))[0][:-1]


def group_by_low_bit(masks: list[int]) -> dict[int, list[int]]:
    """Masks keyed by their lowest set bit, each list in the given order.

    ``block_pairs`` joins only masks (or vectors) that share their lowest
    bit, so it tries at most W = sum of C(len(group), 2) pairs; W above
    ``MAX_PAIR_WORK`` raises ``DimensionCapError``.
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


def block_pairs(vectors: list[int], fields: list[int]) -> Iterator[tuple[int, list]]:
    """Each class vector v, ascending, with its proper blocks u through its fixed index.

    Masks as ``zero_sum_vectors`` builds them; ``fields`` are the repeated
    classes' bits, and the fixed index is v's lowest bit, in class i.  Each
    block is (u, rest, ways): rest is v ^ u with each field's bits moved down,
    ways = C(v_i - 1, u_i - 1) * prod_{j != i} C(v_j, u_j) (Stanley, EC2 5.1).
    ``fiber_report`` folds it over the zero-sum vectors, ``polyfam`` over all,
    and ``enumerate_lattice`` over the zero-sum masks with no fields.
    """
    by_low = group_by_low_bit(vectors)
    for v in vectors:
        low, outside, pairs = v & -v, ~v, []
        for u in by_low[low]:
            if u >= v:
                break
            if u & outside:
                continue
            rest, ways = v ^ u, 1
            for field in fields:
                if f := rest & field:
                    t = (u & field).bit_count()
                    rest ^= f ^ (f >> t)
                    fixed = bool(low & field)  # the fixed index is in this class
                    ways *= comb(t + f.bit_count() - fixed, t - fixed)
            pairs.append((u, rest, ways))
        yield v, pairs


class BlockPartition(Frozen):
    """Disjoint blocks covering a ground set, canonically ordered.

    Blocks are stored sorted by smallest element, so structural equality
    and hashing are well defined.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[int, ...]):
        blocks = tuple(blocks)
        union = total = 0
        for b in blocks:
            if b <= 0:
                raise ValueError("empty block in partition")
            union |= b
            total += b.bit_count()
        if total != union.bit_count():
            raise ValueError("overlapping blocks in partition")
        super().__init__(tuple(sorted(blocks, key=lambda b: b & -b)))

    @classmethod
    def _unchecked(cls, blocks: tuple[int, ...]) -> "BlockPartition":
        """Blocks known nonempty, disjoint and in canonical order, as the unfold gives them."""
        part = object.__new__(cls)
        object.__setattr__(part, "blocks", blocks)
        return part

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


def _unfold(pairs: dict[int, list], v: int, head=()) -> Iterator[tuple[int, ...]]:
    """``head`` followed by each partition of v, once, in canonical block order:
    v whole, then each block u through v's lowest index with each partition of the rest."""
    yield (*head, v)
    for u, rest, _ in pairs[v]:
        yield from _unfold(pairs, rest, (*head, u))


def _check_partitions(count: int) -> None:
    if count > MAX_PARTITIONS:
        raise DimensionCapError(f"{count} partitions above the partition limit {MAX_PARTITIONS}")


def enumerate_lattice(spec: "Spectrum") -> Lattice:
    """Enumerate every partition of the index set into zero-sum blocks."""
    from .counting import fiber_report  # counting and spectrum build on this module
    from .spectrum import value_classes
    d = spec.d
    # Repeated shifts multiply the partitions, not the class vectors: count P first.
    # With distinct shifts that pass would repeat the fold below.
    if len(value_classes(spec).classes) < d:
        _check_partitions(fiber_report(spec).lattice_partitions)
    subsets = zero_sum_subsets(spec)
    full = (1 << d) - 1
    pairs, counts = {}, {}  # each mask's (u, rest, 1) and its partition count
    for v, blocks in block_pairs(subsets + [full], []):  # whole set sums to zero
        pairs[v] = blocks
        counts[v] = 1 + sum([counts[rest] for _, rest, _ in blocks])
    _check_partitions(counts[full])
    ordered = sorted(_unfold(pairs, full), key=lambda blocks: (len(blocks), blocks))
    return Lattice(d, tuple(map(BlockPartition._unchecked, ordered)), len(subsets))
