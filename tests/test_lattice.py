"""Zero-sum subset and partition enumeration, checked against brute force.

The brute-force oracles here are deliberately independent of the
production path: subsets via itertools over exact scalar sums, partitions
via direct recursive set-partition enumeration with a per-block filter.
"""

import itertools
import time
import typing
from collections.abc import Iterator
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import multfiber.lattice
from multfiber.counting import fiber_report
from multfiber.errors import DimensionCapError
from multfiber.lattice import (
    BlockPartition,
    enumerate_lattice,
    mask_indices,
    zero_sum_subsets,
    zero_sum_vectors,
)
from multfiber.spectrum import from_shifts, generate
from reference import (
    ZERO,
    GaussianRational,
    as_gaussian,
    cover_lattice,
    doubling_zero_sum_subsets,
    inner_block_count,
    refines,
    shape_partitions,
    strict_refinements,
)


def brute_zero_sum_subsets(spec):
    d, mu = spec.d, [as_gaussian(m) for m in spec.mu]
    hits = []
    for r in range(1, d):
        for combo in itertools.combinations(range(d), r):
            total = ZERO
            for i in combo:
                total = total + mu[i]
            if total == ZERO:
                hits.append(sum(1 << i for i in combo))
    return sorted(hits)


def brute_partitions(spec):
    """All partitions of the index set whose blocks each sum to zero."""
    d, mu = spec.d, [as_gaussian(m) for m in spec.mu]
    results = []
    blocks = []

    def block_sum_ok(block):
        total = ZERO
        for i in block:
            total = total + mu[i]
        return total == ZERO

    def place(i):
        if i == d:
            if all(block_sum_ok(b) for b in blocks):
                results.append(
                    BlockPartition(tuple(sum(1 << j for j in b) for b in blocks))
                )
            return
        for b in blocks:
            b.append(i)
            place(i + 1)
            b.pop()
        blocks.append([i])
        place(i + 1)
        blocks.pop()

    place(0)
    return sorted(results, key=lambda p: (p.block_count, p.blocks))


def test_zero_sum_subsets_examples():
    assert zero_sum_subsets(from_shifts([1, -1, 2, -2])) == [0b0011, 0b1100]
    assert sorted(zero_sum_subsets(from_shifts([1, -1, 1, -1]))) == [
        0b0011,
        0b0110,
        0b1001,
        0b1100,
    ]
    assert zero_sum_subsets(from_shifts([5, -5])) == []


def test_zero_sum_subsets_match_brute_force():
    cases = [
        from_shifts([1, -1, 2, -2]),
        from_shifts([1, -1, 1, -1]),
        from_shifts([1, 2, 3, -6]),
        from_shifts(["1/2", "-1/2", "1/3", "2/3", "-1"]),
        generate([2, 2, 2], seed=1),
        generate([3, 3], seed=2),
        generate([2, 3, 2], seed=5),
        # Gaussian: re and im parts must vanish together
        from_shifts(["1-1i", "-1+1i", "2", "-2"]),
        from_shifts(["1+1i", "1-1i", "-2", "1i", "-1i"]),
        from_shifts(["1/2+1/3i", "-1/2", "-1/3i", "1+1i", "-1-1i"]),
        from_shifts(["1i", "-1i", "2i", "-2i", "1", "-1"]),
    ]
    for spec in cases:
        # ascending order is part of the contract: each mask follows its subsets
        assert zero_sum_subsets(spec) == brute_zero_sum_subsets(spec)


# small real and imaginary parts repeat often, so lattices are rich
scan_part = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3]))
scan_shift = st.builds(GaussianRational, scan_part, scan_part | st.just(0)).filter(bool)


@st.composite
def scan_spectra(draw):
    """d <= 16 in shuffled order: each shift with its negative, or any closed by the last."""
    if draw(st.booleans()):
        half = draw(st.lists(scan_shift, min_size=1, max_size=8))
        shifts = half + [-v for v in half]
    else:
        shifts = draw(st.lists(scan_shift, min_size=1, max_size=15))
        last = -sum(shifts, ZERO)
        assume(last)
        shifts.append(last)
    return from_shifts([m.parts() for m in draw(st.permutations(shifts))])


@settings(max_examples=150, deadline=None)
@given(scan_spectra())
@example(from_shifts([1, -1]))  # d = 2: the low half holds one index
@example(from_shifts([1, 2, -3]))  # d = 3: the halves differ in size
@example(from_shifts(["1+1i", "-1", "-1i"]))
def test_zero_sum_subsets_match_doubling_scan(spec):
    assert zero_sum_subsets(spec) == doubling_zero_sum_subsets(spec)


def test_zero_sum_subsets_have_size_at_least_two():
    for seed in range(5):
        spec = generate([2, 2, 3], seed=seed)
        assert all(m.bit_count() >= 2 for m in zero_sum_subsets(spec))


def test_dimension_cap(monkeypatch):
    # the scan takes any d up to 38, with no override
    assert zero_sum_subsets(from_shifts([1] * 16 + [-16])) == []
    with pytest.raises(DimensionCapError):
        zero_sum_subsets(from_shifts([1] * 38 + [-38]))
    # distinct powers of two: all 2^19 sums of each half differ
    report = fiber_report(from_shifts([2**i for i in range(37)] + [1 - 2**37]))
    assert (report.zero_sum_subsets, report.s_d) == (0, factorial(36))
    # +-1 at d=30 has two classes and 16 class vectors, so it counts at once;
    # its C(30, 15) - 2 zero-sum subsets are refused from the half-sum
    # buckets before the join builds a mask (over 1 GB), and its lattice
    # from P before the scan
    def no_masks(*args):
        raise AssertionError("a mask was built")

    spec = from_shifts([1, -1] * 15)
    start = time.perf_counter()
    report = fiber_report(spec)
    assert (report.s_d, report.lattice_partitions, report.zero_sum_subsets) == (
        0,
        2527342803112928081,
        155117518,
    )
    with monkeypatch.context() as patch:
        patch.setattr(multfiber.lattice, "compress", no_masks)
        with pytest.raises(DimensionCapError, match="155117518 zero-sum class vectors"):
            zero_sum_subsets(spec)
    with monkeypatch.context() as patch:
        patch.setattr(multfiber.lattice, "zero_sum_subsets", no_masks)
        with pytest.raises(DimensionCapError, match="2527342803112928081 partitions"):
            enumerate_lattice(spec)
    assert time.perf_counter() - start < 1
    # distinct +-1..+-10 at d=20 has about 1.45e8 block pairs: refused before the work
    spec = from_shifts([s * i for i in range(1, 11) for s in (1, -1)])
    for run in (fiber_report, enumerate_lattice):
        start = time.perf_counter()
        with pytest.raises(DimensionCapError, match="144966601 block pairs"):
            run(spec)
        assert time.perf_counter() - start < 1
    # the lattice builds at most MAX_PARTITIONS partitions; +-1 at d=8 has
    # P = 131, counted without building one
    spec = from_shifts([1, -1] * 4)
    assert fiber_report(spec).lattice_partitions == 131
    monkeypatch.setattr(multfiber.lattice, "MAX_PARTITIONS", 131)
    assert len(enumerate_lattice(spec).partitions) == 131
    monkeypatch.setattr(multfiber.lattice, "MAX_PARTITIONS", 130)

    def refuse(*args, **kwargs):
        raise AssertionError("a partition was built past the limit")

    monkeypatch.setattr(BlockPartition, "__init__", refuse)
    with pytest.raises(DimensionCapError, match="131 partitions"):
        enumerate_lattice(spec)
    # with distinct shifts the fold over the masks counts P itself:
    # +-1..+-4 has P = 22, refused with BlockPartition still patched out
    spec = from_shifts([s * i for i in range(1, 5) for s in (1, -1)])
    assert fiber_report(spec).lattice_partitions == 22
    monkeypatch.setattr(multfiber.lattice, "MAX_PARTITIONS", 21)
    with pytest.raises(DimensionCapError, match="22 partitions above the partition limit 21"):
        enumerate_lattice(spec)


def test_zero_sum_vectors_lay_out_the_classes_largest_first():
    # -1 x3 owns bits 0-2 (its field), then 2 and 1 a bit each, in the given
    # order; 2 - 1 - 1 and 1 - 1 vanish, each in C(3, v) ways
    expected = ([0b01011, 0b10001, 0b11111], [0b111], 6)
    assert zero_sum_vectors([(2, 1), (-1, 3), (1, 1)]) == expected
    assert zero_sum_vectors([(-1, 3), (2, 1), (1, 1)]) == expected


def test_unfold_type_hints_resolve():
    hints = typing.get_type_hints(multfiber.lattice._unfold)
    assert hints["pairs"] == dict[int, list]
    assert hints["return"] == Iterator[tuple[int, ...]]


def test_enumerate_lattice_examples():
    lat = enumerate_lattice(from_shifts([1, -1, 2, -2]))
    assert lat.trivial.blocks == (0b1111,)
    assert [p.index_lists() for p in lat.proper] == [[[1, 2], [3, 4]]]

    lat = enumerate_lattice(from_shifts([1, -1, 1, -1]))
    proper = {p.blocks for p in lat.proper}
    assert proper == {(0b0011, 0b1100), (0b1001, 0b0110)}
    # {{1,2},{2,3}} overlaps; exact cover can never produce it

    for spec in [from_shifts([1, -1]), from_shifts([1, 2, -3])]:
        assert enumerate_lattice(spec).proper == ()


def test_lattice_matches_brute_force():
    cases = [
        from_shifts([1, -1, 2, -2]),
        from_shifts([1, -1, 1, -1]),
        from_shifts([1, -1, 2, -1, -1]),
        generate([2, 2, 2], seed=7),
        generate([2, 2, 3], seed=9),
        generate([7], seed=11),
    ]
    for spec in cases:
        lat = enumerate_lattice(spec)
        assert list(lat.partitions) == brute_partitions(spec)
        assert lat == cover_lattice(spec)


@st.composite
def lattice_spectra(draw):
    """d <= 10 from small integers, closed by the last: distinct shifts, or repeats."""
    if draw(st.booleans()):
        shifts = draw(st.lists(st.integers(-6, 6).filter(bool), min_size=1, max_size=9, unique=True))
        assume(-sum(shifts) not in shifts)
    else:
        shifts = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=1, max_size=9))
    shifts.append(-sum(shifts))
    assume(shifts[-1])
    return from_shifts(draw(st.permutations(shifts)))


@settings(max_examples=150, deadline=None)
@given(lattice_spectra())
@example(from_shifts([1, -1, 2, -2, 3, -3, 4, -4, 5, -5]))  # distinct, P = 107
@example(from_shifts([1, -1] * 5))  # two classes of five, P = 1,496
def test_lattice_matches_cover_search(spec):
    lat = enumerate_lattice(spec)
    assert lat == cover_lattice(spec)
    assert len(lat.partitions) == fiber_report(spec).lattice_partitions


def test_every_partition_block_sums_to_zero():
    spec = generate([2, 2, 2], seed=13)
    mu = [as_gaussian(m) for m in spec.mu]
    for part in enumerate_lattice(spec).partitions:
        for block in part.blocks:
            total = ZERO
            for i in mask_indices(block):
                total = total + mu[i]
            assert total == ZERO


def test_refines_basics():
    trivial = BlockPartition((0b1111,))
    split = BlockPartition((0b0011, 0b1100))
    cross = BlockPartition((0b1001, 0b0110))
    assert refines(trivial, split)
    assert refines(trivial, trivial)  # reflexive
    assert refines(split, split)
    assert not refines(split, cross)
    assert not refines(cross, split)
    with pytest.raises(ValueError):
        refines(split, BlockPartition((0b011, 0b100)))


def test_inner_block_count():
    fine = BlockPartition((0b0001, 0b0010, 0b0100, 0b1000))
    assert inner_block_count(0b1111, fine) == 4
    assert inner_block_count(0b0001, fine) == 1
    assert inner_block_count(0b1110, fine) == 3
    # the per-block counts always total the fine partition's block count
    coarse = BlockPartition((0b0011, 0b1100))
    assert sum(inner_block_count(b, fine) for b in coarse.blocks) == 4


def test_lattice_permutation_equivariance():
    spec = generate([2, 2, 2], seed=17)
    perm = (3, 5, 0, 2, 4, 1)
    permuted = spec.permuted(perm)

    def relabel(part):
        # index i of the permuted spectrum carries mu[perm[i]]
        inverse = [0] * len(perm)
        for new, old in enumerate(perm):
            inverse[old] = new
        return BlockPartition(
            tuple(
                sum(1 << inverse[i] for i in mask_indices(b)) for b in part.blocks
            )
        )

    expected = sorted(
        (relabel(p) for p in enumerate_lattice(spec).partitions),
        key=lambda p: (p.block_count, p.blocks),
    )
    assert list(enumerate_lattice(permuted).partitions) == expected


def test_lattice_closure_under_zero_sum_merges():
    # merging whole blocks of a member keeps sums zero, so the result
    # must be a member too
    spec = generate([2, 2, 2], seed=19)
    lat = enumerate_lattice(spec)
    members = set(lat.partitions)
    for part in lat.partitions:
        for i, j in itertools.combinations(range(part.block_count), 2):
            merged = [b for k, b in enumerate(part.blocks) if k not in (i, j)]
            merged.append(part.blocks[i] | part.blocks[j])
            assert BlockPartition(tuple(merged)) in members


def test_coarsening_counts_match_shape_partitions():
    # exact plan: the maximal partition's coarsenings are free block merges
    for plan in [[2, 2, 2], [2, 2, 3], [2, 2, 2, 2]]:
        l = len(plan)
        spec = generate(plan, seed=23, exact=True)
        lat = enumerate_lattice(spec)
        maximal = max(lat.partitions, key=lambda p: p.block_count)
        assert maximal.block_count == l
        for k in range(1, l + 1):
            members = [
                p
                for p in lat.partitions
                if p.block_count == k and refines(p, maximal)
            ]
            assert len(members) == len(shape_partitions(l, k)) if l >= 2 else 1


def test_trivial_partition_is_unique_minimum():
    spec = generate([2, 2, 3], seed=31)
    lat = enumerate_lattice(spec)
    full = (1 << spec.d) - 1
    trivials = [p for p in lat.partitions if p.blocks == (full,)]
    assert trivials == [lat.trivial]
    for part in lat.partitions:
        assert refines(lat.trivial, part)


def test_strict_refinements_iterator():
    spec = generate([2, 2, 2], seed=29, exact=True)
    lat = enumerate_lattice(spec)
    maximal = max(lat.partitions, key=lambda p: p.block_count)
    two_block = [p for p in lat.proper if p.block_count == 2]
    for p in two_block:
        assert list(strict_refinements(lat, p)) == [maximal]
    assert list(strict_refinements(lat, maximal)) == []
