"""Fiber counts: hand fixtures, route agreement, invariants, regressions."""

import os
import subprocess
import sys
from math import factorial
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import multfiber.counting
import multfiber.spectrum
from multfiber.counting import (
    class_gcds,
    conjugacy_count,
    factorial_weight,
    fiber_report,
    fiber_size,
    fiber_size_closed_form,
    mask_counts,
    monic_centered_count,
    refinement_weights,
)
from multfiber.exactnum import ZERO, GaussianRational
from multfiber.lattice import BlockPartition, enumerate_lattice
from multfiber.spectrum import (
    from_shifts,
    generate,
    spectrum_from_obj,
    validate,
    value_classes,
)
from reference import expansion_in_factorial_weights, subspectra_weight


def all_routes(spec, lat=None):
    lat = lat if lat is not None else enumerate_lattice(spec)
    return (
        fiber_size(spec, lat, "subspectra"),
        fiber_size(spec, lat, "refinement"),
        fiber_size_closed_form(spec, lat),
    )


def test_degree_two_and_three_are_always_one():
    for spec in [
        validate(["0", "2"]),
        validate(["3", "-1"]),
        from_shifts([1, 2, -3]),
        from_shifts([2, -1, -1]),
    ]:
        assert all_routes(spec) == (1, 1, 1)


def test_empty_lattice_gives_factorial():
    spec = from_shifts([1, 2, 3, -6])  # no proper zero-sum subsets
    lat = enumerate_lattice(spec)
    assert lat.proper == ()
    assert all_routes(spec, lat) == (2, 2, 2)


def test_hand_example_single_partition():
    spec = from_shifts([1, -1, 2, -2])
    assert all_routes(spec) == (1, 1, 1)


def test_hand_example_crossing_partitions_empty_fiber():
    spec = from_shifts([1, -1, 1, -1])
    assert all_routes(spec) == (0, 0, 0)


def test_closed_form_signed_terms_by_hand():
    # one proper partition {{1,2},{3,4}}: 3! - 3 * 1 = 3, divided by d-1 = 3
    spec = from_shifts([1, -1, 2, -2])
    assert fiber_size_closed_form(spec) == (6 - 3) // 3
    # two crossing pair-partitions: 6 - 3 - 3 = 0
    spec = from_shifts([1, -1, 1, -1])
    assert fiber_size_closed_form(spec) == 0


def test_weights_both_routes_on_hand_example():
    spec = from_shifts([1, -1, 2, -2])
    lat = enumerate_lattice(spec)
    part = BlockPartition((0b0011, 0b1100))
    assert subspectra_weight(spec, part) == 1
    assert refinement_weights(lat)[part] == 1


def test_weight_size_two_three_blocks_is_product_of_sizes_minus_one():
    # blocks of size 2 or 3 have unit subcounts, so the weight collapses
    spec = generate([2, 3, 2], seed=3, exact=True)
    lat = enumerate_lattice(spec)
    maximal = max(lat.partitions, key=lambda p: p.block_count)
    expected = 1
    for n in maximal.sizes:
        expected *= n - 1
    assert subspectra_weight(spec, maximal) == expected
    assert refinement_weights(lat)[maximal] == expected


def test_weight_of_maximal_partition_is_factorial_weight():
    spec = generate([2, 2, 4], seed=5, exact=True)
    lat = enumerate_lattice(spec)
    maximal = max(lat.partitions, key=lambda p: p.block_count)
    assert refinement_weights(lat)[maximal] == factorial_weight(maximal)


def test_weight_without_strict_refinement():
    spec = from_shifts([1, -1, 1, -1])
    lat = enumerate_lattice(spec)
    part = BlockPartition((0b0011, 0b1100))
    assert refinement_weights(lat)[part] == 1
    assert subspectra_weight(spec, part) == 1


def test_discrete_counts_on_fixtures():
    spec = validate(["0", "2", "1/2", "3/2"])
    assert monic_centered_count(spec) == 3
    assert conjugacy_count(spec) == 1
    spec = validate(["0", "2", "0", "2"])
    assert monic_centered_count(spec) == 0
    assert conjugacy_count(spec) == 0  # class gcds are 1, count is just empty
    spec = validate(["0", "2"])
    assert monic_centered_count(spec) == 1
    assert conjugacy_count(spec) == 1


def test_discrete_counts_without_size_build_no_partition(monkeypatch):
    def no_lattice(*args):
        raise AssertionError("the partition lattice was built")

    monkeypatch.setattr("multfiber.counting.enumerate_lattice", no_lattice)
    spec = from_shifts([1, -1, 2, -2, 3, -3])
    assert monic_centered_count(spec) == 35
    assert conjugacy_count(spec) == 7


def test_conjugacy_count_absent_when_class_gcd_exceeds_one():
    # class sizes (1, 2): gcd(0, 2) = 2, the guarded formula does not apply
    spec = from_shifts([2, -1, -1])
    classes = value_classes(spec)
    assert classes.sizes == (1, 2)
    assert class_gcds(classes.sizes) == (2, 1)
    assert conjugacy_count(spec) is None
    assert monic_centered_count(spec) == 1  # (3-1)*1 / 2!


def test_class_gcds_examples():
    assert class_gcds((1, 1, 1, 1)) == (1, 1, 1, 1)
    assert class_gcds((2, 2)) == (1, 1)
    assert class_gcds((2, 4)) == (1, 1)
    assert class_gcds((3, 3)) == (1, 1)
    assert class_gcds((1, 2)) == (2, 1)
    assert class_gcds((1, 2, 2)) == (2, 1, 1)


def test_route_agreement_on_generated_spectra():
    plans = [
        ([5], False),
        ([2, 2], True),
        ([2, 3], True),
        ([2, 2, 2], True),
        ([2, 2, 3], True),
        ([2, 2, 2, 2], True),
        ([2, 2, 2], False),
        ([3, 3], False),
    ]
    for seed in range(8):
        for plan, exact in plans:
            spec = generate(plan, seed=seed, exact=exact)
            a, b, c = all_routes(spec)
            assert a == b == c
            assert 0 <= a <= factorial(spec.d - 2)


def test_counts_are_permutation_invariant():
    spec = generate([2, 2, 3], seed=11, exact=True)
    order = (4, 0, 6, 2, 5, 1, 3)
    permuted = spec.permuted(order)
    assert all_routes(spec) == all_routes(permuted)
    assert monic_centered_count(spec) == monic_centered_count(permuted)
    assert conjugacy_count(spec) == conjugacy_count(permuted)


def test_mc_is_degree_minus_one_times_mp_when_defined():
    for seed in range(6):
        spec = generate([2, 2, 3], seed=seed)
        report = fiber_report(spec)
        if report.mp_count is not None:
            assert report.mc_count == (spec.d - 1) * report.mp_count


def test_count_path_computes_no_multiplier(monkeypatch):
    """Counting reads the shift vector only; multipliers are never derived."""

    def refuse(shift):
        raise AssertionError(f"multiplier computed from shift {shift}")

    monkeypatch.setattr(multfiber.spectrum, "multiplier_from_shift", refuse)
    spec = spectrum_from_obj({"mu": ["1", "-1", "2", "-2", "1+1i", "-1-1i"]})
    report = fiber_report(spec)
    assert report.kappa_sizes == (1,) * 6 and report.gw_flags == (1,) * 6
    assert monic_centered_count(spec) == report.mc_count
    assert conjugacy_count(spec) == report.mp_count


def test_fiber_report_fields():
    report = fiber_report(validate(["0", "2", "1/2", "3/2"]))
    assert report.d == 4
    assert report.s_d == 1
    assert report.e_I0 == 3
    assert report.mc_count == 3
    assert report.mp_count == 1
    assert report.kappa_sizes == (1, 1, 1, 1)
    assert report.gw_flags == (1, 1, 1, 1)
    assert set(report.engines) == {"subspectra", "refinement", "closed_form"}
    assert report.lattice_partitions == 2
    assert report.zero_sum_subsets == 2


# --- regression shapes ----------------------------------------------------------


def three_block_fixture(plan, seed):
    """Exact three-block spectrum plus its lattice and size data."""
    spec = generate(plan, seed=seed, exact=True)
    lat = enumerate_lattice(spec)
    maximal = max(lat.partitions, key=lambda p: p.block_count)
    assert maximal.block_count == len(plan)
    return spec, lat, maximal


def test_three_block_regression_formula():
    # unique maximal three-block partition: the count is
    # (d-2)! - sum of the three pair-coarsening weights + (d-1) * top weight
    for plan, seed in [([2, 2, 2], 1), ([2, 2, 3], 2), ([2, 3, 4], 3), ([3, 3, 3], 4)]:
        spec, lat, maximal = three_block_fixture(plan, seed)
        d = spec.d
        sizes = maximal.sizes
        top = factorial_weight(maximal)
        pair_weights = [
            factorial(s - 1) * factorial(d - s - 1) for s in sizes
        ]
        expected = factorial(d - 2) - sum(pair_weights) + (d - 1) * top
        assert all_routes(spec, lat) == (expected, expected, expected)


def test_three_block_symbolic_coefficients():
    spec, lat, maximal = three_block_fixture([2, 2, 3], 5)
    d = spec.d
    coeffs = expansion_in_factorial_weights(lat)
    assert coeffs[maximal] == d - 1
    for part in lat.proper:
        if part != maximal:
            assert coeffs[part] == -1


def test_four_block_symbolic_coefficient():
    # full 14-element lattice under a 4-block maximal partition
    for plan, seed in [([2, 2, 2, 2], 1), ([2, 2, 2, 3], 2)]:
        spec, lat, maximal = three_block_fixture(plan, seed)
        assert len(lat.proper) == 14
        d = spec.d
        coeffs = expansion_in_factorial_weights(lat)
        assert coeffs[maximal] == -((d - 1) ** 2)


# i, -i, 1, -1, 1+i, -1-i: zero-sum pairs and crossing triples
GAUSSIAN_RICH = ["0+1i", "0-1i", "1", "-1", "1+1i", "-1-1i"]
# 1 and -1 three times each: many blocks with equal shift multisets
REPEATED = [1, 1, 1, -1, -1, -1, 2, -2]


def test_symbolic_expansion_reproduces_count_numerically():
    specs = [
        generate(plan, seed=seed, exact=exact)
        for plan, seed, exact in [([2, 2, 2], 3, True), ([2, 2, 2, 2], 4, True), ([2, 2], 5, False)]
    ]
    specs += [from_shifts(shifts) for shifts in (GAUSSIAN_RICH, REPEATED)]
    for spec in specs:
        lat = enumerate_lattice(spec)
        coeffs = expansion_in_factorial_weights(lat)
        total = factorial(spec.d - 2) + sum(
            c * factorial_weight(p) for p, c in coeffs.items()
        )
        assert total == fiber_size_closed_form(spec, lat)


def test_rich_lattice_stress_values():
    # hand-derived via the signed sum: for (1,-1,2,-2,3,-3) the lattice is
    # {12|34|56}, three pair+quad splits, {136|245}; sum = 120 - 90 - 20 + 25
    spec = from_shifts([1, -1, 2, -2, 3, -3])
    assert all_routes(spec) == (7, 7, 7)
    assert monic_centered_count(spec) == 35
    # (1,1,-2,2,2,-4): lattice {123|456}, {34|1256}, {35|1246};
    # sum = 120 - 5*(4+6+6) = 40
    spec = from_shifts([1, 1, -2, 2, 2, -4])
    assert all_routes(spec) == (8, 8, 8)
    assert monic_centered_count(spec) == 10
    assert conjugacy_count(spec) == 2
    # alternating +-1 spectra have empty fibers at every even degree tried
    for pairs in range(2, 6):
        spec = from_shifts([1, -1] * pairs)
        assert all_routes(spec) == (0, 0, 0)


def test_counts_with_gaussian_shifts():
    # shifts (i, -i, 2, -2): one pair partition, all multipliers distinct
    spec = from_shifts(["0+1i", "0-1i", "2", "-2"])
    assert [str(v) for v in spec.lam] == ["1+1i", "1-1i", "1/2", "3/2"]
    assert all_routes(spec) == (1, 1, 1)
    assert monic_centered_count(spec) == 3
    assert conjugacy_count(spec) == 1
    # shifts (i, -i, i, -i): crossing pair partitions, empty fiber
    spec = from_shifts(["0+1i", "0-1i", "0+1i", "0-1i"])
    assert value_classes(spec).sizes == (2, 2)
    assert all_routes(spec) == (0, 0, 0)
    assert monic_centered_count(spec) == 0


def test_refinement_weights_whole_table_consistent():
    for spec in [
        generate([2, 2, 2], seed=9, exact=True),
        from_shifts([1, -1, 2, -2, 1, -1, 2, -2]),  # rich: +-1 and +-2 twice
        from_shifts(GAUSSIAN_RICH),
        from_shifts(REPEATED),
    ]:
        lat = enumerate_lattice(spec)
        table = refinement_weights(lat)
        assert set(table) == set(lat.proper)
        for part, value in table.items():
            assert value == subspectra_weight(spec, part)


# --- the mask pass against the partition references -------------------------------

# small integer shifts make rich lattices; a few carry an imaginary part
shift_values = st.builds(
    GaussianRational, st.integers(-3, 3), st.integers(-1, 1)
).filter(bool)


@st.composite
def small_spectra(draw):
    head = draw(st.lists(shift_values, min_size=1, max_size=9))
    last = -sum(head, ZERO)
    assume(last)
    return from_shifts(head + [last])


@settings(max_examples=60, deadline=None)
@given(small_spectra())
def test_fiber_report_matches_partition_references(spec):
    lat = enumerate_lattice(spec)
    report = fiber_report(spec)
    by_engine = mask_counts(spec)[0]
    assert by_engine == {
        "subspectra": fiber_size(spec, lat, "subspectra"),
        "refinement": fiber_size(spec, lat, "refinement"),
        "closed_form": fiber_size_closed_form(spec, lat),
    }
    assert report.engines == by_engine
    assert report.lattice_partitions == len(lat.partitions)
    assert report.zero_sum_subsets == lat.zero_sum_count


def test_fiber_report_builds_no_partition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fiber_report built a partition")

    monkeypatch.setattr(BlockPartition, "__post_init__", refuse)
    monkeypatch.setattr(multfiber.counting, "enumerate_lattice", refuse)
    report = fiber_report(from_shifts([1, -1, 2, -2, 3, -3]))
    assert report.s_d == 7
    assert report.lattice_partitions == 6


def test_counting_does_not_load_numpy():
    src = Path(multfiber.counting.__file__).resolve().parents[1]
    script = (
        "import sys, multfiber\n"
        "multfiber.fiber_report(multfiber.from_shifts([1, -1, 2, -2]))\n"
        "assert 'numpy' not in sys.modules, 'counting loaded numpy'\n"
        "assert callable(multfiber.verify_spectrum)\n"
        "assert 'numpy' in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
