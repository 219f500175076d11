"""Coarsening polynomials: golden table, recurrences, identities."""

import itertools
import time
import tracemalloc
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multfiber import polyfam
from multfiber.errors import DimensionCapError
from multfiber.polyfam import (
    IntPolynomial,
    coarsening_sum,
    coarsening_value,
    collapsed_poly,
    vanishing_sum,
    vanishing_sweep,
)
from reference import enumerated_coarsening_sum, restriction_identity_holds, shape_partitions

# the full l <= 5 triangle, ascending coefficients in d
GOLDEN = {
    (2, 1): (1, -1),
    (2, 2): (1,),
    (3, 1): (1, -2, 1),
    (3, 2): (3, -2),
    (3, 3): (1,),
    (4, 1): (1, -3, 3, -1),
    (4, 2): (7, -9, 3),
    (4, 3): (6, -3),
    (4, 4): (1,),
    (5, 1): (1, -4, 6, -4, 1),
    (5, 2): (15, -28, 18, -4),
    (5, 3): (25, -24, 6),
    (5, 4): (10, -4),
    (5, 5): (1,),
}


def test_golden_triangle_coefficients():
    for (l, k), coeffs in GOLDEN.items():
        assert collapsed_poly(l, k).coefficients == coeffs


def test_shape_partition_counts():
    assert len(shape_partitions(4, 2)) == 7
    for l in range(2, 7):
        assert len(shape_partitions(l, l)) == 1
        assert shape_partitions(l, 0) == []
        assert shape_partitions(l, l + 1) == []
        assert shape_partitions(l, -2) == []
    assert len(shape_partitions(5, 2)) == 15
    with pytest.raises(ValueError):
        shape_partitions(1, 1)


def test_shape_partitions_cover_and_disjoint():
    for partition in shape_partitions(5, 3):
        seen = sorted(i for block in partition for i in block)
        assert seen == list(range(5))


def test_coarsening_sum_small_closed_forms():
    for x1 in range(-3, 4):
        for x2 in range(-3, 4):
            assert coarsening_sum(2, 1, (x1, x2)) == -(x1 + x2 - 1)
            assert coarsening_sum(2, 2, (x1, x2)) == 1


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 8).flatmap(
        lambda l: st.tuples(
            st.just(l),
            st.integers(-1, l + 1),
            st.lists(st.integers(-6, 6), min_size=l, max_size=l),
        )
    )
)
@example((3, 2, [0, 0, 0]))
@example((8, 3, [2, 2, 0, -6, 6, 2, 0, 2]))
@example((8, 8, [1] * 8))
def test_coarsening_sum_matches_enumeration(case):
    l, k, xs = case
    assert coarsening_sum(l, k, xs) == enumerated_coarsening_sum(l, k, xs)


@pytest.mark.parametrize(
    "l, k, xs",
    [(1, 1, (3,)), (0, 0, ()), (1, 0, (2,)), (-1, 1, ()), (3, 2, (1, 2)), (2, 1, (1, 2, 3))],
)
def test_coarsening_sum_errors_match_enumeration(l, k, xs):
    got = _outcome(coarsening_sum, l, k, xs)
    assert got == _outcome(enumerated_coarsening_sum, l, k, xs)
    assert got[0] == "ValueError"


def test_coarsening_sum_four_two_matches_quadratic():
    for sizes in [(1, 1, 1, 1), (2, 2, 2, 2), (2, 3, 1, 4), (5, 2, 2, 2)]:
        d = sum(sizes)
        assert coarsening_sum(4, 2, sizes) == 3 * d * d - 9 * d + 7


@settings(max_examples=60)
@given(
    st.integers(2, 6),
    st.integers(0, 7),
    st.data(),
)
def test_coarsening_sum_is_symmetric(l, k, data):
    xs = data.draw(st.tuples(*[st.integers(-6, 9)] * l))
    shuffled = data.draw(st.permutations(xs))
    assert coarsening_sum(l, k, xs) == coarsening_sum(l, k, tuple(shuffled))


@settings(max_examples=60)
@given(st.integers(2, 6), st.integers(-1, 8), st.data())
def test_collapse_to_one_variable(l, k, data):
    xs = data.draw(st.tuples(*[st.integers(-6, 9)] * l))
    assert coarsening_sum(l, k, xs) == collapsed_poly(l, k)(sum(xs))


def test_value_recurrence_sample():
    for l in range(2, 8):
        for k in range(-1, l + 3):
            for d in (2, 5, 17, 30):
                assert coarsening_value(l + 1, k, d) == coarsening_value(
                    l, k - 1, d
                ) - (d - k) * coarsening_value(l, k, d)


def test_degree_law_and_leading_sign():
    for l in range(2, 9):
        for k in range(1, l + 1):
            poly = collapsed_poly(l, k)
            assert poly.degree == l - k
            lead = poly.coefficients[-1]
            assert (lead > 0) == ((l - k) % 2 == 0)
        assert collapsed_poly(l, 0).is_zero
        assert collapsed_poly(l, l + 1).is_zero


def test_edge_rows():
    for l in range(2, 8):
        assert collapsed_poly(l, l).coefficients == (1,)
        # bottom row is the pure power (1-d)^(l-1)
        power = IntPolynomial(tuple((-1) ** m * comb(l - 1, m) for m in range(l)))
        assert collapsed_poly(l, 1) == power


def test_table_rows_follow_the_two_term_recurrence():
    # p(l+1, k) = p(l, k-1) - (d-k) p(l, k), coefficient by coefficient on plain
    # lists, with p(l, 0) = p(l, l+1) = 0
    table = {(l, k): list(poly.coefficients) for l, k, poly in polyfam.collapsed_table(150)}
    for l in range(2, 150):
        for k in range(1, l + 2):
            n = l + 2 - k  # coefficients of p(l+1, k), degree l+1-k
            a = table.get((l, k - 1), []) + [0] * n
            b = [0] + table.get((l, k), []) + [0] * n
            expected = [a[m] - b[m] + k * b[m + 1] for m in range(n)]
            assert table[(l + 1, k)] == expected, (l + 1, k)


def test_vanishing_identity_on_the_collapsed_side():
    # sum_k (d-1)(d-2)...(d-k+1) p(l, k)(d) = 0
    for l in range(2, 31):
        polys = [collapsed_poly(l, k) for k in range(1, l + 1)]
        for d in range(-5, 41):
            total, span = 0, 1
            for k, poly in enumerate(polys, 1):
                total += span * poly(d)
                span *= d - k
            assert total == 0, (l, d)


def test_collapse_refuses_l_above_the_table_limit():
    assert polyfam.MAX_TABLE_L == 150
    assert collapsed_poly(150, 1)(3) == (-2) ** 149
    with pytest.raises(DimensionCapError, match="table limit"):
        collapsed_poly(1100, 1)
    with pytest.raises(DimensionCapError, match="table limit"):
        coarsening_value(2000, 3, 5)


def test_vanishing_sum_examples():
    assert vanishing_sum((2, 2)) == 0
    assert vanishing_sum((2, 2, 2)) == 0
    assert vanishing_sum((3, 2, 2, 4)) == 0
    # repeated sizes: few class vectors, far past 13 distinct sizes
    assert vanishing_sum((2,) * 14) == 0
    assert vanishing_sum((2,) * 100) == 0
    assert vanishing_sum((2,) * 15 + (3,) * 15) == 0
    with pytest.raises(ValueError):
        vanishing_sum((4,))


def test_vanishing_sum_checks_blocks_before_huge_sizes():
    start = time.perf_counter()
    assert vanishing_sum((2, 10**6)) == 0
    assert vanishing_sum((10**6,) * 14) == 0  # one class: 120 * 17/4 = 510 states
    with pytest.raises(DimensionCapError, match="state limit"):
        vanishing_sum(tuple(range(10**6, 10**6 + 14)))
    assert time.perf_counter() - start < 1.0


def test_vanishing_sum_builds_no_partition_list():
    # one row per subset of 10 distinct sizes, where the Bell(10) partition
    # list takes about 41 MiB
    tracemalloc.start()
    try:
        assert vanishing_sum(tuple(range(2, 12))) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_vanishing_sum_sweep_small():
    for l in range(2, 6):
        for sizes in itertools.product(range(2, 5), repeat=l):
            assert vanishing_sum(sizes) == 0


@pytest.mark.parametrize("l", [20, 40, 60, 100])
def test_coarsening_sum_collapses_on_repeated_sizes(l):
    # past 13 distinct sizes: one class of l, and classes of l - 2 and 2
    for xs in [(2,) * l, (7,) * (l - 2) + (3,) * 2]:
        row = polyfam._coarsening_row(xs)
        assert row[1:] == [collapsed_poly(l, k)(sum(xs)) for k in range(1, l + 1)]
        for k in (2, l // 2):
            assert coarsening_sum(l, k, xs) == row[k]


def _states(monkeypatch, xs) -> int:
    monkeypatch.setattr(polyfam, "MAX_STATES", 0)  # every vector is refused with its charge
    with pytest.raises(DimensionCapError) as info:
        vanishing_sum(xs)
    return int(str(info.value).split()[0])


def test_state_charge_over_classes_of_equal_sizes(monkeypatch):
    for l in range(2, 14):
        assert _states(monkeypatch, tuple(range(2, l + 2))) == 3**l
    for l in (2, 14, 100):  # C(l + 2, 2) pairs u <= v, rows (l + 3)/4 times one size's
        assert _states(monkeypatch, (5,) * l) == comb(l + 2, 2) * (l + 3) // 4
    assert _states(monkeypatch, (2, 2, 3)) == 6 * 3 * 6 // 5


def test_sweep_charge_is_the_sum_of_its_vectors_charges(monkeypatch):
    for max_l, max_size in [(2, 2), (4, 3), (3, 6), (6, 4)]:
        vectors = [
            xs
            for l in range(2, max_l + 1)
            for xs in itertools.combinations_with_replacement(range(2, max_size + 1), l)
        ]
        total = sum(_states(monkeypatch, xs) for xs in vectors)
        monkeypatch.setattr(polyfam, "MAX_STATES", total - 1)
        with pytest.raises(DimensionCapError, match=f"sweep of {total} states above"):
            vanishing_sweep(max_l, max_size)
        monkeypatch.setattr(polyfam, "MAX_STATES", total)
        assert vanishing_sweep(max_l, max_size) == (len(vectors), [])


def _no_row_pass(vectors, fields):
    raise AssertionError(f"row pass over {len(vectors)} class vectors started")


@pytest.mark.parametrize(
    "refused",
    [
        lambda: vanishing_sweep(2, 1225),  # 749,700 vectors of 7 or 9 states: 6.7e6
        lambda: vanishing_sweep(15, 4),  # 3.7e6 states
        lambda: vanishing_sum(tuple(range(2, 16))),  # 3^14 = 4.8e6 states
        lambda: vanishing_sum((2,) * 287),  # one class: C(289, 2) * 290/4 = 3.02e6 states
        lambda: vanishing_sum((2, 3) * 30),  # two: C(32, 2)^2 * 63/5 = 3.1e6 states
        lambda: vanishing_sum((2,) * 2000),  # 2.0e6 vector pairs, each a row of ~670 terms
    ],
)
def test_refusals_come_before_any_row_pass(monkeypatch, refused):
    # every row pass is a fold over block_pairs
    monkeypatch.setattr(polyfam, "block_pairs", _no_row_pass)
    with pytest.raises(DimensionCapError, match="state limit 3000000"):
        refused()


# 95,384, 2.18e6 and 2.75e6 states
@pytest.mark.parametrize("max_l, max_size", [(9, 4), (14, 4), (3, 85)])
def test_sweeps_just_inside_the_state_limit_are_admitted(monkeypatch, max_l, max_size):
    seen = []
    monkeypatch.setattr(polyfam, "vanishing_sum", lambda sizes: seen.append(sizes) or 0)
    checked, failures = vanishing_sweep(max_l, max_size)
    assert checked == len(seen) == sum(comb(l + max_size - 2, l) for l in range(2, max_l + 1))
    assert failures == []


@pytest.mark.parametrize("max_l, max_size", [(2, 2), (3, 3), (5, 4), (7, 4), (4, 6), (6, 1)])
def test_sweep_checks_each_size_multiset_once(monkeypatch, max_l, max_size):
    seen = []

    def recorded(sizes):
        seen.append(sizes)
        return vanishing_sum(sizes)

    monkeypatch.setattr(polyfam, "vanishing_sum", recorded)
    checked, failures = vanishing_sweep(max_l, max_size)
    assert checked == len(seen) == sum(comb(l + max_size - 2, l) for l in range(2, max_l + 1))
    assert failures == []
    assert set(seen) == {
        tuple(sorted(v))
        for l in range(2, max_l + 1)
        for v in itertools.product(range(2, max_size + 1), repeat=l)
    }


def test_sweep_reports_each_nonzero_sum(monkeypatch):
    monkeypatch.setattr(polyfam, "vanishing_sum", lambda sizes: sizes.count(3))
    checked, failures = vanishing_sweep(3, 3)
    assert checked == 7
    assert failures == [((2, 3), 1), ((3, 3), 2), ((2, 2, 3), 1), ((2, 3, 3), 2), ((3, 3, 3), 3)]


def test_restriction_identity_examples():
    assert restriction_identity_holds(2, 2, (3, 4))
    assert restriction_identity_holds(3, 1, (2, 2, 2))
    assert restriction_identity_holds(4, 3, (1, 1, 1, 1))


@settings(max_examples=40)
@given(st.integers(2, 5), st.integers(0, 6), st.data())
def test_restriction_identity_random(l, k, data):
    xs = data.draw(st.tuples(*[st.integers(-4, 7)] * l))
    assert restriction_identity_holds(l, k, xs)


def test_int_polynomial_behavior():
    zero = IntPolynomial((0, 0))
    assert zero.is_zero and zero.degree == -1 and zero.text() == "0"
    p = IntPolynomial((7, -9, 3))
    assert p.degree == 2
    assert p(2) == 1
    assert p.text() == "3d^2-9d+7"
    assert IntPolynomial((0, 1)).text() == "d"
    assert IntPolynomial((0, -1)).text() == "-d"
    assert IntPolynomial((5,)).text("y") == "5"
    assert IntPolynomial((0, 0, -2)).text("y") == "-2y^2"
