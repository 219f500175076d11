"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

import pytest

import multfiber as mf
from multfiber.counting import mask_counts
from reference import expansion_in_factorial_weights


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.1f}s)")


# --- criterion 1: golden polynomial table --------------------------------------

GOLDEN_TABLE = {
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


def test_criterion_1_golden_table():
    with criterion(1, "golden coarsening-polynomial table, l <= 5"):
        start = time.perf_counter()
        for (l, k), coeffs in GOLDEN_TABLE.items():
            assert mf.collapsed_poly(l, k).coefficients == coeffs, (l, k)
        for l in range(2, 6):  # zero outside 1 <= k <= l
            for k in (-2, -1, 0, l + 1, l + 2):
                assert mf.collapsed_poly(l, k).is_zero
        assert mf.collapsed_poly(5, 2).text() == "-4d^3+18d^2-28d+15"
        assert mf.collapsed_poly(4, 2).text() == "3d^2-9d+7"
        assert time.perf_counter() - start < 1.0


# --- criterion 2: value recurrence ----------------------------------------------


def test_criterion_2_value_recurrence():
    with criterion(2, "value recurrence, 2<=l<=8, 0<=k<=l+2, 2<=d<=30"):
        start = time.perf_counter()
        failures = 0
        for l in range(2, 9):
            for k in range(0, l + 3):
                for d in range(2, 31):
                    lhs = mf.coarsening_value(l + 1, k, d)
                    rhs = mf.coarsening_value(l, k - 1, d) - (d - k) * mf.coarsening_value(l, k, d)
                    if lhs != rhs:
                        failures += 1
        assert failures == 0
        assert time.perf_counter() - start < 5.0


# --- criterion 3: vanishing identity ---------------------------------------------


def test_criterion_3_vanishing_identity():
    with criterion(3, "vanishing sum = 0 for every size vector, l<=6, sizes<=5"):
        start = time.perf_counter()
        for l in range(2, 7):
            for sizes in itertools.product(range(2, 6), repeat=l):
                assert mf.vanishing_sum(sizes) == 0, sizes
        assert time.perf_counter() - start < 60.0


# --- criterion 4: triple agreement over generated spectra ------------------------


def _duplicated_block_plan(rng, copies, size):
    """Explicit zero-sum block repeated verbatim: repeated multiplier values."""
    while True:
        head = []
        for _ in range(size - 1):
            num = rng.randint(-9, 9)
            head.append(Fraction(num if num else 1, rng.randint(1, 9)))
        last = -sum(head)
        if last:
            block = [str(v) for v in head] + [str(last)]
            return [block] * copies


def generated_spectra(count, seed0):
    """Deterministic mixed stream: empty, chain and multi-maximal lattices."""
    rng = random.Random(seed0)
    two = [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (2, 5), (4, 4), (3, 5),
           (2, 6), (5, 5), (2, 7), (3, 6), (2, 8), (4, 5), (3, 7), (4, 6)]
    three = [(2, 2, 2), (2, 2, 3), (2, 3, 3), (2, 2, 4), (3, 3, 3),
             (2, 3, 4), (2, 2, 5), (2, 2, 6), (2, 4, 4), (3, 3, 4)]
    four = [(2, 2, 2, 2), (2, 2, 2, 3), (2, 2, 3, 3), (2, 2, 2, 4),
            (2, 2, 2, 2, 2)]
    loose = [(2, 2), (2, 3), (2, 2, 2), (3, 3), (2, 2, 3), (4,), (5,),
             (2, 2, 2, 2), (2, 4), (6,), (3, 4), (2, 2, 2, 3)]
    families = []
    families += [([(i % 9) + 2], True) for i in range(count * 30 // 100)]
    families += [(list(two[i % len(two)]), True) for i in range(count * 20 // 100)]
    families += [(list(three[i % len(three)]), True) for i in range(count * 15 // 100)]
    families += [(list(four[i % len(four)]), True) for i in range(count * 8 // 100)]
    families += [("dup", False) for _ in range(count * 17 // 100)]
    while len(families) < count:
        families.append((list(loose[len(families) % len(loose)]), False))
    for i, (plan, exact) in enumerate(families[:count]):
        if plan == "dup":
            plan = _duplicated_block_plan(rng, copies=2 + i % 2, size=2 + i % 2)
        yield mf.generate(plan, seed=seed0 + i, exact=exact)


def test_criterion_4_triple_agreement_on_1000_spectra():
    with criterion(4, "triple route agreement + invariants on 1000 spectra"):
        start = time.perf_counter()
        structures = {"empty": 0, "chain": 0, "multimax": 0}
        n = 0
        for spec in generated_spectra(1000, 10_000):
            assert spec.d <= 10
            lat = mf.enumerate_lattice(spec)
            # fiber_report raises on route disagreement, broken divisibility
            # or out-of-bounds counts; restate the key invariants explicitly
            report = mf.fiber_report(spec)
            by_engine = mask_counts(spec)[0]
            assert by_engine["subspectra"] == by_engine["refinement"]
            assert by_engine["refinement"] == by_engine["closed_form"] == report.s_d
            assert 0 <= report.s_d <= factorial(spec.d - 2)
            assert report.e_I0 == (spec.d - 1) * report.s_d
            order = 1
            for size in report.kappa_sizes:
                order *= factorial(size)
            assert report.mc_count * order == (spec.d - 1) * report.s_d
            n += 1
            proper = lat.proper
            if not proper:
                structures["empty"] += 1
                continue
            if any(
                p.block_count < q.block_count and mf.refines(p, q)
                for p in proper
                for q in proper
            ):
                structures["chain"] += 1
            maximal = [
                p
                for p in proper
                if not any(
                    q.block_count > p.block_count and mf.refines(p, q)
                    for q in proper
                )
            ]
            if len(maximal) >= 2:
                structures["multimax"] += 1
        assert n >= 1000
        assert all(structures[k] > 0 for k in structures), structures
        assert time.perf_counter() - start < 120.0


# --- criterion 5: hand-derived fixtures --------------------------------------------


def test_criterion_5_hand_fixtures():
    with criterion(5, "hand-derived fixtures at d = 2, 3, 4"):
        report = mf.fiber_report(mf.validate(["0", "2", "1/2", "3/2"]))
        assert (report.s_d, report.mc_count, report.mp_count) == (1, 3, 1)
        report = mf.fiber_report(mf.validate(["0", "2", "0", "2"]))
        assert (report.s_d, report.mc_count) == (0, 0)
        for spec in [
            mf.validate(["0", "2"]),
            mf.validate(["3", "-1"]),
            mf.validate(["-1", "-1", "2"]),
            mf.from_shifts([1, 2, -3]),
            mf.from_shifts([2, -1, -1]),
        ]:
            assert mf.fiber_report(spec).s_d == 1


# --- criterion 6: regression shapes -------------------------------------------------


def test_criterion_6_regression_shapes():
    with criterion(6, "three- and four-block regression shapes"):
        # unique maximal three-block partition: closed combination of
        # factorial weights
        for plan, seed in [
            ([2, 2, 2], 1),
            ([2, 2, 3], 2),
            ([2, 3, 4], 3),
            ([3, 3, 3], 4),
            ([2, 2, 6], 5),
        ]:
            spec = mf.generate(plan, seed=seed, exact=True)
            lat = mf.enumerate_lattice(spec)
            maximal = max(lat.partitions, key=lambda p: p.block_count)
            assert maximal.block_count == 3
            assert len(lat.proper) == 4
            d = spec.d
            top = mf.factorial_weight(maximal)
            pairs = [
                factorial(s - 1) * factorial(d - s - 1) for s in maximal.sizes
            ]
            expected = factorial(d - 2) - sum(pairs) + (d - 1) * top
            assert mf.fiber_size(spec, lat, "subspectra") == expected
            assert mf.fiber_size(spec, lat, "refinement") == expected
            assert mf.fiber_size_closed_form(spec, lat) == expected
        # four-block maximal partition, full 14-element shape: the symbolic
        # coefficient of the top factorial weight is -(d-1)^2
        for plan, seed in [([2, 2, 2, 2], 6), ([2, 2, 2, 3], 7), ([2, 2, 3, 3], 8)]:
            spec = mf.generate(plan, seed=seed, exact=True)
            lat = mf.enumerate_lattice(spec)
            maximal = max(lat.partitions, key=lambda p: p.block_count)
            assert maximal.block_count == 4
            assert len(lat.proper) == 14
            coeffs = expansion_in_factorial_weights(lat)
            assert coeffs[maximal] == -((spec.d - 1) ** 2)


# --- criterion 7: numerical oracle ----------------------------------------------------


def test_criterion_7_numerical_oracle():
    with criterion(7, "numerical oracle closes the loop on desk spectra"):
        start = time.perf_counter()
        spec = mf.validate(["0", "2", "1/2", "3/2"])
        report = mf.verify_spectrum(spec)
        assert report.status == "verified"
        assert report.found_tuples == report.expected_tuples == 3
        assert report.mc_orbits == report.expected_orbits == 3
        assert report.max_multiplier_error < 1e-8
        for t in report.tuples:
            assert t.residual < 1e-10

        extra_plans = [
            ([["1", "2", "-3"]], 0),             # d=3, all multipliers distinct
            ([["2", "-1", "-1"]], 0),            # d=3, repeated pair
            ([["1", "2", "3", "-6"]], 0),        # d=4, empty lattice
            ([["1", "3", "-2", "-2"]], 0),       # d=4, classes (1,1,2)
            ([["1", "-1"], ["2", "3", "-5"]], 0),  # d=5, one proper partition
            ([2, 3], 21),                         # d=5, random targets
        ]
        for plan, seed in extra_plans:
            extra = mf.generate(plan, seed=seed)
            assert extra.d in (3, 4, 5)
            size = mf.fiber_size_closed_form(extra)
            assert size >= 1
            rep = mf.verify_spectrum(extra)
            assert rep.status == "verified", plan
            assert rep.found_tuples == (extra.d - 1) * size
            assert rep.mc_orbits == mf.monic_centered_count(extra)

        zero = mf.verify_spectrum(mf.validate(["0", "2", "0", "2"]))
        assert zero.status == "consistent"
        assert zero.found_tuples == 0
        assert zero.starts == 5000 * 3  # full budget exhausted
        assert time.perf_counter() - start < 120.0


# --- criterion 8: discrete-count consistency --------------------------------------------


def test_criterion_8_mc_equals_dminus1_times_mp():
    with criterion(8, "mc = (d-1) * mp whenever every class gcd is 1"):
        # located instances where a class gcd exceeds 1, so the discrete
        # conjugacy-class count is reported absent: class sizes (1, 2) at
        # d = 3 (gcd(0, 2) = 2) and (1, 4) at d = 5 (gcd(0, 4) = 4)
        for shifts in ([2, -1, -1], [4, -1, -1, -1, -1]):
            spec = mf.from_shifts(shifts)
            gcds = mf.class_gcds(mf.value_classes(spec).sizes)
            assert any(g >= 2 for g in gcds)
            assert mf.conjugacy_count(spec) is None
        applicable = 0
        for spec in generated_spectra(300, 50_000):
            classes = mf.value_classes(spec)
            if any(g != 1 for g in mf.class_gcds(classes.sizes)):
                assert mf.conjugacy_count(spec) is None
                continue
            mc = mf.monic_centered_count(spec)
            mp = mf.conjugacy_count(spec)
            assert mp is not None
            assert mc == (spec.d - 1) * mp
            applicable += 1
        assert applicable >= 100
