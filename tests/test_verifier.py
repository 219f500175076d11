"""Numerical oracle: system construction, Newton solve, orbit grouping."""

import itertools
import random
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multfiber.counting import monic_centered_count
from multfiber.errors import (
    CoincidentRootsError,
    DegreeTooSmallError,
    DimensionCapError,
    InputError,
    InternalCheckError,
    NonFreeActionError,
    SolverConfigError,
    SpuriousSolutionError,
)
from multfiber import verifier
from multfiber.spectrum import from_shifts, group_order, validate, value_classes
from multfiber.verifier import (
    RootTuple,
    SigmaSystem,
    SolverConfig,
    forward_multipliers,
    orbit_count,
    solve_system,
    verify_spectrum,
)
from reference import (
    I,
    ZERO,
    _within,
    as_gaussian,
    close_one_generator_at_a_time,
    fiber_size_closed_form,
    jacobian,
    planted_spectrum,
)

FIXTURE = ["0", "2", "1/2", "3/2"]


def test_system_shape_and_known_solution():
    # mu = (2, -1, -1): solutions are (0, b, -b) with -2 b^2 = -1
    spec = from_shifts([2, -1, -1])
    system = SigmaSystem(spec)
    b = 1.0 / np.sqrt(2.0)
    Z = np.array([[0.0, b, -b], [0.0, -b, b]], dtype=complex)
    residuals = np.abs(system.residual(Z.T)).max(axis=0)  # one column per tuple
    assert residuals.max() < 1e-14


def test_jacobian_matches_finite_differences():
    spec = validate(FIXTURE)
    system = SigmaSystem(spec)
    rng = np.random.default_rng(1)
    Z = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    J = jacobian(system, Z)
    h = 1e-7
    for j in range(4):
        bump = np.zeros(4, dtype=complex)
        bump[j] = h
        numeric = (system.residual((Z + bump).T) - system.residual((Z - bump).T)).T / (2 * h)
        assert np.abs(J[:, :, j] - numeric).max() < 1e-6


@st.composite
def step_cases(draw):
    """A spectrum at d = 3-8 with rational, Gaussian, repeated or large-|lambda|
    (about 1e6) shifts, and a seed for rows drawn at the scale of its solutions."""
    d = draw(st.integers(3, 8))
    kind = draw(st.sampled_from(["rational", "gaussian", "repeated", "large"]))
    part = st.fractions(-6, 6, max_denominator=6).filter(bool)
    if kind == "gaussian":
        head = [as_gaussian(draw(part)) + as_gaussian(draw(part)) * I for _ in range(d - 1)]
    elif kind == "repeated":
        pool = st.sampled_from([1, -1, 2, "1+1i", -3])
        head = [as_gaussian(v) for v in draw(st.lists(pool, min_size=d - 1, max_size=d - 1))]
    else:
        unit = Fraction(1, 10**6) if kind == "large" else 1
        head = [as_gaussian(draw(part) * unit) for _ in range(d - 1)]
    last = -sum(head, ZERO)
    assume(last)
    return from_shifts([m.parts() for m in head + [last]]), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(step_cases())
def test_step_solves_the_dense_jacobian_system(case):
    spec, seed = case
    system = SigmaSystem(spec)
    d, rows = spec.d, 32
    rng = np.random.default_rng(seed)
    scale = float(np.abs(system.mu).max()) ** (-1 / (d - 1))  # |mu zeta^(d-1)| near 1
    Z = scale * (rng.normal(size=(rows, d)) + 1j * rng.normal(size=(rows, d)))
    F = rng.normal(size=(d, rows)) + 1j * rng.normal(size=(d, rows))
    step = system.step(Z.T.copy(), F).T
    J = jacobian(system, Z)
    dense = np.linalg.solve(J, -F.T[:, :, None])[:, :, 0]
    tame = np.linalg.cond(J) < 1e8
    assert tame.any()
    error = np.abs(step - dense).max(axis=1) / np.abs(dense).max(axis=1)
    assert (error[tame] < 1e-9).all()


def test_step_is_not_finite_where_the_jacobian_is_singular():
    system = SigmaSystem(from_shifts([1, 2, 3, -6]))
    Z = np.array([[1, 1, 2, -4], [0.5, -0.5, 1j, -1j]], dtype=complex)  # zeta_1 = zeta_2, and not
    F = np.ones((4, 2), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        step = system.step(Z.T.copy(), F)
    assert not np.isfinite(step[:, 0]).all()
    assert np.isfinite(step[:, 1]).all()


def test_system_requires_degree_three():
    with pytest.raises(DegreeTooSmallError):
        SigmaSystem(validate(["0", "2"]))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.builds(
            lambda re, im, k: as_gaussian(re) * as_gaussian(Fraction(10) ** k) + as_gaussian(im) * I,
            st.fractions(max_denominator=50),
            st.fractions(max_denominator=50) | st.just(Fraction(0)),
            st.integers(-330, 330),
        ).filter(bool),
        min_size=1,
        max_size=5,
    )
)
def test_complex_values_are_the_rounded_exact_views(head):
    # one integer division per part rounds exactly as float() of each view part
    spec = from_shifts([m.parts() for m in head + [-sum(head, ZERO)]])
    try:
        mu = [complex(as_gaussian(m)) for m in spec.mu]
        lam = [complex(as_gaussian(v)) for v in spec.lam]
    except OverflowError:
        with pytest.raises(DimensionCapError, match="float range"):
            verifier._complex_values(spec)
        return
    got_mu, got_lam = verifier._complex_values(spec)
    assert got_mu.tolist() == mu and got_lam.tolist() == lam


def test_solver_degree_cap():
    spec = from_shifts([1, 2, 3, 4, 5, 6, -21])
    with pytest.raises(DimensionCapError):
        solve_system(spec)


def test_solve_fixture_counts_and_quality():
    spec = validate(FIXTURE)
    result = solve_system(spec)
    assert len(result.tuples) == 3
    lam = [complex(as_gaussian(v)) for v in spec.lam]
    for t in result.tuples:
        assert t.residual < 1e-10
        assert min(
            abs(a - b) for i, a in enumerate(t.zeta) for b in t.zeta[i + 1 :]
        ) > 1e-7
        mults = forward_multipliers(t.zeta)
        assert max(abs(m - l) for m, l in zip(mults, lam)) < 1e-8


def test_solutions_come_in_rotation_families():
    # scaling a solution by a (d-1)-th root of unity gives another one
    spec = validate(FIXTURE)
    result = solve_system(spec)
    zetas = [np.asarray(t.zeta) for t in result.tuples]
    omega = np.exp(2j * np.pi / 3)
    for z in zetas:
        rotated = omega * z
        assert min(np.abs(rotated - w).max() for w in zetas) < 1e-6


def test_any_degree_three_spectrum_has_two_tuples():
    for shifts in ([1, 2, -3], [2, -1, -1], ["1/2", "1/3", "-5/6"]):
        spec = from_shifts(shifts)
        result = solve_system(spec)
        assert len(result.tuples) == 2


def test_forward_multipliers_degree_two_closed_form():
    c = 0.3 + 0.7j
    mults = forward_multipliers((c, -c))
    assert abs(mults[0] - (1 + 2 * c)) < 1e-15
    assert abs(mults[1] - (1 - 2 * c)) < 1e-15


def test_forward_multipliers_rejects_coincident_roots():
    with pytest.raises(CoincidentRootsError):
        forward_multipliers((1.0, 1.0, 2.0))


def test_perturbation_degrades_multipliers():
    spec = validate(FIXTURE)
    base = np.asarray(solve_system(spec).tuples[0].zeta)
    lam = [complex(as_gaussian(v)) for v in spec.lam]
    clean = max(abs(m - l) for m, l in zip(forward_multipliers(base), lam))
    noisy_zeta = base.copy()
    noisy_zeta[0] += 1e-3  # a uniform shift would cancel in the differences
    noisy = max(
        abs(m - l) for m, l in zip(forward_multipliers(noisy_zeta), lam)
    )
    assert clean < 1e-9 < noisy


def test_orbit_count_trivial_group():
    spec = validate(FIXTURE)
    classes = value_classes(spec)
    result = solve_system(spec)
    assert orbit_count(result.tuples, classes) == 3


def test_orbit_count_groups_class_swaps():
    spec = from_shifts([2, -1, -1])  # classes (1, 2), group order 2
    classes = value_classes(spec)
    result = solve_system(spec)
    assert len(result.tuples) == 2
    assert orbit_count(result.tuples, classes) == 1


def test_orbit_count_detects_wrong_orbit_size():
    spec = from_shifts([2, -1, -1])
    classes = value_classes(spec)
    lone = RootTuple(zeta=(0.0, 0.5, -0.5), residual=0.0)
    with pytest.raises(NonFreeActionError):
        orbit_count([lone], classes)


@pytest.mark.parametrize(
    "shifts",
    [
        ["1", "1000001/1000000", "-2000001/1000000"],
        ["1", "100000001/100000000", "-200000001/100000000"],
        ["1", "1000000000001/1000000000000", "-2000000000001/1000000000000"],
        ["1", "1000000000001/1000000000000", "2", "-4000000000001/1000000000000"],
    ],
)
def test_verify_nearly_equal_shifts(shifts):
    # each tuple has a coordinate near 0, and the tuples zeta and omega * zeta
    # are two polynomials; over the whole row their coefficients of
    # prod_j (x - zeta_j) differed only below EPS_DUP, so they read as one
    spec = from_shifts(shifts)
    report = verify_spectrum(spec)
    assert report.status == "verified"
    assert report.found_tuples == report.expected_tuples
    assert report.mc_orbits == report.expected_orbits == monic_centered_count(spec)


def _nearest_subset_sum(values) -> float:
    """min |sum of a proper subset| over max |value|, among the sums not exactly zero."""
    subsets = (sub for r in range(1, len(values)) for sub in itertools.combinations(values, r))
    sums = [abs(complex(total)) for total in (sum(sub, ZERO) for sub in subsets) if total]
    return min(sums, default=np.inf) / max(abs(complex(v)) for v in values)


@st.composite
def near_equal_spectra(draw):
    """Rational or Gaussian shifts at d = 3-5, one of them repeated at a
    relative gap of 1e-14 to 9e-4; the last makes the sum zero.

    A proper subset whose sum is nearly, but not exactly, zero sends some
    tuples far out of the start disc.  That is a limit of its own, not of the
    near-equal pair, so such spectra are left out.
    """
    d = draw(st.integers(3, 5))
    part = st.fractions(-6, 6, max_denominator=4)
    head = []
    for _ in range(d - 2):
        value = as_gaussian(draw(part)) + as_gaussian(draw(part)) * I * draw(st.booleans())
        assume(value)
        head.append(value)
    gap = Fraction(draw(st.integers(-9, 9)), 10 ** draw(st.integers(4, 14)))
    assume(gap)
    head.append(draw(st.sampled_from(head)) * as_gaussian(1 + gap))
    values = head + [-sum(head, ZERO)]
    assume(values[-1] and _nearest_subset_sum(values) > 1e-2)
    return from_shifts([v.parts() for v in values])


@settings(max_examples=40, deadline=None)
@given(near_equal_spectra())
def test_nearly_equal_shifts_verify_or_are_refused(spec):
    try:
        report = verify_spectrum(spec)
    except InputError:
        return
    assert report.status == "verified"
    assert report.mc_orbits == report.expected_orbits


def test_accepted_set_closed_under_class_permutations():
    spec = from_shifts([1, 3, -2, -2])  # classes (1, 1, 2)
    result = solve_system(spec)
    zetas = [np.asarray(t.zeta) for t in result.tuples]
    for z in zetas:
        swapped = z[[0, 1, 3, 2]]  # exchange the equal-multiplier pair
        assert min(np.abs(swapped - w).max() for w in zetas) < 1e-6


def test_verify_short_run_reports_partial_orbits():
    # budget factor 1 (6 starts) finds one rotation orbit: 3 of the 6 tuples
    spec = from_shifts([1, 2, 3, -6])
    report = verify_spectrum(spec, SolverConfig(budget_factor=1, seed=0))
    assert report.status == "incomplete"
    assert (report.found_tuples, report.expected_tuples) == (3, 6)
    assert report.mc_orbits == 3


def test_short_run_closes_an_orbit_with_a_nontrivial_stabilizer():
    # omega = -1 maps (0, b, -b) to the class swap of itself: the orbit has
    # 2 tuples where |G| (d-1) = 4, and one converged start finds both
    spec = from_shifts([2, -1, -1])
    report = verify_spectrum(spec, SolverConfig(budget_factor=1, seed=0))
    assert report.status == "verified"
    assert report.found_tuples == report.expected_tuples == 2
    assert report.mc_orbits == report.expected_orbits == 1
    assert report.starts == 2 and report.converged == 1


@pytest.mark.parametrize(
    "shifts",
    [
        [2, -1, -1],
        [1, 1, 2, -4],
        [1, 3, -2, -2],
        ["1+1i", "2", "-3-1i", "1+1i", "2", "-3-1i"],
    ],
)
def test_short_runs_never_raise(shifts):
    spec = from_shifts(shifts)
    for budget_factor in (1, 2, 3):
        for seed in range(6):
            report = verify_spectrum(spec, SolverConfig(budget_factor=budget_factor, seed=seed))
            assert report.status in ("incomplete", "verified")
            assert report.mc_orbits <= report.expected_orbits
            if report.status == "incomplete":
                assert report.found_tuples < report.expected_tuples


def test_verify_degree_two_is_analytic():
    report = verify_spectrum(validate(["0", "2"]))
    assert report.status == "verified"
    assert report.found_tuples == report.expected_tuples == 1
    assert report.mc_orbits == report.expected_orbits == 1
    assert report.max_multiplier_error < 1e-12
    assert report.starts == 0


def test_verify_full_loop_on_fixture():
    report = verify_spectrum(validate(FIXTURE))
    assert report.status == "verified"
    assert report.found_tuples == report.expected_tuples == 3
    assert report.mc_orbits == report.expected_orbits == 3
    assert report.max_multiplier_error < 1e-8
    assert report.near_collisions == ()


def test_near_collisions_list_every_pair_within_ten_dedup_tolerances(monkeypatch):
    # a solve result with one row planted 5e-6 from row 2, relative, next to
    # the three true tuples; the loose eps_mult lets its multipliers pass
    solve = verifier._solve

    def doctored(*args):
        result = solve(*args)
        Z = result.zeta
        planted = Z[2] + 5 * verifier.EPS_DUP * max(1.0, np.abs(Z[2]).max())
        return verifier.SolveResult(
            np.vstack([Z, planted]), np.r_[result.residual, 0.0],
            result.starts, result.converged, result.deduplicated,
        )

    monkeypatch.setattr(verifier, "_solve", doctored)
    report = verify_spectrum(validate(FIXTURE), SolverConfig(eps_mult=0.1))
    Z = report.zeta
    brute = [
        (i, j)
        for i in range(len(Z))
        for j in range(i + 1, len(Z))
        if np.abs(Z[i] - Z[j]).max() < 10 * verifier.EPS_DUP * max(1.0, np.abs(Z[i]).max())
    ]
    assert report.near_collisions == tuple(brute) == ((2, 3),)


def test_near_collisions_are_sorted_across_and_within_blocks(monkeypatch):
    # two rows planted near row 0, the later one lower in Re zeta_0, so the
    # window meets them out of order; one row per block of candidates
    solve = verifier._solve

    def doctored(*args):
        result = solve(*args)
        Z = result.zeta
        step = 2 * verifier.EPS_DUP * max(1.0, np.abs(Z[0]).max())
        planted = Z[0] + np.array([[step], [-step]])
        return verifier.SolveResult(
            np.vstack([Z, planted]), np.r_[result.residual, 0.0, 0.0],
            result.starts, result.converged, result.deduplicated,
        )

    monkeypatch.setattr(verifier, "_solve", doctored)
    monkeypatch.setattr(verifier, "NEAR_BLOCK", 1)
    report = verify_spectrum(validate(FIXTURE), SolverConfig(eps_mult=0.1))
    assert report.near_collisions == ((0, 3), (0, 4), (3, 4))


def test_verify_zero_fiber_is_consistent():
    cfg = SolverConfig(budget_factor=60)  # keep the unit test quick
    report = verify_spectrum(validate(["0", "2", "0", "2"]), cfg)
    assert report.status == "consistent"
    assert report.found_tuples == 0
    assert report.expected_tuples == 0
    assert report.starts == 60 * 3


def test_verify_reports_incomplete_when_budget_is_too_small():
    report = verify_spectrum(validate(FIXTURE), SolverConfig(budget_factor=0))
    assert report.status == "incomplete"
    assert report.found_tuples == 0
    assert report.expected_tuples == 3


def test_verify_matches_counting_on_mixed_spectra():
    for shifts in ([1, 2, -3], [1, 3, -2, -2], [1, 2, 3, -6]):
        spec = from_shifts(shifts)
        report = verify_spectrum(spec)
        assert report.status == "verified"
        assert report.expected_tuples == (spec.d - 1) * fiber_size_closed_form(spec)
        assert report.mc_orbits == monic_centered_count(spec)


def test_verify_at_solver_cap_degree_six():
    # rich lattice, 35 expected tuples, right at the default degree cap
    spec = from_shifts([1, -1, 2, -2, 3, -3])
    report = verify_spectrum(spec, SolverConfig(seed=0))
    assert report.status == "verified"
    assert report.found_tuples == report.expected_tuples == 35
    assert report.mc_orbits == report.expected_orbits == 35
    assert report.max_multiplier_error < 1e-8


def test_verify_gaussian_spectrum():
    spec = from_shifts(["0+1i", "0-1i", "2", "-2"])
    report = verify_spectrum(spec)
    assert report.status == "verified"
    assert report.found_tuples == report.expected_tuples == 3
    assert report.mc_orbits == report.expected_orbits == 3
    assert report.max_multiplier_error < 1e-8


def equal_up_to_class_permutation(row, planted, classes, tol) -> bool:
    """Each class's coordinates of ``row`` pair off with those of ``planted``."""
    for cls in classes.classes:
        left = [planted[i] for i in cls]
        for i in cls:
            near = [z for z in left if abs(row[i] - z) <= tol]
            if not near:
                return False
            left.remove(near[0])
    return True


@pytest.mark.parametrize(
    "seed, d", [(0, 4), (0, 5), (0, 6), (1, 4), (1, 5), (1, 6), (0, 7)]
)
def test_verify_finds_the_planted_tuple(d, seed):
    spec, zeta = planted_spectrum(d, seed)
    planted = [complex(z) for z in zeta]
    report = verify_spectrum(spec, SolverConfig(max_degree=7))
    assert report.status == "verified"
    tol = 1e-12 * max(1.0, max(map(abs, planted)))
    classes = value_classes(spec)
    assert any(
        equal_up_to_class_permutation(t.zeta, planted, classes, tol) for t in report.tuples
    )


@pytest.mark.parametrize("expected", [0, 1, 2])
def test_solve_raises_past_a_too_small_expected_count(expected):
    # the fixture has 3 tuples, and the first batch finds all of them
    with pytest.raises(SpuriousSolutionError, match=f"expected {expected}$"):
        solve_system(validate(FIXTURE), expected=expected)


def test_solve_result_counts_and_order():
    spec = from_shifts([1, -1, 2, -2, 3, -3])
    result = solve_system(spec)
    # converged and deduplicated count Newton rows; each new one adds its
    # orbit, at most |G| (d-1) tuples
    orbit_bound = group_order(value_classes(spec).sizes) * (spec.d - 1)
    assert result.converged >= result.deduplicated > 0
    assert len(result.tuples) <= (result.converged - result.deduplicated) * orbit_bound
    keys = [tuple((v.real, v.imag) for v in t.zeta) for t in result.tuples]
    assert len(keys) == 35
    assert keys == sorted(keys)


def test_report_tuples_are_built_alike_on_each_read():
    report = verify_spectrum(validate(FIXTURE))
    assert report.zeta.shape == (3, 4) and report.residual.shape == (3,)
    first, second = report.tuples, report.tuples
    assert first == second
    assert first is not second
    for t in first:
        assert isinstance(t, RootTuple) and type(t.residual) is float
        assert all(type(v) is complex for v in t.zeta)


def test_verify_is_deterministic_under_seed():
    spec = from_shifts([1, 2, -3])
    a = verify_spectrum(spec, SolverConfig(seed=5))
    b = verify_spectrum(spec, SolverConfig(seed=5))
    assert a.tuples == b.tuples
    assert a.starts == b.starts


@pytest.mark.parametrize("seed", [0, 1, 7, 19])
@pytest.mark.parametrize("count, d", [(1, 3), (3, 4), (512, 3), (512, 6)])
def test_start_draw_equals_the_random_loop(seed, count, d):
    loop, block = random.Random(seed), random.Random(seed)
    loop.random(), block.random()  # start mid-stream, as later batches do
    u = np.array([loop.random() for _ in range(2 * count * d)]).reshape(2, count, d)
    Z = 3.5 * np.sqrt(u[0]) * np.exp(2j * np.pi * u[1])
    expected = Z - Z.mean(axis=1, keepdims=True)
    drawn = verifier._disc_starts(block, count, d, 3.5)
    assert drawn.shape == (count, d) and drawn.tobytes() == expected.tobytes()
    assert block.getstate() == loop.getstate()


def test_verifier_leaves_numpy_random_unimported():
    code = (
        "import sys, multfiber as mf; "
        "mf.verify_spectrum(mf.from_shifts([1, 2, -3])); "
        "print('numpy.random' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_degree", 0),
        ("budget_factor", -1),
        ("seed", -1),
        ("eps_mult", 0.0),
        ("eps_mult", float("inf")),
        # the wrong type: a float count, a string tolerance, a bool for either
        ("budget_factor", 1.5),
        ("budget_factor", True),
        ("seed", 0.0),
        ("seed", False),
        ("max_degree", "6"),
        ("max_degree", True),
        ("eps_mult", "1e-8"),
        ("eps_mult", True),
        ("eps_mult", 1e-8j),
    ],
)
def test_solver_config_rejects_bad_values(field, value):
    with pytest.raises(SolverConfigError, match=field):
        SolverConfig(**{field: value})


def test_solver_config_accepts_numpy_integers_and_a_fraction_tolerance():
    cfg = SolverConfig(budget_factor=np.int64(5), seed=np.int32(0), max_degree=np.int8(6))
    assert (type(cfg.budget_factor), type(cfg.seed), type(cfg.max_degree)) == (int, int, int)
    assert verify_spectrum(from_shifts([1, 2, -3]), cfg).status == "verified"
    with pytest.raises(InternalCheckError, match="eps_mult 1e-30"):
        verify_spectrum(validate(FIXTURE), SolverConfig(eps_mult=Fraction(1, 10**30)))


@pytest.mark.parametrize(
    "factor, status", [(5000, "verified"), (1, "incomplete"), (0, "incomplete")]
)
def test_report_is_a_solve_result(factor, status):
    # a full run, a short one that finds part of the fiber, and an empty budget
    report = verify_spectrum(from_shifts([1, 2, 3, -6]), SolverConfig(budget_factor=factor))
    assert isinstance(report, verifier.SolveResult)
    assert not hasattr(report, "__dict__")  # slotted, as callers may keep many
    assert report.status == status
    assert report.found_tuples == len(report.zeta) == len(report.tuples)
    assert "array" not in repr(report) and "zeta" not in repr(report)


def test_verify_repeated_real_multipliers():
    # each spectrum has a value class holding a conjugate pair whose real
    # parts tie, so a sort by (re, im) flips between tuples of one orbit
    for shifts in ([1, 1, 2, -4], [1, 1, 1, -3]):
        report = verify_spectrum(from_shifts(shifts))
        assert report.status == "verified"
        assert report.mc_orbits == report.expected_orbits


def test_verify_enforces_relative_multiplier_tolerance():
    spec = validate(FIXTURE)
    with pytest.raises(InternalCheckError, match="eps_mult"):
        verify_spectrum(spec, SolverConfig(eps_mult=1e-30))
    # relative, not absolute: with |lambda| near 1e6 the absolute error
    # (about 1.2e-8 here) exceeds eps_mult
    spec = from_shifts(["1/1000000", "2/1000000", "-3/1000000"])
    report = verify_spectrum(spec)
    assert report.status == "verified"


@pytest.mark.parametrize(
    "scale", ["1/10000000000", "1/1000000", "1", "1000", "1000000000"]
)
def test_verify_is_scale_free(scale):
    # max|zeta| runs from about 1.5e3 down to 7e-4 as mu grows, and the
    # start radius 4 t^(-1/3) with it, from about 8.6e3 down to 4e-3
    t = Fraction(scale)
    spec = from_shifts([str(k * t) for k in (1, 2, 3, -6)])
    report = verify_spectrum(spec)
    assert report.status == "verified"
    assert report.found_tuples == report.expected_tuples == 6
    assert report.mc_orbits == report.expected_orbits


def test_verify_checks_degree_cap_before_counting(monkeypatch):
    def no_count(spec):
        raise AssertionError("exact count ran before the degree cap")

    monkeypatch.setattr("multfiber.verifier.fiber_report", no_count)
    with pytest.raises(DimensionCapError):
        verify_spectrum(from_shifts([1, 2, 3, 4, 5, 6, -21]))


def test_widely_scaled_shifts_read_incomplete_without_a_warning():
    # mu = (t, -t, 1, -1) spreads each tuple over two scales, about t^(-1/2)
    # and t^(1/2), and starts drawn from one disc reach neither; at
    # t = 1e-308 the disc, 4 t^(-1/3), is still inside the float range
    def spectrum(exponent):
        return from_shifts([Fraction(1, 10**exponent), Fraction(-1, 10**exponent), 1, -1])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for exponent in (50, 300, 308):
            report = verify_spectrum(spectrum(exponent), SolverConfig(budget_factor=10))
            assert report.status == "incomplete"
            assert report.converged == report.found_tuples == 0
            assert report.starts == 30


def test_zero_fiber_starts_stop_after_few_newton_steps(monkeypatch):
    # every start of an empty fiber stalls or diverges; the stopping rule
    # must end it after a few steps, not let it creep along
    rows = [0]
    step = verifier.SigmaSystem.step

    def counted(self, Z, F):
        rows[0] += Z.shape[1]  # one column per row still running
        return step(self, Z, F)

    monkeypatch.setattr(verifier.SigmaSystem, "step", counted)
    report = verify_spectrum(from_shifts([1, -1, 1, -1]))
    assert report.status == "consistent"
    assert report.starts == 15000
    assert rows[0] > 0
    assert rows[0] / report.starts <= 10


def test_singular_row_stops_at_its_start_and_the_others_run_on(monkeypatch):
    # at zeta = 0 the Jacobian rows k >= 2 vanish, so that row has no Newton
    # step; the other rows of its batch must run as they would alone, and
    # no step is a least-squares or a dense solve
    def no_pinv(*args, **kwargs):
        raise AssertionError("least-squares step taken")

    def no_solve(*args, **kwargs):
        raise AssertionError("dense solve taken")

    monkeypatch.setattr(np.linalg, "pinv", no_pinv)
    monkeypatch.setattr(np.linalg, "solve", no_solve)
    system = SigmaSystem(from_shifts([1, -1, 1, -1]))
    Z = verifier._disc_starts(random.Random(3), 8, 4, 4.0)
    Z[0] = 0
    alone = Z[1:].copy()
    norms = verifier._newton_batch(system, Z)
    assert norms[0] == 1.0 and not Z[0].any()  # its starting residual and iterate
    assert np.array_equal(norms[1:], verifier._newton_batch(system, alone))
    assert np.array_equal(Z[1:], alone)


def assert_same_tuples(a, b):
    """Both reports have the same counts and verdict, and their tuples match
    one to one within ``EPS_DUP``, relative."""
    for name in ("status", "starts", "converged", "deduplicated", "found_tuples", "mc_orbits"):
        assert getattr(a, name) == getattr(b, name), name
    tol = verifier.EPS_DUP * np.maximum(1.0, np.abs(b.zeta).max(axis=1))
    near = np.abs(a.zeta[:, None, :] - b.zeta[None, :, :]).max(axis=2) < tol
    assert (near.sum(axis=0) == 1).all() and (near.sum(axis=1) == 1).all()


@st.composite
def stopping_spectra(draw):
    """Shifts at d = 3-6 from a pool of rationals and Gaussian rationals,
    so values may repeat, the last one making the sum zero, all scaled by
    1, 10^6 or 10^-6."""
    d = draw(st.integers(3, 6))
    pool = st.sampled_from([1, -1, 2, "3/2", "-7/3", "5/4", "1+1i", "1-1i", "-1+2i", "2/3-1/2i"])
    head = [as_gaussian(v) for v in draw(st.lists(pool, min_size=d - 1, max_size=d - 1))]
    last = -sum(head, ZERO)
    assume(last)
    scale = draw(st.sampled_from([1, 10**6, Fraction(1, 10**6)]))
    return from_shifts([(m * as_gaussian(scale)).parts() for m in head + [last]])


@settings(max_examples=100, deadline=None)
@given(stopping_spectra(), st.integers(0, 3))
def test_stopping_at_the_rounding_floor_keeps_every_verdict(spec, seed):
    # EPS_STOP = 0 is the rule that stops a row only when a step fails
    cfg = SolverConfig(seed=seed)
    report = verify_spectrum(spec, cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verifier, "EPS_STOP", 0.0)
        slow = verify_spectrum(spec, cfg)
    assert_same_tuples(report, slow)


@pytest.mark.parametrize("seed", range(3))
def test_converged_rows_stop_at_the_rounding_floor(monkeypatch, seed):
    # each step was taken while some row, already below 1e-14, still
    # lowered its residual by chance: 28, 15 and 14 steps at seeds 0-2
    calls = [0]
    step = verifier.SigmaSystem.step

    def counted(self, Z, F):
        calls[0] += 1
        return step(self, Z, F)

    monkeypatch.setattr(verifier.SigmaSystem, "step", counted)
    report = verify_spectrum(from_shifts([1, 2, -3]), SolverConfig(seed=seed))
    assert report.status == "verified"
    assert calls[0] <= 12


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize(
    "shifts",
    [
        [1, -1, 2, -2, 3, -3],
        ["1+1i", "2", "-3-1i", "1+1i", "2", "-3-1i"],  # x, y, -x-y twice
    ],
)
def test_verify_degree_six_under_any_seed(shifts, seed):
    report = verify_spectrum(from_shifts(shifts), SolverConfig(seed=seed))
    assert report.status == "verified"
    assert report.found_tuples == report.expected_tuples
    assert report.mc_orbits == report.expected_orbits


# --- closure of the found tuples under G x C_(d-1) ------------------------------

def assert_closed_and_complete(spec, report):
    """The report has every expected tuple, and the image of each under
    zeta -> omega * zeta and under each in-class transposition is within
    ``EPS_DUP`` (relative) of a tuple it has."""
    assert report.status == ("verified" if report.expected_tuples else "consistent")
    assert report.found_tuples == report.expected_tuples
    assert report.mc_orbits == report.expected_orbits
    Z, d = report.zeta, spec.d
    tol = verifier.EPS_DUP * np.maximum(1.0, np.abs(Z).max(axis=1))
    images = [Z * np.exp(2j * np.pi / (d - 1))]
    for cls in value_classes(spec).classes:
        for a, b in itertools.combinations(cls, 2):
            perm = list(range(d))
            perm[a], perm[b] = b, a
            images.append(Z[:, perm])
    for image in images:
        nearest = np.abs(image[:, None, :] - Z[None, :, :]).max(axis=2).min(axis=1, initial=np.inf)
        assert (nearest < tol).all()


@st.composite
def pooled_spectra(draw):
    """Shifts at d <= 5 from a small pool, so values repeat and are Gaussian,
    with up to (d-2)/2 of the first ones mirrored as -v; the last one makes
    the sum zero."""
    d = draw(st.integers(3, 5))
    pool = st.sampled_from([1, -1, 2, -2, 3, "1+1i", "1-1i", "-1+2i", "2-1i"])
    values = [as_gaussian(v) for v in draw(st.lists(pool, min_size=d - 1, max_size=d - 1))]
    mirrored = draw(st.integers(0, (d - 2) // 2))
    head = values[: d - 1 - mirrored] + [-v for v in values[:mirrored]]
    last = -sum(head, ZERO)
    assume(last)
    return from_shifts([m.parts() for m in head + [last]])


@settings(max_examples=40, deadline=None)
@given(pooled_spectra())
def test_verify_closes_the_found_tuples(spec):
    assert_closed_and_complete(spec, verify_spectrum(spec))


@pytest.mark.parametrize(
    "shifts",
    [
        [2, -1, -1],  # 2 tuples, |G| (d-1) = 4
        [1, 1, 1, 1, 1, -5],  # 120 tuples, |G| (d-1) = 600
    ],
)
def test_verify_closes_orbits_with_nontrivial_stabilizers(shifts):
    spec = from_shifts(shifts)
    assert_closed_and_complete(spec, verify_spectrum(spec))


def test_closure_checks_no_array_much_larger_than_the_fiber(monkeypatch):
    # listing every image of the first tuple alone would give |G| (d-1) = 600 rows
    sizes = []

    def spy(C, accepted, expected):
        sizes.append(len(C))
        return check(C, accepted, expected)

    check = verifier._check_batch
    monkeypatch.setattr(verifier, "_check_batch", spy)
    report = verify_spectrum(from_shifts([1, 1, 1, 1, 1, -5]))
    assert report.status == "verified"
    assert report.found_tuples == 120
    # one orbit, found by the first batch; the rotations alone would need more
    assert report.starts == verifier.STARTS_PER_ORBIT
    assert max(sizes) <= 2 * 120


@pytest.mark.parametrize(
    "shifts, status, checks",
    [
        ([1, 1, 1, 1, 1, -5], "verified", 8),  # 36 with one check per generator
        (["1+1i", "2", "-3-1i", "1+1i", "2", "-3-1i"], "verified", 5),  # 25
        ([1, 1, -2, 2, 2, -4], "verified", 9),  # 38
        ([1, -1, 1, -1], "consistent", 0),  # 30 batches, no row converges
        ([1, 2, 3, 4, -10], "verified", 2),  # 4; now one Newton and one rotation check
        ([1, -1, 2, -2, 3, -3], "verified", 6),  # 17
    ],
)
def test_closure_checks_each_round_once(monkeypatch, shifts, status, checks):
    calls = []
    check = verifier._check_batch

    def spy(C, accepted, expected):
        calls.append(len(C))
        return check(C, accepted, expected)

    monkeypatch.setattr(verifier, "_check_batch", spy)
    report = verify_spectrum(from_shifts(shifts))
    assert report.status == status
    assert len(calls) <= checks


def test_closure_raises_past_a_too_small_expected_count():
    # 2 starts converge once; the omega image is the second tuple
    with pytest.raises(SpuriousSolutionError, match="expected 1$"):
        solve_system(from_shifts([2, -1, -1]), SolverConfig(budget_factor=1), expected=1)


def test_one_orbit_at_degree_seven_verifies_in_a_small_first_batch():
    # 720 tuples, one orbit of G x C_6 with |G| = 6!: the first batch has
    # STARTS_PER_ORBIT starts, not BATCH_SIZE
    spec = from_shifts([1, 1, 1, 1, 1, 1, -6])
    report = verify_spectrum(spec, SolverConfig(max_degree=7))
    assert report.status == "verified"
    assert report.found_tuples == 720
    assert report.mc_orbits == report.expected_orbits == 1
    assert report.starts <= 64


@pytest.mark.parametrize("scale", ["1/1000000", "1/10000000000"])
def test_scaled_shifts_take_the_newton_steps_of_their_unit_twin(monkeypatch, scale):
    # under mu -> c mu the solutions scale by c^(-1/3), and the start disc
    # with them, so a start walks in no further than at unit scale
    columns = [0]
    step = verifier.SigmaSystem.step

    def counted(self, Z, F):
        columns[0] += Z.shape[1]  # one column per row still running
        return step(self, Z, F)

    monkeypatch.setattr(verifier.SigmaSystem, "step", counted)
    per_start = []
    for t in (Fraction(1), Fraction(scale)):
        columns[0] = 0
        report = verify_spectrum(from_shifts([k * t for k in (1, 2, 3, -6)]))
        assert report.status == "verified"
        per_start.append(columns[0] / report.starts)
    assert per_start[1] <= 1.5 * per_start[0]


def test_verify_groups_the_shifts_once(monkeypatch):
    calls = []

    def counted(spec):
        calls.append(spec)
        return value_classes(spec)

    monkeypatch.setattr(verifier, "value_classes", counted)
    for shifts in ([1, 3, -2, -2], [1, 1, 1, 1, 1, -5], [1, -1, 1, -1]):
        calls.clear()
        verify_spectrum(from_shifts(shifts), SolverConfig(budget_factor=60))
        assert len(calls) == 1


EMPTY_FIBERS = [
    [1, -1, 1, -1],
    ["1+1i", "-1-1i", "1+1i", "-1-1i"],
    [1, 1, -2, 1, -1],
    [2, -1, -1, 1, -1],
]


@st.composite
def short_runs(draw):
    """A pooled spectrum or an empty fiber, scaled by a rational, with a
    budget factor of 0-3 and a seed of 0-5."""
    spec = draw(st.one_of(pooled_spectra(), st.sampled_from(EMPTY_FIBERS).map(from_shifts)))
    p, q = draw(st.sampled_from([(1, 1), (1, 7), (5, 3), (1, 1000)]))
    spec = from_shifts([(x * p, y * p, n * q) for x, y, n in spec.mu])
    return spec, SolverConfig(budget_factor=draw(st.integers(0, 3)), seed=draw(st.integers(0, 5)))


@settings(max_examples=100, deadline=None)
@given(short_runs())
def test_start_schedule_keeps_the_budget_and_the_verdict(case):
    spec, cfg = case
    report = verify_spectrum(spec, cfg)
    expected = report.expected_tuples
    budget = cfg.budget_factor * (spec.d - 1) * max(expected // (spec.d - 1), 1)
    assert report.starts <= budget
    incomplete = report.found_tuples < expected or budget == 0  # an empty budget proves nothing
    assert (report.status == "incomplete") == incomplete
    if expected == 0:
        assert report.starts == budget
    again = verify_spectrum(spec, cfg)
    assert repr(again) == repr(report)  # every count and the verdict
    assert np.array_equal(again.zeta, report.zeta)
    assert np.array_equal(again.residual, report.residual)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(pooled_spectra(), st.sampled_from(EMPTY_FIBERS).map(from_shifts)),
    st.integers(0, 5),
)
def test_closure_matches_the_one_generator_at_a_time_reference(spec, seed):
    cfg = SolverConfig(seed=seed)
    report = verify_spectrum(spec, cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verifier, "_close", close_one_generator_at_a_time)
        slow = verify_spectrum(spec, cfg)
    assert_same_tuples(report, slow)


def test_verify_generic_degree_seven_within_a_short_budget():
    # 60 * 6 * 120 = 43,200 starts; without the closure it takes 359,424
    spec = from_shifts([1, 2, 3, 4, 5, 6, -21])
    report = verify_spectrum(spec, SolverConfig(max_degree=7, budget_factor=60))
    assert report.status == "verified"
    assert report.found_tuples == 720


# --- the batch check against the per-row rule it replaced ------------------------

def _unit(zeta):
    return max(1.0, float(np.abs(zeta).max()))


def _reference_check(C, accepted, expected):
    """One row at a time: collision, then a duplicate of an accepted row,
    then the ``expected`` check; a row kept joins the accepted rows."""
    pool, kept, duplicates = list(accepted), [], 0
    for row, zeta in enumerate(C):
        scale = _unit(zeta)
        sep = np.abs(zeta[:, None] - zeta[None, :])
        np.fill_diagonal(sep, np.inf)
        if sep.min() <= verifier.EPS_SEP * scale:
            continue
        if any(np.abs(zeta - z).max() < verifier.EPS_DUP * scale for z in pool):
            duplicates += 1
            continue
        if len(pool) >= expected:
            raise SpuriousSolutionError(
                f"found a {len(pool) + 1}-th distinct tuple, expected {expected}"
            )
        pool.append(zeta)
        kept.append(row)
    return kept, duplicates


def _outcome(check, C, accepted, expected):
    try:
        kept, duplicates = check(C, accepted, expected)
    except SpuriousSolutionError as exc:
        return str(exc)
    return [int(k) for k in kept], duplicates


def _separation(zeta):
    d = len(zeta)
    return min(abs(zeta[a] - zeta[b]) for a in range(d) for b in range(a + 1, d))


@st.composite
def clustered_batches(draw):
    """Rows in clusters of spread < EPS_DUP/4 and gaps > 4 EPS_DUP, relative,
    some with colliding coordinates, and accepted rows from the clusters."""
    d = draw(st.integers(3, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    centers, colliding = [], []
    for _ in range(draw(st.integers(1, 4))):
        scale = 10.0 ** draw(st.floats(-6, 6))
        values = draw(st.lists(grid, min_size=d, max_size=d, unique=True))
        centers.append(scale * np.array([complex(a, b) for a, b in values]))
        colliding.append(draw(st.sampled_from([False, False, True])))
    units = [_unit(c) for c in centers]
    for a in range(len(centers)):
        for b in range(a):
            gap = np.abs(centers[a] - centers[b]).max()
            assume(gap > 5 * verifier.EPS_DUP * max(units[a], units[b]))

    def member(k):
        noise = np.array([1, 1j]) @ rng.uniform(-1, 1, (2, d))
        zeta = centers[k] + verifier.EPS_DUP / 20 * units[k] * noise
        if colliding[k]:
            zeta[1] = zeta[0]
        return zeta

    labels = [draw(st.integers(0, len(centers) - 1)) for _ in range(draw(st.integers(0, 12)))]
    distinct = [k for k in range(len(centers)) if not colliding[k]]
    held = draw(st.lists(st.sampled_from(distinct), unique=True)) if distinct else []
    accepted = np.array([member(k) for k in held], dtype=complex).reshape(-1, d)
    C = np.array([member(k) for k in labels], dtype=complex).reshape(-1, d)
    expected = len(accepted) + draw(st.integers(0, len(centers)))
    return C, accepted, expected


@settings(max_examples=300, deadline=None)
@given(clustered_batches())
def test_batch_check_matches_the_per_row_rule_on_clusters(batch):
    C, accepted, expected = batch
    assert _outcome(verifier._check_batch, C, accepted, expected) == _outcome(
        _reference_check, C, accepted, expected
    )


@st.composite
def arbitrary_batches(draw):
    """Rows at any scale, some placed near an earlier row at a distance
    around the dedup tolerance; the first ones are the accepted rows."""
    d = draw(st.integers(3, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(0, 16))):
        noise = np.array([1, 1j]) @ rng.normal(size=(2, d))
        if rows and draw(st.booleans()):
            base = rows[draw(st.integers(0, len(rows) - 1))]
            rows.append(base + 10.0 ** draw(st.floats(-8, -4)) * _unit(base) * noise)
        else:
            rows.append(10.0 ** draw(st.floats(-6, 6)) * noise)
    Z = np.array(rows, dtype=complex).reshape(-1, d)
    held = draw(st.integers(0, len(Z)))
    return Z[held:], Z[:held]


@settings(max_examples=300, deadline=None)
@given(arbitrary_batches())
def test_batch_check_keeps_distinct_rows_and_drops_only_near_ones(batch):
    C, accepted = batch
    kept, duplicates = verifier._check_batch(C, accepted, len(accepted) + len(C))
    kept = kept.tolist()
    fine = [_separation(z) > verifier.EPS_SEP * _unit(z) for z in C]
    assert all(fine[i] for i in kept)
    assert duplicates == sum(fine) - len(kept)
    for i, zeta in enumerate(C):
        tol = verifier.EPS_DUP * _unit(zeta)
        if i in kept:
            others = [*accepted, *(C[j] for j in kept if j < i)]
            assert all(np.abs(zeta - z).max() >= tol for z in others)
        elif fine[i]:
            others = [*accepted, *(C[j] for j in range(i) if fine[j])]
            assert any(np.abs(zeta - z).max() < tol for z in others)


@pytest.mark.parametrize("held", [0, 1])
def test_batch_check_on_a_newton_batch(held):
    # a batch at d = 3 converges to the 2 tuples in hundreds of rows
    spec = from_shifts([1, 2, -3])
    Z = verifier._disc_starts(random.Random(0), verifier.BATCH_SIZE, 3, 8.0)
    norms = verifier._newton_batch(SigmaSystem(spec), Z)
    C = Z[norms < verifier.EPS_RES]
    assert len(C) > 256
    accepted = C[:held] * (1 + 1e-9)
    kept, duplicates = verifier._check_batch(C, accepted, 2)
    assert ([int(k) for k in kept], duplicates) == _reference_check(C, accepted, 2)
    assert len(kept) == 2 - held


def test_batch_check_counts_a_row_near_an_earlier_duplicate():
    # a chain of rows 0.6 EPS_DUP apart in their unit, max|zeta| = 2: the
    # third row is near the second, a duplicate, but not near the first,
    # so the per-row rule kept it
    C = np.array([[0, 1, 2], [0, 1, 2], [0, 1, 2]], dtype=complex)
    C[:, 0] += 0.6 * verifier.EPS_DUP * 2 * np.arange(3)
    none = np.empty((0, 3), dtype=complex)
    kept, duplicates = verifier._check_batch(C, none, 3)
    assert (kept.tolist(), duplicates) == ([0], 2)
    assert _reference_check(C, none, 3) == ([0, 2], 1)


# --- the near-pair search against the all-pairs matrix it replaced -----------------

@st.composite
def near_pair_inputs(draw):
    """Rows of A and B, either may be empty, and a scalar or per-row ``tol``
    down to 1e-20 of the rows' scale: random rows, rows that all share their
    first coordinate, and rows of B placed at tol (1 + e), e in {-1e-9, 0,
    1e-9}, from a row of A in Re zeta_0 or in another coordinate, the edges of
    the window and of the test.  On a dyadic grid with a power-of-two ``tol``
    the distance tol itself is exact."""
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = draw(st.booleans())
    scale = 2.0 ** draw(st.integers(-20, 20)) if grid else 10.0 ** draw(st.floats(-6, 6))

    def rows(k):
        Z = rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d))
        return scale * (np.round(8 * Z) / 8 if grid else Z)

    def tols(size):
        exponent = rng.integers(-30, 1, size) if grid else rng.uniform(-20, 0, size)
        return scale * (2.0 if grid else 10.0) ** exponent

    A, B = rows(draw(st.integers(0, 12))), rows(draw(st.integers(0, 12)))
    tol = tols(len(A)) if draw(st.booleans()) else float(tols(None))
    if len(A) and draw(st.booleans()):  # every window holds every row
        A[:, 0] = B[:, 0] = A[0, 0]
    for _ in range(draw(st.integers(0, 6)) if len(A) and len(B) else 0):
        a, b = draw(st.integers(0, len(A) - 1)), draw(st.integers(0, len(B) - 1))
        col = draw(st.integers(0, d - 1))
        step = np.full(len(A), tol)[a] * (1 + draw(st.sampled_from([-1e-9, 0.0, 1e-9])))
        B[b] = A[a]
        B[b, col] += step * draw(st.sampled_from([1, -1] if col == 0 else [1, 1j, -1, -1j]))
    return A, B, tol


def _all_near_pairs(A, B, tol):
    """Every pair of ``verifier._near_pairs``, its blocks joined, ascending."""
    blocks = list(verifier._near_pairs(A, B, tol))
    i, j = np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])
    assert all((np.diff(b[0]) >= 0).all() for b in blocks)  # i ascends in each block
    assert (np.diff([b[0][0] for b in blocks if len(b[0])]) > 0).all()  # and across them
    return sorted(zip(i.tolist(), j.tolist()))


@settings(max_examples=300, deadline=None)
@given(near_pair_inputs(), st.sampled_from([1, 5, verifier.NEAR_BLOCK]))
def test_near_pairs_match_the_all_pairs_matrix(inputs, block):
    A, B, tol = inputs
    near = _within(A, B, tol if np.isscalar(tol) else tol[:, None])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verifier, "NEAR_BLOCK", block)
        pairs = _all_near_pairs(A, B, tol)
        first = verifier._first_near(A, B, tol)
    assert pairs == [tuple(p) for p in np.argwhere(near).tolist()]
    least = [row.argmax() if row.any() else len(B) for row in near]
    assert first.tolist() == least


def _peaks(Z, classes, tol):
    """The near pairs of the rows of Z within ``tol`` and their orbit count,
    with the tracemalloc peak of each pass."""
    tracemalloc.start()
    try:
        pairs = _all_near_pairs(Z, Z, tol)
        near_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        orbits = verifier._orbits(Z, classes, check=False)
        orbit_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return pairs, orbits, near_peak, orbit_peak


def test_near_pairs_and_orbits_stay_small_on_a_generic_degree_eight_fiber():
    # 5,040 rows, the size of the generic d = 8 fiber, with planted near
    # pairs; an all-pairs pass over them peaks at about 35 MB
    n, planted = 5040, [(0, 5039), (17, 2500), (1000, 1001), (4000, 4321)]
    rng = np.random.default_rng(0)
    Z = rng.normal(size=(n, 8)) + 1j * rng.normal(size=(n, 8))
    for a, b in planted:
        Z[b] = Z[a] * (1 + 1e-9)
    classes = value_classes(from_shifts([1, 2, 3, 4, 5, 6, 7, -28]))
    tol = 10 * verifier.EPS_DUP * np.maximum(1.0, np.abs(Z).max(axis=1))
    pairs, orbits, near_peak, orbit_peak = _peaks(Z, classes, tol)
    assert [(i, j) for i, j in pairs if i < j] == planted
    assert orbits == n - len(planted)
    assert near_peak < 8e6 and orbit_peak < 8e6


def test_near_pairs_and_orbits_stay_small_when_every_row_shares_zeta_0():
    # the 5,040 orderings of one tuple after zeta_0 = 0: every window holds
    # every row, and under the classes {0}, {1..7} all are one orbit, so every
    # pair of rows is near in the orbit pass
    rng = np.random.default_rng(0)
    rest = rng.normal(size=7) + 1j * rng.normal(size=7)
    Z = np.array([[0, *p] for p in itertools.permutations(rest)])
    classes = value_classes(from_shifts([-7, 1, 1, 1, 1, 1, 1, 1]))
    tol = 10 * verifier.EPS_DUP * np.maximum(1.0, np.abs(Z).max(axis=1))
    pairs, orbits, near_peak, orbit_peak = _peaks(Z, classes, tol)
    assert pairs == [(i, i) for i in range(len(Z))]
    assert orbits == 1
    assert near_peak < 8e6 and orbit_peak < 8e6
