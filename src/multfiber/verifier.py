"""Numerical oracle: count fixed-point configurations by multi-start Newton.

For a spectrum of degree d >= 3 with shift vector mu, the configurations
(zeta_1, ..., zeta_d) of fixed points realizing it, under the
normalization that pins down the residual scaling symmetry, solve the
square polynomial system

    sum_i zeta_i              = 0
    sum_i mu_i * zeta_i^k     = 0    for 1 <= k <= d-2
    sum_i mu_i * zeta_i^(d-1) = -1

with pairwise-distinct coordinates.  The number of such tuples equals
(d-1) times the multiplicity count, and grouping them by class-preserving
coordinate permutations (a free action) recovers the monic-centered
count; this module checks exactly that against the exact formulas, from
the outside, in floating point.

The solver runs Newton from batches of random starts (uniform in a disc
per coordinate, then projected onto the zero-sum hyperplane, which
removes one unstable direction), filters converged tuples by residual and
coordinate separation, and deduplicates.  A start takes full Newton steps
and stops, keeping its last iterate, at the first step that fails to lower
its max-norm residual.  Zero-fiber spectra are verified by exhausting the
full start budget with nothing accepted, a weaker "consistent" outcome,
since absence cannot be certified by sampling (an empty budget reads
"incomplete").  Newton runs are independent and the final merge is
deterministic, so the whole pass is reproducible under a fixed seed.

``SolverConfig`` holds only what the caller asks: seed, start budget,
degree cap and multiplier tolerance.  How the solver runs is fixed here.
Residual bound, iteration cap and batch size are constants; starts are
drawn within the radius 2(1 + max|lambda|); and the dedup, collision and
orbit tolerances are relative to max(1, max_i |zeta_i|) of the tuple
checked, so a spectrum verifies alike at any scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .counting import fiber_report
from .errors import (
    BudgetExhaustedError,
    CoincidentRootsError,
    DegreeTooSmallError,
    DimensionCapError,
    MultiplierMismatchError,
    NonFreeActionError,
    SolverConfigError,
    SpuriousSolutionError,
)
from .spectrum import Spectrum, ValueClasses, value_classes


EPS_RES = 1e-10        # accept a tuple only below this residual
MAX_ITER = 200
BATCH_SIZE = 512
EPS_DUP = 1e-6         # relative: tuples closer than this are one solution
EPS_SEP = 1e-7         # relative: coordinates closer than this are a collision


@dataclass(frozen=True)
class SolverConfig:
    """What the oracle is asked; every field is CLI-overridable.

    How the solver runs is fixed by the module constants above.  Defaults
    suit desk-scale systems (d <= 6), where distinct solutions are
    separated by many orders of magnitude more than solver noise.
    """

    eps_mult: float = 1e-8      # max |m - lambda| / max(1, |lambda|) per tuple
    budget_factor: int = 5000   # starts = factor * (d-1) * max(count, 1)
    seed: int = 0
    max_degree: int = 6

    def __post_init__(self):
        if self.max_degree < 1:
            raise SolverConfigError(f"max_degree must be >= 1, got {self.max_degree}")
        # a zero budget is allowed: it reports "incomplete" without solving
        for name in ("budget_factor", "seed"):
            if getattr(self, name) < 0:
                raise SolverConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.eps_mult > 0:  # also rejects NaN
            raise SolverConfigError(f"eps_mult must be > 0, got {self.eps_mult}")


@dataclass(frozen=True)
class RootTuple:
    """One accepted fixed-point configuration."""

    zeta: tuple[complex, ...]
    residual: float


@dataclass(frozen=True)
class SolveResult:
    tuples: tuple[RootTuple, ...]
    starts: int
    converged: int
    deduplicated: int


@dataclass(frozen=True)
class VerificationReport:
    d: int
    found_tuples: int
    expected_tuples: int
    mc_orbits: int
    expected_orbits: int
    max_multiplier_error: float
    starts: int
    converged: int
    deduplicated: int
    status: str  # "verified" | "consistent" | "incomplete"
    near_collisions: tuple[tuple[int, int], ...] = ()
    tuples: tuple[RootTuple, ...] = field(default=(), repr=False)


class SigmaSystem:
    """The d equations in d unknowns, with closed-form Jacobian, batched."""

    def __init__(self, spec: Spectrum):
        if spec.d < 3:
            raise DegreeTooSmallError(
                "degree 2 is handled analytically, not by the solver"
            )
        self.d = spec.d
        self.mu = np.array([complex(m) for m in spec.mu])

    def residual(self, Z: np.ndarray) -> np.ndarray:
        """Equation values at each row of Z (shape (B, d))."""
        d = self.d
        F = np.empty_like(Z)
        F[:, 0] = Z.sum(axis=1)
        P = Z
        for k in range(1, d):
            F[:, k] = P @ self.mu
            P = P * Z
        F[:, d - 1] += 1
        return F

    def jacobian(self, Z: np.ndarray) -> np.ndarray:
        """d/dzeta_j of equation k is k * mu_j * zeta_j^(k-1)."""
        B, d = Z.shape
        J = np.empty((B, d, d), dtype=complex)
        J[:, 0, :] = 1.0
        P = np.ones_like(Z)
        for k in range(1, d):
            J[:, k, :] = k * self.mu * P
            P = P * Z
        return J


def build_system(spec: Spectrum) -> SigmaSystem:
    return SigmaSystem(spec)


def _newton_batch(system: SigmaSystem, Z: np.ndarray) -> np.ndarray:
    """Newton on each row of Z in place until a step fails to lower its residual."""
    F = system.residual(Z)
    norms = np.abs(F).max(axis=1)
    idx = np.flatnonzero(np.isfinite(norms))
    for _ in range(MAX_ITER):
        if idx.size == 0:
            break
        J = system.jacobian(Z[idx])
        rhs = -F[idx][:, :, None]
        try:
            step = np.linalg.solve(J, rhs)[:, :, 0]
        except np.linalg.LinAlgError:
            step = (np.linalg.pinv(J) @ rhs)[:, :, 0]
        trial = Z[idx] + step
        trial_F = system.residual(trial)
        trial_norms = np.abs(trial_F).max(axis=1)
        better = trial_norms < norms[idx]
        idx = idx[better]
        Z[idx], F[idx] = trial[better], trial_F[better]
        norms[idx] = trial_norms[better]
    return norms


def _scale(zeta) -> float:
    """max(1, max_i |zeta_i|): the unit of the relative tolerances."""
    return max(1.0, float(np.abs(zeta).max()))


def _min_separation(zeta: np.ndarray) -> float:
    diff = np.abs(zeta[:, None] - zeta[None, :])
    np.fill_diagonal(diff, np.inf)
    return float(diff.min())


def _require_solver_degree(d: int, cfg: SolverConfig) -> None:
    if d > cfg.max_degree:
        raise DimensionCapError(f"degree {d} above solver cap {cfg.max_degree}")


def _disc_starts(rng: random.Random, count: int, d: int, radius: float) -> np.ndarray:
    u = np.array([rng.random() for _ in range(2 * count * d)]).reshape(2, count, d)
    Z = radius * np.sqrt(u[0]) * np.exp(2j * np.pi * u[1])
    return Z - Z.mean(axis=1, keepdims=True)  # project onto the zero-sum plane


def solve_system(
    spec: Spectrum,
    cfg: SolverConfig | None = None,
    expected: int | None = None,
) -> SolveResult:
    """Multi-start Newton search for all distinct solution tuples.

    Stops issuing new starts once ``expected`` tuples are found (candidates
    already in flight are still checked, so an excess solution raises
    ``SpuriousSolutionError``).  With ``expected == 0`` the full budget runs.
    Raises ``BudgetExhaustedError`` (carrying the partial result) if the
    budget runs out short of ``expected``.
    """
    cfg = cfg or SolverConfig()
    d = spec.d
    system = SigmaSystem(spec)  # refuses d < 3 first
    _require_solver_degree(d, cfg)
    if expected is None:
        expected = fiber_report(spec).e_I0
    rng = random.Random(cfg.seed)  # importing numpy.random costs about 6 MB RSS
    radius = 2.0 * (1.0 + spec.max_multiplier_modulus())
    budget = cfg.budget_factor * (d - 1) * max(expected // (d - 1), 1)

    accepted: list[tuple[np.ndarray, float]] = []  # (tuple, residual)
    starts = converged = duplicates = 0
    while starts < budget and not 0 < expected <= len(accepted):
        batch = min(BATCH_SIZE, budget - starts)
        Z = _disc_starts(rng, batch, d, radius)
        norms = _newton_batch(system, Z)
        starts += batch
        for row in np.flatnonzero(norms < EPS_RES):
            zeta = Z[row]
            converged += 1
            scale = _scale(zeta)
            if _min_separation(zeta) <= EPS_SEP * scale:
                continue  # coordinate collision, not a valid configuration
            if any(np.abs(zeta - z).max() < EPS_DUP * scale for z, _ in accepted):
                duplicates += 1
                continue
            if len(accepted) >= expected:
                raise SpuriousSolutionError(
                    f"found a {len(accepted) + 1}-th distinct tuple, "
                    f"expected {expected}"
                )
            accepted.append((zeta.copy(), float(norms[row])))

    accepted.sort(key=lambda a: tuple((v.real, v.imag) for v in a[0]))
    final = tuple(
        RootTuple(zeta=tuple(complex(v) for v in z), residual=res)
        for z, res in accepted
    )
    result = SolveResult(
        tuples=final, starts=starts, converged=converged, deduplicated=duplicates
    )
    if len(final) < expected:
        raise BudgetExhaustedError(
            f"found {len(final)} of {expected} tuples in {starts} starts",
            result=result,
        )
    return result


def forward_multipliers(zeta) -> list[complex]:
    """Multipliers of z + prod(z - zeta_j) at its fixed points zeta_i.

    The derivative at zeta_i is 1 + prod over j != i of (zeta_i - zeta_j).
    """
    z = np.asarray([complex(v) for v in zeta])
    diff = z[:, None] - z[None, :]
    off = ~np.eye(len(z), dtype=bool)
    if np.abs(diff[off]).min() == 0.0:
        raise CoincidentRootsError("fixed-point coordinates must be distinct")
    np.fill_diagonal(diff, 1.0)
    return [complex(1 + p) for p in diff.prod(axis=1)]


def _same_multiset(xs, ys, eps: float) -> bool:
    """Match every coordinate of ``xs`` to an unused one of ``ys`` within eps.

    Sorting cannot stand in for this: in a real spectrum a class can hold a
    conjugate pair whose real parts tie, and noise flips their order.
    """
    unused = list(ys)
    for x in xs:
        for j, y in enumerate(unused):
            if abs(x - y) < eps:
                del unused[j]
                break
        else:
            return False
    return True


def orbit_count(tuples, classes: ValueClasses) -> int:
    """Group tuples under class-preserving coordinate permutations.

    Two tuples lie in one orbit iff each value class carries the same
    coordinate multiset, matched within ``EPS_DUP`` relative to the first
    tuple's scale.  Every orbit must have exactly group-order many
    members; a wrong-sized orbit means duplicates, missing tuples or a
    tolerance failure.
    """
    profiles = [[[t.zeta[i] for i in k] for k in classes.classes] for t in tuples]
    parent = list(range(len(profiles)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(profiles)):
        eps = EPS_DUP * _scale(tuples[i].zeta)
        for j in range(i + 1, len(profiles)):
            if root(i) != root(j) and all(
                _same_multiset(a, b, eps)
                for a, b in zip(profiles[i], profiles[j])
            ):
                parent[root(j)] = root(i)
    orbit_sizes: dict[int, int] = {}
    for i in range(len(profiles)):
        r = root(i)
        orbit_sizes[r] = orbit_sizes.get(r, 0) + 1
    order = classes.group_order()
    for size in orbit_sizes.values():
        if size != order:
            raise NonFreeActionError(
                f"orbit of size {size} where the group order is {order}"
            )
    return len(orbit_sizes)


def _near_collisions(tuples) -> tuple[tuple[int, int], ...]:
    """Pairs of accepted tuples within 10x the dedup threshold: warnings."""
    out = []
    for i in range(len(tuples)):
        zi = np.asarray(tuples[i].zeta)
        eps = 10 * EPS_DUP * _scale(zi)
        for j in range(i + 1, len(tuples)):
            if np.abs(zi - np.asarray(tuples[j].zeta)).max() < eps:
                out.append((i, j))
    return tuple(out)


def verify_spectrum(spec: Spectrum, cfg: SolverConfig | None = None) -> VerificationReport:
    """Close the loop: solve, re-derive multipliers, count orbits, compare.

    Raises ``MultiplierMismatchError`` when an accepted tuple's multipliers
    miss the spectrum by more than ``cfg.eps_mult`` relative to max(1, |lambda|).
    """
    cfg = cfg or SolverConfig()
    d = spec.d
    if d > 2:  # refuse before the exact count; degree 2 is analytic
        _require_solver_degree(d, cfg)
    counts = fiber_report(spec)
    classes = value_classes(spec)
    expected_tuples = counts.e_I0
    expected_orbits = counts.mc_count

    if d == 2:
        # Analytic: the unique configuration is (c, -c) with c = -1/(2 mu_1).
        c = -1.0 / (2.0 * complex(spec.mu[0]))
        result = SolveResult(
            tuples=(RootTuple(zeta=(c, -c), residual=0.0),),
            starts=0,
            converged=1,
            deduplicated=0,
        )
    else:
        try:
            result = solve_system(spec, cfg, expected_tuples)
        except BudgetExhaustedError as exc:
            result = exc.result

    lam = [complex(v) for v in spec.lam]
    max_err = max_rel = 0.0
    for t in result.tuples:
        for m, l in zip(forward_multipliers(t.zeta), lam):
            max_err = max(max_err, abs(m - l))
            max_rel = max(max_rel, abs(m - l) / max(1.0, abs(l)))
    if max_rel > cfg.eps_mult:
        raise MultiplierMismatchError(
            f"relative multiplier error {max_rel:.3g} above eps_mult {cfg.eps_mult:g}"
        )

    found = len(result.tuples)
    orbits = orbit_count(result.tuples, classes) if found else 0
    if found < expected_tuples:  # the budget ran out
        status = "incomplete"
    elif expected_tuples == 0:
        # an empty budget is evidence of nothing
        status = "consistent" if result.starts else "incomplete"
    else:
        status = "verified"
    return VerificationReport(
        d=d,
        found_tuples=found,
        expected_tuples=expected_tuples,
        mc_orbits=orbits,
        expected_orbits=expected_orbits,
        max_multiplier_error=max_err,
        starts=result.starts,
        converged=result.converged,
        deduplicated=result.deduplicated,
        status=status,
        near_collisions=_near_collisions(result.tuples),
        tuples=result.tuples,
    )
