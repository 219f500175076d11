"""Numerical oracle: count fixed-point configurations by multi-start Newton.

For a spectrum of degree d >= 3 with shift vector mu, the configurations
(zeta_1, ..., zeta_d) of fixed points realizing it, under the
normalization that pins down the residual scaling symmetry, solve the
square polynomial system

    sum_i zeta_i              = 0
    sum_i mu_i * zeta_i^k     = 0    for 1 <= k <= d-2
    sum_i mu_i * zeta_i^(d-1) = -1

with pairwise-distinct coordinates.  There are (d-1) times the
multiplicity count of such tuples.  Each defines the monic centered
polynomial f(z) = z + prod_j (z - zeta_j), and two define the same f exactly
when a class-preserving coordinate permutation maps one to the other; so
the distinct f found are the monic-centered count, each from group-order
many tuples.  This module checks both against the exact formulas, from the
outside, in floating point.

The solver runs Newton from batches of random starts (uniform in a disc
per coordinate, then projected onto the zero-sum hyperplane, which
removes one unstable direction).  The exact count sizes the batches: the
first has ``STARTS_PER_ORBIT`` starts per orbit of G x C_(d-1) that the
count implies, and each later one twice the last, up to ``BATCH_SIZE``;
an empty fiber runs full batches.  A start takes full Newton steps and
stops, keeping its last iterate, at the first step that fails to lower its
max-norm residual, or once that is at most ``EPS_STOP``, below ``EPS_RES``.
Each step is solved in O(d^2) from the Vandermonde structure of the Jacobian
(``SigmaSystem.step``), which is never built; where it is singular the step
is not finite, so the start stops.  A batch's converged rows are checked
together for collisions and duplicates (``_check_batch``), and its new
tuples are closed under G x C_(d-1): one such check for their images under
every nontrivial rotation, then one per round for those under the swaps
within a class (``_close``), so one converged start yields its whole orbit.
Near rows, there and in the report, come from one search (``_near_pairs``):
windows sorted on Re zeta_0, their candidate pairs tested a bounded block at
a time.  ``near_collisions`` lists the pairs (i, j), i < j, ascending.
Zero-fiber spectra are verified by exhausting the full start budget with
nothing accepted, a weaker "consistent" outcome, since absence cannot be
certified by sampling.  A run whose budget ends short of the expected
tuples, an empty budget included, reads "incomplete" and reports the
distinct polynomials it did find.  Newton runs are independent and the
final merge is deterministic, so the whole pass is reproducible under a
fixed seed.

``SolverConfig`` holds only what the caller asks: seed, start budget,
degree cap and multiplier tolerance.  How the solver runs is fixed here.
Residual bound, iteration cap and batch sizes are constants.  Starts are
drawn within the radius 4 (min_i |mu_i|)^(-1/(d-1)): under mu -> c mu the
solutions map zeta -> c^(-1/(d-1)) zeta, and the disc with them, and the
radius is finite whenever the shifts and multipliers are.  The dedup and
collision tolerances are relative to max(1, max_i |zeta_i|) of the tuple
checked, and polynomials are compared by the coefficients of
prod_j (x - zeta_j) over each value class after scaling each tuple to
max_i |zeta_i| = 1.  So a spectrum verifies alike at any scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral, Real

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
from .spectrum import Spectrum, ValueClasses, group_order, value_classes


EPS_RES = 1e-10        # accept a tuple only below this residual
EPS_STOP = 1e-14       # a Newton row stops at or below this residual
MAX_ITER = 200
BATCH_SIZE = 512       # the most starts in one batch
STARTS_PER_ORBIT = 32  # first-batch starts per orbit the exact count expects
NEAR_BLOCK = 1 << 14   # the most candidate near pairs tested at once, past one row's
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
        for name, kind in (("budget_factor", Integral), ("seed", Integral),
                           ("max_degree", Integral), ("eps_mult", Real)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):  # bool is an int
                what = "an integer" if kind is Integral else "a real number"
                raise SolverConfigError(f"{name} must be {what}, got {value!r}")
            if kind is Integral:  # random.Random refuses a numpy integer
                object.__setattr__(self, name, int(value))
        if self.max_degree < 1:
            raise SolverConfigError(f"max_degree must be >= 1, got {self.max_degree}")
        # a zero budget is allowed: it reports "incomplete" without solving
        for name in ("budget_factor", "seed"):
            if getattr(self, name) < 0:
                raise SolverConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0 < self.eps_mult < float("inf"):  # also rejects NaN
            raise SolverConfigError(f"eps_mult must be finite and > 0, got {self.eps_mult}")


@dataclass(frozen=True)
class RootTuple:
    """One accepted fixed-point configuration."""

    zeta: tuple[complex, ...]
    residual: float


@dataclass(frozen=True, eq=False, slots=True)  # callers may keep many: no __dict__ each
class SolveResult:
    """The accepted tuples, one per row of ``zeta``, and the Newton counts of the run."""

    zeta: np.ndarray = field(repr=False)  # (n, d): the accepted tuples, one per row
    residual: np.ndarray = field(repr=False)  # (n,)
    starts: int
    converged: int
    deduplicated: int

    @property
    def tuples(self) -> tuple[RootTuple, ...]:
        """Each row of ``zeta`` and its ``residual`` as a ``RootTuple``, built when read."""
        rows = zip(self.zeta.tolist(), self.residual.tolist())
        return tuple(RootTuple(zeta=tuple(z), residual=r) for z, r in rows)

    @property
    def found_tuples(self) -> int:
        return len(self.zeta)


@dataclass(frozen=True, eq=False, slots=True)
class VerificationReport(SolveResult):
    """A ``SolveResult`` with the exact counts it is checked against and the verdict."""

    d: int
    expected_tuples: int
    mc_orbits: int
    expected_orbits: int
    max_multiplier_error: float
    status: str  # "verified" | "consistent" | "incomplete"
    near_collisions: tuple[tuple[int, int], ...]


def _complex_values(spec: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """mu and lambda as complex arrays, refusing a value beyond the float range.

    Each part of each exact view (x, y, n) is one correctly rounded integer
    division, x/n or y/n.
    """
    try:
        mu, lam = ([complex(x / n, y / n) for x, y, n in v] for v in (spec.mu, spec.lam))
        return np.array(mu), np.array(lam)
    except OverflowError:
        raise DimensionCapError("a shift or multiplier above the float range 1.8e308") from None


class SigmaSystem:
    """The d equations in d unknowns and their Newton step, on columns of tuples."""

    def __init__(self, spec: Spectrum):
        if spec.d < 3:
            raise DegreeTooSmallError("degree 2 is handled analytically, not by the solver")
        self.d = spec.d
        self.mu, self.lam = _complex_values(spec)
        self.inv_mu = 1 / self.mu[:, None]

    def residual(self, Z: np.ndarray) -> np.ndarray:
        """Equation values at each column of Z (shape (d, B)), each from its column alone."""
        d = self.d
        F = np.empty_like(Z)
        F[0] = Z.sum(axis=0)
        P = np.empty((d - 1, *Z.shape), dtype=complex)  # P[k-1] = mu * Z^k
        np.multiply(self.mu[:, None], Z, out=P[0])
        for k in range(1, d - 1):
            np.multiply(P[k - 1], Z, out=P[k])
        F[1:] = P.sum(axis=1)
        F[d - 1] += 1
        return F

    def step(self, Z: np.ndarray, F: np.ndarray) -> np.ndarray:
        """The Newton step s with J(Z) s = -F, per column of Z and F (shape (d, B)).

        Row k >= 1 of J is k * mu_j * zeta_j^(k-1), so in t = mu * s rows
        1..d-1 are the moments sum_j zeta_j^m t_j = b_m = -F_(m+1) / (m+1),
        m <= d-2, of the Vandermonde system V t = (b, c) with a free top
        moment c.  Bjorck and Pereyra's two triangular sweeps solve
        V u = (b, 0) and V w = e_(d-1) at once, and row 0,
        sum_j t_j / mu_j = -F_0, fixes c in t = u + c w.  A singular J (equal
        coordinates, or sum_j w_j / mu_j = 0) gives a step that is not finite.
        """
        d = self.d
        n = d - 1
        f = np.zeros((d, 2, Z.shape[1]), dtype=complex)  # f[:, 0] -> u, f[:, 1] -> w
        f[:n, 0] = F[1:] / -np.arange(1.0, d)[:, None]
        f[n, 1] = 1.0
        for k in range(n):  # the first sweep leaves e_(d-1) as it is
            f[k + 1 :, 0] -= Z[k] * f[k:n, 0]
        for k in range(n - 1, -1, -1):
            f[k + 1 :] /= (Z[k + 1 :] - Z[: n - k])[:, None]
            f[k:n] -= f[k + 1 :]
        u, w = f[:, 0], f[:, 1]
        c = (-F[0] - (self.inv_mu * u).sum(axis=0)) / (self.inv_mu * w).sum(axis=0)
        return (u + c * w) * self.inv_mu


def _newton_batch(system: SigmaSystem, Z: np.ndarray) -> np.ndarray:
    """Newton on each row of Z (shape (B, d)) until a step fails to lower its
    max-norm residual or that is at most ``EPS_STOP``; the residuals are
    returned and each row's last iterate is left in Z.

    The rows still running are kept in column layout, one contiguous row per
    coordinate; a row is written back once, when it stops.  A far start
    overflows and a singular Jacobian gives no finite step, so either stops.
    """
    X = Z.T.copy()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        F = system.residual(X)
        norms = N = np.abs(F).max(axis=0)
        idx = np.arange(len(Z))
        for _ in range(MAX_ITER):
            if idx.size == 0:
                break
            trial = X + system.step(X, F)
            trial_F = system.residual(trial)
            trial_N = np.abs(trial_F).max(axis=0)
            go = (trial_N < N) & (N > EPS_STOP)
            if not go.all():
                stop = ~go
                Z[idx[stop]], norms[idx[stop]], idx = X[:, stop].T, N[stop], idx[go]
                kept = (trial, trial_F, trial_N)
                trial, trial_F, trial_N = (a.compress(go, -1) for a in kept)
            X, F, N = trial, trial_F, trial_N
    Z[idx], norms[idx] = X.T, N  # rows still running after MAX_ITER
    return norms


def _require_solver_degree(d: int, cfg: SolverConfig) -> None:
    if d > cfg.max_degree:
        raise DimensionCapError(f"degree {d} above solver cap {cfg.max_degree}")


@lru_cache(maxsize=None)
def _pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(d, 1)  # the coordinate pairs i < j, once per degree


def _check_batch(C: np.ndarray, accepted: np.ndarray, expected: int) -> tuple[np.ndarray, int]:
    """Indices of the new distinct tuples among the rows C, and the number of
    duplicates.  C is a Newton batch's converged rows or one of the image
    arrays of ``_close``.  Relative to max(1, max_i |zeta_i|) of the row
    checked, a row with two coordinates within ``EPS_SEP`` collides and is
    dropped, and one of the others is a duplicate when an accepted row or an
    earlier one of them is within ``EPS_DUP`` of it in max-norm.  Raises
    ``SpuriousSolutionError`` past ``expected`` tuples.
    """
    scale = np.maximum(1.0, np.abs(C).max(axis=1))
    i, j = _pairs(C.shape[1])
    rows = np.flatnonzero(np.abs(C[:, i] - C[:, j]).min(axis=1) > EPS_SEP * scale)
    first = _first_near(C[rows], np.concatenate([accepted, C[rows]]), EPS_DUP * scale[rows])
    dup = first < len(accepted) + np.arange(rows.size)
    if len(accepted) + rows.size - dup.sum() > expected:
        raise SpuriousSolutionError(
            f"found a {expected + 1}-th distinct tuple, expected {expected}"
        )
    return rows[~dup], int(dup.sum())


def _disc_starts(rng: random.Random, count: int, d: int, radius: float) -> np.ndarray:
    # The floats rng.random() would give, in one call: random() makes
    # ((a >> 5) * 2^26 + (b >> 6)) / 2^53 of each pair of the generator's
    # words, which getrandbits packs little-endian; the end state is the same.
    n = 2 * count * d
    words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), "<u4")
    u = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) / 9007199254740992.0
    u = u.reshape(2, count, d)
    Z = radius * np.sqrt(u[0]) * np.exp(2j * np.pi * u[1])
    return Z - Z.mean(axis=1, keepdims=True)  # project onto the zero-sum plane


def _accept(
    C: np.ndarray, norms: np.ndarray, zeta: np.ndarray, residual: np.ndarray, expected: int
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The accepted tuples and residuals with the new distinct rows of C added,
    and how many rows of C are below ``EPS_RES`` and how many of those are
    duplicates (see ``_check_batch``)."""
    rows = np.flatnonzero(norms < EPS_RES)
    if rows.size == 0:
        return zeta, residual, 0, 0
    new, dups = _check_batch(C[rows], zeta, expected)
    zeta = np.concatenate([zeta, C[rows[new]]])
    return zeta, np.concatenate([residual, norms[rows[new]]]), rows.size, dups


def _generators(d: int, classes: ValueClasses) -> tuple[np.ndarray, np.ndarray]:
    """The swaps of neighbours within each value class, which generate G, as
    rows of column permutations, and the factors omega^k, k = 1..d-2, of the
    nontrivial rotations zeta -> omega^k * zeta, omega = exp(2 pi i / (d-1))."""
    swaps = [(a, b) for cls in classes.classes for a, b in zip(cls, cls[1:])]
    perms = np.tile(np.arange(d), (len(swaps), 1))
    for perm, (a, b) in zip(perms, swaps):
        perm[[a, b]] = b, a
    return perms, np.exp(2j * np.pi / (d - 1) * np.arange(1, d - 1))


def solve_system(
    spec: Spectrum,
    cfg: SolverConfig | None = None,
    expected: int | None = None,
) -> SolveResult:
    """Multi-start Newton search for all distinct solution tuples.

    Starts are drawn from the disc of radius 4 (min_i |mu_i|)^(-1/(d-1)).
    The first batch has ``STARTS_PER_ORBIT`` starts per orbit of
    G x C_(d-1) that ``expected`` implies, ceil(expected / (|G| (d-1))), and
    each later batch twice the last, both at most ``BATCH_SIZE``; with
    ``expected == 0`` every batch has ``BATCH_SIZE`` starts.

    The new distinct tuples of each batch are closed under G x C_(d-1)
    (``_close``: one check of their nontrivial rotations, then rounds over
    the swaps), so one converged start yields its whole orbit.  ``starts``
    counts Newton starts; ``converged`` counts Newton rows below ``EPS_RES``
    and ``deduplicated`` those of them that duplicate an accepted tuple or
    an earlier row of their batch.  So converged >= deduplicated, and there
    are at most (converged - deduplicated) * |G| * (d-1) tuples.

    Stops issuing new starts once ``expected`` tuples are found (candidates
    already in flight are still checked, so an excess solution raises
    ``SpuriousSolutionError``).  With ``expected == 0`` the full budget runs.
    Raises ``BudgetExhaustedError`` (carrying the partial result) if the
    budget runs out short of ``expected``.
    """
    cfg = cfg or SolverConfig()
    system = SigmaSystem(spec)  # refuses d < 3 first
    _require_solver_degree(spec.d, cfg)
    expected = fiber_report(spec).e_I0 if expected is None else expected
    return _solve(system, cfg, expected, value_classes(spec))


def _close(system: SigmaSystem, swaps, rotations, zeta, residual, last: int, expected: int):
    """``zeta`` and ``residual`` with the rows from ``last`` on closed under
    G x C_(d-1): their images under every nontrivial rotation pass ``_accept``
    as one array, then each round those of the rows last added under every
    swap, until one adds none (swaps commute with rotations: one pass does)."""
    C = (zeta[last:, None] * rotations[:, None]).reshape(-1, system.d)
    while len(C):
        norms = np.abs(system.residual(C.T)).max(axis=0)
        zeta, residual = _accept(C, norms, zeta, residual, expected)[:2]
        C, last = zeta[last:, swaps].reshape(-1, system.d), len(zeta)
    return zeta, residual


def _solve(system: SigmaSystem, cfg: SolverConfig, expected: int, classes: ValueClasses):
    """``solve_system`` on a built system, with the exact count and value classes given."""
    d = system.d
    rng = random.Random(cfg.seed)  # importing numpy.random costs about 6 MB RSS
    radius = 4.0 * float(np.abs(system.mu).min()) ** (-1.0 / (d - 1))
    budget = cfg.budget_factor * (d - 1) * max(expected // (d - 1), 1)
    swaps, rotations = _generators(d, classes)
    orbits = -(-expected // (group_order(classes.sizes) * (d - 1)))
    batch = min(STARTS_PER_ORBIT * orbits, BATCH_SIZE) or BATCH_SIZE

    zeta, residual = np.empty((0, d), dtype=complex), np.empty(0)  # the accepted tuples
    starts = converged = duplicates = 0
    while starts < budget and not 0 < expected <= len(zeta):
        count = min(batch, budget - starts)
        batch = min(2 * batch, BATCH_SIZE)
        Z = _disc_starts(rng, count, d, radius)
        norms = _newton_batch(system, Z)
        starts += count
        last = len(zeta)
        zeta, residual, conv, dups = _accept(Z, norms, zeta, residual, expected)
        converged += conv
        duplicates += dups
        zeta, residual = _close(system, swaps, rotations, zeta, residual, last, expected)

    # lexicographic by (re, im) of each coordinate; lexsort's last key leads
    order = np.lexsort([part for col in zeta.T[::-1] for part in (col.imag, col.real)])
    result = SolveResult(zeta[order], residual[order], starts, converged, duplicates)
    if len(zeta) < expected:
        raise BudgetExhaustedError(
            f"found {len(zeta)} of {expected} tuples in {starts} starts",
            result=result,
        )
    return result


def _multipliers(Z: np.ndarray) -> np.ndarray:
    """Per row of Z, the multipliers of z + prod_j (z - zeta_j) at each zeta_i.

    The derivative at zeta_i is 1 + prod over j != i of (zeta_i - zeta_j).
    """
    diff = Z[:, :, None] - Z[:, None, :]
    diag = np.arange(Z.shape[1])
    diff[:, diag, diag] = 1.0
    return 1 + diff.prod(axis=2)


def forward_multipliers(zeta) -> list[complex]:
    """Multipliers of z + prod(z - zeta_j) at its fixed points zeta_i."""
    z = np.asarray([complex(v) for v in zeta])
    if np.unique(z).size < z.size:
        raise CoincidentRootsError("fixed-point coordinates must be distinct")
    return [complex(m) for m in _multipliers(z[None, :])[0]]


def _near_pairs(A: np.ndarray, B: np.ndarray, tol):
    """Yield, block by block of A, the pairs (i, j) with row i of A closer than
    ``tol`` (a scalar, or one per row of A) to row j of B in max-norm, i ascending.
    Row i is tested by coordinates against the rows of B within 2 tol of it in Re
    zeta_0 only (rounding drops none); a block holds at most ``NEAR_BLOCK`` of
    these candidates past one row's."""
    tol = np.full(len(A), tol)
    order = np.argsort(B[:, 0].real)
    key = B[order, 0].real
    lo = np.searchsorted(key, A[:, 0].real - 2 * tol)
    counts = np.searchsorted(key, A[:, 0].real + 2 * tol, "right") - lo
    cuts = np.searchsorted(np.cumsum(counts), np.arange(NEAR_BLOCK, counts.sum(), NEAR_BLOCK))
    for s, e in zip([0, *cuts], [*cuts, len(A)]):
        c = counts[s:e]
        i, t = np.repeat(np.arange(s, e), c), np.repeat(tol[s:e], c)
        j = order[np.arange(len(i)) + np.repeat(lo[s:e] + c - np.cumsum(c), c)]
        for a, b in zip(A.T, B.T):
            near = np.abs(a[i] - b[j]) < t
            if not near.all():
                i, j, t = i[near], j[near], t[near]
        yield i, j


def _first_near(A: np.ndarray, B: np.ndarray, tol) -> np.ndarray:
    """For each row of A, the least j of ``_near_pairs``, or len(B) if none."""
    first = np.full(len(A), len(B))
    for i, j in _near_pairs(A, B, tol):
        np.minimum.at(first, i, j)
    return first


def _orbits(Z: np.ndarray, classes: ValueClasses, check: bool = True) -> int:
    """Number of distinct polynomials z + prod_j (z - zeta_j) over the rows of Z.

    Two rows give one polynomial iff each value class holds the same
    coordinates in both.  Rows are scaled to max_i |zeta_i| = 1 (never 0 on a
    solution, since sum_i mu_i zeta_i^(d-1) = -1) and compared within
    ``EPS_DUP`` by the coefficients of prod_j (x - zeta_j) over each class;
    each row is labelled by the first row that agrees with it.  With
    ``check``, every polynomial must come from group-order many rows: a
    wrong-sized orbit means duplicates, missing tuples or a tolerance failure.
    """
    Z = Z / np.abs(Z).max(axis=1, keepdims=True)
    C = np.zeros_like(Z)  # per class, descending, the leading 1 left out
    at = 0
    for cls in classes.classes:
        for m, j in enumerate(cls):  # multiply by (x - zeta_j)
            C[:, at + 1 : at + m + 1] -= Z[:, j : j + 1] * C[:, at : at + m]
            C[:, at] -= Z[:, j]
        at += len(cls)
    sizes = np.unique(_first_near(C, C, EPS_DUP), return_counts=True)[1]
    order = group_order(classes.sizes)
    if check and (sizes != order).any():
        size = sizes[sizes != order][0]
        raise NonFreeActionError(f"orbit of size {size} where the group order is {order}")
    return len(sizes)


def orbit_count(tuples, classes: ValueClasses) -> int:
    """Group tuples into the distinct polynomials they define.

    Two tuples define one polynomial iff a class-preserving coordinate
    permutation maps one to the other.  Raises ``NonFreeActionError``
    unless every polynomial comes from exactly group-order many tuples.
    """
    Z = np.array([t.zeta for t in tuples], dtype=complex)
    return _orbits(Z.reshape(len(tuples), sum(classes.sizes)), classes)


def verify_spectrum(spec: Spectrum, cfg: SolverConfig | None = None) -> VerificationReport:
    """Close the loop: solve, re-derive multipliers, count orbits, compare.

    Raises ``MultiplierMismatchError`` when an accepted tuple's multipliers
    miss the spectrum by more than ``cfg.eps_mult`` relative to max(1, |lambda|).
    """
    cfg = cfg or SolverConfig()
    d = spec.d
    if d > 2:  # refuse before the exact count; degree 2 is analytic
        _require_solver_degree(d, cfg)
        system = SigmaSystem(spec)  # also refuses before the exact count
    mu, lam = (system.mu, system.lam) if d > 2 else _complex_values(spec)  # shared with the solve
    counts = fiber_report(spec)
    classes = value_classes(spec)  # the solve and the orbit count share one grouping
    expected_tuples = counts.e_I0

    if d == 2:
        # Analytic: the unique configuration is (c, -c) with c = -1/(2 mu_1),
        # one converged tuple from no starts.
        c = -1.0 / (2.0 * mu[0])
        result = SolveResult(np.array([[c, -c]]), np.zeros(1), 0, 1, 0)
    else:
        try:
            result = _solve(system, cfg, expected_tuples, classes)
        except BudgetExhaustedError as exc:
            result = exc.result

    Z = result.zeta
    found = result.found_tuples
    err = np.abs(_multipliers(Z) - lam)
    max_err = float(err.max(initial=0.0))
    max_rel = float((err / np.maximum(1.0, np.abs(lam))).max(initial=0.0))
    if max_rel > cfg.eps_mult:
        raise MultiplierMismatchError(
            f"relative multiplier error {max_rel:.3g} above eps_mult {float(cfg.eps_mult):g}"
        )

    # warnings: pairs of tuples within 10x the dedup threshold of the first
    tol = 10 * EPS_DUP * np.maximum(1.0, np.abs(Z).max(axis=1))
    near = np.concatenate([np.c_[i, j][i < j] for i, j in _near_pairs(Z, Z, tol)])
    # a short run finds part of some orbits, so only a full set is size-checked
    orbits = _orbits(Z, classes, check=found == expected_tuples)
    if found < expected_tuples:  # the budget ran out
        status = "incomplete"
    elif expected_tuples == 0:
        # an empty budget is evidence of nothing
        status = "consistent" if result.starts else "incomplete"
    else:
        status = "verified"
    return VerificationReport(
        zeta=Z,
        residual=result.residual,
        starts=result.starts,
        converged=result.converged,
        deduplicated=result.deduplicated,
        d=d,
        expected_tuples=expected_tuples,
        mc_orbits=orbits,
        expected_orbits=counts.mc_count,
        max_multiplier_error=max_err,
        status=status,
        near_collisions=tuple(sorted(map(tuple, near.tolist()))),
    )
