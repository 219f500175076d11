"""Independent computations and output checks for the benchmark.

Nothing here imports ``multfiber``: every expected value is derived again
from the exact shift vector that the benchmark drew itself.

Gaussian rationals are plain ``(re, im)`` pairs of ``Fraction``.  Zero-sum
subsets come from a meet-in-the-middle join over integer sums (a different
algorithm from the program's 2^d scan), and the paper's signed sum

    (d-1) * s_d = sum over zero-sum partitions of
                  (-(d-1))^(#blocks-1) * prod over blocks of (|B|-1)!

is evaluated by a dynamic programme over zero-sum masks, so no partition
list is ever built.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import factorial, gcd, lcm

# --- exact scalars -----------------------------------------------------------

def multiplier(mu):
    """lambda = 1 - 1/mu."""
    norm = mu[0] * mu[0] + mu[1] * mu[1]
    return (1 - mu[0] / norm, mu[1] / norm)


def literal(z) -> str:
    """Gaussian-rational literal in the program's ``p/q+r/si`` syntax."""
    re, im = z
    text = f"{re.numerator}/{re.denominator}"
    if im:
        sign = "+" if im > 0 else "-"
        text += f"{sign}{abs(im.numerator)}/{im.denominator}i"
    return text


def as_complex(z) -> complex:
    return complex(float(z[0]), float(z[1]))


# --- zero-sum structure --------------------------------------------------------

def integer_vectors(values) -> list[tuple[int, ...]]:
    """Clear denominators so that sums of the values are integer tuples."""
    denom = 1
    for z in values:
        for part in z:
            denom = lcm(denom, Fraction(part).denominator)
    return [tuple(int(Fraction(part) * denom) for part in z) for z in values]


def zero_sum_masks(vectors) -> list[int]:
    """Proper nonempty index sets whose vectors sum to zero (sorted masks).

    Horowitz-Sahni split: list the subset sums of each half, then join each
    low-half sum with the high-half subsets carrying its negation.
    """
    d = len(vectors)
    width = len(vectors[0])
    half = d // 2

    def subset_sums(offset, count):
        sums = {0: (0,) * width}
        for mask in range(1, 1 << count):
            low = mask & -mask
            i = low.bit_length() - 1
            prev = sums[mask ^ low]
            sums[mask] = tuple(p + v for p, v in zip(prev, vectors[offset + i]))
        return sums

    low_sums = subset_sums(0, half)
    high_by_sum: dict[tuple, list[int]] = {}
    for mask, total in subset_sums(half, d - half).items():
        high_by_sum.setdefault(total, []).append(mask << half)
    full = (1 << d) - 1
    hits = []
    for mask, total in low_sums.items():
        for high in high_by_sum.get(tuple(-t for t in total), ()):
            joined = mask | high
            if joined and joined != full:
                hits.append(joined)
    return sorted(hits)


def partition_polynomial(d: int, masks) -> dict[int, list[int]]:
    """block count k -> [partitions with k blocks, sum of their prod (|B|-1)!].

    Each step removes the block holding the lowest free index, so every
    partition is counted once.  ``masks`` are the proper zero-sum subsets.
    """
    full = (1 << d) - 1
    blocks = list(masks) + [full]
    memo: dict[int, dict[int, list[int]]] = {0: {0: [1, 1]}}

    def grade(rest: int) -> dict[int, list[int]]:
        if rest in memo:
            return memo[rest]
        low = rest & -rest
        out: dict[int, list[int]] = {}
        for b in blocks:
            if b & low and not b & ~rest:
                weight = factorial(b.bit_count() - 1)
                for k, (count, total) in grade(rest ^ b).items():
                    acc = out.setdefault(k + 1, [0, 0])
                    acc[0] += count
                    acc[1] += weight * total
        memo[rest] = out
        return out

    return grade(full)


def class_sizes(values) -> tuple[int, ...]:
    """Sizes of the classes of equal multipliers, ordered by first index."""
    first: dict[tuple, int] = {}
    sizes: list[int] = []
    for z in values:
        if z in first:
            sizes[first[z]] += 1
        else:
            first[z] = len(sizes)
            sizes.append(1)
    return tuple(sizes)


def expected_counts(mu) -> dict:
    """Every count the program reports, derived from the shift vector."""
    d = len(mu)
    masks = zero_sum_masks(integer_vectors(mu))
    poly = partition_polynomial(d, masks)
    signed = sum(w * (-(d - 1)) ** (k - 1) for k, (_, w) in poly.items())
    if signed % (d - 1):
        raise ArithmeticError(f"signed sum {signed} not divisible by {d - 1}")
    s_d = signed // (d - 1)
    sizes = class_sizes(mu)  # equal shifts <=> equal multipliers
    order = 1
    for n in sizes:
        order *= factorial(n)
    gcds = [
        gcd(*(n - (i == w) for i, n in enumerate(sizes)), 0) for w in range(len(sizes))
    ]
    return {
        "d": d,
        "s_d": s_d,
        "zero_sum_subsets": len(masks),
        "partitions": sum(count for count, _ in poly.values()),
        "kappa_sizes": list(sizes),
        "group_order": order,
        "mp_defined": all(g == 1 for g in gcds),
    }


# --- output checks ---------------------------------------------------------------

def check_count(out: dict, exp: dict, anchor: tuple | None = None) -> list[str]:
    """Problems with one ``fiber_report`` output; empty when it is correct."""
    problems = []
    d, s_d, order = exp["d"], exp["s_d"], exp["group_order"]
    if out["s_d"] != s_d:
        problems.append(f"s_d {out['s_d']} != signed partition sum {s_d}")
    if any(v != out["s_d"] for v in out["engines"].values()):
        problems.append(f"routes disagree: {out['engines']}")
    if out["e_I0"] != (d - 1) * s_d:
        problems.append(f"e_I0 {out['e_I0']} != (d-1)*s_d")
    if out["mc_count"] * order != (d - 1) * s_d:
        problems.append(f"mc_count {out['mc_count']} * |G| {order} != (d-1)*s_d")
    if (out["mp_count"] is not None) != exp["mp_defined"]:
        problems.append(f"mp_count presence wrong: {out['mp_count']}")
    elif out["mp_count"] is not None and out["mp_count"] * order != s_d:
        problems.append(f"mp_count {out['mp_count']} * |G| != s_d")
    if out["zero_sum_subsets"] != exp["zero_sum_subsets"]:
        problems.append(f"Z {out['zero_sum_subsets']} != {exp['zero_sum_subsets']}")
    if out["lattice_partitions"] != exp["partitions"]:
        problems.append(f"P {out['lattice_partitions']} != {exp['partitions']}")
    if list(out["kappa_sizes"]) != exp["kappa_sizes"]:
        problems.append(f"class sizes {out['kappa_sizes']} != {exp['kappa_sizes']}")
    if anchor is not None:
        got = (out["s_d"], out["mc_count"], out["mp_count"])
        if got[: len(anchor)] != anchor:
            problems.append(f"hand anchor {anchor} != {got[:len(anchor)]}")
    return problems


REL_TOL = 1e-7


def _close(value: complex, target: complex, scale: float) -> bool:
    return abs(value - target) <= REL_TOL * max(scale, abs(target), 1e-300)


def check_tuple(zeta, mu, lam) -> list[str]:
    """Distinct coordinates, the sigma-system, and the forward multipliers."""
    d = len(zeta)
    for i in range(d):
        for j in range(i + 1, d):
            if abs(zeta[i] - zeta[j]) <= REL_TOL * max(abs(zeta[i]), abs(zeta[j])):
                return [f"coordinates {i} and {j} coincide"]
    if not _close(sum(zeta), 0, sum(abs(z) for z in zeta)):
        return ["coordinates do not sum to 0"]
    for k in range(1, d):
        terms = [m * z**k for m, z in zip(mu, zeta)]
        target = -1 if k == d - 1 else 0
        if not _close(sum(terms), target, sum(abs(t) for t in terms)):
            return [f"power-sum equation {k} fails"]
    for i in range(d):
        prod = 1
        for j in range(d):
            if j != i:
                prod *= zeta[i] - zeta[j]
        if not _close(1 + prod, lam[i], abs(prod)):
            return [f"multiplier {i}: {1 + prod} != {lam[i]}"]
    return []


def check_verify(out: dict, exp: dict, mu, lam) -> list[str]:
    """Problems with one ``verify_spectrum`` output; empty when it is correct.

    The status string and start counts are not pinned, since another solver
    may reach the same tuples differently; only "incomplete" is a failure.
    """
    problems = []
    expected = (exp["d"] - 1) * exp["s_d"]
    tuples = out["tuples"]
    if out["status"] == "incomplete":
        problems.append("status incomplete")
    if len(tuples) != expected or out["found_tuples"] != expected:
        problems.append(
            f"{out['found_tuples']} tuples reported, {len(tuples)} returned, "
            f"(d-1)*s_d = {expected}"
        )
    mc = expected // exp["group_order"]
    if out["mc_orbits"] != mc:
        problems.append(f"mc_orbits {out['mc_orbits']} != {mc}")
    for n, zeta in enumerate(tuples):
        problems += [f"tuple {n}: {p}" for p in check_tuple(zeta, mu, lam)]
    for a in range(len(tuples)):
        for b in range(a + 1, len(tuples)):
            gap = max(abs(x - y) for x, y in zip(tuples[a], tuples[b]))
            if gap <= REL_TOL * max(abs(x) for x in tuples[a]):
                problems.append(f"tuples {a} and {b} coincide")
    return problems


def complex_spectrum(mu_exact):
    """Float shift and multiplier vectors for the tuple checks."""
    return [as_complex(m) for m in mu_exact], [as_complex(multiplier(m)) for m in mu_exact]


# --- self-test of the checks ------------------------------------------------------

def count_mutants(out: dict):
    """Wrong copies of a correct count output, each of which must be rejected."""
    yield "s_d off by one", {**out, "s_d": out["s_d"] + 1}
    yield "mc_count off by one", {**out, "mc_count": out["mc_count"] + 1}
    flipped = None if out["mp_count"] is not None else 0
    yield "mp_count presence flipped", {**out, "mp_count": flipped}
    yield "Z off by one", {**out, "zero_sum_subsets": out["zero_sum_subsets"] + 1}
    yield "P off by one", {**out, "lattice_partitions": out["lattice_partitions"] + 1}


def verify_mutants(out: dict):
    """Wrong copies of a correct, nonempty verify output."""
    tuples = out["tuples"]
    yield "found count off by one", {**out, "found_tuples": out["found_tuples"] + 1}
    yield "orbit count off by one", {**out, "mc_orbits": out["mc_orbits"] + 1}
    yield "dropped tuple", {**out, "tuples": tuples[1:]}
    yield "duplicated tuple", {**out, "tuples": [tuples[0]] + tuples[1:-1] + [tuples[0]]}
    bumped = [list(t) for t in tuples]
    z = bumped[0][0]
    bumped[0][0] = z + 1e-4 * max(abs(z), 1e-12) * cmath.exp(0.5j)
    yield "perturbed coordinate", {**out, "tuples": bumped}
