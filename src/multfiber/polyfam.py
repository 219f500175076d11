"""Coarsening-sum polynomials over abstract set partitions.

For a partition with l blocks, summing a signed product over all its
k-block coarsenings yields a quantity that depends only on l, k and the
total degree d.  This module carries that machinery in three equivalent
layers: the sum on explicit block sizes (``coarsening_sum``, one pass of
the lowest-block recurrence over the 2^l subsets of the blocks, which
lists no partition), the one-variable integer polynomial in d obtained
by collapsing (``collapsed_poly``, built from a two-term recurrence), and
the evaluated value (``coarsening_value``).  On top of it sits the signed
vanishing sum over all coarsenings, which must be identically zero for
every size vector; this identity is the engine behind the
closed-form count; ``vanishing_sweep`` checks it on size multisets.  A
vector of l blocks costs 3^l states; ``MAX_STATES`` bounds one vector or a sweep.

Everything here is exact integer arithmetic over abstract partitions; no
spectrum is needed.  Outputs are immutable; the polynomial cache is a
plain per-interpreter ``lru_cache`` (use one interpreter per thread or
treat it as shared read-mostly state).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb

from .errors import DimensionCapError
from .lattice import subset_sums

# A size vector of l blocks costs 3^l states: its row pass joins (3^l - 1)/2
# block pairs over 2^l subsets, about 0.6-1 us per state, so 2-3 s at the limit.
MAX_STATES = 3_000_000
# Bounds l in collapsed_poly, whose recursion is l deep, and so coarsening_value and
# the polyfam table: 574k coefficients for l <= 150, about 4 s and 440 MB.
MAX_TABLE_L = 150


@dataclass(frozen=True)
class IntPolynomial:
    """Univariate integer polynomial, ascending coefficients, trimmed."""

    coefficients: tuple[int, ...] = ()

    def __post_init__(self):
        coeffs = tuple(self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, c in enumerate(b):
            summed[i] += c
        return IntPolynomial(tuple(summed))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coefficients))
        out = [0] * (len(self.coefficients) + len(other.coefficients))
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    __rmul__ = __mul__

    def __call__(self, x: int) -> int:
        value = 0
        for c in reversed(self.coefficients):
            value = value * x + c
        return value

    def text(self, var: str = "d") -> str:
        """Human-readable form like ``3d^2-9d+7``."""
        if self.is_zero:
            return "0"
        terms = []
        for power in range(self.degree, -1, -1):
            c = self.coefficients[power]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if terms else "")
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = f"{head}{var}" if power == 1 else f"{head}{var}^{power}"
            terms.append(f"{sign}{body}")
        return "".join(terms)


# --- coarsening sums ----------------------------------------------------------

def _coarsening_row(xs: tuple[int, ...]) -> list[int]:
    """Coarsening sums of all l = len(xs) blocks, indexed by k = 0..l.

    One ascending pass over the 2^l subsets S of the blocks: a k-block
    partition of S is the block J holding the lowest element of S with a
    (k-1)-block partition of S - J (smaller, visited earlier), so each is
    counted once.  Refuses 3^l above ``MAX_STATES`` (14 blocks or more).
    """
    if 3 ** len(xs) > MAX_STATES:
        raise DimensionCapError(f"3^{len(xs)} states above the state limit {MAX_STATES}")
    sums = subset_sums(xs)  # sums[J] is the sum of xs over J
    weight = [0] + [(1 - sums[j]) ** (j.bit_count() - 1) for j in range(1, len(sums))]
    rows = [[1]]  # rows[S][k] sums the k-block partitions of S; one of the empty set
    for mask in range(1, len(sums)):
        low = mask & -mask
        rest = mask ^ low
        row = [0] * (mask.bit_count() + 1)
        t = rest
        while True:  # every block J = low | t with t a subset of rest
            w = weight[low | t]
            for k, c in enumerate(rows[rest ^ t]):
                row[k + 1] += w * c
            if not t:
                break
            t = (t - 1) & rest
        rows.append(row)
    return rows[-1]


def coarsening_sum(l: int, k: int, xs) -> int:
    """Signed sum over k-block partitions of {1..l} evaluated at sizes ``xs``.

    Each partition contributes the product over its blocks J of
    {-(sum of xs over J - 1)}^(#J - 1).  Symmetric in the entries of xs.
    Zero for k <= 0 or k >= l+1.
    """
    xs = tuple(xs)
    if len(xs) != l:
        raise ValueError(f"expected {l} values, got {len(xs)}")
    if l < 2:
        raise ValueError(f"need l >= 2, got {l}")
    if k <= 0 or k >= l + 1:
        return 0
    return _coarsening_row(xs)[k]


@lru_cache(maxsize=None)
def collapsed_poly(l: int, k: int) -> IntPolynomial:
    """One-variable collapse of the coarsening sum, as a polynomial in d.

    Built from the recurrence  p(l+1, k) = p(l, k-1) - (Y - k) * p(l, k)
    with base row p(2, 1) = -(Y-1), p(2, 2) = 1, zero otherwise; the
    polynomial has degree l-k with leading sign (-1)^(l-k) for
    1 <= k <= l, and is zero outside that range.  The recursion is l deep,
    so l above ``MAX_TABLE_L`` is refused before it starts.
    """
    if l < 2:
        raise ValueError(f"need l >= 2, got {l}")
    if l > MAX_TABLE_L:
        raise DimensionCapError(f"l = {l} above the table limit {MAX_TABLE_L}")
    if k <= 0 or k >= l + 1:
        return IntPolynomial()
    if l == 2:
        return IntPolynomial((1, -1)) if k == 1 else IntPolynomial((1,))
    y_minus_k = IntPolynomial((-k, 1))
    return collapsed_poly(l - 1, k - 1) - y_minus_k * collapsed_poly(l - 1, k)


def coarsening_value(l: int, k: int, d: int) -> int:
    """The coarsening sum as a function of l, k and the total degree d."""
    return collapsed_poly(l, k)(d)


# --- identities -------------------------------------------------------------------

def vanishing_sum(block_sizes) -> int:
    """Full signed sum over all coarsenings of an l-block partition.

    For blocks of the given sizes (each >= 2, total d), every coarsening
    with k blocks contributes prod_{j=d-k+1}^{d-1} j times the product
    over its merged blocks of {-(merged size - 1)}^(#merged - 1), so the sum
    is that span times ``coarsening_sum(l, k, sizes)``, summed over k; one
    pass gives every k.  The result is always 0; returning the computed
    integer lets callers assert that.
    """
    sizes = tuple(block_sizes)
    l = len(sizes)
    if l < 2:
        raise ValueError(f"need at least 2 blocks, got {l}")
    row = _coarsening_row(sizes)
    d = sum(sizes)
    total, span = 0, 1
    for k, value in enumerate(row[1:], 1):
        total += span * value
        span *= d - k  # the span for k + 1
    return total


def vanishing_sweep(max_l: int, max_size: int) -> tuple[int, list[tuple[tuple[int, ...], int]]]:
    """``vanishing_sum`` on every multiset of 2..max_l sizes in 2..max_size (the
    sum is symmetric): the vectors checked and the (sizes, sum) of each nonzero
    sum.  Refused before any is checked when their states, the sum over l of
    C(l + max_size - 2, l) * 3^l, pass ``MAX_STATES``."""
    ls = range(2, max_l + 1 if max_size >= 2 else 2)  # max_size < 2: no vector
    states = 0
    for l in ls:  # 3^l >= 9 grows, so this stops by l = 14
        states += comb(l + max_size - 2, l) * 3**l
        if states > MAX_STATES:
            raise DimensionCapError(f"sweep of {states} states above the state limit {MAX_STATES}")
    checked, failures = 0, []
    for l in ls:
        for sizes in combinations_with_replacement(range(2, max_size + 1), l):
            checked += 1
            if total := vanishing_sum(sizes):
                failures.append((sizes, total))
    return checked, failures


def collapsed_table(max_l: int) -> list[tuple[int, int, IntPolynomial]]:
    """(l, k, ``collapsed_poly(l, k)``) for 1 <= k <= l <= max_l: l(l+1)/2 big-integer
    coefficients per l, so max_l above ``MAX_TABLE_L`` is refused before any is built."""
    if max_l > MAX_TABLE_L:
        raise DimensionCapError(f"table up to l = {max_l}, above the limit {MAX_TABLE_L}")
    return [(l, k, collapsed_poly(l, k)) for l in range(2, max_l + 1) for k in range(1, l + 1)]

