"""Coarsening-sum polynomials over abstract set partitions.

For a partition with l blocks, summing a signed product over all its
k-block coarsenings yields a quantity that depends only on l, k and the
total degree d.  This module carries that machinery in three equivalent
layers: the sum on explicit block sizes (``coarsening_sum``, one
``lattice.block_pairs`` pass over the class vectors of equal sizes, which
lists no partition), the one-variable integer polynomial in d obtained
by collapsing (``collapsed_poly``: [d^m] p(l, k) = (-1)^m C(l-1, m) S(l-m, k),
S the Stirling numbers of the second kind, so p(l, k)(d) is the non-central
Stirling number S_{1-d}(l-1, k-1) of (x + a)^n = sum_j S_a(n, j) x(x-1)...(x-j+1)),
and the evaluated value (``coarsening_value``).  On top of it sits the signed
vanishing sum over all coarsenings, zero for every size vector: the engine of
the closed-form count.  Collapsed, it is that expansion of 0^(l-1) at x = d-1,
a = 1-d: sum_k (d-1)...(d-k+1) p(l, k)(d) = 0.  ``vanishing_sweep`` checks it on
size multisets; ``MAX_STATES`` bounds a vector's states (3^l for l distinct sizes) or a sweep's.

Everything here is exact integer arithmetic over abstract partitions; no
spectrum is needed.  Outputs are immutable and nothing is cached.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb, prod

from .errors import DimensionCapError
from .frozen import Frozen
from .lattice import block_pairs

# States of a vector (``_size_classes``) or the sum of a sweep's: 0.4-1.4 us each, up to 4 s.
MAX_STATES = 3_000_000
# Bounds l in collapsed_poly, and so coarsening_value, and the polyfam table by the
# table's size: 574k big-integer coefficients for l <= 150, about 2.5 s and 440 MB to print.
MAX_TABLE_L = 150


class IntPolynomial(Frozen):
    """Univariate integer polynomial, ascending coefficients, trimmed."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: tuple[int, ...] = ()):
        coeffs = tuple(coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        super().__init__(coeffs)

    @property
    def degree(self) -> int:
        """Degree, or -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

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

def _size_classes(xs: tuple[int, ...]) -> tuple[dict[int, int], int]:
    """Each entry's count m_j, and the states of a coarsening pass over xs: prod C(m_j + 2, 2)
    pairs u <= v, times their rows' (l + 3)/3 terms over (r + 3)/3 for r classes; 3^l if r = l."""
    classes = dict.fromkeys(xs, 0)
    for x in xs:
        classes[x] += 1
    states = prod(comb(m + 2, 2) for m in classes.values())
    return classes, states * (len(xs) + 3) // (len(classes) + 3)


def _coarsening_row(xs: tuple[int, ...]) -> list[int]:
    """Coarsening sums of all l = len(xs) blocks, indexed by k = 0..l: one ``block_pairs``
    pass over the class vectors of equal entries (the sum is symmetric), a k-block
    partition being the block with the fixed index and a (k-1)-block one of the rest."""
    classes, states = _size_classes(xs)
    if states > MAX_STATES:
        raise DimensionCapError(f"{states} states above the state limit {MAX_STATES}")
    vectors, sums, fields, off = [0], [0], [], 0  # each vector's mask and sum of xs, ascending
    for x, m in classes.items():  # the class owns m bits above those before it
        vectors = [v | ((1 << c) - 1) << off for c in range(m + 1) for v in vectors]
        sums = [s + c * x for c in range(m + 1) for s in sums]
        fields += [((1 << m) - 1) << off] * (m > 1)
        off += m
    rows = {}  # rows[v][k] sums the k-block partitions of a set of vector v; [1] is its weight
    for (v, blocks), s in zip(block_pairs(vectors[1:], fields), sums[1:]):
        row = [0] * (v.bit_count() + 1)
        row[1] = (1 - s) ** (v.bit_count() - 1)
        for u, rest, ways in blocks:
            w = rows[u][1] * ways
            for k, c in enumerate(rows[rest], 1):
                row[k] += w * c
        rows[v] = row
    return row


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


def _stirling_rows(n: int) -> list[list[int]]:
    """Rows 0..n of the Stirling numbers of the second kind: ``rows[i][j]`` is
    S(i, j), by S(i, j) = S(i-1, j-1) + j * S(i-1, j)."""
    rows = [[1]]
    for i in range(1, n + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [prev[j - 1] + j * prev[j] for j in range(1, i + 1)])
    return rows


def _collapsed_row(stirling: list[list[int]], l: int) -> list[IntPolynomial]:
    """p(l, k) for k = 1..l from the Stirling rows 0..l: [d^m] p(l, k) is
    (-1)^m C(l-1, m) S(l-m, k) for m = 0..l-k."""
    signed = [(-1) ** m * comb(l - 1, m) for m in range(l)]
    return [
        IntPolynomial(tuple(signed[m] * stirling[l - m][k] for m in range(l - k + 1)))
        for k in range(1, l + 1)
    ]


def collapsed_poly(l: int, k: int) -> IntPolynomial:
    """One-variable collapse of the coarsening sum, as a polynomial in d.

    Degree l-k with leading sign (-1)^(l-k) for 1 <= k <= l, zero outside
    that range; l above ``MAX_TABLE_L`` is refused.
    """
    if l < 2:
        raise ValueError(f"need l >= 2, got {l}")
    if l > MAX_TABLE_L:
        raise DimensionCapError(f"l = {l} above the table limit {MAX_TABLE_L}")
    if k <= 0 or k >= l + 1:
        return IntPolynomial()
    return _collapsed_row(_stirling_rows(l), l)[k - 1]


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
    sum.  Refused before any is checked when the sum of their states passes
    ``MAX_STATES``; each costs at least 7, so that sum visits at most 430k."""
    ls = range(2, max_l + 1 if max_size >= 2 else 2)  # max_size < 2: no vector

    def multisets():
        return (xs for l in ls for xs in combinations_with_replacement(range(2, max_size + 1), l))

    checked = states = 0
    for sizes in multisets():
        checked, states = checked + 1, states + _size_classes(sizes)[1]
        if states > MAX_STATES:
            raise DimensionCapError(f"sweep of {states} states above the state limit {MAX_STATES}")
    return checked, [(xs, total) for xs in multisets() if (total := vanishing_sum(xs))]


def collapsed_table(max_l: int) -> list[tuple[int, int, IntPolynomial]]:
    """(l, k, ``collapsed_poly(l, k)``) for 1 <= k <= l <= max_l: l(l+1)/2 big-integer
    coefficients per l, so max_l above ``MAX_TABLE_L`` is refused before any is built."""
    if max_l > MAX_TABLE_L:
        raise DimensionCapError(f"table up to l = {max_l}, above the limit {MAX_TABLE_L}")
    stirling = _stirling_rows(max_l)
    rows = [(l, _collapsed_row(stirling, l)) for l in range(2, max_l + 1)]
    return [(l, k, poly) for l, row in rows for k, poly in enumerate(row, 1)]

