"""Seeded inputs for the three workloads.

A spectrum is drawn from a *template*: one linear form per index over a
few free variables, e.g. ``a, -a, b, -b`` or the blocks of a plan.  The
seed picks the variables; a draw is kept only when the zero-sum subsets of
the values are exactly those of the forms (checked by the benchmark's own
subset-sum search), and two values are equal exactly when their forms are.
So the lattice and the value classes, and with them the work per operation,
depend on the template and not on the seed.  Fixtures whose answers were
derived by hand are fixed and do not depend on the seed.

Every workload is a list of slots; one round runs every slot once.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracle import integer_vectors, literal, multiplier, zero_sum_masks

NUM, DEN = 99, 19  # numerator and denominator bounds of drawn variables


# --- templates: (variable count, one coefficient tuple per index) ----------------

def _unit(n: int, j: int, c: int = 1) -> tuple[int, ...]:
    return tuple(c if i == j else 0 for i in range(n))


def pairs(order: str):
    """``order`` names a variable per +/- pair: "abca" is a,-a,b,-b,c,-c,a,-a."""
    names = sorted(set(order))
    n = len(names)
    forms = []
    for ch in order:
        j = names.index(ch)
        forms += [_unit(n, j), _unit(n, j, -1)]
    return n, forms


def blocks(sizes):
    """Disjoint zero-sum blocks: each block of size s has s-1 free variables."""
    n = sum(s - 1 for s in sizes)
    forms, j = [], 0
    for s in sizes:
        free = [_unit(n, j + i) for i in range(s - 1)]
        forms += free + [tuple(-sum(col) for col in zip(*free))]
        j += s - 1
    return n, forms


def generic(d: int, repeats: int = 0):
    """No proper zero-sum subset; the first variable appears 1+repeats times."""
    n = d - 1 - repeats
    forms = [_unit(n, 0)] * (1 + repeats) + [_unit(n, j) for j in range(1, n)]
    return n, forms + [tuple(-sum(col) for col in zip(*forms))]


def doubled_block():
    """A block x, y, -x-y that occurs twice: three classes of size 2."""
    _, forms = blocks([3])
    return 2, forms + forms


def pairs_and_odd_class():
    """a,a,-a,-a,c,c,e,e,f with f = -2(c+e): one odd class, no mp_count."""
    n = 3
    a, c, e = (_unit(n, j) for j in range(n))
    neg = tuple(-x for x in a)
    f = tuple(-2 * (x + y) for x, y in zip(c, e))
    return n, [a, a, neg, neg, c, c, e, e, f]


# --- drawing -----------------------------------------------------------------------

def _draw_var(rng: random.Random, gaussian: bool):
    def part():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, NUM), rng.randint(1, DEN))

    return (part(), part() if gaussian else Fraction(0))


def _equal_pairs(items) -> set[tuple[int, int]]:
    return {(i, j) for i in range(len(items)) for j in range(i) if items[i] == items[j]}


def draw(rng: random.Random, template, gaussian=False, scale=Fraction(1)):
    """Shift vector for a template, generic in the sense above."""
    n, forms = template
    want = zero_sum_masks(forms)
    want_equal = _equal_pairs(forms)
    for _ in range(1000):
        xs = [_draw_var(rng, gaussian) for _ in range(n)]
        mu = [
            (
                scale * sum(c * x[0] for c, x in zip(form, xs)),
                scale * sum(c * x[1] for c, x in zip(form, xs)),
            )
            for form in forms
        ]
        if (
            all(re or im for re, im in mu)
            and _equal_pairs(mu) == want_equal
            and zero_sum_masks(integer_vectors(mu)) == want
        ):
            return mu
    raise RuntimeError(f"no generic draw for template {forms}")


def fixed(*shifts):
    return [(Fraction(s), Fraction(0)) for s in shifts]


def document(mu, form: str) -> dict:
    """The JSON document handed to the program, in ``mu`` or ``lambda`` form."""
    values = mu if form == "mu" else [multiplier(m) for m in mu]
    return {"d": len(mu), form: [literal(v) for v in values]}


# --- workloads -------------------------------------------------------------------------

ALTERNATING = fixed(*[1, -1] * 4)
LARGE_LAMBDA_FAULT = fixed("1/10000000000", "2/10000000000", "3/10000000000", "-6/10000000000")

# (label, template, gaussian, doc form) for seeded slots; (label, shifts, anchor)
# for fixtures.  The anchor holds (s_d, mc_count[, mp_count]) derived by hand.
#
# The median operation of a round should be one of a few slots of like cost,
# well apart from the rest, so that latency_p50_ms does not jump between two
# unlike operations.  Each list says which slots form that middle cluster.
COUNT_RICH_FIXTURES = [
    ("anchor-pm123", fixed(1, -1, 2, -2, 3, -3), (7, 35)),
    ("anchor-repeats", fixed(1, 1, -2, 2, 2, -4), (8, 10, 2)),
    ("anchor-alternating8", ALTERNATING, (0,)),
]
COUNT_RICH_SLOTS = [  # with the fixtures: 6 cheap, 3 middle (d=8, like cost), 6 dear
    ("plan-334", blocks([3, 3, 4]), False, "lambda"),
    ("plan-223-gauss", blocks([2, 2, 3]), True, "lambda"),
    ("doubled-block", doubled_block(), False, "mu"),
    ("odd-class", pairs_and_odd_class(), False, "lambda"),
    ("plan-2222", blocks([2, 2, 2, 2]), False, "lambda"),
    ("plan-2222-mu", blocks([2, 2, 2, 2]), False, "mu"),
    ("pairs-abcd", pairs("abcd"), False, "lambda"),
    ("plan-2233-gauss", blocks([2, 2, 3, 3]), True, "mu"),
    ("pairs-abca", pairs("abca"), False, "mu"),
    ("plan-22222", blocks([2, 2, 2, 2, 2]), False, "mu"),
    ("pairs-abcab", pairs("abcab"), False, "mu"),
    ("pairs-abcab-gauss", pairs("abcab"), True, "mu"),
]
COUNT_GENERIC_SLOTS = [  # 5 at d=14, 3 rational at d=15 (the middle), 5 at d=16
    (f"generic-d{d}-{kind}", generic(d, repeats), gauss, form)
    for d, kinds in (
        (14, ("q", "q-rep", "qi", "qi-rep", "qi-lambda")),
        (15, ("q", "q-rep", "q-lambda")),
        (16, ("q", "q-rep", "qi", "qi-rep", "q-lambda")),
    )
    for kind, repeats, gauss, form in [
        {
            "q": ("q", 0, False, "mu"),
            "q-rep": ("q-rep", 1, False, "lambda"),
            "q-lambda": ("q-lambda", 0, False, "lambda"),
            "qi": ("qi", 0, True, "lambda"),
            "qi-rep": ("qi-rep", 2, True, "mu"),
            "qi-lambda": ("qi-lambda", 0, True, "lambda"),
        }[k]
        for k in kinds
    ]
]
VERIFY_FIXTURES = [
    # zero fiber: the full start budget runs and nothing may be found
    ("zero-fiber-d4", fixed(1, -1, 1, -1), (0,)),
    ("anchor-repeats", fixed(1, 1, -2, 2, 2, -4), (8, 10)),
    # start radius 2(1+|lambda|) exceeds the absolute blow-up limit
    ("large-lambda-1e10", LARGE_LAMBDA_FAULT, None),
]
# Repeated multipliers are drawn Gaussian only: in a real spectrum a class can
# hold a conjugate pair whose real parts tie, which orbit grouping mishandles
# on some draws (see README.md).  Six slots are cheaper than d=5 and six
# dearer (with the fixtures), so the median operation is one of the twelve d=5 slots.
VERIFY_SLOTS = [
    ("generic-d3", generic(3), False, "lambda"),
    ("generic-d4", generic(4), False, "mu"),
    ("generic-d4-gauss", generic(4), True, "lambda"),
    ("repeat-d4-gauss", generic(4, 1), True, "mu"),
    ("generic-d5", generic(5), False, "mu"),
    ("generic-d5-lambda", generic(5), False, "lambda"),
    ("generic-d5-gauss", generic(5), True, "mu"),
    ("generic-d5-gauss-lambda", generic(5), True, "lambda"),
    ("repeat-d5-gauss", generic(5, 1), True, "mu"),
    ("repeat-d5-gauss-lambda", generic(5, 1), True, "lambda"),
    ("triple-d5-gauss", generic(5, 2), True, "mu"),
    ("generic-d5-gauss-2", generic(5), True, "mu"),
    ("generic-d5-2", generic(5), False, "lambda"),
    ("generic-d5-gauss-3", generic(5), True, "lambda"),
    ("repeat-d5-gauss-2", generic(5, 1), True, "mu"),
    ("triple-d5-gauss-2", generic(5, 2), True, "lambda"),
    ("plan-23", blocks([2, 3]), False, "lambda"),
    ("pairs-abc", pairs("abc"), False, "mu"),
    ("repeat-d6-gauss", generic(6, 1), True, "lambda"),
    ("doubled-block-gauss", doubled_block(), True, "mu"),
    # |lambda| ~ 1e6: shifts near 1e-6
    ("large-lambda-1e6", generic(4), False, "lambda", Fraction(1, 10**6)),
]

WORKLOADS = ("count-rich", "count-generic", "verify")
KNOWN_FAULTS = {"large-lambda-1e10"}


def build(workload: str, seed: int) -> list[dict]:
    """The slots of one round: label, exact shifts, document, optional anchor."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "count-rich":
        fixtures, slots = COUNT_RICH_FIXTURES, COUNT_RICH_SLOTS
    elif workload == "count-generic":
        fixtures, slots = [], COUNT_GENERIC_SLOTS
    elif workload == "verify":
        fixtures, slots = VERIFY_FIXTURES, VERIFY_SLOTS
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    ops = [
        {"label": label, "mu": mu, "doc": document(mu, "mu"), "anchor": anchor}
        for label, mu, anchor in fixtures
    ]
    for label, template, gaussian, form, *rest in slots:
        mu = draw(rng, template, gaussian, *rest)
        ops.append({"label": label, "mu": mu, "doc": document(mu, form), "anchor": None})
    return ops
