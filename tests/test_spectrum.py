"""Spectrum validation, value classes, generation, JSON form."""

import json
import sys
import time
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multfiber.spectrum
from multfiber.counting import fiber_report
from multfiber.errors import (
    BlockSumError,
    DegreeTooSmallError,
    DimensionCapError,
    ExactShapeError,
    OffHyperplaneError,
    SpectrumFormatError,
    UnitMultiplierError,
    ZeroShiftTargetError,
)
from multfiber.exactnum import format_literal
from multfiber.lattice import MAX_SCAN_DEGREE, zero_sum_subsets
from multfiber.spectrum import (
    Spectrum,
    from_shifts,
    generate,
    group_order,
    spectrum_from_obj,
    spectrum_to_obj,
    validate,
    value_classes,
)
from reference import (
    ONE,
    ZERO,
    GaussianRational,
    as_gaussian,
    fraction_shifts_from_obj,
    multiplier_from_shift,
    regex_literal,
    regex_misreads,
    restrict,
    shift_key,
    spectrum_of_shifts,
)


def mus(spec):
    return [format_literal(*m) for m in spec.mu]


def lams(spec):
    return [format_literal(*v) for v in spec.lam]


def test_validate_simple():
    spec = validate(["0", "2"])
    assert mus(spec) == ["1", "-1"]


def test_validate_derived_shift_vector():
    spec = validate(["0", "2", "1/2", "3/2"])
    assert mus(spec) == ["1", "-1", "2", "-2"]
    # round trip: multipliers recovered from shifts
    assert from_shifts(spec.mu).lam == spec.lam
    # a spectrum is its shift vector: built from lambda or from mu, it is the
    # same value, with the same derived multipliers and value classes
    for lam, mu in [
        (["0", "2", "1/2", "3/2"], ["1", "-1", "2", "-2"]),
        (["1+1i", "1-1i", "1/2+1/2i", "3/2-1/2i"], ["1i", "-1i", "1+1i", "-1-1i"]),
        (
            ["1/2+1/2i", "1/2+1/2i", "1/2-1/2i", "1/2-1/2i", "5/4"],
            ["1+1i", "1+1i", "1-1i", "1-1i", "-4"],
        ),
        (["0", "0", "2", "2", "1/2", "3/2"], ["1", "1", "-1", "-1", "2", "-2"]),
    ]:
        a, b = validate(lam), from_shifts(mu)
        assert a == b and hash(a) == hash(b), lam
        assert a.lam == b.lam and lams(b) == lam
        assert value_classes(a) == value_classes(b)


def test_validate_rejections():
    with pytest.raises(UnitMultiplierError):
        validate(["1", "0", "2"])
    with pytest.raises(OffHyperplaneError):
        validate(["0", "0"])
    with pytest.raises(DegreeTooSmallError):
        validate(["0"])


def test_from_shifts_rejections():
    with pytest.raises(ZeroShiftTargetError):
        from_shifts(["1", "0", "-1"])
    with pytest.raises(OffHyperplaneError):
        from_shifts(["1", "2"])


def test_shift_sum_is_exactly_zero_for_generated():
    for seed in range(10):
        spec = generate([3, 2], seed=seed)
        total = ZERO
        for m in spec.mu:
            total = total + as_gaussian(m)
        assert total == ZERO


def test_value_classes_all_distinct():
    spec = validate(["0", "2", "1/2", "3/2"])
    assert value_classes(spec).classes == ((0,), (1,), (2,), (3,))


def test_value_classes_grouping():
    spec = validate(["0", "2", "0", "2"])
    classes = value_classes(spec)
    assert classes.classes == ((0, 2), (1, 3))
    assert classes.sizes == (2, 2)
    assert group_order(classes.sizes) == 4


def test_value_classes_permutation_invariant_up_to_relabel():
    spec = validate(["0", "2", "0", "2"])
    perm = (3, 0, 2, 1)
    permuted = spec.permuted(perm)
    original = {frozenset(k) for k in value_classes(spec).classes}
    relabeled = {
        frozenset(perm[i] for i in k) for k in value_classes(permuted).classes
    }
    assert original == relabeled


def test_single_constant_class_is_impossible():
    # d equal multipliers would need d * mu = 0 with mu nonzero
    with pytest.raises(OffHyperplaneError):
        validate(["3", "3", "3"])


def test_generate_explicit_plans():
    assert lams(generate([["1", "-1"], ["2", "-2"]])) == ["0", "2", "1/2", "3/2"]
    assert lams(generate([["1", "-1"], ["1", "-1"]])) == ["0", "2", "0", "2"]
    d3 = generate([["1", "2", "-3"]])
    assert lams(d3) == ["0", "1/2", "4/3"]
    assert zero_sum_subsets(d3) == []  # no proper zero-sum split at d=3


def test_generate_plan_rejections():
    with pytest.raises(BlockSumError):
        generate([["1", "-2"]])
    with pytest.raises(ZeroShiftTargetError):
        generate([["0", "1", "-1"]])
    with pytest.raises(ZeroShiftTargetError):
        generate([1])
    with pytest.raises(DegreeTooSmallError):
        generate([])
    # an empty explicit block is refused before any draw, even with exact=True
    with pytest.raises(DegreeTooSmallError):
        generate([[], 3], exact=True)
    with pytest.raises(BlockSumError):
        generate([["1"], 3])
    with pytest.raises(ZeroShiftTargetError):
        generate([["0"], 3])
    # no command reads a spectrum past the scan limit, so none is drawn:
    # a plan of 10^8 entries is refused at once
    for plan in ([10**8], [MAX_SCAN_DEGREE, 2], [["1", "-1"], MAX_SCAN_DEGREE - 1]):
        with pytest.raises(DimensionCapError, match=f"above the scan limit {MAX_SCAN_DEGREE}$"):
            generate(plan, exact=True)
    assert generate([MAX_SCAN_DEGREE - 2, 2], seed=1).d == MAX_SCAN_DEGREE


def test_generate_is_deterministic_under_seed():
    a = generate([2, 3], seed=42)
    b = generate([2, 3], seed=42)
    c = generate([2, 3], seed=43)
    assert a == b
    assert a != c


def test_generate_exact_lattice_shape():
    for plan, blocks in [([4], 1), ([2, 2], 2), ([2, 2, 3], 3)]:
        spec = generate(plan, seed=3, exact=True)
        masks = set(zero_sum_subsets(spec))
        block_masks = []
        offset = 0
        for size in plan:
            block_masks.append(((1 << size) - 1) << offset)
            offset += size
        expected = set()
        for r in range(1, blocks):
            import itertools

            for combo in itertools.combinations(block_masks, r):
                m = 0
                for b in combo:
                    m |= b
                expected.add(m)
        assert masks == expected


@pytest.mark.parametrize("seed", range(10))
def test_generate_exact_matches_block_unions(seed):
    # the count test in generate against the set of block unions
    for plan in ([2, 2, 3], [["1", "-1"], 3], [3, ["0+1i", "0-1i"], 2]):
        spec = generate(plan, seed=seed, exact=True)
        offsets = [0]
        for block in plan:
            offsets.append(offsets[-1] + (block if isinstance(block, int) else len(block)))
        blocks = [(1 << b) - (1 << a) for a, b in zip(offsets, offsets[1:])]
        unions = {
            sum(b for i, b in enumerate(blocks) if pick >> i & 1)
            for pick in range(1, (1 << len(blocks)) - 1)
        }
        assert set(zero_sum_subsets(spec)) == unions


def test_generate_exact_with_conflicting_explicit_targets():
    # duplicated explicit blocks force crossing zero sums; nothing to redraw
    with pytest.raises(ExactShapeError):
        generate([["1", "-1"], ["1", "-1"]], exact=True)


def test_generate_exact_counts_the_zero_sums_and_redraws():
    # the first draws have over 10^5 accidental zero sums, too many to list;
    # they are counted, not listed, and redrawn
    spec = generate([2] * 14, seed=1, exact=True)
    assert len(zero_sum_subsets(spec)) == 2**14 - 2 == 16382


def test_generate_exact_refuses_a_plan_past_the_pair_floor_before_any_draw(monkeypatch):
    # 19 blocks have 2^19 - 2 unions, which need about 3.6e9 block pairs at d = 38
    def refuse(*args, **kwargs):
        raise AssertionError("a spectrum was drawn")

    monkeypatch.setattr(multfiber.spectrum, "_draw_block", refuse)
    start = time.perf_counter()
    with pytest.raises(DimensionCapError, match="524286 zero-sum class vectors"):
        generate([2] * 19, exact=True)
    assert time.perf_counter() - start < 1


def bell(n):
    row = [1]  # Bell triangle
    for _ in range(n - 1):
        row = list(accumulate(row, initial=row[-1]))
    return row[-1]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(2, 4), min_size=1, max_size=5), st.integers(0, 10**6))
def test_generate_exact_report_has_the_plan_lattice(plan, seed):
    # an exact spectrum's zero-sum sets are the block unions, its partitions
    # the set partitions of the blocks
    report = fiber_report(generate(plan, seed=seed, exact=True))
    assert report.zero_sum_subsets == 2 ** len(plan) - 2
    assert report.lattice_partitions == bell(len(plan))


def test_json_round_trip():
    spec = validate(["0", "2", "1/2", "3/2"])
    obj = spectrum_to_obj(spec)
    assert obj == {"d": 4, "lambda": ["0", "2", "1/2", "3/2"]}
    assert spectrum_from_obj(obj) == spec


def test_json_mu_form():
    spec = spectrum_from_obj({"d": 4, "mu": ["1", "-1", "2", "-2"]})
    assert lams(spec) == ["0", "2", "1/2", "3/2"]


def test_json_schema_errors():
    with pytest.raises(SpectrumFormatError):
        spectrum_from_obj({"d": 2})
    with pytest.raises(SpectrumFormatError):
        spectrum_from_obj({"lambda": ["0", "2"], "mu": ["1", "-1"]})
    with pytest.raises(SpectrumFormatError):
        spectrum_from_obj({"d": 3, "lambda": ["0", "2"]})
    with pytest.raises(SpectrumFormatError):
        spectrum_from_obj({"lambda": ["0", "nope"]})
    with pytest.raises(SpectrumFormatError):
        spectrum_from_obj(["0", "2"])
    for values in (
        [None, "2"],
        [["0"], "2"],
        [{"re": "0"}, "2"],
        [True, "-1"],  # JSON true is not the integer 1
        [1e400, "2"],  # JSON 1e400 decodes as inf
    ):
        with pytest.raises(SpectrumFormatError):
            spectrum_from_obj({"mu": values})
    with pytest.raises(SpectrumFormatError):
        spectrum_from_obj({"d": "2", "lambda": ["0", "2"]})


def test_restrict_builds_subspectrum():
    spec = validate(["0", "2", "1/2", "3/2"])
    sub = restrict(spec, 0b0011)  # indices 0 and 1
    assert mus(sub) == ["1", "-1"]
    assert sub.d == 2


def test_shift_key_is_order_free():
    a = from_shifts(["1", "-1", "2", "-2"])
    b = from_shifts(["2", "1", "-2", "-1"])
    assert shift_key(a) == shift_key(b)


# --- the integer parse against the Fraction parse it replaced -----------------------

TOO_LONG = "7" * (sys.get_int_max_str_digits() + 1)  # past the int-to-string limit


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:
        return None, (type(exc), str(exc))


@st.composite
def written(draw, value: GaussianRational):
    """One literal or JSON scalar for ``value``, in any form the grammar takes."""
    re, im = value.re, value.im
    scale = draw(st.integers(1, 3))  # written unreduced when above 1
    zeros = draw(st.sampled_from(["", "0", "00"]))

    def part(f: Fraction, signed: bool) -> str:
        num, den = abs(f.numerator) * scale, f.denominator * scale
        sign = "-" if f < 0 else ("+" if signed or draw(st.booleans()) else "")
        return f"{sign}{zeros}{num}" + ("" if den == 1 and draw(st.booleans()) else f"/{zeros}{den}")

    if im == 0 and re.denominator == 1 and draw(st.booleans()):
        return int(re)
    if im == 0 and re.denominator & (re.denominator - 1) == 0 and draw(st.booleans()):
        return float(re)  # exact: a dyadic rational of few digits
    if im == 0:
        text = part(re, False)
    elif re == 0 and draw(st.booleans()):
        text = part(im, False) + "i"
    else:
        text = part(re, False) + part(im, True) + "i"
    pad = draw(st.sampled_from(["", " ", "\t", " \n"]))
    return pad + text + pad[::-1]


gaussian = st.builds(
    GaussianRational,
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
    st.fractions(min_value=-30, max_value=30, max_denominator=12) | st.just(0),
)
odd_scalar = st.sampled_from(
    ["1/0", "1/0+1i", "1+1/0i", "i", "1+i", "", "+", "1/2/3", "1e5", "0x10", "1 /2", "1+-2i",
     "1i2", "1_0", "١/٢", "²", TOO_LONG, "1/" + TOO_LONG, TOO_LONG + "/0", "1+" + TOO_LONG + "i",
     "0", "1", True, False, float("nan"), json.loads("1e400"), 0, 1, 0.5, -2.0, None, ["1"]]
)


@st.composite
def spectrum_documents(draw):
    """A valid "mu" or "lambda" document, then maybe one fault, with the scalars written freely."""
    form = draw(st.sampled_from(["mu", "lambda"]))
    head = draw(st.lists(gaussian.filter(bool), min_size=1, max_size=6))
    mu = head + [-sum(head, ZERO)]
    values = mu if form == "mu" else [multiplier_from_shift(m) if m else m for m in mu]
    scalars = [draw(written(v)) for v in values]
    fault = draw(st.sampled_from(["none", "none", "scalar", "degree", "d", "unit", "zero", "sum"]))
    i = draw(st.integers(0, len(scalars) - 1))
    if fault == "scalar":
        scalars[i] = draw(odd_scalar)
    elif fault == "degree":
        scalars = scalars[: draw(st.integers(0, 1))]
    elif fault == "unit":
        scalars[i] = draw(written(GaussianRational(1)))
    elif fault == "zero":
        scalars[i] = draw(written(ZERO))
    elif fault == "sum":
        scalars[i] = draw(written(draw(gaussian)))
    doc = {form: scalars}
    if fault == "d":
        doc["d"] = draw(st.sampled_from([len(scalars) + 1, str(len(scalars)), float(len(scalars)), True]))
    elif draw(st.booleans()):
        doc["d"] = len(scalars)
    return doc


@settings(max_examples=400, deadline=None)
@given(spectrum_documents())
def test_parse_matches_the_fraction_parse(doc):
    spec, error = _outcome(spectrum_from_obj, doc)
    mu, ref_error = _outcome(fraction_shifts_from_obj, doc)
    assert error == ref_error
    if error is None:
        assert spec == spectrum_of_shifts(mu)
        assert spec.mu == tuple(m.parts() for m in mu)
        assert spec.lam == tuple(multiplier_from_shift(m).parts() for m in mu)
        classes = {}
        for i, m in enumerate(mu):
            classes.setdefault(m.sort_key(), []).append(i)
        assert value_classes(spec).classes == tuple(map(tuple, classes.values()))
        assert fiber_report(spec) == fiber_report(spectrum_of_shifts(mu))


@settings(max_examples=300, deadline=None)
@given(st.lists(gaussian.filter(bool), min_size=1, max_size=6), st.booleans())
def test_written_form_and_views_match_the_fraction_reference(head, rational):
    if rational:
        head = [GaussianRational(m.re) for m in head if m.re] or [ONE]
    head = head + head[: len(head) // 2]  # some repeated values
    mu = head + [-sum(head, ZERO)]
    if not mu[-1]:
        mu.pop()
    spec = from_shifts([m.parts() for m in mu])
    lam = [multiplier_from_shift(m) for m in mu]
    assert spectrum_to_obj(spec) == {"d": len(mu), "lambda": [str(v) for v in lam]}
    assert [as_gaussian(m) for m in spec.mu] == mu
    assert [as_gaussian(v) for v in spec.lam] == lam
    assert validate(spec.lam) == spec and from_shifts(spec.mu) == spec


def test_parse_names_the_faulty_index_and_the_sum():
    with pytest.raises(UnitMultiplierError, match="^multiplier at index 2 equals 1$"):
        spectrum_from_obj({"lambda": ["0", "2", " 2/2 ", "2"]})
    with pytest.raises(ZeroShiftTargetError, match="^shift at index 1 is 0$"):
        spectrum_from_obj({"mu": ["1", "-0/5", "-1"]})
    with pytest.raises(OffHyperplaneError, match=r"^reciprocal shifts sum to 0\+1i, not 0$"):
        spectrum_from_obj({"lambda": ["0", "2", "1+1i"]})
    with pytest.raises(OffHyperplaneError, match="^shifts sum to 3/4, not 0$"):
        spectrum_from_obj({"mu": ["1/2", "1/4"]})
    # a sum past the int-to-string digit limit is not written out
    with pytest.raises(OffHyperplaneError, match="^reciprocal shifts do not sum to 0$"):
        spectrum_from_obj({"lambda": ["9" * 3000 + "+1i", "0", "1/2"]})
    with pytest.raises(DegreeTooSmallError, match="^need degree >= 2, got 1$"):
        spectrum_from_obj({"mu": ["1"]})


def test_spectrum_stores_its_shifts_over_the_least_denominator():
    spec = spectrum_from_obj({"mu": ["2/4", "-1/6+1/3i", "-1/3-2/6i"]})
    assert spec == Spectrum(6, (3, -1, -2), (0, 2, -2))
    assert validate(spec.lam) == spec and from_shifts(spec.mu) == spec
    with pytest.raises(AttributeError):
        spec.D = 1
    # shifts not in lowest terms: the common divisor 2 of D, re and im is taken out
    spec = spectrum_from_obj({"mu": [" 2/4 ", "-1/3+1/6i", "-1/6-1/6i"]})
    assert spec == Spectrum(6, (3, -2, -1), (0, 1, -1))


literal_texts = st.text(alphabet="0123456789+-/i ", max_size=12) | st.builds(
    "".join, st.lists(st.sampled_from(["1", "12", "-3", "+", "/", "4/5", "i", "0", "٣"]), max_size=5)
)


@settings(max_examples=400, deadline=None)
@given(literal_texts)
def test_literal_grammar_matches_the_regex_but_for_signless_imaginary_terms(text):
    if not regex_misreads(text):
        assert _outcome(as_gaussian, text) == _outcome(regex_literal, text)
        return
    # the regex read one signless imaginary term as two terms; both
    # grammars read it whole once a real part 0 is written before it
    body = text.strip()[:-1]
    whole = "0" + (body if body[0] in "+-" else "+" + body) + "i"
    (value, error), (old, old_error) = _outcome(as_gaussian, text), _outcome(regex_literal, whole)
    assert value == old and (error is None) == (old_error is None)


def test_a_signless_imaginary_term_is_read_whole():
    assert [as_gaussian(t) for t in ("12i", "-12i", " 100i ", "1/23i")] == [
        GaussianRational(0, 12),
        GaussianRational(0, -12),
        GaussianRational(0, 100),
        GaussianRational(0, Fraction(1, 23)),
    ]
    assert [regex_literal(t) for t in ("12i", "100i", "1/23i")] == [
        GaussianRational(1, 2),
        GaussianRational(10, 0),
        GaussianRational(Fraction(1, 2), 3),
    ]
    assert spectrum_from_obj({"mu": ["12i", "-12i"]}) == Spectrum(1, (0, 0), (12, -12))
