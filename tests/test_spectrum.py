"""Spectrum validation, value classes, generation, JSON form."""

import pytest

from multfiber.errors import (
    BlockSumError,
    DegreeTooSmallError,
    ExactShapeError,
    OffHyperplaneError,
    SpectrumFormatError,
    UnitMultiplierError,
    ZeroShiftTargetError,
)
from multfiber.exactnum import ZERO, as_gaussian
from multfiber.lattice import zero_sum_subsets
from multfiber.spectrum import (
    from_shifts,
    generate,
    group_order,
    spectrum_from_obj,
    spectrum_to_obj,
    validate,
    value_classes,
)
from reference import restrict, shift_key


def mus(spec):
    return [str(m) for m in spec.mu]


def lams(spec):
    return [str(v) for v in spec.lam]


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
            total = total + m
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
