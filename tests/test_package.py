"""The package's public surface, as a fresh interpreter sees it."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import multfiber
from multfiber.lattice import BlockPartition, Lattice
from multfiber.spectrum import Spectrum, ValueClasses

REMOVED = (
    "weight_from_subspectra",
    "weight_from_refinements",
    "expansion_in_factorial_weights",
    "restriction_identity_holds",
    "PartitionNotInLatticeError",
    "factorial_weight",
    "refinement_weights",
    "_refinement_span",
    "_subspectra_weight",
    "_fiber_size",
    "refines",
    "inner_block_count",
    "GroundSetMismatchError",
    "falling_span",
    "MultipleFixedPointError",
    "_CliError",
    "_TupleArray",
    "GaussianRational",
    "Scalar",
    "ZERO",
    "ONE",
    "I",
    "as_gaussian",
    "reciprocal_shift",
    "multiplier_from_shift",
)


def test_every_public_name_resolves_and_removed_names_are_gone():
    src = Path(multfiber.__file__).resolve().parents[1]
    script = (
        "import multfiber, multfiber.cli, multfiber.counting, multfiber.errors, multfiber.exactnum\n"
        "import multfiber.lattice, multfiber.polyfam, multfiber.verifier\n"
        "from multfiber import *  # resolves each name in __all__, the lazy verifier ones too\n"
        "assert callable(verify_spectrum) and callable(fiber_report)\n"
        f"removed = {REMOVED!r}\n"
        "modules = (multfiber, multfiber.cli, multfiber.counting, multfiber.errors, multfiber.exactnum,\n"
        "           multfiber.lattice, multfiber.polyfam, multfiber.verifier)\n"
        "left = [n for n in removed if n in multfiber.__all__ or any(hasattr(m, n) for m in modules)]\n"
        "assert not left, left\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_partition_helpers_left_the_library_classes():
    assert not any(hasattr(Spectrum, n) for n in ("restrict", "shift_key"))
    assert not hasattr(Lattice, "strict_refinements")
    assert not hasattr(BlockPartition, "ground")


def test_second_copies_left_the_library_classes():
    # spectrum.group_order(sizes) is the one group order
    assert not hasattr(ValueClasses, "group_order")


def test_fiber_size_refuses_an_unknown_engine():
    spec = multfiber.from_shifts([1, -1, 2, -2])
    with pytest.raises(ValueError, match="bogus"):
        multfiber.fiber_size(spec, None, "bogus")


def test_value_types_are_frozen_slotted_and_picklable():
    spec = multfiber.spectrum_from_obj({"mu": ["1", "-1", "2+1i", "-2-1i"]})
    lat = multfiber.enumerate_lattice(spec)
    values = [
        spec,
        multfiber.value_classes(spec),
        lat,
        lat.partitions[-1],
        multfiber.fiber_report(spec),
        multfiber.collapsed_poly(4, 2),
    ]
    for value in values:
        assert not hasattr(value, "__dict__")
        assert pickle.loads(pickle.dumps(value)) == value
        assert hash(pickle.loads(pickle.dumps(value))) == hash(value)
        with pytest.raises(AttributeError):
            setattr(value, value.__slots__[0], None)
        with pytest.raises(AttributeError):
            delattr(value, value.__slots__[0])
