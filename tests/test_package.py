"""The package's public surface, as a fresh interpreter sees it."""

import os
import subprocess
import sys
from pathlib import Path

import multfiber

REMOVED = (
    "weight_from_subspectra",
    "weight_from_refinements",
    "expansion_in_factorial_weights",
    "restriction_identity_holds",
    "PartitionNotInLatticeError",
)


def test_every_public_name_resolves_and_removed_names_are_gone():
    src = Path(multfiber.__file__).resolve().parents[1]
    script = (
        "import multfiber, multfiber.counting, multfiber.errors, multfiber.polyfam\n"
        "from multfiber import *  # resolves each name in __all__, the lazy verifier ones too\n"
        "assert callable(verify_spectrum) and callable(fiber_report)\n"
        f"removed = {REMOVED!r}\n"
        "modules = (multfiber, multfiber.counting, multfiber.errors, multfiber.polyfam)\n"
        "left = [n for n in removed if n in multfiber.__all__ or any(hasattr(m, n) for m in modules)]\n"
        "assert not left, left\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
