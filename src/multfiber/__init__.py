"""Exact fiber counts for fixed-point multiplier spectra of polynomial maps.

Given an unordered collection of d fixed-point multipliers (none equal
to 1, reciprocal shifts summing to zero), this package counts the
degree-d polynomial maps realizing it (with multiplicity, as distinct
monic centered polynomials, and as distinct affine conjugacy classes)
through independent exact routes, and cross-checks the results with a
floating-point polynomial-system solver.
"""

from .exactnum import GaussianRational, as_gaussian, multiplier_from_shift, reciprocal_shift
from .spectrum import (
    Spectrum,
    ValueClasses,
    from_shifts,
    generate,
    spectrum_from_obj,
    spectrum_to_obj,
    validate,
    value_classes,
)
from .lattice import (
    BlockPartition,
    Lattice,
    enumerate_lattice,
    inner_block_count,
    refines,
    zero_sum_subsets,
)
from .counting import (
    FiberReport,
    class_gcds,
    conjugacy_count,
    factorial_weight,
    fiber_report,
    fiber_size,
    fiber_size_closed_form,
    monic_centered_count,
)
from .polyfam import (
    IntPolynomial,
    coarsening_sum,
    coarsening_value,
    collapsed_poly,
    vanishing_sum,
)

# The verifier needs numpy; it is imported on first use of one of its names
# so that counting alone never loads numpy.
_VERIFIER_NAMES = frozenset(
    {
        "RootTuple",
        "SolverConfig",
        "VerificationReport",
        "forward_multipliers",
        "orbit_count",
        "solve_system",
        "verify_spectrum",
    }
)


def __getattr__(name):
    if name in _VERIFIER_NAMES:
        from . import verifier

        return getattr(verifier, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "GaussianRational",
    "as_gaussian",
    "reciprocal_shift",
    "multiplier_from_shift",
    "Spectrum",
    "ValueClasses",
    "validate",
    "from_shifts",
    "generate",
    "value_classes",
    "spectrum_to_obj",
    "spectrum_from_obj",
    "BlockPartition",
    "Lattice",
    "zero_sum_subsets",
    "enumerate_lattice",
    "refines",
    "inner_block_count",
    "FiberReport",
    "fiber_size",
    "fiber_size_closed_form",
    "fiber_report",
    "monic_centered_count",
    "conjugacy_count",
    "class_gcds",
    "factorial_weight",
    "IntPolynomial",
    "coarsening_sum",
    "coarsening_value",
    "collapsed_poly",
    "vanishing_sum",
    "SolverConfig",
    "RootTuple",
    "VerificationReport",
    "solve_system",
    "forward_multipliers",
    "orbit_count",
    "verify_spectrum",
    "__version__",
]
