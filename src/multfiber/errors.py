"""Exception hierarchy shared by all modules.

Two broad families matter for the CLI exit codes: ``InputError`` means the
caller handed us something invalid (exit 1), ``InternalCheckError`` means an
internal consistency guarantee failed, which always signals a bug rather
than bad data (exit 2).
"""


class MultFiberError(Exception):
    """Base class for every error raised by this package."""


class InputError(MultFiberError, ValueError):
    """Invalid input supplied by the caller."""


class InternalCheckError(MultFiberError):
    """A guaranteed internal invariant was violated; always a bug."""


# --- exact arithmetic / spectrum validation ---------------------------------

class MultipleFixedPointError(InputError):
    """Reciprocal shift requested for a multiplier equal to 1."""


class UnitMultiplierError(InputError):
    """A spectrum entry equals 1 (multiple fixed point, outside the domain)."""


class OffHyperplaneError(InputError):
    """The reciprocal shifts of a spectrum do not sum to zero."""


class DegreeTooSmallError(InputError):
    """Degree below the minimum supported by the requested operation."""


class BlockSumError(InputError):
    """A generation-plan block whose shift targets do not sum to zero."""


class ZeroShiftTargetError(InputError):
    """A generation-plan shift target equal to zero (unreachable as 1/(1-x))."""


class ExactShapeError(InputError):
    """Could not realize a spectrum whose lattice matches the plan exactly."""


class SpectrumFormatError(InputError):
    """Malformed spectrum document (JSON schema or scalar syntax)."""


# --- lattice -----------------------------------------------------------------

class DimensionCapError(InputError):
    """Work above a fixed limit, refused before it starts.

    The limits: scan degree (``lattice.MAX_SCAN_DEGREE``, which bounds the
    half-sum lists of the meet-in-the-middle scan), block pairs
    (``lattice.MAX_PAIR_WORK``, checked by the scan from its count of
    zero-sum subsets and again per lowest bit), partitions the lattice builds
    (``lattice.MAX_PARTITIONS``), the states of a size vector's or a whole
    sweep's coarsening passes, 3^l per vector of l blocks
    (``polyfam.MAX_STATES``), the block count l of ``collapsed_poly``,
    ``coarsening_value`` and the polynomial table (``polyfam.MAX_TABLE_L``)
    and the solver's degree cap.
    """


class GroundSetMismatchError(InputError):
    """Partitions being compared do not cover the same ground set."""


# --- counting ----------------------------------------------------------------

class DivisibilityError(InternalCheckError):
    """A division that is guaranteed exact left a remainder."""


class EngineDisagreementError(InternalCheckError):
    """Independent counting routes produced different values."""


class InvariantViolationError(InternalCheckError):
    """A computed count fell outside its theoretical bounds."""


# --- verifier ----------------------------------------------------------------

class SolverConfigError(InputError):
    """A solver budget or count below its minimum, or a tolerance not finite and positive."""


class CoincidentRootsError(InputError):
    """Fixed-point coordinates are not pairwise distinct."""


class SpuriousSolutionError(InternalCheckError):
    """The solver accepted more distinct solutions than the count predicts."""


class NonFreeActionError(InternalCheckError):
    """A permutation orbit of solution tuples has the wrong size."""


class MultiplierMismatchError(InternalCheckError):
    """An accepted tuple's multipliers miss the spectrum by more than eps_mult."""


class BudgetExhaustedError(MultFiberError):
    """The start budget ran out before all expected solutions were found.

    Carries the partial result so callers can report instead of passing
    silently.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result
