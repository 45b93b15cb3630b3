"""Exception types raised by the numerical pipelines."""


class HexamerError(Exception):
    """Base class for all package errors."""


class ModelValidationError(HexamerError):
    """Invalid model configuration or malformed input data."""


class NumericError(HexamerError):
    """A numeric invariant failed; the message names the invariant."""


class NoFourFoldDegeneracy(NumericError):
    """No four-fold eigenvalue cluster found at the high-symmetry point."""


class AlignmentFailure(NumericError):
    """Degenerate eigenspace does not carry the expected representation."""


class VanishingSlope(NumericError):
    """Cone slope coefficient is numerically zero."""


class NearZeroCoupling(NumericError):
    """Perturbation fails to open a gap at first order."""


class GridTooCoarse(NumericError):
    """Momentum grid refinement failed to separate bands."""


class EnergyOutsideGap(NumericError):
    """Requested energy lies outside the common spectral gap."""


class DegenerateBoundaryData(NumericError):
    """Boundary pair is annihilated by the auxiliary matching matrix."""


class GapCollapse(NumericError):
    """Perturbed spectrum fills the bulk gap; localization bound violated."""


class BranchLost(NumericError):
    """Continuity tracking of an in-gap branch failed."""
