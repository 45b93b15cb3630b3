"""Discrete layer-potential analysis of interface modes on a hexamer lattice.

The package models a triangular lattice with six sublattice sites per cell,
whose extra translation symmetry pins a fourfold degeneracy (a double Dirac
cone) at the zone center.  Breaking that symmetry with opposite signs across
a zigzag line opens a common bulk gap with inverted band character and binds
exactly two in-gap interface modes of opposite reflection parity, which the
boundary-matching pipeline constructs and whose symmetry-protected
robustness the periodized-strip machinery verifies.
"""

from .errors import HexamerError
from .kernels import (
    HoppingKernel,
    InterfaceKernel,
    BlockedStripOperator,
    build_blended_bulk,
    build_extended_bulk,
    build_hper,
    build_toy_bulk,
)
from .lattice import CellIndex, DualMomentum, SymmetryOp
from .spectra import DiracData, GapReport, locate_double_dirac, gap_report

__all__ = [
    "HexamerError",
    "HoppingKernel",
    "InterfaceKernel",
    "BlockedStripOperator",
    "build_blended_bulk",
    "build_extended_bulk",
    "build_hper",
    "build_toy_bulk",
    "CellIndex",
    "DualMomentum",
    "SymmetryOp",
    "DiracData",
    "GapReport",
    "locate_double_dirac",
    "gap_report",
]

__version__ = "0.1.0"
