"""Quantum error-correcting codes (CSS family)."""

from repro.codes.quantum.css import CssCode
from repro.codes.quantum.stabilizer import (
    check_commuting_generators,
    in_stabilizer_group,
    syndrome_of,
)
from repro.codes.quantum.steane import SteaneCode
from repro.codes.quantum.trivial import TrivialCode

__all__ = [
    "CssCode",
    "SteaneCode",
    "TrivialCode",
    "check_commuting_generators",
    "in_stabilizer_group",
    "syndrome_of",
]
