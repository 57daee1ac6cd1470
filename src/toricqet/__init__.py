"""Exact check of measurement-feedback energy extraction on the toric code.

Two independent backends compute the same protocol energies: a symbolic
stabilizer-expectation engine that works at any lattice size, and a
brute-force statevector oracle limited to small lattices.  Agreement
between them is the package's core evidence.
"""

from .pauli import PauliPolynomial, PauliString, phase_value
from .stabilizer import StabilizerGroup
from .lattice import CapacityError, MeasurementScheme, ToricLattice
from .statevector import StateVector, ground_state

__all__ = [
    "PauliPolynomial",
    "PauliString",
    "phase_value",
    "StabilizerGroup",
    "MeasurementScheme",
    "ToricLattice",
    "CapacityError",
    "StateVector",
    "ground_state",
]

__version__ = "0.1.0"
