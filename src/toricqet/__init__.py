"""Exact check of measurement-feedback energy extraction on the toric code.

Two independent backends compute the same protocol energies: a symbolic
stabilizer-expectation engine that works at any lattice size, and a
brute-force statevector oracle limited to small lattices.  Agreement
between them is the package's core evidence.
"""

import os

# No matrix toricqet gives LAPACK is larger than 64x64; there a second
# OpenBLAS thread only adds wake-up waits.  A value already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
