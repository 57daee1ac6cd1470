"""Statevector backend, the brute-force cross-check oracle.

Basis states are integers whose bit j is the Z eigenvalue of qubit j
(qubit 0 is the least significant bit).  A packed string i^p X^x Z^z acts as

    P |b> = i^p * (-1)^popcount(z & b) |b XOR x>

Everything reads only the state's nonzero support S (for the toric ground
state, the 2^(L^2-1) basis states of one star-group orbit), through one
gather:

    (P psi)[r] = i^p (-1)^popcount(z & (r XOR x)) psi[r XOR x]

An apply computes the rows r in S XOR x, the only ones where P psi can be
nonzero; an expectation sums conj(psi[b]) (P psi)[b] over b in S, since
every b outside S contributes exactly 0.  Amplitude arrays are still
dense, so states are exponential in qubit count and guarded by explicit
capacity limits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import ToricLattice
from .pauli import PauliPolynomial, PauliString

STATE_QUBIT_LIMIT = 20
DENSE_QUBIT_LIMIT = 16


class CapacityError(Exception):
    """Request exceeds the brute-force backend's qubit limits."""


def _check_state_capacity(n_qubits: int):
    if n_qubits > STATE_QUBIT_LIMIT:
        raise CapacityError(
            f"{n_qubits} qubits exceeds the statevector limit of {STATE_QUBIT_LIMIT}"
        )


@dataclass
class StateVector:
    n_qubits: int
    amplitudes: np.ndarray

    @classmethod
    def basis_state(cls, n_qubits: int, bits: int) -> "StateVector":
        _check_state_capacity(n_qubits)
        amps = np.zeros(1 << n_qubits, dtype=np.complex128)
        amps[bits] = 1.0
        return cls(n_qubits, amps)

    @cached_property
    def support(self) -> np.ndarray:
        """Indices of the nonzero amplitudes, ascending.  Computed once, so
        the amplitudes must not be changed in place afterwards."""
        return np.flatnonzero(self.amplitudes)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.n_qubits, self.amplitudes / n)


def _gather(x_bits: int, z_bits: int, amps: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(X^x Z^z psi)[rows]: psi read at rows XOR x, signed by the parity of
    z on that source index."""
    src = rows ^ x_bits if x_bits else rows
    vals = amps[src]
    if z_bits:
        parity = np.bitwise_count(src & z_bits).astype(np.int64) & 1
        vals = vals * (1.0 - 2.0 * parity)
    return vals


def _check_size(op, state: StateVector):
    if op.n_qubits != state.n_qubits:
        raise ValueError("operator and state act on different qubit counts")


def apply_poly(poly: PauliPolynomial, state: StateVector) -> StateVector:
    """sum_k c_k P_k psi.  Term k is nonzero only on the rows S XOR x_k, so
    only those are computed; every other amplitude stays 0."""
    _check_size(poly, state)
    out = np.zeros(len(state.amplitudes), dtype=np.complex128)
    for (x, z), coeff in poly.terms.items():
        rows = state.support ^ x if x else state.support
        out[rows] += coeff * _gather(x, z, state.amplitudes, rows)
    return StateVector(state.n_qubits, out)


def poly_expectation(poly: PauliPolynomial, state: StateVector) -> complex:
    """<psi| sum_k c_k P_k |psi>, read on the support S alone."""
    _check_size(poly, state)
    rows = state.support
    total = np.zeros(len(rows), dtype=np.complex128)
    for (x, z), coeff in poly.terms.items():
        total += coeff * _gather(x, z, state.amplitudes, rows)
    return complex(np.vdot(state.amplitudes[rows], total))


def ground_state(lat: ToricLattice, sector: tuple[int, int] = (1, 1)) -> StateVector:
    """Exact toric-code ground state in the given loop sector.

    Starts from the all-zero Z basis state (already a +1 eigenstate of every
    plaquette and both Z loops), flips it into the requested sector with the
    dual X loops, then applies the +1 star projectors (1 + A_s)/2.  One star
    projector is redundant because the stars multiply to identity.
    """
    if len(sector) != 2 or any(s not in (1, -1) for s in sector):
        raise ValueError("sector must be a pair of +-1 loop signs")
    _check_state_capacity(lat.n_qubits)
    bits = 0
    for flip_edges, sign in zip(lat.x_flip_edges, sector):
        if sign == -1:
            for e in flip_edges:
                bits ^= 1 << e
    state = StateVector.basis_state(lat.n_qubits, bits)
    identity = PauliString.identity(lat.n_qubits)
    for star in lat.stars()[:-1]:
        projector = PauliPolynomial.from_strings(lat.n_qubits, [(identity, 0.5), (star, 0.5)])
        state = apply_poly(projector, state)
    return state.normalized()


def poly_to_dense(poly: PauliPolynomial) -> np.ndarray:
    """Full matrix of a Pauli polynomial, for exact diagonalization."""
    if poly.n_qubits > DENSE_QUBIT_LIMIT:
        raise CapacityError(
            f"{poly.n_qubits} qubits exceeds the dense-matrix limit of {DENSE_QUBIT_LIMIT}"
        )
    dim = 1 << poly.n_qubits
    idx = np.arange(dim)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for (x, z), coeff in poly.terms.items():
        parity = np.bitwise_count(idx & z).astype(np.int64) & 1
        vals = coeff * (1.0 - 2.0 * parity)
        mat[idx ^ x, idx] += vals
    return mat


def ground_space_dimension(lat: ToricLattice, tol: float = 1e-9) -> int:
    """Degeneracy of the lowest eigenvalue by dense diagonalization."""
    evals = np.linalg.eigvalsh(poly_to_dense(lat.hamiltonian()))
    return int(np.count_nonzero(evals <= evals[0] + tol))
