"""Statevector backend, the brute-force cross-check oracle.

Basis states are integers whose bit j is the Z eigenvalue of qubit j
(qubit 0 is the least significant bit).  A packed string i^p X^x Z^z acts as

    P |b> = i^p * (-1)^popcount(z & b) |b XOR x>

A state holds only its nonzero amplitudes: the ascending basis indices S
(for the toric ground state, the 2^(L^2-1) basis states of one star-group
orbit) and their values.  An apply maps S to S XOR x for each term and sums
the rows term by term; an expectation sums conj(psi[b]) (P psi)[b] over b
in S, reading psi at b XOR x by binary search in S, and 0 off S.  Polynomials
that share their keys (the two Kraus outcomes of one operator) are read
together: each key costs one gather and one sign pass over S, and feeds one
accumulator per polynomial.  States are still capped by qubit count, and
exact diagonalization by a smaller dense-matrix limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .lattice import CapacityError, ToricLattice, check_sector
from .pauli import PauliPolynomial, TermRow

STATE_QUBIT_LIMIT = 20
DENSE_QUBIT_LIMIT = 16


def _check_state_capacity(n_qubits: int):
    if n_qubits > STATE_QUBIT_LIMIT:
        raise CapacityError(
            f"{n_qubits} qubits exceeds the statevector limit of {STATE_QUBIT_LIMIT}"
        )


@dataclass(frozen=True)
class StateVector:
    """The nonzero amplitudes `values` at the ascending int64 basis indices `support`."""

    n_qubits: int
    support: np.ndarray
    values: np.ndarray

    @classmethod
    def basis_state(cls, n_qubits: int, bits: int) -> "StateVector":
        _check_state_capacity(n_qubits)
        return cls(n_qubits, np.array([bits], dtype=np.int64), np.ones(1, dtype=np.complex128))

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.n_qubits, self.support, self.values / n)


def _z_signed(z_bits: int, basis: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """vals, each signed by the parity of z on its basis index."""
    if not z_bits:
        return vals
    parity = np.bitwise_count(basis & z_bits).astype(np.int64) & 1
    return vals * (1.0 - 2.0 * parity)


def _check_size(op, state: StateVector):
    if op.n_qubits != state.n_qubits:
        raise ValueError("operator and state act on different qubit counts")


def apply_poly(poly: PauliPolynomial, state: StateVector) -> StateVector:
    """sum_k c_k P_k psi.  Term k maps the support S to S XOR x_k; the rows
    are summed term by term, in term order, and a row that sums to exactly
    0 leaves the support."""
    _check_size(poly, state)
    s = state.support
    rows = np.empty((poly.n_terms(), len(s)), dtype=np.int64)
    vals = np.empty(rows.shape, dtype=np.complex128)
    for i, ((x, z), coeff) in enumerate(poly.terms.items()):
        rows[i] = s ^ x
        vals[i] = coeff * _z_signed(z, s, state.values)
    support, inverse = np.unique(rows.ravel(), return_inverse=True)
    values = np.zeros(len(support), dtype=np.complex128)
    np.add.at(values, inverse, vals.ravel())
    nonzero = values != 0
    return StateVector(state.n_qubits, support[nonzero], values[nonzero])


def poly_expectation(poly: PauliPolynomial, state: StateVector) -> complex:
    """<psi| sum_k c_k P_k |psi>: the one-column case of column_expectations."""
    _check_size(poly, state)
    return column_expectations(zip(poly.terms, zip(poly.terms.values())), 1, state)[0]


def column_expectations(rows: Iterable[TermRow], width: int, state: StateVector) -> list[complex]:
    """<psi| P |psi> for `width` polynomials that share one key order, read on
    the support S alone: (P psi)[b] = i^p (-1)^popcount(z & (b XOR x)) psi[b XOR x].

    `rows` yields (key, coefficients): one coefficient per column, None where
    that column has no term with the key.  Each key is gathered and signed
    once; column j sums its terms into its own row of amplitudes, in row order.
    """
    s = state.support
    totals = [np.zeros(len(s), dtype=np.complex128) for _ in range(width)]
    for (x, z), coeffs in rows:
        src, vals = s ^ x, state.values
        if x:
            pos = s.searchsorted(src)
            vals = vals.take(pos, mode="clip")
            # a src outside S reads 0; found by xor, not !=, whose comparison
            # loops add 128 KB of numpy code to the chain control's peak RSS
            vals[(s.take(pos, mode="clip") ^ src).astype(bool)] = 0
        signed = _z_signed(z, src, vals)
        for total, coeff in zip(totals, coeffs):
            if coeff is not None:
                total += coeff * signed
    return [complex(np.vdot(state.values, total)) for total in totals]


def ground_state(lat: ToricLattice, sector: tuple[int, int] = (1, 1)) -> StateVector:
    """Exact toric-code ground state in the given loop sector.

    Starts from the all-zero Z basis state (already a +1 eigenstate of every
    plaquette and both Z loops), flips it into the requested sector with the
    dual X loops, then applies the +1 star projectors (1 + A_s)/2.  One star
    projector is redundant because the stars multiply to identity.
    """
    check_sector(sector)
    bits = 0
    for flip_edges, sign in zip(lat.x_flip_edges, sector):
        if sign == -1:
            for e in flip_edges:
                bits ^= 1 << e
    state = StateVector.basis_state(lat.n_qubits, bits)
    for star in lat.stars()[:-1]:
        state = apply_poly(PauliPolynomial.projector(star, 1), state)
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
