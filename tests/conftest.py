"""Shared fixtures and a dense kron oracle for cross-checking tests."""

import numpy as np
import pytest

from toricqet.lattice import ToricLattice
from toricqet.pauli import PRUNE_TOL, PauliPolynomial, PauliString, phase_value
from toricqet.statevector import StateVector, ground_state

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)


def dense_string(p: PauliString) -> np.ndarray:
    """Literal kron build, qubit 0 as the least significant index bit."""
    out = np.array([[1.0 + 0.0j]])
    for j in range(p.n_qubits):
        xb = (p.x_bits >> j) & 1
        zb = (p.z_bits >> j) & 1
        factor = (I2, X2, Z2, X2 @ Z2)[xb + 2 * zb]
        out = np.kron(factor, out)
    return phase_value(p.phase_exp) * out


def dense_poly(poly: PauliPolynomial) -> np.ndarray:
    dim = 1 << poly.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for string, coeff in poly.strings():
        out += coeff * dense_string(string)
    return out


def dense_state(state: StateVector) -> np.ndarray:
    """The full 2^n amplitude array of a state, zero off its support."""
    out = np.zeros(1 << state.n_qubits, dtype=np.complex128)
    out[state.support] = state.values
    return out


def string_product(*strings: PauliString) -> PauliString:
    """The product of the strings, read back from PauliPolynomial.mul: a
    product of strings is one term whose coefficient is a power of i."""
    acc = PauliPolynomial.identity(strings[0].n_qubits)
    for string in strings:
        acc = acc.mul(PauliPolynomial.from_string(string))
    ((x, z), c), = acc.terms.items()
    return PauliString(acc.n_qubits, x, z, [phase_value(e) for e in range(4)].index(c))


def poly_close(a: PauliPolynomial, b: PauliPolynomial, tol: float = PRUNE_TOL) -> bool:
    """True iff a and b agree term by term within tol."""
    return a.sub(b).max_abs_coeff() <= tol


def random_string(rng, n: int) -> PauliString:
    top = 1 << n
    return PauliString(n, int(rng.integers(top)), int(rng.integers(top)), int(rng.integers(4)))


def random_hermitian_string(rng, n: int) -> PauliString:
    p = random_string(rng, n)
    if p.is_hermitian():
        return p
    return PauliString(n, p.x_bits, p.z_bits, p.phase_exp + 1)


@pytest.fixture(scope="session")
def lat2():
    return ToricLattice(2)


@pytest.fixture(scope="session")
def lat3():
    return ToricLattice(3)


@pytest.fixture(scope="session")
def gs2(lat2):
    return ground_state(lat2)


@pytest.fixture(scope="session")
def gs3(lat3):
    return ground_state(lat3)


# one line per acceptance criterion, echoed after the run so the verdicts
# survive output capture
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)
