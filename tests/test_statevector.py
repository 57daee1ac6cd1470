"""Brute-force backend checks and exact small-lattice facts."""

import tracemalloc

import numpy as np
import pytest
from conftest import dense_poly, dense_state, dense_string, random_string, string_product

from toricqet.lattice import ToricLattice
from toricqet.pauli import PauliPolynomial, PauliString
from toricqet.statevector import (
    CapacityError,
    StateVector,
    apply_poly,
    ground_state,
    poly_expectation,
    poly_to_dense,
)


def random_state(rng, n: int) -> StateVector:
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    return StateVector(n, np.arange(1 << n, dtype=np.int64), amps.astype(np.complex128))


def ground_space_dimension(lat: ToricLattice, tol: float = 1e-9) -> int:
    """Degeneracy of the lowest eigenvalue by dense diagonalization."""
    evals = np.linalg.eigvalsh(poly_to_dense(lat.hamiltonian()))
    return int(np.count_nonzero(evals <= evals[0] + tol))


class TestApply:
    def test_apply_string_matches_dense(self):
        rng = np.random.default_rng(61)
        for _ in range(1_000):
            n = int(rng.integers(1, 7))
            p = random_string(rng, n)
            state = random_state(rng, n)
            got = dense_state(apply_poly(PauliPolynomial.from_string(p), state))
            want = dense_string(p) @ dense_state(state)
            assert np.allclose(got, want, atol=1e-13)

    def test_apply_poly_matches_dense(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            k = int(rng.integers(1, 6))
            poly = PauliPolynomial.from_strings(
                n,
                [
                    (random_string(rng, n), complex(rng.standard_normal(), rng.standard_normal()))
                    for _ in range(k)
                ],
            )
            state = random_state(rng, n)
            got = dense_state(apply_poly(poly, state))
            want = dense_poly(poly) @ dense_state(state)
            assert np.allclose(got, want, atol=1e-12)

    def test_poly_to_dense_matches_oracle(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            poly = PauliPolynomial.from_strings(
                n, [(random_string(rng, n), 1.0 + 0.5j), (random_string(rng, n), -2.0)]
            )
            assert np.allclose(poly_to_dense(poly), dense_poly(poly), atol=1e-13)

    def test_expectations(self):
        rng = np.random.default_rng(73)
        state = random_state(rng, 4)
        p = PauliString.from_support(4, [1, 3], "y")
        amps = dense_state(state)
        want = np.vdot(amps, dense_string(p) @ amps)
        assert poly_expectation(PauliPolynomial.from_string(p), state) == pytest.approx(want)

    def test_size_mismatch_rejected(self):
        state = StateVector.basis_state(2, 0)
        with pytest.raises(ValueError):
            apply_poly(PauliPolynomial.from_string(PauliString.single(3, 0, "x")), state)


def scatter_expectation(poly: PauliPolynomial, state: StateVector) -> complex:
    """<psi|P|psi> from a full-array scatter of every term,
    P|b> = c (-1)^popcount(z & b) |b XOR x>, written independently of the
    support kernel for states past the kron oracle's reach."""
    amps = dense_state(state)
    idx = np.arange(len(amps))
    out = np.zeros_like(amps)
    for (x, z), coeff in poly.terms.items():
        sign = 1.0 - 2.0 * (np.bitwise_count(idx & z) & 1)
        out[idx ^ x] += coeff * sign * amps
    return complex(np.vdot(amps, out))


def reference_expectation(poly: PauliPolynomial, state: StateVector) -> complex:
    amps = dense_state(state)
    if state.n_qubits <= 10:
        return complex(np.vdot(amps, dense_poly(poly) @ amps))
    return scatter_expectation(poly, state)


class TestSupportKernel:
    """Expectations over the nonzero support equal the full-array ones."""

    def check(self, rng, state, strings):
        n = state.n_qubits
        for p in strings:
            poly = PauliPolynomial.from_string(p)
            assert abs(poly_expectation(poly, state) - reference_expectation(poly, state)) <= 1e-12
        for _ in range(20):
            picks = rng.choice(len(strings), size=int(rng.integers(1, 6)))
            poly = PauliPolynomial.from_strings(
                n, [(strings[i], complex(rng.standard_normal(), rng.standard_normal())) for i in picks]
            )
            assert abs(poly_expectation(poly, state) - reference_expectation(poly, state)) <= 1e-12

    def test_dense_state(self):
        rng = np.random.default_rng(79)
        state = random_state(rng, 6)
        assert len(state.support) == 1 << 6
        strings = [random_string(rng, 6) for _ in range(40)]
        self.check(rng, state, strings)
        # the full-array reference used at L=3 agrees with the kron oracle
        poly = PauliPolynomial.from_strings(6, [(p, 0.3 - 0.7j) for p in strings[:5]])
        assert abs(scatter_expectation(poly, state) - reference_expectation(poly, state)) <= 1e-12

    @pytest.mark.parametrize("L", [2, 3])
    def test_toric_ground_state(self, L, request):
        lat = request.getfixturevalue(f"lat{L}")
        state = request.getfixturevalue(f"gs{L}")
        assert len(state.support) == 1 << (L * L - 1)
        rng = np.random.default_rng(83 + L)
        stabilizers = list(lat.stars()) + list(lat.plaquettes()) + list(lat.z_loops())
        products = []
        for _ in range(10):
            prod = string_product(*(stabilizers[i] for i in rng.choice(len(stabilizers), size=3)))
            y = PauliString.single(lat.n_qubits, int(rng.integers(lat.n_qubits)), "y")
            products.append(string_product(prod, y))
            products.append(prod)
        strings = stabilizers + products + [random_string(rng, lat.n_qubits) for _ in range(10)]
        self.check(rng, state, strings)
        ham = lat.hamiltonian()
        assert poly_expectation(ham, state) == pytest.approx(reference_expectation(ham, state), abs=1e-12)

    def test_explicit_zeros_mapped_outside_support(self):
        rng = np.random.default_rng(89)
        full = random_state(rng, 4)
        kept = np.setdiff1d(full.support, [1, 2, 7, 8, 13])
        state = StateVector(4, kept, full.values[kept]).normalized()
        support = set(kept.tolist())
        x = 0b0011
        mapped = {b ^ x for b in support}
        assert mapped & support and mapped - support  # part of S lands outside S
        strings = [PauliString(4, x, z, phase) for z in range(16) for phase in range(4)]
        self.check(rng, state, strings)
        # the applies compute only the rows S XOR x; every other row is 0
        for p in strings + [random_string(rng, 4) for _ in range(20)]:
            want = dense_string(p) @ dense_state(state)
            assert np.allclose(dense_state(apply_poly(PauliPolynomial.from_string(p), state)), want, atol=1e-13)
            poly = PauliPolynomial.from_strings(4, [(p, 0.5), (random_string(rng, 4), -1.5j)])
            want = dense_poly(poly) @ dense_state(state)
            assert np.allclose(dense_state(apply_poly(poly, state)), want, atol=1e-12)

    def test_cancelled_rows_leave_the_support(self):
        ident, flip = PauliString(3, 0, 0), PauliString.single(3, 0, "x")
        plus = PauliPolynomial.from_strings(3, [(ident, 0.5), (flip, 0.5)])
        minus = PauliPolynomial.from_strings(3, [(ident, 0.5), (flip, -0.5)])
        state = apply_poly(minus, apply_poly(plus, StateVector.basis_state(3, 0b101)))
        assert len(state.support) == len(state.values) == 0
        assert state.norm() == 0.0
        rng = np.random.default_rng(97)
        for p in [ident] + [random_string(rng, 3) for _ in range(20)]:
            assert poly_expectation(PauliPolynomial.from_string(p), state) == 0
        assert len(apply_poly(plus, state).support) == 0

    def test_size_mismatch_rejected(self):
        state = StateVector.basis_state(2, 0)
        with pytest.raises(ValueError):
            poly_expectation(PauliPolynomial.from_string(PauliString.single(3, 0, "x")), state)
        with pytest.raises(ValueError):
            poly_expectation(PauliPolynomial.identity(3), state)


class TestGroundState:
    def test_L2_ground_facts(self, lat2, gs2):
        assert gs2.norm() == pytest.approx(1.0)
        ham = lat2.hamiltonian()
        assert poly_expectation(ham, gs2) == pytest.approx(-8.0)
        for op in list(lat2.stars()) + list(lat2.plaquettes()) + list(lat2.z_loops()):
            assert poly_expectation(PauliPolynomial.from_string(op), gs2) == pytest.approx(1.0)

    @pytest.mark.parametrize("sector", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_sectors_have_right_loop_signs(self, lat2, sector):
        state = ground_state(lat2, sector)
        l1, l2 = lat2.z_loops()
        assert poly_expectation(PauliPolynomial.from_string(l1), state) == pytest.approx(sector[0])
        assert poly_expectation(PauliPolynomial.from_string(l2), state) == pytest.approx(sector[1])
        assert poly_expectation(lat2.hamiltonian(), state) == pytest.approx(-8.0)

    def test_sectors_are_orthogonal(self, lat2):
        states = [ground_state(lat2, s) for s in [(1, 1), (1, -1), (-1, 1), (-1, -1)]]
        for i in range(4):
            for j in range(i + 1, 4):
                overlap = np.vdot(dense_state(states[i]), dense_state(states[j]))
                assert abs(overlap) < 1e-12

    def test_L2_spectrum(self, lat2):
        evals = np.linalg.eigvalsh(poly_to_dense(lat2.hamiltonian()))
        assert evals[0] == pytest.approx(-8.0)
        assert ground_space_dimension(lat2) == 4
        above = evals[evals > -8.0 + 1e-9]
        assert above[0] == pytest.approx(-4.0)

    def test_L3_ground_energy(self, lat3, gs3):
        assert poly_expectation(lat3.hamiltonian(), gs3) == pytest.approx(-18.0)

    def test_L3_build_holds_only_the_support(self, lat3):
        # 256 nonzero amplitudes; one full 2^18-entry array alone takes 4 MiB
        tracemalloc.start()
        try:
            ground_state(lat3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_bad_sector_rejected(self, lat2):
        with pytest.raises(ValueError):
            ground_state(lat2, (1, 0))


class TestCapacity:
    def test_ground_state_capacity(self):
        with pytest.raises(CapacityError):
            ground_state(ToricLattice(4))  # 32 qubits

    def test_dense_capacity(self):
        with pytest.raises(CapacityError):
            poly_to_dense(ToricLattice(3).hamiltonian())  # 18 qubits
        with pytest.raises(CapacityError):
            poly_to_dense(PauliPolynomial.identity(17))

    def test_basis_state_capacity(self):
        with pytest.raises(CapacityError):
            StateVector.basis_state(21, 0)
