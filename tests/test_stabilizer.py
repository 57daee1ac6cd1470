"""Stabilizer-group expectations against small explicit states."""

import numpy as np
import pytest
from conftest import dense_poly, dense_string, random_hermitian_string

from toricqet.pauli import PauliPolynomial, PauliString
from toricqet.stabilizer import StabilizerGroup


def expect(group: StabilizerGroup, p: PauliString) -> complex:
    """One string's expectation, through the polynomial query."""
    return group.poly_expectation(PauliPolynomial.from_string(p))


def bell_group(signs=(1, 1)):
    xx = PauliString.from_support(2, [0, 1], "x")
    zz = PauliString.from_support(2, [0, 1], "z")
    return StabilizerGroup([xx, zz], signs)


class TestConstruction:
    def test_counts_must_match_qubits(self):
        z = PauliString.single(2, 0, "z")
        with pytest.raises(ValueError):
            StabilizerGroup([z])

    def test_anticommuting_rejected(self):
        x = PauliString.single(1, 0, "x")
        z = PauliString.single(1, 0, "z")
        with pytest.raises(ValueError):
            StabilizerGroup([x.mul(z)])  # not Hermitian either, but one qubit
        with pytest.raises(ValueError):
            StabilizerGroup([x, z])

    def test_dependent_rejected(self):
        xx = PauliString.from_support(2, [0, 1], "x")
        with pytest.raises(ValueError):
            StabilizerGroup([xx, xx])

    def test_bad_signs_rejected(self):
        z = PauliString.single(1, 0, "z")
        with pytest.raises(ValueError):
            StabilizerGroup([z], signs=(2,))
        with pytest.raises(ValueError):
            StabilizerGroup([z], signs=(1, 1))


class TestSingleQubit:
    def test_z_up_state(self):
        g = StabilizerGroup([PauliString.single(1, 0, "z")])
        assert expect(g, PauliString.single(1, 0, "z")) == 1.0
        assert expect(g, PauliString.single(1, 0, "x")) == 0.0
        assert expect(g, PauliString.single(1, 0, "y")) == 0.0
        assert expect(g, PauliString.identity(1)) == 1

    def test_z_down_state(self):
        g = StabilizerGroup([PauliString.single(1, 0, "z")], signs=(-1,))
        assert expect(g, PauliString.single(1, 0, "z")) == -1.0

    def test_y_state_complex_bare_term(self):
        # |psi> with Y|psi> = |psi>; the bare product XZ has expectation -i.
        g = StabilizerGroup([PauliString.single(1, 0, "y")])
        bare_xz = PauliPolynomial._from_raw(1, {(1, 1): 1.0 + 0.0j})
        assert g.poly_expectation(bare_xz) == pytest.approx(-1j)


class TestBellState:
    def test_generator_products(self):
        g = bell_group()
        yy = PauliString.from_support(2, [0, 1], "y")
        assert expect(g, yy) == -1
        assert expect(g, PauliString.from_support(2, [0, 1], "x")) == 1.0
        assert expect(g, PauliString.from_support(2, [0, 1], "z")) == 1.0
        assert expect(g, PauliString.single(2, 0, "x")) == 0.0

    def test_with_signs(self):
        g = StabilizerGroup(bell_group().generators, (1, -1))
        assert expect(g, PauliString.from_support(2, [0, 1], "z")) == -1.0
        assert expect(g, PauliString.from_support(2, [0, 1], "y")) == 1

    def test_poly_expectation(self):
        g = bell_group()
        xx = PauliString.from_support(2, [0, 1], "x")
        zz = PauliString.from_support(2, [0, 1], "z")
        xi = PauliString.single(2, 0, "x")
        poly = PauliPolynomial.from_strings(2, [(xx, 0.5), (zz, -2.0), (xi, 7.0)])
        assert g.poly_expectation(poly) == pytest.approx(0.5 - 2.0)

    def test_expectation_matches_dense_state(self):
        # Reconstruct the stabilized vector by projector products, then
        # compare every expectation against the raw inner product.
        g = bell_group((1, -1))
        dim = 4
        proj = np.eye(dim, dtype=complex)
        for gen, sign in zip(g.generators, g.signs):
            proj = proj @ (np.eye(dim) + sign * dense_string(gen)) / 2
        vec = None
        for col in range(dim):
            v = proj[:, col]
            if np.linalg.norm(v) > 1e-9:
                vec = v / np.linalg.norm(v)
                break
        assert vec is not None
        rng = np.random.default_rng(41)
        for _ in range(500):
            p = random_hermitian_string(rng, 2)
            oracle = np.vdot(vec, dense_string(p) @ vec)
            assert abs(expect(g, p) - oracle) < 1e-12


class TestToricGroups:
    def test_ground_group_expectations_match_statevector(self, lat2, gs2):
        from toricqet.statevector import poly_expectation

        g = lat2.ground_group()
        rng = np.random.default_rng(53)
        for _ in range(2_000):
            poly = PauliPolynomial.from_string(random_hermitian_string(rng, lat2.n_qubits))
            assert abs(g.poly_expectation(poly) - poly_expectation(poly, gs2)) < 1e-10

    def test_group_element_products(self, lat3):
        # Products of random generator subsets stay in the group with the
        # sign obtained by explicit multiplication.
        g = lat3.ground_group((1, -1))
        rng = np.random.default_rng(59)
        for _ in range(300):
            acc = PauliString.identity(lat3.n_qubits)
            sign = 1
            for i in range(len(g.generators)):
                if rng.integers(2):
                    acc = acc.mul(g.generators[i])
                    sign *= g.signs[i]
            assert expect(g, acc) == sign

    def test_outside_strings_have_zero_expectation(self, lat3):
        g = lat3.ground_group()
        # Single-edge Z string: not a cycle, so outside the group.
        assert expect(g, PauliString.single(lat3.n_qubits, 4, "z")) == 0.0
        # Single-edge X string likewise.
        assert expect(g, PauliString.single(lat3.n_qubits, 4, "x")) == 0.0

    def test_size_mismatch_rejected(self, lat2):
        g = lat2.ground_group()
        with pytest.raises(ValueError):
            expect(g, PauliString.single(4, 0, "z"))
        with pytest.raises(ValueError):
            g.poly_expectation(PauliPolynomial.identity(4))
