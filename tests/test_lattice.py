"""Lattice geometry invariants and golden index tables."""

import json

import numpy as np
import pytest
from conftest import poly_close, string_product

from toricqet import statevector
from toricqet.lattice import EAST, LATTICE_QUBIT_LIMIT, SOUTH, CapacityError, ToricLattice
from toricqet.pauli import PauliPolynomial, PauliString


class TestIndexing:
    def test_edge_index_golden_L2(self):
        lat = ToricLattice(2)
        assert lat.edge_index(0, 0, EAST) == 0
        assert lat.edge_index(0, 0, SOUTH) == 1
        assert lat.edge_index(0, 1, EAST) == 2
        assert lat.edge_index(1, 1, SOUTH) == 7
        assert lat.edge_index(2, 0, EAST) == 0  # wraps
        assert lat.edge_index(0, -1, EAST) == 2

    def test_star_and_plaquette_golden_L2(self):
        lat = ToricLattice(2)
        assert sorted(lat.star_edges[0]) == [0, 1, 2, 5]
        assert sorted(lat.plaquette_edges[0]) == [0, 1, 3, 4]
        assert lat.z_loop_edges == ((0, 2), (1, 5))
        assert lat.x_flip_edges == ((0, 4), (1, 3))

    def test_edge_label_roundtrip(self):
        lat = ToricLattice(3)
        assert lat.edge_label(0) == "E(0,0)"
        assert lat.edge_label(1) == "S(0,0)"
        assert lat.edge_label(lat.edge_index(2, 1, SOUTH)) == "S(2,1)"

    def test_every_edge_in_two_stars_two_plaquettes(self):
        for L in (2, 3, 4, 5):
            lat = ToricLattice(L)
            for e in range(lat.n_qubits):
                assert len(lat.stars_touching(e)) == 2
                assert len(lat.plaquettes_touching(e)) == 2

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            ToricLattice(1)
        with pytest.raises(ValueError):
            ToricLattice(2, bob_qubit=8)
        with pytest.raises(ValueError):
            ToricLattice(2).edge_index(0, 0, 2)

    @pytest.mark.parametrize("L,bob", [(2.5, 0), (3.0, 0), (float("nan"), 0), (2, 1.5), (3, 2.0), ("3", 0)])
    def test_non_integral_arguments(self, L, bob):
        with pytest.raises(ValueError, match="must be integers"):
            ToricLattice(L, bob_qubit=bob)

    def test_integer_like_arguments(self):
        lat = ToricLattice(np.int64(3), bob_qubit=np.int64(5))
        assert (lat.L, lat.n_qubits, lat.bob_qubit) == (3, 18, 5)
        assert type(lat.n_qubits) is int and type(lat.bob_qubit) is int

    def test_size_limit(self):
        assert ToricLattice(160).n_qubits == LATTICE_QUBIT_LIMIT
        with pytest.raises(CapacityError, match="51842 qubits"):
            ToricLattice(161)
        assert statevector.CapacityError is CapacityError


class TestOperators:
    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_stars_multiply_to_identity(self, L):
        lat = ToricLattice(L)
        assert string_product(*lat.stars()) == PauliString(lat.n_qubits, 0, 0)
        assert string_product(*lat.plaquettes()) == PauliString(lat.n_qubits, 0, 0)

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_all_terms_commute(self, L):
        lat = ToricLattice(L)
        ops = list(lat.stars()) + list(lat.plaquettes()) + list(lat.z_loops())
        for i, a in enumerate(ops):
            for b in ops[i + 1 :]:
                assert a.commutes(b)

    @pytest.mark.parametrize("L", [2, 3])
    def test_flip_loops_anticommute_with_their_label(self, L):
        lat = ToricLattice(L)
        f1, f2 = lat.x_flips()
        l1, l2 = lat.z_loops()
        assert not f1.commutes(l1)
        assert f1.commutes(l2)
        assert not f2.commutes(l2)
        assert f2.commutes(l1)
        for s in lat.stars():
            assert f1.commutes(s) and f2.commutes(s)
        for p in lat.plaquettes():
            assert f1.commutes(p) and f2.commutes(p)

    def test_hamiltonian_terms(self):
        lat = ToricLattice(3)
        ham = lat.hamiltonian()
        assert ham.n_terms() == 2 * 9
        assert all(c == -1.0 for _, c in ham.strings())
        assert lat.ground_energy() == -18.0

    @pytest.mark.parametrize("sector", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_ground_group_builds_in_all_sectors(self, sector):
        lat = ToricLattice(3)
        g = lat.ground_group(sector)
        l1, l2 = lat.z_loops()
        assert g.poly_expectation(PauliPolynomial.from_string(l1)) == sector[0]
        assert g.poly_expectation(PauliPolynomial.from_string(l2)) == sector[1]
        assert g.poly_expectation(lat.hamiltonian()) == pytest.approx(lat.ground_energy())

    def test_bad_sector_rejected(self):
        with pytest.raises(ValueError):
            ToricLattice(2).ground_group((0, 1))


class TestSchemes:
    def test_full_region_scheme(self):
        lat = ToricLattice(2, bob_qubit=3)
        scheme = lat.full_region_scheme()
        assert scheme.edges == frozenset(range(8)) - {3}
        op = scheme.operator()
        assert op.z_bits == 0 and op.x_bits == 0xFF ^ (1 << 3)

    def test_mod2_reduction(self):
        lat = ToricLattice(2)
        scheme = lat.scheme_from_edges([1, 2, 2, 3])
        assert scheme.edges == frozenset({1, 3})

    def test_empty_and_bob_overlap_rejected(self):
        lat = ToricLattice(2)
        with pytest.raises(ValueError):
            lat.scheme_from_edges([5, 5])
        with pytest.raises(ValueError):
            lat.scheme_from_edges([0, 1])
        with pytest.raises(ValueError):
            lat.scheme_from_edges([99])

    @pytest.mark.parametrize("edges", [[2.5, 3.9], ["3"], [3.0], [1, None]])
    def test_non_integral_edges_rejected(self, edges):
        # int() would truncate 2.5 to 2 and parse "3"; an edge must be an integer
        with pytest.raises(ValueError, match="is not an integer"):
            ToricLattice(2).scheme_from_edges(edges)

    def test_numpy_integer_edges_accepted(self):
        scheme = ToricLattice(2).scheme_from_edges(np.array([1, 3]))
        assert scheme.edges == frozenset({1, 3})
        assert all(type(e) is int for e in scheme.edges)

    def test_kraus_pair(self):
        lat = ToricLattice(2)
        scheme = lat.full_region_scheme()
        plus = scheme.kraus(1)
        minus = scheme.kraus(-1)
        ident = plus + minus
        assert ident.terms == {(0, 0): 1.0}
        assert poly_close(plus.mul(plus), plus)
        with pytest.raises(ValueError):
            scheme.kraus(0)


class TestDescribe:
    def test_describe_is_json_serializable(self):
        doc = ToricLattice(3, bob_qubit=4).describe()
        blob = json.dumps(doc)
        again = json.loads(blob)
        assert again["L"] == 3
        assert again["bob_qubit"] == 4
        assert again["bob_edge"] == "E(0,2)"
        assert len(again["stars"]) == 9
        assert 4 not in again["measurement_support"]
        assert len(again["measurement_support"]) == 17

    def test_describe_golden_L2(self):
        doc = ToricLattice(2).describe()
        assert doc["stars"][0] == [0, 1, 2, 5]
        assert doc["plaquettes"][0] == [0, 1, 4, 3]
        assert doc["z_loops"] == [[0, 2], [1, 5]]
        assert doc["x_flips"] == [[0, 4], [1, 3]]
        assert doc["measurement_support"] == [1, 2, 3, 4, 5, 6, 7]
