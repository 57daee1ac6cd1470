"""The homology engine against the reference echelon, and the reference
against small explicit states."""

import sys
import threading

import numpy as np
import pytest
from conftest import dense_poly, dense_string, random_hermitian_string, string_product
from echelon import EchelonGroup, _all_commute, reference_group

from toricqet.lattice import ToricLattice
from toricqet.optimize import ProtocolSystem, QuadraticResponse
from toricqet.pauli import PauliPolynomial, PauliString
from toricqet.protocol import StabilizerBackend

SECTORS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def expect(group, p: PauliString) -> complex:
    """One string's expectation, through the polynomial query."""
    return group.poly_expectation(PauliPolynomial.from_string(p))


def bell_group(signs=(1, 1)):
    xx = PauliString.from_support(2, [0, 1], "x")
    zz = PauliString.from_support(2, [0, 1], "z")
    return EchelonGroup([xx, zz], signs)


class TestConstruction:
    """The reference echelon's generator checks."""

    def test_counts_must_match_qubits(self):
        z = PauliString.single(2, 0, "z")
        with pytest.raises(ValueError):
            EchelonGroup([z])

    def test_anticommuting_rejected(self):
        x = PauliString.single(1, 0, "x")
        z = PauliString.single(1, 0, "z")
        with pytest.raises(ValueError):
            EchelonGroup([string_product(x, z)])  # not Hermitian either, but one qubit
        with pytest.raises(ValueError):
            EchelonGroup([x, z])

    def test_dependent_rejected(self):
        xx = PauliString.from_support(2, [0, 1], "x")
        with pytest.raises(ValueError):
            EchelonGroup([xx, xx])

    def test_dependent_toric_generators_rejected(self, lat2):
        # All four stars multiply to the identity, so they cannot all be rows.
        gens = list(lat2.stars()) + list(lat2.plaquettes()[:-2]) + list(lat2.z_loops())
        with pytest.raises(ValueError, match="dependent"):
            EchelonGroup(gens)

    def test_bad_signs_rejected(self):
        z = PauliString.single(1, 0, "z")
        with pytest.raises(ValueError):
            EchelonGroup([z], signs=(2,))
        with pytest.raises(ValueError):
            EchelonGroup([z], signs=(1, 1))


class TestCommutationCheck:
    """The column-mask check against the plain pairwise definition."""

    def test_far_apart_pair_rejected(self):
        # Only the first and the last of six generators anticommute (X0 vs Z0).
        gens = [PauliString.single(6, 0, "x")]
        gens += [PauliString.single(6, q, "z") for q in range(1, 5)]
        gens.append(PauliString.from_support(6, [0, 5], "z"))
        assert not gens[0].commutes(gens[-1])
        with pytest.raises(ValueError, match="do not all commute"):
            EchelonGroup(gens)

    def test_pair_anticommuting_through_y_site_rejected(self):
        # Y0 X1 against X0 X1: the Y site anticommutes, the X site does not.
        y0x1 = string_product(PauliString.single(2, 0, "y"), PauliString.single(2, 1, "x"))
        x0x1 = PauliString.from_support(2, [0, 1], "x")
        assert not y0x1.commutes(x0x1)
        with pytest.raises(ValueError, match="do not all commute"):
            EchelonGroup([y0x1, x0x1])

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_toric_ground_groups_accepted(self, L):
        # the lattice's stars, plaquettes and Z loops commute and are independent
        lat = ToricLattice(L)
        for sector in SECTORS:
            g = reference_group(lat, sector)
            assert g.signs[-2:] == sector

    def test_matches_pairwise_definition(self):
        rng = np.random.default_rng(67)
        seen = set()
        for _ in range(400):
            n = int(rng.integers(1, 6))
            gens = [random_hermitian_string(rng, n) for _ in range(int(rng.integers(1, 5)))]
            want = all(a.commutes(b) for i, a in enumerate(gens) for b in gens[i + 1 :])
            assert _all_commute(gens) == want
            seen.add(want)
        assert seen == {True, False}


class TestSingleQubit:
    def test_z_up_state(self):
        g = EchelonGroup([PauliString.single(1, 0, "z")])
        assert expect(g, PauliString.single(1, 0, "z")) == 1.0
        assert expect(g, PauliString.single(1, 0, "x")) == 0.0
        assert expect(g, PauliString.single(1, 0, "y")) == 0.0
        assert expect(g, PauliString(1, 0, 0)) == 1

    def test_z_down_state(self):
        g = EchelonGroup([PauliString.single(1, 0, "z")], signs=(-1,))
        assert expect(g, PauliString.single(1, 0, "z")) == -1.0

    def test_y_state_complex_bare_term(self):
        # |psi> with Y|psi> = |psi>; the bare product XZ has expectation -i.
        g = EchelonGroup([PauliString.single(1, 0, "y")])
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
        g = EchelonGroup(bell_group().generators, (1, -1))
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
        ref = reference_group(lat3, (1, -1))
        rng = np.random.default_rng(59)
        for _ in range(300):
            acc = PauliString(lat3.n_qubits, 0, 0)
            sign = 1
            for i in range(len(ref.generators)):
                if rng.integers(2):
                    acc = string_product(acc, ref.generators[i])
                    sign *= ref.signs[i]
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


class TestLinearQuery:
    """Keys X_A ^ l, with X_A the measured all-but-one X string and l small.

    Members are built as explicit signed generator products: the stars of
    one checkerboard colour multiply to X on every edge (on odd L, every
    edge off the two wrap-around seams), and a random subset of generators
    near the target edge makes the rest.  Each non-member is a member times
    one Pauli near the target, which anticommutes with some generator.
    The random subsets include the two Z loops, so the sector signs enter.
    """

    @staticmethod
    def keys(lat: ToricLattice, sector, count: int, seed: int):
        """The homology engine, and `count` keys with their generator-product values."""
        g = reference_group(lat, sector)
        n, L = lat.n_qubits, lat.L
        x_a = lat.full_region_scheme().operator()
        # Star (r, c) is generator r * L + c; the dropped last star has r + c even.
        base, sign = PauliString(n, 0, 0), 1
        for r in range(L):
            for c in range(L):
                if (r + c) % 2:
                    base = string_product(base, g.generators[r * L + c])
                    sign *= g.signs[r * L + c]
        # Stars and plaquettes within two steps of the target, and their edges.
        ring = {e for edges in lat.star_edges + lat.plaquette_edges if lat.bob_qubit in edges for e in edges}
        near = [i for i, gen in enumerate(g.generators[: 2 * L * L - 2])
                if any((gen.x_bits | gen.z_bits) >> e & 1 for e in ring)]
        near_edges = {e for i in near for e in range(n) if (g.generators[i].x_bits | g.generators[i].z_bits) >> e & 1}
        near += [n - 2, n - 1]  # the Z loops, which carry the sector signs
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(count):
            p, s = base, sign
            for i in near:
                if rng.integers(2):
                    p = string_product(p, g.generators[i])
                    s *= g.signs[i]
            if rng.integers(2):
                edge = int(rng.choice(sorted(near_edges)))
                p = string_product(p, PauliString.single(n, edge, "xyz"[int(rng.integers(3))]))
                assert not all(p.commutes(gen) for gen in g.generators)
                s = 0
            else:
                assert all(p.commutes(gen) for gen in g.generators)
            assert ((p.x_bits ^ x_a.x_bits) | p.z_bits).bit_count() <= 4 * L + len(near_edges) + 1
            out.append((p, s))
        return lat.ground_group(sector), out

    CASES = [(3, 7, (1, -1)), (4, 31, (1, 1))]

    @pytest.mark.parametrize("L,bob,sector", CASES)
    def test_heavy_keys_match_generator_products(self, L, bob, sector):
        lat = ToricLattice(L, bob)
        g, keys = self.keys(lat, sector, 200, seed=71 + L)
        assert {s == 0 for _, s in keys} == {True, False}
        ref = reference_group(lat, sector)
        for p, s in keys:
            assert expect(g, p) == s
            assert repr(expect(g, p)) == repr(expect(ref, p))

    @pytest.mark.parametrize("L,bob,sector", CASES)
    def test_values_independent_of_query_history(self, L, bob, sector):
        lat = ToricLattice(L, bob)
        g, keys = self.keys(lat, sector, 200, seed=79 + L)
        want = [expect(lat.ground_group(sector), p) for p, _ in keys]
        # Warm a group on other heavy keys: X_A times dense random strings.
        x_a = lat.full_region_scheme().operator()
        rng = np.random.default_rng(83)
        for _ in range(50):
            expect(g, string_product(x_a, random_hermitian_string(rng, lat.n_qubits)))
        assert [expect(g, p) for p, _ in keys] == want
        fresh = lat.ground_group(sector)
        assert [expect(fresh, p) for p, _ in reversed(keys)] == want[::-1]

    @pytest.mark.parametrize("L,bob,sector", CASES)
    def test_polynomial_is_sum_of_one_term_queries(self, L, bob, sector):
        lat = ToricLattice(L, bob)
        g, keys = self.keys(lat, sector, 60, seed=89 + L)
        n = lat.n_qubits
        rng = np.random.default_rng(97)
        near = sorted({e for edges in lat.star_edges + lat.plaquette_edges
                       if bob in edges for e in edges})
        local = [PauliString.from_support(n, map(int, rng.choice(near, size=2, replace=False)), "xyz"[k % 3])
                 for k in range(30)]
        local += list(lat.stars()[:4]) + list(lat.plaquettes()[:4])
        strings = [p for p, _ in keys] + local
        rng.shuffle(strings)
        coeffs = rng.normal(size=len(strings)) + 1j * rng.normal(size=len(strings))
        poly = PauliPolynomial.from_strings(n, zip(strings, coeffs))
        total = g.poly_expectation(poly)
        want = 0.0 + 0.0j
        for key, c in poly.terms.items():
            want += lat.ground_group(sector).poly_expectation(PauliPolynomial(n, {key: c}))
        assert total == want
        assert total != 0

    def test_concurrent_queries_share_one_group(self):
        # Threads share one group; every value must still be exact.
        lat = ToricLattice(4, 31)
        g, keys = self.keys(lat, (1, 1), 120, seed=101)
        x_a = lat.full_region_scheme().operator()
        rng = np.random.default_rng(103)
        others = [string_product(x_a, random_hermitian_string(rng, lat.n_qubits)) for _ in range(40)]
        errors = []

        def worker(order):
            for _ in range(5):
                for k in order:
                    p, s = keys[k]
                    if expect(g, p) != s:
                        errors.append(repr(p))
                expect(g, others[order[0] % len(others)])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(list(rng.permutation(len(keys))),))
                       for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


class TestAgainstReference:
    """The homology engine against the reference echelon, value for value:
    the same complex unit, or the same zero, so every sum keeps its bits."""

    @staticmethod
    def values(group, keys, coeffs):
        return [repr(v) for v in group.column_expectations(zip(keys, coeffs), len(coeffs[0]))]

    @pytest.mark.parametrize("L", [2, 3, 4, 5, 8, 16])
    def test_random_keys(self, L):
        lat = ToricLattice(L)
        n = lat.n_qubits
        rng = np.random.default_rng(400 + L)
        gens = [(g.x_bits, g.z_bits) for g in reference_group(lat).generators]
        x_loops = [sum(1 << e for e in edges) for edges in lat.x_flip_edges]
        for sector in SECTORS:
            g, ref = lat.ground_group(sector), reference_group(lat, sector)
            keys = []
            for _ in range(150):
                x = z = 0
                for gx, gz in gens:
                    if rng.integers(2):
                        x, z = x ^ gx, z ^ gz
                if rng.integers(4) == 0:
                    x ^= x_loops[int(rng.integers(2))]
                # none, one or two local Paulis on top
                for _ in range(int(rng.integers(3))):
                    q, kind = int(rng.integers(n)), int(rng.integers(1, 4))
                    x, z = x ^ (kind & 1) << q, z ^ (kind >> 1) << q
                keys.append((x, z))
            one = [(1.0 + 0j,)]
            got = [self.values(g, [key], one) for key in keys]
            assert got == [self.values(ref, [key], one) for key in keys]
            assert {v == ["0j"] for v in got} == {True, False}
            # three columns with gaps, summed in row order
            coeffs = [tuple(None if rng.integers(4) == 0 else complex(*rng.normal(size=2)) for _ in range(3))
                      for _ in keys]
            assert self.values(g, keys, coeffs) == self.values(ref, keys, coeffs)

    @pytest.mark.parametrize("L,bob,sector", TestLinearQuery.CASES)
    def test_heavy_keys(self, L, bob, sector):
        lat = ToricLattice(L, bob)
        g, keys = TestLinearQuery.keys(lat, sector, 200, seed=107 + L)
        ref = reference_group(lat, sector)
        rows = [(p.x_bits, p.z_bits) for p, _ in keys]
        coeffs = [(1.0 + 0j, complex(k, -0.5)) for k in range(len(rows))]
        assert self.values(g, rows, coeffs) == self.values(ref, rows, coeffs)
        for row, c in zip(rows, coeffs):
            assert self.values(g, [row], [c]) == self.values(ref, [row], [c])

    @pytest.mark.parametrize("L", [3, 8])
    @pytest.mark.parametrize("high", [False, True])
    @pytest.mark.parametrize("one_edge", [False, True])
    def test_response_forms_bit_identical(self, L, high, one_edge):
        n = 2 * L * L
        bob = n - 1 if high else 1
        lat = ToricLattice(L, bob)
        # one edge: the other east edge of a star on the target
        scheme = (lat.scheme_from_edges([next(e for e in lat.star_edges[lat.stars_touching(bob)[0]] if e != bob)])
                  if one_edge else lat.full_region_scheme())
        sector = (1, -1) if high else (-1, 1)
        responses = [QuadraticResponse(ProtocolSystem.from_toric(lat, scheme, StabilizerBackend(group)))
                     for group in (lat.ground_group(sector), reference_group(lat, sector))]
        got, want = ([r.w_shared.tobytes(), r.r_shared.tobytes(), *(f.tobytes() for f in r.forms.values()),
                      repr(r.system.measured_energies), repr(r.system.probabilities)] for r in responses)
        assert got == want
        assert np.any(responses[0].forms[1])
