"""Protocol operators, energies, and structural checks on both backends."""

import math

import numpy as np
import pytest
from conftest import random_hermitian_string

from toricqet.lattice import ToricLattice
from toricqet.pauli import PauliPolynomial, PauliString
from toricqet.protocol import (
    LoccParams,
    ProtocolSystem,
    StabilizerBackend,
    StatevectorBackend,
    delta_closed_form,
    energy_after_locc,
    energy_injected,
    excitation_profile,
    locc_unitary,
    make_backends,
    measurement_ops,
    outcome_probabilities,
    target_commutator,
    verify_cross_terms,
    verify_derivation_chain,
    verify_local_expectations,
    verify_plaquette_collapse,
)
from toricqet.statevector import apply_poly


def random_params(rng) -> LoccParams:
    direction = rng.standard_normal(3)
    while np.linalg.norm(direction) < 1e-6:
        direction = rng.standard_normal(3)
    return LoccParams.from_direction(rng.uniform(0.0, 2.0 * math.pi), direction)


class TestLoccParams:
    def test_unit_axis_enforced(self):
        with pytest.raises(ValueError):
            LoccParams(0.5, (1.0, 1.0, 0.0))
        with pytest.raises(ValueError):
            LoccParams.from_direction(0.5, (0.0, 0.0, 0.0))
        p = LoccParams.from_direction(0.5, (3.0, 0.0, 4.0))
        assert p.axis == pytest.approx((0.6, 0.0, 0.8))


class TestMeasurementOps:
    def test_projector_algebra(self, lat2):
        scheme = lat2.full_region_scheme()
        m_plus, m_minus = measurement_ops(scheme)
        assert m_plus.mul(m_plus).isclose(m_plus)
        assert m_minus.mul(m_minus).isclose(m_minus)
        assert (m_plus + m_minus).isclose(PauliPolynomial.identity(lat2.n_qubits))
        assert m_plus.adjoint().isclose(m_plus)

    def test_projectors_commute_with_stars(self, lat2):
        scheme = lat2.full_region_scheme()
        m_plus, _ = measurement_ops(scheme)
        for star in lat2.stars():
            star_poly = PauliPolynomial.from_string(star)
            assert m_plus.commutator(star_poly).is_zero()

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_outcomes_equally_likely(self, L):
        lat = ToricLattice(L)
        scheme = lat.full_region_scheme()
        p_plus, p_minus = outcome_probabilities(scheme, lat, StabilizerBackend(lat.ground_group()))
        assert p_plus == pytest.approx(0.5)
        assert p_minus == pytest.approx(0.5)

    def test_probabilities_match_statevector(self, lat2, gs2):
        scheme = lat2.full_region_scheme()
        want = outcome_probabilities(scheme, lat2, StatevectorBackend(gs2))
        got = outcome_probabilities(scheme, lat2, StabilizerBackend(lat2.ground_group()))
        assert got == pytest.approx(want, abs=1e-12)


class TestLoccUnitary:
    def test_theta_zero_is_identity(self):
        u = locc_unitary(LoccParams(0.0, (0.0, 0.0, 1.0)), 1, 0, 4)
        assert u.isclose(PauliPolynomial.identity(4))

    def test_quarter_turn_about_y(self):
        u = locc_unitary(LoccParams(math.pi / 2, (0.0, 1.0, 0.0)), 1, 2, 4)
        want = PauliPolynomial.from_string(PauliString.single(4, 2, "y"), 1j)
        assert u.isclose(want, tol=1e-15)

    def test_unitarity_random(self):
        rng = np.random.default_rng(79)
        ident = PauliPolynomial.identity(5)
        for _ in range(100):
            k = 1 if rng.integers(2) else -1
            u = locc_unitary(random_params(rng), k, int(rng.integers(5)), 5)
            assert u.adjoint().mul(u).isclose(ident, tol=1e-14)

    def test_preserves_state_norm(self, lat2, gs2):
        rng = np.random.default_rng(83)
        for _ in range(25):
            u = locc_unitary(random_params(rng), -1, lat2.bob_qubit, lat2.n_qubits)
            assert apply_poly(u, gs2).norm() == pytest.approx(1.0, abs=1e-12)

    def test_bad_outcome_rejected(self):
        with pytest.raises(ValueError):
            locc_unitary(LoccParams(0.1, (1.0, 0.0, 0.0)), 0, 0, 4)


class TestEnergyInjected:
    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_full_region_injects_two(self, L):
        lat = ToricLattice(L)
        e_a, p_plus, p_minus = energy_injected(lat.full_region_scheme(), lat)
        assert e_a == pytest.approx(2.0, abs=1e-12)
        assert p_plus == pytest.approx(0.5)
        assert p_minus == pytest.approx(0.5)

    def test_matches_statevector(self, lat2, gs2):
        scheme = lat2.full_region_scheme()
        got = energy_injected(scheme, lat2, StabilizerBackend(lat2.ground_group()))
        want = energy_injected(scheme, lat2, StatevectorBackend(gs2))
        assert got == pytest.approx(want, abs=1e-10)

    def test_commuting_string_injects_nothing(self):
        # X-string equal to a star's edge set is itself a stabilizer, so the
        # measurement is deterministic and leaves the energy alone.
        lat = ToricLattice(3)
        edges = lat.star_edges[4]  # star(1,1), away from the target edge
        assert lat.bob_qubit not in edges
        scheme = lat.scheme_from_edges(edges)
        e_a, p_plus, p_minus = energy_injected(scheme, lat)
        assert e_a == pytest.approx(0.0, abs=1e-12)
        assert p_plus == pytest.approx(1.0)
        assert p_minus == pytest.approx(0.0, abs=1e-12)

    def test_excitation_profile_two_vortices(self, lat2):
        profile = excitation_profile(lat2.full_region_scheme(), lat2)
        hit = {name for name, val in profile.items() if abs(val - 1.0) > 1e-12}
        assert hit == {"plaquette(0,0)", "plaquette(1,0)"}
        assert profile["plaquette(0,0)"] == pytest.approx(0.0, abs=1e-12)
        assert profile["plaquette(1,0)"] == pytest.approx(0.0, abs=1e-12)
        assert all(
            profile[f"star({r},{c})"] == pytest.approx(1.0) for r in range(2) for c in range(2)
        )


class TestEnergyAfterLocc:
    def test_quarter_turn_y_axis(self, lat2):
        params = LoccParams(math.pi / 2, (0.0, 1.0, 0.0))
        rep = energy_after_locc(lat2.full_region_scheme(), params, lat2)
        assert rep.delta == pytest.approx(4.0, abs=1e-12)
        assert rep.closed_form == pytest.approx(4.0)
        assert rep.e_a == pytest.approx(2.0)
        assert rep.e_b == pytest.approx(6.0, abs=1e-12)

    def test_x_axis_does_nothing(self, lat2):
        rng = np.random.default_rng(89)
        scheme = lat2.full_region_scheme()
        for _ in range(10):
            params = LoccParams(rng.uniform(0, 2 * math.pi), (1.0, 0.0, 0.0))
            rep = energy_after_locc(scheme, params, lat2, include_profile=False)
            assert rep.delta == pytest.approx(0.0, abs=1e-12)

    def test_mixed_axis_point(self, lat3):
        params = LoccParams(math.pi / 6, (0.0, 3.0 / 5.0, 4.0 / 5.0))
        rep = energy_after_locc(lat3.full_region_scheme(), params, lat3, include_profile=False)
        assert rep.delta == pytest.approx(1.0, abs=1e-12)

    def test_backends_agree_on_random_params(self, lat2, gs2):
        rng = np.random.default_rng(97)
        scheme = lat2.full_region_scheme()
        sb = StabilizerBackend(lat2.ground_group())
        vb = StatevectorBackend(gs2)
        for _ in range(20):
            params = random_params(rng)
            r1 = energy_after_locc(scheme, params, lat2, sb, include_profile=False)
            r2 = energy_after_locc(scheme, params, lat2, vb, include_profile=False)
            assert r1.delta == pytest.approx(r2.delta, abs=1e-10)
            assert r1.e_b == pytest.approx(r2.e_b, abs=1e-10)

    def test_closed_form_random_bulk(self):
        rng = np.random.default_rng(101)
        for L in (2, 3):
            lat = ToricLattice(L)
            scheme = lat.full_region_scheme()
            backend = StabilizerBackend(lat.ground_group())
            for _ in range(30):
                params = random_params(rng)
                rep = energy_after_locc(scheme, params, lat, backend, include_profile=False)
                assert rep.delta == pytest.approx(delta_closed_form(params), abs=1e-9)

    def test_report_fields_complete(self, lat2):
        params = LoccParams(0.4, (0.0, 0.0, 1.0))
        rep = energy_after_locc(lat2.full_region_scheme(), params, lat2)
        assert rep.backend == "stabilizer"
        assert rep.ground_energy == -8.0
        assert rep.e_a_absolute == pytest.approx(-6.0)
        assert rep.p_plus + rep.p_minus == pytest.approx(1.0)
        assert len(rep.stabilizer_expectations) == 8
        assert "region A" in rep.scheme


class TestDeltaClosedForm:
    def test_values(self):
        assert delta_closed_form(LoccParams(math.pi / 2, (0.0, 0.0, 1.0))) == pytest.approx(4.0)
        assert delta_closed_form(LoccParams(0.0, (0.0, 1.0, 0.0))) == 0.0
        inv = 1.0 / math.sqrt(2.0)
        assert delta_closed_form(LoccParams(math.pi / 4, (inv, inv, 0.0))) == pytest.approx(1.0)

    def test_never_negative(self):
        rng = np.random.default_rng(103)
        for _ in range(1000):
            assert delta_closed_form(random_params(rng)) >= 0.0


class TestStructuralChecks:
    @pytest.mark.parametrize("L,which", [(2, "both"), (3, "stabilizer"), (4, "stabilizer")])
    def test_plaquette_collapse(self, L, which):
        lat = ToricLattice(L)
        scheme = lat.full_region_scheme()
        for backend in make_backends(lat, which):
            report = verify_plaquette_collapse(ProtocolSystem.from_toric(lat, scheme, backend), lat, scheme)
            assert report.passed, report.failures()
            assert len(report.checks) == 2 * 2 * L * L

    @pytest.mark.parametrize("L,which", [(2, "both"), (3, "stabilizer"), (4, "stabilizer")])
    def test_local_expectations(self, L, which):
        lat = ToricLattice(L)
        scheme = lat.full_region_scheme()
        for backend in make_backends(lat, which):
            report = verify_local_expectations(ProtocolSystem.from_toric(lat, scheme, backend), lat)
            assert report.passed, report.failures()

    @pytest.mark.parametrize("L,which", [(2, "both"), (3, "stabilizer"), (4, "stabilizer")])
    def test_cross_terms(self, L, which):
        lat = ToricLattice(L)
        scheme = lat.full_region_scheme()
        for backend in make_backends(lat, which):
            report = verify_cross_terms(ProtocolSystem.from_toric(lat, scheme, backend), lat)
            assert report.passed, report.failures()
            contrast = [c for c in report.checks if c.contrast]
            assert len(contrast) == 1 and contrast[0].value == pytest.approx(2.0)

    def test_commutator_reduction_exact(self, lat2):
        rng = np.random.default_rng(107)
        system = ProtocolSystem.from_toric(lat2, lat2.full_region_scheme())
        for _ in range(5):
            params = random_params(rng)
            comm = target_commutator(system, params.axis)
            # anticommutes cleanly: the commutator is anti-Hermitian
            assert comm.adjoint().isclose(comm.scale(-1.0), tol=1e-14)

    def test_derivation_chain_random(self, lat2):
        rng = np.random.default_rng(109)
        scheme = lat2.full_region_scheme()
        for backend in make_backends(lat2, "both"):
            system = ProtocolSystem.from_toric(lat2, scheme, backend)
            for _ in range(5):
                report = verify_derivation_chain(system, lat2, random_params(rng))
                assert report.passed, report.failures()
                assert len(report.checks) == 5

    def test_checks_fail_on_wrong_scheme_claim(self, lat2):
        # A scheme with even overlap everywhere (a star's edge set) must
        # report pass-through, not collapse; the checker distinguishes.
        edges = lat2.star_edges[3]  # star(1,1): edges 6,7,4,3, avoids 0
        scheme = lat2.scheme_from_edges(edges)
        report = verify_plaquette_collapse(ProtocolSystem.from_toric(lat2, scheme), lat2, scheme)
        assert report.passed
        assert all("passes through" in c.label or "expectation" in c.label for c in report.checks)


class TestInvariances:
    SECTORS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]

    def test_delta_same_in_all_sectors(self, lat2):
        rng = np.random.default_rng(113)
        scheme = lat2.full_region_scheme()
        for _ in range(5):
            params = random_params(rng)
            deltas = []
            for sector in self.SECTORS:
                rep = energy_after_locc(
                    scheme, params, lat2, StabilizerBackend(lat2.ground_group(sector)), include_profile=False
                )
                deltas.append(rep.delta)
            assert max(deltas) - min(deltas) < 1e-10

    def test_delta_same_for_every_target_edge(self):
        rng = np.random.default_rng(127)
        params = random_params(rng)
        deltas = []
        for bob in range(8):
            lat = ToricLattice(2, bob_qubit=bob)
            rep = energy_after_locc(
                lat.full_region_scheme(), params, lat, include_profile=False
            )
            deltas.append(rep.delta)
        assert max(deltas) - min(deltas) < 1e-10

    def test_delta_same_across_lattice_sizes(self):
        rng = np.random.default_rng(131)
        params = random_params(rng)
        deltas = []
        for L in (2, 3, 4, 6):
            lat = ToricLattice(L)
            rep = energy_after_locc(
                lat.full_region_scheme(), params, lat, include_profile=False
            )
            deltas.append(rep.delta)
        assert max(deltas) - min(deltas) < 1e-10


class TestBackendEquivalence:
    def test_random_string_expectations_match(self, lat2, gs2):
        from toricqet.statevector import poly_expectation

        group = lat2.ground_group()
        rng = np.random.default_rng(137)
        for _ in range(3000):
            poly = PauliPolynomial.from_string(random_hermitian_string(rng, lat2.n_qubits))
            assert abs(group.poly_expectation(poly) - poly_expectation(poly, gs2)) < 1e-10
