"""Protocol operators, energies, and structural checks on both backends."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import is_hermitian, poly_close, random_hermitian_string, string_product

from toricqet import protocol
from toricqet.chain import build_chain, protocol_system
from toricqet.lattice import ToricLattice
from toricqet.optimize import GridSpec, optimize_system
from toricqet.pauli import PRUNE_TOL, PauliPolynomial, PauliString
from toricqet.protocol import (
    OUTCOMES,
    LoccParams,
    ProtocolSystem,
    StabilizerBackend,
    StatevectorBackend,
    cross_term_operators,
    delta_closed_form,
    derivation_draws,
    direct_energy,
    energy_after_locc,
    energy_injected,
    excitation_profile,
    locc_unitary,
    make_backends,
    measurement_ops,
    outcome_params,
    outcome_probabilities,
    target_commutator,
    verify_cross_terms,
    verify_derivation_chain,
    verify_local_expectations,
    verify_plaquette_collapse,
)
from toricqet.statevector import StateVector, apply_poly, ground_state


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

    @pytest.mark.parametrize("theta,axis", [
        (0.3, (math.nan, 0.0, 0.0)), (0.3, (math.inf, 0.0, 0.0)), (0.3, (1.0, math.nan, 0.0)),
        (math.inf, (1.0, 0.0, 0.0)), (-math.inf, (0.0, 1.0, 0.0)), (math.nan, (0.0, 0.0, 1.0)),
    ])
    def test_non_finite_input_rejected(self, theta, axis):
        with pytest.raises(ValueError):
            LoccParams(theta, axis)

    @pytest.mark.parametrize("theta,direction", [
        (0.1, (math.inf, 0.0, 0.0)), (0.1, (1.0, math.nan, 0.0)), (math.nan, (0.0, 1.0, 0.0)),
    ])
    def test_non_finite_direction_rejected(self, theta, direction):
        with pytest.raises(ValueError):
            LoccParams.from_direction(theta, direction)

    @pytest.mark.parametrize("direction,axis", [
        ((1e200, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ((1e-200, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ((1e308, 1e308, 0.0), (math.sqrt(0.5), math.sqrt(0.5), 0.0)),
    ])
    def test_direction_whose_squares_leave_the_float_range(self, direction, axis):
        # the sum of squares is inf or 0, yet the direction is valid
        p = LoccParams.from_direction(0.1, direction)
        assert p.axis == pytest.approx(axis, abs=1e-15)

    @pytest.mark.parametrize("direction", [
        (0.0, 0.0, 0.0), (0.0, -0.0, 0.0), (math.inf, 1.0, 0.0), (-math.inf, math.inf, 0.0),
        (1e308, math.nan, 0.0), (math.nan, 1e-200, 0.0),
    ])
    def test_zero_nan_and_inf_directions_still_rejected(self, direction):
        with pytest.raises(ValueError, match="nonzero and finite"):
            LoccParams.from_direction(0.1, direction)


class TestMeasurementOps:
    def test_projector_algebra(self, lat2):
        scheme = lat2.full_region_scheme()
        m_plus, m_minus = measurement_ops(scheme)
        assert poly_close(m_plus.mul(m_plus), m_plus)
        assert poly_close(m_minus.mul(m_minus), m_minus)
        assert poly_close(m_plus + m_minus, PauliPolynomial.identity(lat2.n_qubits))
        assert poly_close(m_plus.adjoint(), m_plus)

    def test_projectors_commute_with_stars(self, lat2):
        scheme = lat2.full_region_scheme()
        m_plus, _ = measurement_ops(scheme)
        for star in lat2.stars():
            star_poly = PauliPolynomial.from_string(star)
            assert m_plus.commutator(star_poly).max_abs_coeff() <= PRUNE_TOL

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
        assert poly_close(u, PauliPolynomial.identity(4))

    def test_quarter_turn_about_y(self):
        u = locc_unitary(LoccParams(math.pi / 2, (0.0, 1.0, 0.0)), 1, 2, 4)
        want = PauliPolynomial.from_string(PauliString.single(4, 2, "y"), 1j)
        assert poly_close(u, want, tol=1e-15)

    def test_unitarity_random(self):
        rng = np.random.default_rng(79)
        ident = PauliPolynomial.identity(5)
        for _ in range(100):
            k = 1 if rng.integers(2) else -1
            u = locc_unitary(random_params(rng), k, int(rng.integers(5)), 5)
            assert poly_close(u.adjoint().mul(u), ident, tol=1e-14)

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


class TestTermLabels:
    """The profile walks the Hamiltonian's terms with one label each."""

    def test_torus_labels_name_each_term_in_key_order(self, lat3):
        system = ProtocolSystem.from_toric(lat3, lat3.full_region_scheme())
        names = [f"{kind}({r},{c})" for kind in ("star", "plaquette") for r in range(3) for c in range(3)]
        assert system.term_labels == tuple(names)
        ops = [*lat3.stars(), *lat3.plaquettes()]
        assert list(system.hamiltonian.terms) == [(op.x_bits, op.z_bits) for op in ops]
        assert list(protocol.post_measurement_profile(system)) == names

    def test_profile_reads_each_star_and_plaquette(self, lat2):
        # each label's value is sum_k <M_k O M_k> of its star or plaquette O, bit for bit
        system = ProtocolSystem.from_toric(lat2, lat2.full_region_scheme())
        profile = protocol.post_measurement_profile(system)
        for label, op in zip(system.term_labels, [*lat2.stars(), *lat2.plaquettes()], strict=True):
            want = sum(v.real for v in system.sandwich_expectations(PauliPolynomial.from_string(op)).values())
            assert profile[label] == want

    @pytest.mark.parametrize("change", [lambda labels: labels[:-1], lambda labels: (*labels, "extra")])
    def test_labels_that_miss_a_term_raise(self, lat2, change):
        system = ProtocolSystem.from_toric(lat2, lat2.full_region_scheme())
        wrong = dataclasses.replace(system, term_labels=change(system.term_labels))
        with pytest.raises(ValueError):
            protocol.post_measurement_profile(wrong)


class TestMeasuredStageOnce:
    """The system computes <M_k> once; the optimizer, every direct evaluation
    and the derivation chain read it instead of querying M_k again."""

    def test_kraus_projectors_queried_once_each(self, lat2, monkeypatch):
        system = ProtocolSystem.from_toric(lat2, lat2.full_region_scheme())
        kraus = [system.m_ops[k] for k in OUTCOMES]
        queried = []
        expect = StabilizerBackend.expect

        def counted(backend, poly):
            queried.append(any(poly == m for m in kraus))
            return expect(backend, poly)

        monkeypatch.setattr(StabilizerBackend, "expect", counted)
        params = LoccParams.from_direction(0.7, (0.0, 1.0, 1.0))
        optimize_system(system, GridSpec(theta_count=9, sphere_count=8))
        for _ in range(3):
            direct_energy(system, params)
        step, = derivation_draws(system, lat2, [params])
        assert verify_derivation_chain(system, step).passed
        assert sum(queried) == 2
        assert system.probabilities == {1: 0.5, -1: 0.5}
        assert system.injected_energy == 2.0


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
            rep = energy_after_locc(scheme, params, lat2)
            assert rep.delta == pytest.approx(0.0, abs=1e-12)

    def test_mixed_axis_point(self, lat3):
        params = LoccParams(math.pi / 6, (0.0, 3.0 / 5.0, 4.0 / 5.0))
        rep = energy_after_locc(lat3.full_region_scheme(), params, lat3)
        assert rep.delta == pytest.approx(1.0, abs=1e-12)

    def test_backends_agree_on_random_params(self, lat2, gs2):
        rng = np.random.default_rng(97)
        scheme = lat2.full_region_scheme()
        sb = StabilizerBackend(lat2.ground_group())
        vb = StatevectorBackend(gs2)
        for _ in range(20):
            params = random_params(rng)
            r1 = energy_after_locc(scheme, params, lat2, sb)
            r2 = energy_after_locc(scheme, params, lat2, vb)
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
                rep = energy_after_locc(scheme, params, lat, backend)
                assert rep.delta == pytest.approx(delta_closed_form(params), abs=1e-9)

    def test_report_fields_complete(self, lat2):
        params = LoccParams(0.4, (0.0, 0.0, 1.0))
        rep = energy_after_locc(lat2.full_region_scheme(), params, lat2)
        assert rep.backend == "stabilizer"
        assert rep.ground_energy == -8.0
        assert rep.e_a_absolute == pytest.approx(-6.0)
        assert rep.p_plus + rep.p_minus == pytest.approx(1.0)
        assert rep.stabilizer_expectations == {}
        assert len(excitation_profile(lat2.full_region_scheme(), lat2)) == 8
        assert "region A" in rep.scheme


def random_polynomial(rng, measured: PauliString, count: int) -> PauliPolynomial:
    """A Hermitian polynomial of random strings; about half of them come with
    their product with the measured string, so terms merge in the sandwich."""
    n = measured.n_qubits
    weighted = []
    for _ in range(count):
        string = random_hermitian_string(rng, n)
        weighted.append((string, rng.standard_normal()))
        if rng.integers(2):
            partner = string_product(measured, string)
            if not is_hermitian(partner):
                partner = PauliString(n, partner.x_bits, partner.z_bits, partner.phase_exp + 1)
            weighted.append((partner, rng.standard_normal()))
    return PauliPolynomial.from_strings(n, weighted)


def value_bits(value: complex) -> tuple:
    """The exact bits of a complex value (-0.0 != 0.0)."""
    return value.real.hex(), value.imag.hex()


def assert_expectations_match_product(system, op):
    """system.sandwich_expectations(op) is, outcome by outcome and bit for
    bit, the backend's expectation of the product m.mul(op).mul(m)."""
    got = system.sandwich_expectations(op)
    assert list(got) == list(OUTCOMES)
    for k, m in system.m_ops.items():
        assert value_bits(got[k]) == value_bits(system.backend.expect(m.mul(op).mul(m)))


class TestSandwich:
    """The sandwich of the torus and chain Hamiltonians and of random
    Hermitian polynomials: each value is that of the product m.mul(op).mul(m),
    bit for bit (the check TestBothOutcomesInOnePass runs on the response's
    operators)."""

    @pytest.mark.parametrize("L,bob", [(2, 0), (2, 5), (3, 0), (3, 17)])
    def test_torus_hamiltonian(self, L, bob):
        lat = ToricLattice(L, bob_qubit=bob)
        system = ProtocolSystem.from_toric(lat, lat.full_region_scheme())
        assert_expectations_match_product(system, system.hamiltonian)

    def test_random_hermitian_polynomials(self, lat2, lat3):
        rng = np.random.default_rng(173)
        for lat in (lat2, lat3):
            star = next(edges for edges in lat.star_edges if lat.bob_qubit not in edges)
            for scheme in (lat.full_region_scheme(), lat.scheme_from_edges(star)):
                system = ProtocolSystem.from_toric(lat, scheme)
                for count in (1, 5, 40):
                    op = random_polynomial(rng, system.measured, count)
                    assert_expectations_match_product(system, op)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_chain_hamiltonian(self, axis):
        rng = np.random.default_rng(179)
        system = protocol_system(build_chain(6, site_a=2), axis)
        assert_expectations_match_product(system, system.hamiltonian)
        assert_expectations_match_product(system, random_polynomial(rng, system.measured, 30))


def reference_energy(system, locc) -> tuple[float, float]:
    """(E_A, E_B) as explicit sandwiches of the full Hamiltonian."""
    ham = system.hamiltonian
    raw_a = raw_b = 0.0
    for k in OUTCOMES:
        m = system.m_ops[k]
        staged = locc_unitary(outcome_params(locc, k), k, system.target, system.n_qubits).mul(m)
        raw_a += system.backend.expect(m.mul(ham).mul(m)).real
        raw_b += system.backend.expect(staged.adjoint().mul(ham).mul(staged)).real
    return raw_a - system.ground_energy, raw_b - system.ground_energy


class TestReferenceEnergy:
    """direct_energy, which rotates only the target's terms, agrees with the
    whole-Hamiltonian sandwich."""

    TOL = 1e-12

    def assert_matches_reference(self, system, locc):
        rep = protocol.direct_energy(system, locc)
        e_a, e_b = reference_energy(system, locc)
        assert abs(rep.e_a - e_a) <= self.TOL
        assert abs(rep.e_b - e_b) <= self.TOL
        assert abs(rep.delta - (e_b - e_a)) <= self.TOL

    @pytest.mark.parametrize("L,bob", [(2, 3), (3, 11)])
    def test_torus_both_backends(self, L, bob):
        rng = np.random.default_rng(181 + L)
        lat = ToricLattice(L, bob_qubit=bob)
        scheme = lat.full_region_scheme()
        for backend in (StabilizerBackend(lat.ground_group()), StatevectorBackend(ground_state(lat))):
            system = ProtocolSystem.from_toric(lat, scheme, backend)
            for _ in range(3):
                self.assert_matches_reference(system, random_params(rng))
            self.assert_matches_reference(system, {k: random_params(rng) for k in OUTCOMES})

    def test_large_torus_high_edge(self):
        rng = np.random.default_rng(191)
        lat = ToricLattice(20, bob_qubit=799)
        system = ProtocolSystem.from_toric(lat, lat.full_region_scheme())
        self.assert_matches_reference(system, random_params(rng))

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_chain_per_outcome(self, axis):
        rng = np.random.default_rng(193)
        system = protocol_system(build_chain(6, site_a=1, site_b=2), axis)
        for _ in range(3):
            self.assert_matches_reference(system, {k: random_params(rng) for k in OUTCOMES})


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

    def test_attached_exactly_where_it_holds(self):
        # the torus formula holds for an X-string with odd overlap with every
        # plaquette at the target; the x-axis quarter turn excites any
        # plaquette that passes through, where the formula reads 0
        rng = np.random.default_rng(127)
        seen = set()
        for L in (2, 3, 4):
            draws = [LoccParams(math.pi / 2, (1.0, 0.0, 0.0))] + [random_params(rng) for _ in range(3)]
            for _ in range(10):
                lat = ToricLattice(L, bob_qubit=int(rng.integers(2 * L * L)))
                edges = []
                while not edges:
                    edges = [e for e in lat.region_a_edges if rng.random() < 0.5]
                system = ProtocolSystem.from_toric(lat, lat.scheme_from_edges(edges))
                holds = all(
                    abs(direct_energy(system, p).delta - delta_closed_form(p)) <= 1e-9
                    for p in draws
                )
                assert (system.closed_form is not None) == holds, (L, lat.bob_qubit, edges)
                seen.add(holds)
        assert seen == {True, False}


class TestStructuralChecks:
    @pytest.mark.parametrize("L,which", [(2, "both"), (3, "stabilizer"), (4, "stabilizer")])
    def test_plaquette_collapse(self, L, which):
        lat = ToricLattice(L)
        scheme = lat.full_region_scheme()
        for backend in make_backends(lat, which):
            report = verify_plaquette_collapse(ProtocolSystem.from_toric(lat, scheme, backend), lat)
            assert report.passed, report
            assert len(report.checks) == 2 * L * L

    @pytest.mark.parametrize("L,which", [(2, "both"), (3, "stabilizer"), (4, "stabilizer")])
    def test_local_expectations(self, L, which):
        lat = ToricLattice(L)
        scheme = lat.full_region_scheme()
        for backend in make_backends(lat, which):
            report = verify_local_expectations(ProtocolSystem.from_toric(lat, scheme, backend), lat)
            assert report.passed, report

    @pytest.mark.parametrize("L,which", [(2, "both"), (3, "stabilizer"), (4, "stabilizer")])
    def test_cross_terms(self, L, which):
        lat = ToricLattice(L)
        scheme = lat.full_region_scheme()
        for backend in make_backends(lat, which):
            report = verify_cross_terms(ProtocolSystem.from_toric(lat, scheme, backend), cross_term_operators(lat))
            assert report.passed, report
            contrast = [c for c in report.checks if c.contrast]
            assert len(contrast) == 1 and contrast[0].value == pytest.approx(2.0)

    def test_commutator_reduction_exact(self, lat2):
        rng = np.random.default_rng(107)
        system = ProtocolSystem.from_toric(lat2, lat2.full_region_scheme())
        for _ in range(5):
            params = random_params(rng)
            comm = target_commutator(system, params.axis)
            # anticommutes cleanly: the commutator is anti-Hermitian
            assert poly_close(comm.adjoint(), comm.scale(-1.0), tol=1e-14)

    def test_derivation_chain_random(self, lat2):
        rng = np.random.default_rng(109)
        scheme = lat2.full_region_scheme()
        for backend in make_backends(lat2, "both"):
            system = ProtocolSystem.from_toric(lat2, scheme, backend)
            for step in derivation_draws(system, lat2, [random_params(rng) for _ in range(5)]):
                report = verify_derivation_chain(system, step)
                assert report.passed, report
                assert len(report.checks) == 5

    def test_non_unitary_rotation_fails_step_a(self, lat3, monkeypatch):
        # step (a) checks the conjugation on the target's terms only; with
        # U^dag U = I it covers H, so a non-unitary U must not pass it
        def stretched(*args):
            return locc_unitary(*args).scale(1.001)

        system = ProtocolSystem.from_toric(lat3, lat3.full_region_scheme())
        params = LoccParams.from_direction(0.9, (1.0, 2.0, 2.0))
        step, = derivation_draws(system, lat3, [params])
        assert verify_derivation_chain(system, step).checks[0].passed
        monkeypatch.setattr(protocol, "locc_unitary", stretched)
        step, = derivation_draws(system, lat3, [params])
        step_a = verify_derivation_chain(system, step).checks[0]
        assert step_a.label == "conjugation splits into commutator correction"
        assert not step_a.passed and step_a.value > 1e-3

    def test_checks_fail_on_wrong_scheme_claim(self, lat2):
        # A scheme with even overlap everywhere (a star's edge set) must
        # report pass-through, not collapse; the checker distinguishes.
        edges = lat2.star_edges[3]  # star(1,1): edges 6,7,4,3, avoids 0
        scheme = lat2.scheme_from_edges(edges)
        report = verify_plaquette_collapse(ProtocolSystem.from_toric(lat2, scheme), lat2)
        assert report.passed
        assert all(c.label.endswith("passes through") for c in report.checks)

    def test_nan_coefficient_reads_nan(self, lat2):
        # the Kraus table keeps a NaN coefficient, so its sandwich reads NaN, not 0
        for backend in make_backends(lat2, "both"):
            system = ProtocolSystem.from_toric(lat2, lat2.full_region_scheme(), backend)
            values = system.sandwich_expectations(PauliPolynomial.identity(lat2.n_qubits, math.nan))
            assert all(math.isnan(v.real) for v in values.values())

    def test_drifted_kraus_pair_fails(self):
        # the S coefficient of both Kraus operators off by one part in 2^50:
        # a collapsing sandwich is then below PRUNE_TOL and has no term, but
        # each passing one differs from M_k B by 2^-51 on B, on either engine
        lat = ToricLattice(2, bob_qubit=3)
        for backend in make_backends(lat, "both"):
            system = ProtocolSystem.from_toric(lat, lat.full_region_scheme(), backend)
            key = (system.measured.x_bits, system.measured.z_bits)
            drifted = {}
            for k, m in system.m_ops.items():
                terms = dict(m.terms)
                terms[key] *= 1 + 2.0 ** -50
                drifted[k] = PauliPolynomial(lat.n_qubits, terms)
            system.__dict__["m_ops"] = drifted
            failed = [c for c in verify_plaquette_collapse(system, lat).checks if not c.passed]
            assert len(failed) == 4 and all(c.label.endswith("passes through") for c in failed)
            assert all(c.value == 2.0 ** -51 for c in failed)


def reference_local_expectations(system, lat):
    """verify_local_expectations with one backend.expect call per Pauli."""
    backend = system.backend
    tol = protocol._zero_tol(backend)
    checks = []
    worst = 0.0
    for qubit in range(lat.n_qubits):
        for axis in protocol.AXIS_NAMES:
            val = abs(backend.expect(protocol.sigma_poly(lat.n_qubits, qubit, axis)))
            worst = max(worst, val)
    checks.append(protocol.Check(f"all {3 * lat.n_qubits} single-site expectations vanish", worst <= tol, worst))
    contrast = backend.expect(PauliPolynomial.from_string(lat.star(0, 0))).real
    checks.append(protocol.Check("contrast: star expectation is one", abs(contrast - 1.0) <= tol, abs(contrast - 1.0)))
    return protocol.CheckReport("bare local operators average to zero", tuple(checks))


class TestBatchedLemmaQueries:
    """LEMMA2 reads its expectations in one expect_columns call per qubit,
    and gives the checks of one query per Pauli, value for value; LEMMA1
    reads no engine."""

    @staticmethod
    def assert_same_checks(system, lat):
        got, want = verify_local_expectations(system, lat), reference_local_expectations(system, lat)
        assert got.name == want.name
        assert [repr(c) for c in got.checks] == [repr(c) for c in want.checks]

    def assert_matches_reference(self, lat, scheme, which, sector=(1, 1)):
        collapse = set()
        for backend in make_backends(lat, which, sector):
            system = ProtocolSystem.from_toric(lat, scheme, backend)
            self.assert_same_checks(system, lat)
            report = verify_plaquette_collapse(system, lat)
            assert report.passed and len(report.checks) == 2 * lat.L ** 2
            collapse.add(repr(report))
        # LEMMA1 reads no engine: one report on every engine
        assert len(collapse) == 1

    @pytest.mark.parametrize("sector", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    @pytest.mark.parametrize("L", [2, 3])
    def test_full_region_both_engines(self, L, sector):
        lat = ToricLattice(L)
        self.assert_matches_reference(lat, lat.full_region_scheme(), "both", sector)

    def test_pass_through_scheme(self):
        lat = ToricLattice(3, bob_qubit=8)
        self.assert_matches_reference(lat, lat.scheme_from_edges([3]), "both")

    @pytest.mark.parametrize("L,bob", [(8, 0), (20, 17)])
    def test_large_torus_stabilizer(self, L, bob):
        lat = ToricLattice(L, bob_qubit=bob)
        self.assert_matches_reference(lat, lat.full_region_scheme(), "stabilizer")

    def test_random_states(self):
        # off the ground state the columns read distinct nonzero values, so a
        # column read in the wrong place shows
        rng = np.random.default_rng(197)
        lat = ToricLattice(2, bob_qubit=1)
        dim = 1 << lat.n_qubits
        for edges in (lat.region_a_edges, lat.star_edges[3]):
            amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            state = StateVector(lat.n_qubits, np.arange(dim, dtype=np.int64), amps / np.linalg.norm(amps))
            system = ProtocolSystem.from_toric(lat, lat.scheme_from_edges(edges), StatevectorBackend(state))
            self.assert_same_checks(system, lat)

    def test_skewed_kraus_pair(self, lat2):
        # non-projectors that differ by outcome break every identity, on
        # collapsing and passing plaquettes alike, and on either engine
        for edges in (lat2.region_a_edges, lat2.star_edges[3]):
            reports = []
            for backend in make_backends(lat2, "both"):
                system = ProtocolSystem.from_toric(lat2, lat2.scheme_from_edges(edges), backend)
                skewed = {k: m + PauliPolynomial.identity(lat2.n_qubits, 0.1 * k) for k, m in system.m_ops.items()}
                system.__dict__["m_ops"] = skewed
                reports.append(verify_plaquette_collapse(system, lat2))
            assert not any(c.passed for c in reports[0].checks)
            assert min(c.value for c in reports[0].checks) > 0.005
            assert repr(reports[0]) == repr(reports[1])

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_each_axis_read_on_its_qubit(self, lat2, axis):
        # qubit 0 in the +1 eigenstate of one axis, qubits 1-7 in a GHZ state
        # (every one-site expectation 0): only that axis's column reads 1
        ghz = 0b11111110
        support, amps = {
            "x": ([0, 1, ghz, ghz | 1], [1, 1, 1, 1]),
            "y": ([0, 1, ghz, ghz | 1], [1, 1j, 1, 1j]),
            "z": ([0, ghz], [1, 1]),
        }[axis]
        amps = np.array(amps, dtype=np.complex128)
        state = StateVector(lat2.n_qubits, np.array(support, dtype=np.int64), amps / np.linalg.norm(amps))
        system = ProtocolSystem.from_toric(lat2, lat2.full_region_scheme(), StatevectorBackend(state))
        self.assert_same_checks(system, lat2)
        assert verify_local_expectations(system, lat2).checks[0].value == pytest.approx(1.0)

    @pytest.mark.parametrize("which", ["stabilizer", "statevector"])
    def test_one_query_per_plaquette_and_qubit(self, which, monkeypatch):
        lat = ToricLattice(3, bob_qubit=5)
        backend, = make_backends(lat, which)
        system = ProtocolSystem.from_toric(lat, lat.full_region_scheme(), backend)
        calls = []
        expect, expect_columns = backend.expect, backend.expect_columns
        monkeypatch.setattr(backend, "expect", lambda poly: calls.append("expect") or expect(poly))
        monkeypatch.setattr(backend, "expect_columns",
                            lambda rows, width: calls.append(width) or expect_columns(rows, width))
        assert verify_plaquette_collapse(system, lat).passed
        assert calls == []
        report = verify_local_expectations(system, lat)
        # the star contrast row is the one single-polynomial query
        assert calls == [3] * lat.n_qubits + ["expect"]
        assert len(report.checks) == 2

    def test_collapse_rule_with_a_refusing_backend(self):
        class Refusing:
            name, exact = "refusing", False

            def expect(self, poly):
                raise AssertionError("engine read")

            def expect_columns(self, rows, width):
                raise AssertionError("engine read")

        lat = ToricLattice(3, bob_qubit=8)
        for scheme in (lat.full_region_scheme(), lat.scheme_from_edges([3])):
            report = verify_plaquette_collapse(ProtocolSystem.from_toric(lat, scheme, Refusing()), lat)
            assert report.passed and len(report.checks) == 18


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
                    scheme, params, lat2, StabilizerBackend(lat2.ground_group(sector))
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
                lat.full_region_scheme(), params, lat
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
                lat.full_region_scheme(), params, lat
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
