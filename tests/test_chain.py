"""Open transverse-field chain: the positive control where extraction exists."""

import dataclasses
import math

import numpy as np
import pytest

from toricqet.chain import (
    build_chain,
    chain_hamiltonian,
    measurement_projectors,
    optimize_control,
    post_measurement_terms,
    qet_run,
    term_energy_changes,
)
from toricqet.optimize import GridSpec
from toricqet.pauli import PauliPolynomial, PauliString
from toricqet.protocol import LoccParams, StatevectorBackend
from toricqet import statevector as sv

# Established with an independent dense-eigensolver sweep; equals 2/sqrt(5) - 1
# for the two-site chain at J = h = 1.
GOLDEN_MIN_DELTA = -0.10557280900008412
GOLDEN_E_A = 0.44721359549995787
GOLDEN_P_PLUS = 0.947213595499958

GRID = GridSpec(theta_count=65, sphere_count=128)


@pytest.fixture(scope="module")
def pair():
    return build_chain(2)


class TestBuildChain:
    def test_size_limits(self):
        with pytest.raises(ValueError):
            build_chain(1)
        with pytest.raises(ValueError):
            build_chain(7)

    def test_site_validation(self):
        with pytest.raises(ValueError):
            build_chain(3, site_a=1, site_b=1)
        with pytest.raises(ValueError):
            build_chain(3, site_a=3)
        with pytest.raises(ValueError):
            build_chain(3, site_b=-1)

    def test_two_site_ground_energy(self, pair):
        assert pair.ground_energy == pytest.approx(-math.sqrt(5.0), abs=1e-12)
        assert pair.site_a == 0 and pair.site_b == 1

    def test_ground_is_eigenvector(self):
        model = build_chain(4, coupling=0.7, field=1.3)
        mat = sv.poly_to_dense(model.hamiltonian)
        vec = model.ground.amplitudes
        assert np.linalg.norm(mat @ vec - model.ground_energy * vec) < 1e-9

    def test_hamiltonian_term_count(self):
        ham = chain_hamiltonian(5, 1.0, 1.0)
        assert ham.n_terms() == 4 + 5

    def test_ferromagnetic_correlation(self, pair):
        # positive alignment, exactly 1/sqrt(5) for the two-site model
        zz = PauliPolynomial.from_string(PauliString.from_support(2, [0, 1], "z"))
        assert StatevectorBackend(pair.ground).expect(zz).real == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-12)

    def test_zero_coupling_uncorrelated(self):
        model = build_chain(3, coupling=0.0)
        zz = PauliPolynomial.from_string(PauliString.from_support(3, [0, 1], "z"))
        z0 = PauliPolynomial.from_string(PauliString.single(3, 0, "z"))
        z1 = PauliPolynomial.from_string(PauliString.single(3, 1, "z"))
        expect = StatevectorBackend(model.ground).expect
        connected = expect(zz).real - expect(z0).real * expect(z1).real
        assert connected == pytest.approx(0.0, abs=1e-12)


class TestQetRun:
    def test_identity_locc_changes_nothing(self, pair):
        rep = qet_run(pair, LoccParams(0.0, (0.0, 0.0, 1.0)))
        assert rep.delta == pytest.approx(0.0, abs=1e-12)
        assert rep.e_a == pytest.approx(GOLDEN_E_A, abs=1e-12)
        assert rep.p_plus == pytest.approx(GOLDEN_P_PLUS, abs=1e-12)

    def test_measurement_always_injects(self):
        for n, j, h in ((2, 1.0, 1.0), (3, 0.5, 1.0), (4, 1.0, 0.4)):
            rep = qet_run(build_chain(n, coupling=j, field=h), LoccParams(0.0, (1.0, 0.0, 0.0)))
            assert rep.e_a >= -1e-12

    def test_projector_completeness(self, pair):
        m_ops = measurement_projectors(pair)
        assert (m_ops[1] + m_ops[-1]).isclose(PauliPolynomial.identity(2))
        assert m_ops[1].mul(m_ops[-1]).is_zero(tol=1e-15)

    def test_energy_offset_invariance(self, pair):
        params = LoccParams(0.8, (0.0, 0.6, 0.8))
        base = qet_run(pair, params)
        shift = 3.75
        shifted = dataclasses.replace(
            pair,
            hamiltonian=pair.hamiltonian + PauliPolynomial.identity(2, shift),
            ground_energy=pair.ground_energy + shift,
        )
        rep = qet_run(shifted, params)
        assert rep.delta == pytest.approx(base.delta, abs=1e-12)
        assert rep.e_a == pytest.approx(base.e_a, abs=1e-12)

    def test_changes_localized_to_rotated_site(self):
        model = build_chain(4)
        rng = np.random.default_rng(163)
        direction = rng.standard_normal(3)
        params = LoccParams.from_direction(1.1, direction)
        changes = term_energy_changes(model, params)
        rep = qet_run(model, params)
        total = 0.0
        for label, value in changes.items():
            if label.endswith(":touches_b"):
                continue
            touches = changes[label + ":touches_b"] > 0.5
            if not touches:
                assert value == pytest.approx(0.0, abs=1e-12), label
            total += value
        assert total == pytest.approx(rep.delta, abs=1e-10)

    def test_per_outcome_params_accepted(self, pair):
        locc = {1: LoccParams(0.0, (1.0, 0.0, 0.0)), -1: LoccParams(math.pi / 2, (0.0, 1.0, 0.0))}
        rep = qet_run(pair, locc)
        assert rep.delta < 0.0

    def test_report_has_no_closed_form(self, pair):
        rep = qet_run(pair, LoccParams(0.3, (0.0, 1.0, 0.0)))
        assert rep.closed_form is None
        assert rep.to_dict()["closed_form"] is None

    def test_p_minus_is_measured(self, pair):
        rep = qet_run(pair, LoccParams(0.0, (0.0, 0.0, 1.0)))
        m_minus = measurement_projectors(pair)[-1]
        assert rep.p_minus == StatevectorBackend(pair.ground).expect(m_minus).real

    def test_post_measurement_terms_keys(self, pair):
        terms = post_measurement_terms(pair)
        assert set(terms) == {"zz(0,1)", "x(0)", "x(1)"}


class TestOptimizeControl:
    def test_golden_witness(self, pair):
        result = optimize_control(pair, GRID)
        assert result.min_delta == pytest.approx(GOLDEN_MIN_DELTA, abs=1e-9)
        assert result.min_delta < -1e-3
        assert result.p_plus == pytest.approx(GOLDEN_P_PLUS, abs=1e-12)
        assert result.e_a == pytest.approx(GOLDEN_E_A, abs=1e-12)

    def test_golden_matches_closed_value(self):
        assert GOLDEN_MIN_DELTA == pytest.approx(2.0 / math.sqrt(5.0) - 1.0, abs=1e-14)

    def test_argmin_structure(self, pair):
        result = optimize_control(pair, GRID)
        plus, minus = result.per_outcome[1], result.per_outcome[-1]
        # keeping the likely outcome untouched and rotating the rare one wins
        assert plus.theta == pytest.approx(0.0, abs=1e-6)
        assert abs(math.sin(minus.theta)) == pytest.approx(1.0, abs=1e-6)
        assert abs(minus.axis[1]) == pytest.approx(1.0, abs=1e-5)

    def test_optimizer_matches_direct_run(self, pair):
        result = optimize_control(pair, GRID)
        rep = qet_run(pair, result.per_outcome)
        assert rep.delta == pytest.approx(result.min_delta, abs=1e-9)

    def test_shared_params_find_nothing_here(self, pair):
        # the same (theta, axis) applied for both outcomes cannot extract
        # from this chain; detection needs per-outcome feed-forward
        result = optimize_control(pair, GRID, independent=False)
        assert result.min_delta == pytest.approx(0.0, abs=1e-9)

    def test_no_extraction_without_coupling(self):
        result = optimize_control(build_chain(2, coupling=0.0), GRID)
        assert result.min_delta == pytest.approx(0.0, abs=1e-9)

    def test_larger_chain_still_extracts(self):
        # rotated site next to the measured one; one round reaches no further
        model = build_chain(3, site_b=1)
        result = optimize_control(model, GRID)
        assert result.min_delta < -1e-3
        rep = qet_run(model, result.per_outcome)
        assert rep.delta == pytest.approx(result.min_delta, abs=1e-9)

    def test_distant_site_out_of_reach(self):
        result = optimize_control(build_chain(3, site_b=2), GRID)
        assert result.min_delta == pytest.approx(0.0, abs=1e-9)

    def test_golden_stable_across_grids(self, pair):
        coarse = optimize_control(pair, GridSpec(theta_count=17, sphere_count=32))
        assert coarse.min_delta == pytest.approx(GOLDEN_MIN_DELTA, abs=1e-9)
