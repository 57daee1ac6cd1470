"""Open transverse-field chain: the positive control where extraction exists."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import dense_state, poly_close

from toricqet.chain import (
    build_chain,
    chain_hamiltonian,
    measurement_projectors,
    optimize_control,
    post_measurement_terms,
    protocol_system,
    qet_run,
    term_energy_changes,
)
from toricqet.optimize import GridSpec, QuadraticResponse
from toricqet.pauli import PauliPolynomial, PauliString
from toricqet.protocol import OUTCOMES, LoccParams, StatevectorBackend
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

    @pytest.mark.parametrize("n,site_a,site_b", [(2, 0, 1), (2, 1, 0), (3, 0, 1), (3, 1, 2), (6, 5, 4)])
    def test_default_rotated_site_is_a_neighbour(self, n, site_a, site_b):
        assert build_chain(n, site_a=site_a).site_b == site_b

    def test_two_site_ground_energy(self, pair):
        assert pair.ground_energy == pytest.approx(-math.sqrt(5.0), abs=1e-12)
        assert pair.site_a == 0 and pair.site_b == 1

    def test_ground_is_eigenvector(self):
        model = build_chain(4, coupling=0.7, field=1.3)
        mat = sv.poly_to_dense(model.hamiltonian)
        vec = dense_state(model.ground)
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
        assert poly_close(m_ops[1] + m_ops[-1], PauliPolynomial.identity(2))
        assert m_ops[1].mul(m_ops[-1]).max_abs_coeff() <= 1e-15

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
        assert list(terms) == ["zz(0,1)", "x(0)", "x(1)"]

    def test_term_labels_follow_the_hamiltonian(self):
        # one label per term, in key order; a zero coupling leaves no zz term
        assert protocol_system(build_chain(4)).term_labels == (
            "zz(0,1)", "zz(1,2)", "zz(2,3)", "x(0)", "x(1)", "x(2)", "x(3)")
        assert list(post_measurement_terms(build_chain(3, coupling=0.0))) == ["x(0)", "x(1)", "x(2)"]


class TestOptimizeControl:
    def test_golden_witness(self, pair):
        result = optimize_control(pair, GRID)
        assert result.min_delta == pytest.approx(GOLDEN_MIN_DELTA, abs=1e-9)
        assert result.min_delta < -1e-3
        system = protocol_system(pair)
        assert system.probabilities[1] == pytest.approx(GOLDEN_P_PLUS, abs=1e-12)
        assert system.injected_energy == pytest.approx(GOLDEN_E_A, abs=1e-12)

    def test_golden_matches_closed_value(self):
        assert GOLDEN_MIN_DELTA == pytest.approx(2.0 / math.sqrt(5.0) - 1.0, abs=1e-14)

    def test_argmin_structure(self, pair):
        result = optimize_control(pair, GRID)
        plus, minus = result.witness[1], result.witness[-1]
        # keeping the likely outcome untouched and rotating the rare one wins
        assert plus.theta == pytest.approx(0.0, abs=1e-6)
        assert abs(math.sin(minus.theta)) == pytest.approx(1.0, abs=1e-6)
        assert abs(minus.axis[1]) == pytest.approx(1.0, abs=1e-5)

    def test_optimizer_matches_direct_run(self, pair):
        result = optimize_control(pair, GRID)
        rep = qet_run(pair, result.witness)
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
        # rotated site next to the measured one, at the chain's end, where
        # sigma^x measurement still extracts (see TestSigmaXSelectionRule)
        model = build_chain(3, site_b=1)
        result = optimize_control(model, GRID)
        assert result.min_delta < -1e-3
        rep = qet_run(model, result.witness)
        assert rep.delta == pytest.approx(result.min_delta, abs=1e-9)

    def test_distant_site_out_of_reach(self):
        result = optimize_control(build_chain(3, site_b=2), GRID)
        assert result.min_delta == pytest.approx(0.0, abs=1e-9)

    def test_golden_stable_across_grids(self, pair):
        coarse = optimize_control(pair, GridSpec(theta_count=17, sphere_count=32))
        assert coarse.min_delta == pytest.approx(GOLDEN_MIN_DELTA, abs=1e-9)


def response(n, site_a, site_b, axis):
    return QuadraticResponse(protocol_system(build_chain(n, site_a=site_a, site_b=site_b), axis))


class TestSigmaXSelectionRule:
    """The paper's claim inside the positive control: the chain's ground
    state is correlated, yet measuring sigma^x on it allows one-round
    extraction only at the end pairs 0->1 and N-1->N-2.

    Proven: the linear response r_k = k Re(i C_k) is 0 for every (A, B).
    C_k[x] and C_k[z] vanish because H, sigma^x, sigma^z, M_k and the
    ground state are real, so M_k [H, sigma] M_k is real antisymmetric and
    its expectation in a real state is 0.  C_k[y] vanishes because
    prod sigma^x commutes with H and with M_k, [H, sigma^y_B] is odd under
    it, and the ground state is nondegenerate for h != 0.

    Observed, not proven: with no linear term, min delta is exactly 0.0 at
    every pair but the two end pairs.
    """

    END_MINIMUM = {3: -0.0863, 6: -0.0698}

    @pytest.mark.parametrize("n", [3, 6])
    def test_sigma_x_extracts_only_at_the_ends(self, n):
        ends = {(0, 1), (n - 1, n - 2)}
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                resp = response(n, a, b, "x")
                # forms[k][0, 1:] = r_k / 2
                assert max(np.abs(resp.forms[k][0, 1:]).max() for k in OUTCOMES) <= 1e-12, (a, b)
                min_delta, _ = resp.minimum(independent=True)
                if (a, b) in ends:
                    assert min_delta == pytest.approx(self.END_MINIMUM[n], abs=1e-4), (a, b)
                else:
                    assert min_delta == 0.0, (a, b)

    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("axis", ["y", "z"])
    def test_other_axes_extract_at_every_adjacent_pair(self, n, axis):
        for a in range(n - 1):
            for pair in ((a, a + 1), (a + 1, a)):
                min_delta, _ = response(n, *pair, axis).minimum(independent=True)
                assert min_delta < -1e-3, pair
