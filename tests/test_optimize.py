"""Grid search and quadratic response surface against the direct sandwich path."""

import math

import numpy as np
import pytest

from toricqet.chain import build_chain, protocol_system
from toricqet.lattice import ToricLattice
from toricqet.optimize import (
    CANONICAL_AXES,
    IDLE,
    NOISE_TOL,
    GridSpec,
    ProtocolSystem,
    QuadraticResponse,
    fibonacci_sphere,
    optimize_locc,
    optimize_system,
    _lowest,
)
from toricqet.protocol import (
    LoccParams,
    StabilizerBackend,
    StatevectorBackend,
    direct_energy,
    energy_after_locc,
    locc_unitary,
)
from toricqet.reports import write_sweep_csv
from test_protocol import random_params


class TestGridSpec:
    def test_theta_grid_covers_full_turn(self):
        grid = GridSpec(theta_count=65, sphere_count=16)
        thetas = grid.thetas()
        assert thetas[0] == 0.0
        assert thetas[-1] == pytest.approx(2.0 * math.pi)
        assert len(thetas) == 65

    def test_axes_include_canonical(self):
        grid = GridSpec(theta_count=9, sphere_count=10)
        axes = grid.axes()
        assert axes.shape == (13, 3)
        assert np.allclose(axes[:3], np.array(CANONICAL_AXES))

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(theta_count=1)
        with pytest.raises(ValueError):
            GridSpec(sphere_count=0)


class TestFibonacciSphere:
    def test_unit_norm(self):
        pts = fibonacci_sphere(200)
        assert pts.shape == (200, 3)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_points_distinct(self):
        pts = fibonacci_sphere(64)
        gram = pts @ pts.T
        np.fill_diagonal(gram, -1.0)
        assert gram.max() < 1.0 - 1e-6


class TestQuadraticResponse:
    def _response(self, lat, backend=None):
        return QuadraticResponse(ProtocolSystem.from_toric(lat, lat.full_region_scheme(), backend))

    def test_matches_direct_sandwich(self, lat2, gs2):
        rng = np.random.default_rng(139)
        scheme = lat2.full_region_scheme()
        for backend in (StabilizerBackend(lat2.ground_group()), StatevectorBackend(gs2)):
            resp = self._response(lat2, backend)
            for _ in range(15):
                params = random_params(rng)
                direct = energy_after_locc(scheme, params, lat2, backend, include_profile=False)
                assert resp.delta(params) == pytest.approx(direct.delta, abs=1e-10)

    def test_matches_direct_at_larger_size(self, lat3):
        rng = np.random.default_rng(149)
        scheme = lat3.full_region_scheme()
        resp = self._response(lat3)
        for _ in range(10):
            params = random_params(rng)
            direct = energy_after_locc(scheme, params, lat3, include_profile=False)
            assert resp.delta(params) == pytest.approx(direct.delta, abs=1e-10)

    def test_independent_matches_manual_sum(self, lat2):
        rng = np.random.default_rng(151)
        scheme = lat2.full_region_scheme()
        backend = StabilizerBackend(lat2.ground_group())
        resp = self._response(lat2, backend)
        ham = lat2.hamiltonian()
        for _ in range(8):
            per_outcome = {1: random_params(rng), -1: random_params(rng)}
            raw_b = 0.0
            for k, params in per_outcome.items():
                m = scheme.kraus(k)
                staged = locc_unitary(params, k, lat2.bob_qubit, lat2.n_qubits).mul(m)
                raw_b += backend.expect(staged.adjoint().mul(ham).mul(staged)).real
            e_b = raw_b - lat2.ground_energy()
            want = e_b - resp.e_a
            assert resp.delta(per_outcome) == pytest.approx(want, abs=1e-10)

    def test_response_stats(self, lat2):
        resp = self._response(lat2)
        assert resp.p_plus == pytest.approx(0.5)
        assert resp.e_a == pytest.approx(2.0)

    def test_sweep_matches_pointwise(self, lat2):
        resp = self._response(lat2)
        thetas = np.linspace(0.0, 2.0 * math.pi, 7)
        axes = fibonacci_sphere(5)
        grid = resp.sweep(thetas, axes)
        assert grid.shape == (7, 5)
        for ti in (0, 3, 6):
            for mi in (0, 2, 4):
                params = LoccParams(float(thetas[ti]), tuple(float(v) for v in axes[mi]))
                assert grid[ti, mi] == pytest.approx(resp.delta(params), abs=1e-12)


class TestExactMinimum:
    """The eigenvalue minimum against a dense (theta, n) sample and the
    direct sandwich at its witness, on chains where it is not trivially 0."""

    # (chain size, site_a, site_b, coupling, field)
    CHAINS = ((2, 0, 1, 1.0, 1.0), (3, 0, 1, 0.7, 1.3), (4, 1, 2, 1.0, 0.6))
    DENSE_THETAS = np.linspace(0.0, 2.0 * math.pi, 721)
    DENSE_AXES = np.vstack([np.array(CANONICAL_AXES), fibonacci_sphere(2000)])

    def _sampled_min(self, resp, independent):
        """Sampled min of w^T K w, w = (cos theta, sin theta n), per form."""
        s, c = np.sin(self.DENSE_THETAS), np.cos(self.DENSE_THETAS)
        forms = [resp.forms[1], resp.forms[-1]] if independent else [sum(resp.forms.values())]
        total = 0.0
        for form in forms:
            quad = np.einsum("mi,ij,mj->m", self.DENSE_AXES, form[1:, 1:], self.DENSE_AXES)
            lin = 2.0 * self.DENSE_AXES @ form[0, 1:]
            values = form[0, 0] * (c * c)[:, None] + np.outer(s * s, quad) + np.outer(s * c, lin)
            total += float(values.min())
        return total

    @pytest.mark.parametrize("independent", [False, True])
    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_below_dense_sample_and_attained(self, axis, independent):
        linear = 0.0
        for n, site_a, site_b, coupling, field in self.CHAINS:
            system = protocol_system(build_chain(n, coupling, field, site_a, site_b), axis)
            resp = QuadraticResponse(system)
            min_delta, witness = resp.minimum(independent)
            assert min_delta <= self._sampled_min(resp, independent) + 1e-12
            assert resp.delta(witness) == pytest.approx(min_delta, abs=1e-12)
            assert direct_energy(system, witness, include_profile=False).delta == pytest.approx(
                min_delta, abs=1e-10
            )
            linear = max(linear, max(abs(resp.forms[k][0, 1:]).max() for k in (1, -1)))
        if axis != "x":
            assert linear > 1e-3  # r != 0: the theta-linear term takes part

    def test_optimize_system_reports_the_exact_minimum(self):
        system = protocol_system(build_chain(3, 0.7, 1.3, 0, 1), "y")
        resp = QuadraticResponse(system)
        for independent in (False, True):
            result = optimize_system(system, GridSpec(theta_count=9, sphere_count=8), independent=independent)
            assert result.min_delta == resp.minimum(independent)[0]
            assert result.min_delta < result.grid_min
            assert not result.zero_theta_attains

    def test_noise_eigenvalue_reads_as_idle_zero(self):
        # A true-zero minimum seen through float rounding: lambda_min a hair below 0.
        form = np.diag([0.0, 1.0, 2.0, -1e-15])
        assert _lowest(form, NOISE_TOL) == (0.0, IDLE)
        assert _lowest(form)[0] == -1e-15
        value, params = _lowest(np.diag([0.0, 1.0, 2.0, -1e-9]), NOISE_TOL)
        assert value == -1e-9
        assert params.theta == pytest.approx(math.pi / 2)
        assert [abs(a) for a in params.axis] == [0.0, 0.0, 1.0]
        assert all(math.copysign(1.0, a) == 1.0 for a in params.axis[:2])

    def test_noise_band_only_on_float_backends(self, lat2, gs2):
        # On the exact torus engine a lambda_min inside the noise band is a
        # real negative minimum, so it must not be read as 0 (NOGO CONFIRMED).
        lam = -0.5 * NOISE_TOL
        half = np.diag([0.0, 1.0, 2.0, lam]) / 2.0
        for backend, want in ((StabilizerBackend(lat2.ground_group()), lam), (StatevectorBackend(gs2), 0.0)):
            resp = QuadraticResponse(ProtocolSystem.from_toric(lat2, lat2.full_region_scheme(), backend))
            resp.forms = {1: half, -1: half}
            assert resp.minimum(independent=False)[0] == want
            assert resp.minimum(independent=True)[0] == (lam if want else 0.0)

    def test_chain_noise_minimum_is_idle(self):
        # The shared form has a true minimum of 0 here; rounding put lambda_min at -7.7e-32.
        system = protocol_system(build_chain(4, 1.0, 1.0, 0, 1), "x")
        resp = QuadraticResponse(system)
        assert resp.minimum(independent=False) == (0.0, IDLE)

    @pytest.mark.parametrize("L,bob_qubit", [(8, 0), (32, 2047)])
    def test_torus_minimum_is_exactly_zero(self, L, bob_qubit):
        lat = ToricLattice(L, bob_qubit)
        result = optimize_locc(lat, lat.full_region_scheme())
        assert result.min_delta == 0.0
        assert result.params == LoccParams(0.0, (1.0, 0.0, 0.0))
        assert result.zero_theta_attains


class TestOptimize:
    GRID = GridSpec(theta_count=33, sphere_count=64)

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_no_extraction_on_torus(self, L):
        lat = ToricLattice(L)
        result = optimize_locc(lat, lat.full_region_scheme(), self.GRID)
        assert result.min_delta >= -1e-10
        assert result.min_delta == pytest.approx(0.0, abs=1e-9)
        assert result.zero_theta_attains
        assert result.params.theta == 0.0
        assert result.e_a == pytest.approx(2.0)

    def test_independent_outcomes_no_better(self, lat2):
        result = optimize_locc(lat2, lat2.full_region_scheme(), self.GRID, independent=True)
        assert result.min_delta >= -1e-10
        assert result.min_delta == pytest.approx(0.0, abs=1e-9)
        assert result.per_outcome is not None
        assert set(result.per_outcome) == {1, -1}
        assert "k=+1" in result.argmin_description()

    def test_statevector_backend_agrees(self, lat2, gs2):
        scheme = lat2.full_region_scheme()
        r_stab = optimize_locc(lat2, scheme, self.GRID)
        r_vec = optimize_locc(lat2, scheme, self.GRID, backend=StatevectorBackend(gs2))
        assert r_vec.min_delta == pytest.approx(r_stab.min_delta, abs=1e-10)
        assert r_vec.e_a == pytest.approx(r_stab.e_a, abs=1e-10)

    def test_table_contract(self, lat2, tmp_path):
        result = optimize_locc(lat2, lat2.full_region_scheme(), self.GRID)
        n_axes = 3 + 64
        assert result.thetas.shape == (33,)
        assert result.axes.shape == (n_axes, 3)
        assert result.deltas.shape == result.closed_form.shape == (33, n_axes)
        # theta-major: row i is theta i, column j is axis j
        resp = QuadraticResponse(ProtocolSystem.from_toric(lat2, lat2.full_region_scheme()))
        for i, j in [(0, 0), (5, 1), (17, 40), (32, 66)]:
            params = LoccParams(float(result.thetas[i]), tuple(result.axes[j]))
            assert result.deltas[i, j] == pytest.approx(resp.delta(params), abs=1e-12)
        assert np.allclose(np.linalg.norm(result.axes, axis=1), 1.0, atol=1e-12)
        # the torus sweep sits exactly on the closed form
        assert np.abs(result.deltas - result.closed_form).max() < 1e-9
        assert result.deltas.min() >= -1e-10
        path = tmp_path / "sweep.csv"
        write_sweep_csv(str(path), [(result, "stabilizer")])
        rows = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(9))
        assert rows.shape == (33 * n_axes, 9)
        assert np.all(rows[:n_axes, 0] == rows[0, 0])
        assert np.allclose(rows[:, 6] - rows[:, 5], rows[:, 7], atol=1e-12)

    def test_refinement_never_above_grid(self, lat2):
        result = optimize_locc(lat2, lat2.full_region_scheme(), self.GRID)
        assert result.min_delta <= result.grid_min + 1e-12
