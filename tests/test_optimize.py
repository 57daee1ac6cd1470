"""Grid search and quadratic response surface against the direct sandwich path."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from conftest import string_product

from toricqet.chain import build_chain, protocol_system
from toricqet.lattice import ToricLattice
from toricqet.pauli import PauliPolynomial, PauliString
from toricqet.stabilizer import StabilizerGroup
from toricqet.optimize import (
    CANONICAL_AXES,
    IDLE,
    KEY_FAMILIES,
    NOISE_TOL,
    GridSpec,
    ProtocolSystem,
    QuadraticResponse,
    fibonacci_sphere,
    optimize_locc,
    optimize_system,
    product_coefficients,
    _lowest,
)
from toricqet.protocol import (
    AXIS_NAMES,
    OUTCOMES,
    LoccParams,
    StabilizerBackend,
    StatevectorBackend,
    direct_energy,
    energy_after_locc,
    locc_unitary,
    outcome_params,
    post_measurement_profile,
    sigma_poly,
    target_commutator,
)
from toricqet.reports import write_sweep_csv
from toricqet.statevector import ground_state
from test_protocol import assert_expectations_match_product, random_params, random_polynomial, value_bits


def form_delta(resp: QuadraticResponse, locc) -> float:
    """sum_k w_k^T K_k w_k, w_k = (cos theta, sin theta n) of outcome k's rotation."""
    total = 0.0
    for k in OUTCOMES:
        p = outcome_params(locc, k)
        w = np.array([math.cos(p.theta), *(math.sin(p.theta) * a for a in p.axis)])
        total += float(w @ resp.forms[k] @ w)
    return total


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
                direct = energy_after_locc(scheme, params, lat2, backend)
                assert form_delta(resp, params) == pytest.approx(direct.delta, abs=1e-10)

    def test_matches_direct_at_larger_size(self, lat3):
        rng = np.random.default_rng(149)
        scheme = lat3.full_region_scheme()
        resp = self._response(lat3)
        for _ in range(10):
            params = random_params(rng)
            direct = energy_after_locc(scheme, params, lat3)
            assert form_delta(resp, params) == pytest.approx(direct.delta, abs=1e-10)

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
            want = e_b - resp.system.injected_energy
            assert form_delta(resp, per_outcome) == pytest.approx(want, abs=1e-10)

    def test_response_stats(self, lat2):
        system = self._response(lat2).system
        assert system.probabilities[1] == pytest.approx(0.5)
        assert system.injected_energy == pytest.approx(2.0)

    def test_sweep_matches_pointwise(self, lat2):
        resp = self._response(lat2)
        thetas = np.linspace(0.0, 2.0 * math.pi, 7)
        axes = fibonacci_sphere(5)
        grid = resp.sweep(thetas, axes)
        assert grid.shape == (7, 5)
        for ti in (0, 3, 6):
            for mi in (0, 2, 4):
                params = LoccParams(float(thetas[ti]), tuple(float(v) for v in axes[mi]))
                assert grid[ti, mi] == pytest.approx(form_delta(resp, params), abs=1e-12)


def whole_g_response(system):
    """forms, w_shared and r_shared through the whole measured-stage operator
    G_k = M_k H M_k: C_k[i] = <[G_k, sigma^i]>, W_k[i,j] = <sigma^i G_k sigma^j>."""
    expect = system.backend.expect
    sigmas = [sigma_poly(system.n_qubits, system.target, a) for a in AXIS_NAMES]
    h = system.measured_energies
    c, w = {}, {}
    for k in OUTCOMES:
        g = system.m_ops[k].mul(system.hamiltonian).mul(system.m_ops[k])
        c[k] = np.array([expect(g.commutator(s)) for s in sigmas], dtype=complex)
        w[k] = np.array([[expect(si.mul(g).mul(sj)) for sj in sigmas] for si in sigmas], dtype=complex)
    return assemble_response(c, w, h)


def assemble_response(c, w, h):
    """forms, w_shared and r_shared from C_k, W_k and h_k, in QuadraticResponse's arithmetic."""
    forms = {}
    for k in OUTCOMES:
        form = np.zeros((4, 4))
        form[0, 1:] = form[1:, 0] = k * (1j * c[k]).real / 2.0
        form[1:, 1:] = (w[k].real + w[k].real.T) / 2.0 - h[k] * np.eye(3)
        forms[k] = form
    w_shared = sum(w[k].real for k in OUTCOMES)
    r_shared = sum(k * (1j * c[k]).real for k in OUTCOMES)
    return forms, w_shared, r_shared


def nine_product_response(system):
    """forms, w_shared and r_shared with one sandwich table per operator of
    response_operators: H, the three commutators and the nine sigma^i H sigma^j."""
    ops = response_operators(system)
    h = {k: value.real for k, value in system.sandwich_expectations(ops[0]).items()}
    comms = [system.sandwich_expectations(op) for op in ops[1:4]]
    c = {k: np.array([comm[k] for comm in comms], dtype=complex) for k in OUTCOMES}
    w = {k: np.zeros((3, 3), dtype=complex) for k in OUTCOMES}
    for index, op in enumerate(ops[4:]):
        for k, value in system.sandwich_expectations(op).items():
            w[k][divmod(index, 3)] = value
    return assemble_response(c, w, h)


def random_toric_systems(L, count, seed):
    """count random X-string schemes, targets and sectors on L, on both engines."""
    rng = np.random.default_rng(seed)
    n = 2 * L * L
    for _ in range(count):
        lat = ToricLattice(L, int(rng.integers(n)))
        edges = [e for e in range(n) if e != lat.bob_qubit and rng.random() < 0.4] or [(lat.bob_qubit + 1) % n]
        scheme = lat.scheme_from_edges(edges)
        sector = tuple(int(v) for v in rng.choice((1, -1), size=2))
        for backend in (StabilizerBackend(lat.ground_group(sector)), StatevectorBackend(ground_state(lat, sector))):
            yield ProtocolSystem.from_toric(lat, scheme, backend)


class TestWholeGReference:
    """The response tensors from the target's commutator and the key-family
    tables are bit-for-bit those of the whole-G_k algebra, and those of one
    sandwich table per operator (nine_product_response)."""

    @staticmethod
    def _assert_bytes_equal(system):
        resp = QuadraticResponse(system)
        for forms, w_shared, r_shared in (whole_g_response(system), nine_product_response(system)):
            for k in OUTCOMES:
                assert resp.forms[k].tobytes() == forms[k].tobytes()
            assert resp.w_shared.tobytes() == w_shared.tobytes()
            assert resp.r_shared.tobytes() == r_shared.tobytes()

    @pytest.mark.parametrize("L,seed", [(2, 11), (3, 13)])
    def test_random_schemes_both_engines(self, L, seed):
        for system in random_toric_systems(L, 4, seed):
            self._assert_bytes_equal(system)

    def test_high_edge_stabilizer(self):
        lat = ToricLattice(8, 127)
        self._assert_bytes_equal(ProtocolSystem.from_toric(lat, lat.full_region_scheme()))

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_six_site_chain(self, axis):
        self._assert_bytes_equal(protocol_system(build_chain(6, 0.7, 1.3, 2), axis))


def response_operators(system):
    """The operators a QuadraticResponse sandwiches: H, [H_t, sigma^i] and sigma^i H sigma^j."""
    sigmas = [sigma_poly(system.n_qubits, system.target, a) for a in AXIS_NAMES]
    return [system.hamiltonian, *(target_commutator(system, axis) for axis in CANONICAL_AXES),
            *(si.mul(system.hamiltonian).mul(sj) for si in sigmas for sj in sigmas)]


def family_operators(system, family):
    sigmas = [sigma_poly(system.n_qubits, system.target, a) for a in AXIS_NAMES]
    return [sigmas[i].mul(system.hamiltonian).mul(sigmas[j]) for i, j in family]


def response_columns(system):
    """What QuadraticResponse hands hamiltonian_sandwiches: the unshifted
    columns of the diagonal family, then one pass per off-diagonal key
    family, with the family's shift t_ij and its product_coefficients columns."""
    sigmas = [sigma_poly(system.n_qubits, system.target, a) for a in AXIS_NAMES]
    keys = [next(iter(sigma.terms)) for sigma in sigmas]
    per_term = product_coefficients(system, sigmas)
    diagonal, *off_diagonal = ([[t[3 * i + j] for t in per_term] for i, j in family] for family in KEY_FAMILIES)
    shifted = []
    for family, columns in zip(KEY_FAMILIES[1:], off_diagonal):
        (xi, zi), (xj, zj) = (keys[a] for a in family[0])
        shifted.append(((xi ^ xj, zi ^ zj), columns))
    return diagonal, shifted


def assert_pass_columns(system, keys, passes, products):
    """Each value that sandwiches(keys, passes) returns is, bit for bit, the
    backend's expectation of m.mul(op).mul(m) for its product polynomial
    op = products[p][c] and outcome."""
    got = system.sandwiches(keys, passes)
    for (_, columns), ops, values in zip(passes, products, got, strict=True):
        assert len(columns) == len(ops)
        want = [system.backend.expect(m.mul(op).mul(m)) for op in ops for m in system.m_ops.values()]
        assert [value_bits(v) for v in values] == [value_bits(v) for v in want]


class TestBothOutcomesInOnePass:
    """system.sandwich_expectations(op) builds and queries each key of
    M_k op M_k once for both outcomes; each value is bit for bit the
    expectation of the per-outcome product m.mul(op).mul(m)."""

    def _assert_system(self, system, seed):
        rng = np.random.default_rng(seed)
        # the profile's one-term operators, one per Hamiltonian term
        profile = [PauliPolynomial(system.n_qubits, {key: 1 + 0j}) for key in system.hamiltonian.terms]
        for op in [*response_operators(system), *profile, random_polynomial(rng, system.measured, 30)]:
            assert_expectations_match_product(system, op)

    @pytest.mark.parametrize("L,seed", [(2, 191), (3, 193)])
    def test_random_schemes_both_engines(self, L, seed):
        for system in random_toric_systems(L, 3, seed):
            self._assert_system(system, seed)

    def test_high_edge_stabilizer(self):
        lat = ToricLattice(8, 127)
        system = ProtocolSystem.from_toric(lat, lat.full_region_scheme())
        for op in response_operators(system):
            assert_expectations_match_product(system, op)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_six_site_chain(self, axis):
        self._assert_system(protocol_system(build_chain(6, 0.7, 1.3, 2), axis), 197)

    def test_key_pruned_for_one_outcome_only(self, lat2, gs2):
        # op = A + c S A + B/4 with c = -(1 + 2^-44): under M_+ the keys A and
        # S A sum to -2^-45 < PRUNE_TOL and drop out; under M_- they stay.
        n = lat2.n_qubits
        scheme = lat2.full_region_scheme()
        star = next(PauliString.from_support(n, e, "x") for e in lat2.star_edges if lat2.bob_qubit not in e)
        plaquette = next(PauliString.from_support(n, e, "z") for e in lat2.plaquette_edges
                         if lat2.bob_qubit not in e)
        op = PauliPolynomial.from_strings(
            n, [(star, 1.0), (string_product(scheme.operator(), star), -(1.0 + 2.0 ** -44)), (plaquette, 0.25)])
        for backend in (StabilizerBackend(lat2.ground_group()), StatevectorBackend(gs2)):
            system = ProtocolSystem.from_toric(lat2, scheme, backend)
            plus, minus = (m.mul(op).mul(m) for m in system.m_ops.values())
            assert set(plus.terms) < set(minus.terms) and len(minus.terms) - len(plus.terms) == 2
            assert_expectations_match_product(system, op)
            # in a two-operator pass, next to an op with the same keys that keeps them all
            kept = PauliPolynomial(n, {key: 1.0 + 0j for key in op.terms})
            for ops in ([op, kept], [kept, op]):
                assert_pass_columns(system, op.terms, [((0, 0), [o.terms.values() for o in ops])], [ops])
            # what is left under M_+ is M_+ B M_+ / 4 = (B + B S) / 8, and <B S> = 0;
            # the pruned keys would add 2^-45 <A> = 2.8e-14 to it
            assert system.sandwich_expectations(op)[1] == pytest.approx(0.125, abs=1e-15)


class TestOneReductionPerKey:
    """Each key of a sandwich table is queried once, not once per outcome and
    operator: one table per commutator, one for H with the three diagonal
    sigma^i H sigma^i, and one per off-diagonal key family."""

    def test_response_at_l8(self, monkeypatch):
        lat = ToricLattice(8, 127)
        system = ProtocolSystem.from_toric(lat, lat.full_region_scheme())
        ops = response_operators(system)
        per_outcome = [set(m.mul(op).mul(m).terms) for op in ops for m in system.m_ops.values()]
        per_op = [plus | minus for plus, minus in zip(per_outcome[::2], per_outcome[1::2])]
        # sigma^i H sigma^j is ops[4 + 3 i + j]; H (ops[0]) joins the diagonal family
        families = [[4 + 3 * i + j for i, j in family] for family in KEY_FAMILIES]
        tables = [[1], [2], [3], [0, *families[0]], *families[1:]]
        keys = [set().union(*(per_op[t] for t in table)) for table in tables]
        columns = StabilizerGroup.column_expectations
        calls = []

        def counted(group, rows, width):
            rows = list(rows)
            calls.extend(key for key, _ in rows)
            return columns(group, rows, width)

        monkeypatch.setattr(StabilizerGroup, "column_expectations", counted)
        QuadraticResponse(system)
        assert len(calls) == sum(map(len, keys)) == 1016
        # one query per key and outcome would be sum(map(len, per_outcome)),
        # one per key and operator about half that
        assert len(calls) <= 0.21 * sum(map(len, per_outcome))

    def test_no_key_of_h_queried_twice(self, monkeypatch):
        # measured_energies, read after the response as every scan reads it,
        # comes from the response's own pass over H's keys
        lat = ToricLattice(8, 127)
        system = ProtocolSystem.from_toric(lat, lat.full_region_scheme())
        h_keys = set().union(*(m.mul(system.hamiltonian).mul(m).terms for m in system.m_ops.values()))
        queried = []
        columns = StabilizerGroup.column_expectations

        def recorded(group, rows, width):
            rows = list(rows)
            queried.extend(key for key, _ in rows)
            return columns(group, rows, width)

        monkeypatch.setattr(StabilizerGroup, "column_expectations", recorded)
        QuadraticResponse(system)
        before = len(queried)
        assert system.injected_energy == pytest.approx(2.0)
        assert len(queried) == before
        assert all(queried.count(key) == 1 for key in h_keys)


class TestKeyFamilyTables:
    """The response's passes over H's slots: every coefficient and every
    column is that of the whole-H product sigma^i H sigma^j, bit for bit."""

    def _assert_system(self, system, seed=None):
        sigmas = [sigma_poly(system.n_qubits, system.target, a) for a in AXIS_NAMES]
        keys = [next(iter(sigma.terms)) for sigma in sigmas]
        per_term = product_coefficients(system, sigmas)
        products = {}
        for i, j in itertools.product(range(3), repeat=2):
            prod, = family_operators(system, ((i, j),))
            products[i, j] = prod
            (xi, zi), (xj, zj) = keys[i], keys[j]
            assert list(prod.terms) == [(x ^ xi ^ xj, z ^ zi ^ zj) for x, z in system.hamiltonian.terms]
            assert [value_bits(c) for c in prod.terms.values()] == [value_bits(t[3 * i + j]) for t in per_term]
        diagonal, shifted = response_columns(system)
        families = [[products[pair] for pair in family] for family in KEY_FAMILIES]
        assert_pass_columns(system, system.hamiltonian.terms, [((0, 0), diagonal), *shifted], families)
        # H joins the unshifted columns; its values are the measured energies
        fresh = dataclasses.replace(system)
        values = fresh.hamiltonian_sandwiches(diagonal, shifted)
        for family, ops, got in zip(KEY_FAMILIES, families, values, strict=True):
            want = [system.sandwich_expectations(op)[k] for op in ops for k in OUTCOMES]
            assert [value_bits(v) for v in got] == [value_bits(v) for v in want]
        assert [value_bits(v) for v in fresh.measured_energies.values()] == [
            value_bits(v) for v in system.measured_energies.values()]
        if seed is not None:
            # merging keys (a and S a both terms), independent coefficients per column, shifted by a key on the target
            rng = np.random.default_rng(seed)
            op = random_polynomial(rng, system.measured, 30)
            cols = [list(op.terms.values()), *([complex(rng.standard_normal()) for _ in op.terms] for _ in range(2))]
            t = keys[0]
            passes = [((0, 0), cols), (t, cols[1:])]
            products = [[PauliPolynomial(op.n_qubits, dict(zip(op.terms, col))) for col in cols],
                        [PauliPolynomial(op.n_qubits, {(x ^ t[0], z ^ t[1]): c for (x, z), c in zip(op.terms, col)})
                         for col in cols[1:]]]
            assert_pass_columns(system, op.terms, passes, products)

    @pytest.mark.parametrize("L,seed", [(2, 211), (3, 223)])
    def test_random_schemes_both_engines(self, L, seed):
        for system in random_toric_systems(L, 2, seed):
            self._assert_system(system, seed)

    def test_high_edge_stabilizer(self):
        lat = ToricLattice(8, 127)
        self._assert_system(ProtocolSystem.from_toric(lat, lat.full_region_scheme()))

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_six_site_chain(self, axis):
        self._assert_system(protocol_system(build_chain(6, 0.7, 1.3, 2), axis), 229)

    @pytest.mark.parametrize("coupling,field", [(0.5, 1e10), (0.0, 1.0)])
    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_extreme_chains(self, axis, coupling, field):
        self._assert_system(protocol_system(build_chain(3, coupling, field, 0, 1), axis), 233)

    def test_no_whole_h_operand(self, monkeypatch):
        lat = ToricLattice(8, 127)
        system = ProtocolSystem.from_toric(lat, lat.full_region_scheme())
        sizes = []
        mul = PauliPolynomial.mul

        def recorded(left, right):
            sizes.append(max(len(left.terms), len(right.terms)))
            return mul(left, right)

        monkeypatch.setattr(PauliPolynomial, "mul", recorded)
        QuadraticResponse(system)
        assert sizes and max(sizes) < len(system.hamiltonian.terms)


class TestProfileRows:
    """post_measurement_profile sends each term's two rows straight to the
    backend; each value is, bit for bit, sum_k <M_k O M_k> from O's own table."""

    @staticmethod
    def _assert_profile(system):
        got = post_measurement_profile(system)
        n = system.n_qubits
        want = [sum(v.real for v in system.sandwich_expectations(PauliPolynomial(n, {key: 1 + 0j})).values())
                for key in system.hamiltonian.terms]
        assert list(got) == list(system.term_labels)
        assert [v.hex() for v in got.values()] == [v.hex() for v in want]

    @pytest.mark.parametrize("L,seed", [(2, 239), (3, 241)])
    def test_random_schemes_both_engines(self, L, seed):
        for system in random_toric_systems(L, 2, seed):
            self._assert_profile(system)

    def test_high_edge_stabilizer(self):
        lat = ToricLattice(8, 127)
        self._assert_profile(ProtocolSystem.from_toric(lat, lat.full_region_scheme()))

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_six_site_chain(self, axis):
        self._assert_profile(protocol_system(build_chain(6, 0.7, 1.3, 2), axis))


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
            assert form_delta(resp, witness) == pytest.approx(min_delta, abs=1e-12)
            assert direct_energy(system, witness).delta == pytest.approx(
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
            assert result.min_delta < 0.0

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
        assert result.witness == LoccParams(0.0, (1.0, 0.0, 0.0))


class TestOptimize:
    GRID = GridSpec(theta_count=33, sphere_count=64)

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_no_extraction_on_torus(self, L):
        lat = ToricLattice(L)
        system = ProtocolSystem.from_toric(lat, lat.full_region_scheme())
        result = optimize_system(system, self.GRID)
        assert result.min_delta >= -1e-10
        assert result.min_delta == pytest.approx(0.0, abs=1e-9)
        assert result.min_delta >= 0.0
        assert result.witness.theta == 0.0
        assert system.injected_energy == pytest.approx(2.0)

    def test_independent_outcomes_no_better(self, lat2):
        result = optimize_locc(lat2, lat2.full_region_scheme(), self.GRID, independent=True)
        assert result.min_delta >= -1e-10
        assert result.min_delta == pytest.approx(0.0, abs=1e-9)
        assert set(result.witness) == {1, -1}
        assert "k=+1" in result.argmin_description()

    def test_statevector_backend_agrees(self, lat2, gs2):
        scheme = lat2.full_region_scheme()
        r_stab = optimize_locc(lat2, scheme, self.GRID)
        r_vec = optimize_locc(lat2, scheme, self.GRID, backend=StatevectorBackend(gs2))
        assert r_vec.min_delta == pytest.approx(r_stab.min_delta, abs=1e-10)
        e_a = [ProtocolSystem.from_toric(lat2, scheme, b).injected_energy
               for b in (StabilizerBackend(lat2.ground_group()), StatevectorBackend(gs2))]
        assert e_a[1] == pytest.approx(e_a[0], abs=1e-10)

    def test_table_contract(self, lat2, tmp_path):
        system = ProtocolSystem.from_toric(lat2, lat2.full_region_scheme())
        result = optimize_system(system, self.GRID)
        closed_form = np.array(list(result.closed_form_rows()))
        n_axes = 3 + 64
        assert result.thetas.shape == (33,)
        assert result.axes.shape == (n_axes, 3)
        assert result.deltas.shape == closed_form.shape == (33, n_axes)
        # theta-major: row i is theta i, column j is axis j
        resp = QuadraticResponse(system)
        for i, j in [(0, 0), (5, 1), (17, 40), (32, 66)]:
            params = LoccParams(float(result.thetas[i]), tuple(result.axes[j]))
            assert result.deltas[i, j] == pytest.approx(form_delta(resp, params), abs=1e-12)
        assert np.allclose(np.linalg.norm(result.axes, axis=1), 1.0, atol=1e-12)
        # the torus sweep sits exactly on the closed form
        assert np.abs(result.deltas - closed_form).max() < 1e-9
        # row by row, the same multiplies as the whole-grid outer product
        outer = np.outer(4.0 * np.sin(result.thetas) ** 2, result.axes[:, 1] ** 2 + result.axes[:, 2] ** 2)
        assert closed_form.tobytes() == outer.tobytes()
        assert result.deltas.min() >= -1e-10
        path = tmp_path / "sweep.csv"
        write_sweep_csv(str(path), [(system, result, "stabilizer")])
        rows = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(9))
        assert rows.shape == (33 * n_axes, 9)
        assert np.all(rows[:n_axes, 0] == rows[0, 0])
        assert np.allclose(rows[:, 6] - rows[:, 5], rows[:, 7], atol=1e-12)

    def test_refinement_never_above_grid(self, lat2):
        result = optimize_locc(lat2, lat2.full_region_scheme(), self.GRID)
        assert result.min_delta <= result.grid_min + 1e-12
