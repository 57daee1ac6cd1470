"""Acceptance gate: every deliverable property, one verdict line each.

Each test prints (and records for the terminal summary) a single
CRITERION line with the measured numbers, then asserts.  Tolerances are
stated inline; timing limits are asserted where the property includes
one.
"""

import math
import time

import numpy as np
import pytest
from conftest import ACCEPTANCE_LINES

from toricqet.chain import build_chain, optimize_control, qet_run
from toricqet.lattice import ToricLattice
from toricqet.optimize import optimize_locc
from toricqet.pauli import PauliPolynomial, PauliString
from toricqet.protocol import (
    LoccParams,
    ProtocolSystem,
    StabilizerBackend,
    StatevectorBackend,
    cross_term_operators,
    delta_closed_form,
    derivation_draws,
    energy_after_locc,
    energy_injected,
    excitation_profile,
    make_backends,
    verify_cross_terms,
    verify_derivation_chain,
    verify_local_expectations,
    verify_plaquette_collapse,
)
from toricqet import statevector as sv

GOLDEN_CONTROL_MIN = -0.10557280900008412


def record(num: int, ok: bool, detail: str):
    line = f"CRITERION {num} {'PASS' if ok else 'FAIL'}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def random_params(rng) -> LoccParams:
    direction = rng.standard_normal(3)
    while np.linalg.norm(direction) < 1e-6:
        direction = rng.standard_normal(3)
    return LoccParams.from_direction(rng.uniform(0.0, 2.0 * math.pi), direction)


def test_criterion_1_closed_form_both_backends(lat2, gs2):
    """1000 random parameter points, direct evaluation on both backends,
    each within 1e-9 of 4 sin^2(theta) (ny^2 + nz^2); under 30 s."""
    rng = np.random.default_rng(2024)
    scheme = lat2.full_region_scheme()
    params = [random_params(rng) for _ in range(1000)]
    start = time.monotonic()
    worst = 0.0
    for backend in (StabilizerBackend(lat2.ground_group()), StatevectorBackend(gs2)):
        for p in params:
            rep = energy_after_locc(scheme, p, lat2, backend)
            worst = max(worst, abs(rep.delta - delta_closed_form(p)))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    record(1, ok, f"1000 points x 2 backends, max |delta - closed_form| = {worst:.3e} "
                  f"(tol 1e-9), {elapsed:.1f}s (limit 30s)")


def test_criterion_2_optimizer_finds_no_extraction():
    """Default-grid search at L in {2,3,4}: minimum >= -1e-10 and theta=0
    is among the minimizers; under 60 s per size."""
    mins, times = [], []
    zero_ok = True
    for L in (2, 3, 4):
        lat = ToricLattice(L)
        start = time.monotonic()
        res = optimize_locc(lat, lat.full_region_scheme())
        times.append(time.monotonic() - start)
        mins.append(res.min_delta)
        zero_ok &= res.min_delta >= 0.0 and res.witness.theta == 0.0
    ok = min(mins) >= -1e-10 and zero_ok and max(times) < 60.0
    record(2, ok, f"L=2,3,4 default grid, min delta = {min(mins):.3e} (floor -1e-10), "
                  f"theta=0 attains minimum: {zero_ok}, slowest {max(times):.1f}s (limit 60s)")


def test_criterion_3_structural_checks_exhaustive():
    """Collapse dichotomy, vanishing local means, and vanishing cross terms
    on every operator: exact zeros on the stabilizer engine, < 1e-10 on
    the statevector oracle; L=2 both engines, L=3,4 stabilizer."""
    worst_stab = 0.0
    worst_vec = 0.0
    total = 0
    all_pass = True
    for L, which in ((2, "both"), (3, "stabilizer"), (4, "stabilizer")):
        lat = ToricLattice(L)
        scheme = lat.full_region_scheme()
        for backend in make_backends(lat, which):
            system = ProtocolSystem.from_toric(lat, scheme, backend)
            reports = (
                verify_plaquette_collapse(system, lat),
                verify_local_expectations(system, lat),
                verify_cross_terms(system, cross_term_operators(lat)),
            )
            for rep in reports:
                all_pass &= rep.passed
                total += len(rep.checks)
                resid = max((c.value for c in rep.checks if not c.contrast), default=0.0)
                if backend.name == "stabilizer":
                    worst_stab = max(worst_stab, resid)
                else:
                    worst_vec = max(worst_vec, resid)
    ok = all_pass and worst_stab == 0.0 and worst_vec < 1e-10
    record(3, ok, f"{total} checks over L=2 (both engines) and L=3,4 (stabilizer); "
                  f"stabilizer residual = {worst_stab:.1e} (must be exactly 0), "
                  f"oracle residual = {worst_vec:.3e} (tol 1e-10)")


def test_criterion_4_derivation_chain_random(lat2):
    """The step-by-step algebra behind the closed form: operator identities
    within 1e-12, expectation equalities within 1e-10, 100 random draws."""
    rng = np.random.default_rng(4099)
    scheme = lat2.full_region_scheme()
    systems = [ProtocolSystem.from_toric(lat2, scheme, b) for b in make_backends(lat2, "both")]
    worst_identity = 0.0
    worst_expect = 0.0
    all_pass = True
    for i in range(100):
        system = systems[i % len(systems)]
        step, = derivation_draws(system, lat2, [random_params(rng)])
        rep = verify_derivation_chain(system, step)
        all_pass &= rep.passed
        for c in rep.checks:
            if "identity" in c.label or "splits" in c.label or "reduces" in c.label:
                worst_identity = max(worst_identity, c.value)
            else:
                worst_expect = max(worst_expect, c.value)
    ok = all_pass and worst_identity <= 1e-12 and worst_expect <= 1e-10
    record(4, ok, f"100 draws split across both engines; identity residual = "
                  f"{worst_identity:.3e} (tol 1e-12), expectation residual = "
                  f"{worst_expect:.3e} (tol 1e-10)")


def test_criterion_5_ground_state_facts(lat2, gs2):
    """Dense L=2 spectrum: lowest eigenvalue -8 with multiplicity 4; every
    stabilizer term has expectation +1 on both engines."""
    mat = sv.poly_to_dense(lat2.hamiltonian())
    evals = np.linalg.eigvalsh(mat)
    e0 = float(evals[0])
    multiplicity = int(np.sum(evals <= e0 + 1e-8))
    group = lat2.ground_group()
    ops = list(lat2.stars()) + list(lat2.plaquettes())
    worst = 0.0
    for op in ops:
        poly = PauliPolynomial.from_string(op)
        worst = max(worst, abs(group.poly_expectation(poly) - 1.0))
        worst = max(worst, abs(sv.poly_expectation(poly, gs2) - 1.0))
    ok = abs(e0 + 8.0) <= 1e-10 and multiplicity == 4 and worst <= 1e-10
    record(5, ok, f"E0 = {e0:.12f} (want -8), multiplicity = {multiplicity} (want 4), "
                  f"max |<stabilizer> - 1| = {worst:.3e} over {2 * len(ops)} values (tol 1e-10)")


def test_criterion_6_excitation_profile(lat2):
    """The full-region measurement flips exactly the two plaquettes next to
    the target edge; injected energy is 2."""
    ok = True
    details = []
    for L in (2, 3):
        lat = lat2 if L == 2 else ToricLattice(3)
        scheme = lat.full_region_scheme()
        for backend in make_backends(lat, "both" if L == 2 else "stabilizer"):
            profile = excitation_profile(scheme, lat, backend)
            dropped = {name for name, val in profile.items() if abs(val) <= 1e-10}
            intact = all(
                abs(val - 1.0) <= 1e-10 for name, val in profile.items() if name not in dropped
            )
            e_a, _, _ = energy_injected(scheme, lat, backend)
            want = {"plaquette(0,0)", f"plaquette({L - 1},0)"}
            good = dropped == want and intact and abs(e_a - 2.0) <= 1e-10
            ok &= good
            details.append(f"L={L}/{backend.name}: dropped={sorted(dropped)} E_A={e_a:.12f}")
    record(6, ok, "exactly the two target-adjacent plaquettes drop to 0, others +1, "
                  "E_A = 2 (tol 1e-10); " + "; ".join(details[:2]))


def test_criterion_7_backend_equivalence(lat2, gs2):
    """At least 1e5 operator expectations agree between the two engines to
    1e-10."""
    group = lat2.ground_group()
    rng = np.random.default_rng(7001)
    n = lat2.n_qubits
    count = 105_000
    worst = 0.0
    for _ in range(count):
        x = int(rng.integers(0, 1 << n))
        z = int(rng.integers(0, 1 << n))
        extra = (x & z).bit_count() % 2
        p = PauliString(n, x, z, (extra + 2 * int(rng.integers(0, 2))) % 4)
        poly = PauliPolynomial.from_string(p)
        worst = max(worst, abs(group.poly_expectation(poly) - sv.poly_expectation(poly, gs2)))
    ok = worst <= 1e-10
    record(7, ok, f"{count} random Hermitian strings at L=2, max disagreement = "
                  f"{worst:.3e} (tol 1e-10)")


def test_criterion_8_positive_control():
    """The same pipeline detects extraction on the two-site transverse-field
    chain: minimum below -1e-3, equal to the frozen witness to 1e-9, and
    confirmed by direct evaluation."""
    model = build_chain(2)
    res = optimize_control(model)
    direct = qet_run(model, res.witness).delta
    ok = (
        res.min_delta < -1e-3
        and abs(res.min_delta - GOLDEN_CONTROL_MIN) <= 1e-9
        and abs(direct - res.min_delta) <= 1e-9
    )
    record(8, ok, f"N=2 chain min delta = {res.min_delta:.17g} "
                  f"(golden {GOLDEN_CONTROL_MIN}, tol 1e-9), direct check diff = "
                  f"{abs(direct - res.min_delta):.3e}")


def test_criterion_9_invariances():
    """The energy difference does not depend on the ground sector, the
    target edge, or the lattice size (L = 2,3,4,6), to 1e-10."""
    rng = np.random.default_rng(9001)
    params = [LoccParams(math.pi / 2, (0.0, 1.0, 0.0))] + [random_params(rng) for _ in range(3)]
    spread = 0.0

    lat = ToricLattice(2)
    scheme = lat.full_region_scheme()
    for p in params:
        deltas = [
            energy_after_locc(scheme, p, lat, StabilizerBackend(lat.ground_group(s))).delta
            for s in ((1, 1), (1, -1), (-1, 1), (-1, -1))
        ]
        spread = max(spread, max(deltas) - min(deltas))
    sector_spread = spread

    for p in params:
        deltas = []
        for bob in range(2 * lat.L * lat.L):
            lat_b = ToricLattice(2, bob_qubit=bob)
            deltas.append(
                energy_after_locc(lat_b.full_region_scheme(), p, lat_b).delta
            )
        spread = max(spread, max(deltas) - min(deltas))
    edge_spread = spread

    for p in params:
        deltas = []
        for L in (2, 3, 4, 6):
            lat_l = ToricLattice(L)
            deltas.append(
                energy_after_locc(lat_l.full_region_scheme(), p, lat_l).delta
            )
        spread = max(spread, max(deltas) - min(deltas))

    ok = spread <= 1e-10
    record(9, ok, f"4 sectors / 8 target edges / L=2,3,4,6, max spread = {spread:.3e} "
                  f"(tol 1e-10; sector {sector_spread:.1e}, edge {edge_spread:.1e})")
