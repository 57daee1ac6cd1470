"""Measurement-plus-feedback protocol energies, for the torus and the chain.

The protocol: measure an observable on region A (projective, outcomes
k = +-1 with Kraus projectors M_k), classically communicate k, then rotate
the single target qubit by U_k = cos(theta) I + i k sin(theta) n.sigma.
Post-measurement quantities use the unnormalized Kraus convention

    E_A = sum_k <xi| M_k H M_k |xi>,
    E_B = sum_k <xi| M_k U_k^dag H U_k M_k |xi>,

i.e. ensemble averages over outcomes, reported relative to the ground
energy.  A ProtocolSystem bundles one model's Hamiltonian, projectors and
ground-state backend; direct_energy evaluates any system as exact
Pauli-polynomial sandwiches, so the toric code on either engine and the
positive-control chain run the identical code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

from .lattice import MeasurementScheme, ToricLattice
from .pauli import PauliPolynomial, PauliString
from .reports import EnergyReport
from .stabilizer import StabilizerGroup
from . import statevector as sv

OUTCOMES = (1, -1)
AXIS_NAMES = ("x", "y", "z")
AXIS_TOL = 1e-12
MATCH_TOL = 1e-10
IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class LoccParams:
    """Rotation angle and unit axis for the conditioned local unitary."""

    theta: float
    axis: tuple[float, float, float]

    def __post_init__(self):
        if len(self.axis) != 3:
            raise ValueError("axis must have three components")
        norm = math.sqrt(sum(c * c for c in self.axis))
        if abs(norm - 1.0) > AXIS_TOL:
            raise ValueError(f"axis norm {norm!r} is not 1")
        object.__setattr__(self, "axis", tuple(float(c) for c in self.axis))

    @classmethod
    def from_direction(cls, theta: float, direction: Sequence[float]) -> "LoccParams":
        norm = math.sqrt(sum(c * c for c in direction))
        if norm == 0.0:
            raise ValueError("axis direction must be nonzero")
        return cls(float(theta), tuple(c / norm for c in direction))


LoccChoice = Union[LoccParams, Mapping[int, LoccParams]]


def outcome_params(locc: LoccChoice, k: int) -> LoccParams:
    """The parameters applied after outcome k: shared, or picked per outcome."""
    return locc[k] if isinstance(locc, Mapping) else locc


# -- ground-state backends ---------------------------------------------------
# A backend is anything with .name, .exact and .expect(poly) -> complex.


class StabilizerBackend:
    """Symbolic expectations from the stabilizer group; any lattice size."""

    name = "stabilizer"
    exact = True

    def __init__(self, group: StabilizerGroup):
        self.group = group

    def expect(self, poly: PauliPolynomial) -> complex:
        return self.group.poly_expectation(poly)


class StatevectorBackend:
    """Dense-oracle expectations over any model's ground state; small systems only."""

    name = "statevector"
    exact = False

    def __init__(self, state: sv.StateVector):
        self.state = state

    def expect(self, poly: PauliPolynomial) -> complex:
        return sv.poly_expectation(poly, self.state)


def make_backends(lat: ToricLattice, which: str, sector: tuple[int, int] = (1, 1)):
    if which == "stabilizer":
        return [StabilizerBackend(lat.ground_group(sector))]
    if which == "statevector":
        return [StatevectorBackend(sv.ground_state(lat, sector))]
    if which == "both":
        return [StabilizerBackend(lat.ground_group(sector)), StatevectorBackend(sv.ground_state(lat, sector))]
    raise ValueError(f"unknown backend selection {which!r}")


# -- protocol operators -------------------------------------------------------


def measurement_ops(scheme: MeasurementScheme) -> tuple[PauliPolynomial, PauliPolynomial]:
    """The two Kraus projectors (outcome +1, outcome -1)."""
    return scheme.kraus(1), scheme.kraus(-1)


def sigma_poly(n_qubits: int, qubit: int, axis: str) -> PauliPolynomial:
    return PauliPolynomial.from_string(PauliString.single(n_qubits, qubit, axis))


def axis_operator(n_qubits: int, qubit: int, axis: Sequence[float]) -> PauliPolynomial:
    """n . sigma on one qubit."""
    acc = PauliPolynomial.zero(n_qubits)
    for name, weight in zip(AXIS_NAMES, axis):
        acc = acc + sigma_poly(n_qubits, qubit, name).scale(weight)
    return acc


def locc_unitary(params: LoccParams, k: int, qubit: int, n_qubits: int) -> PauliPolynomial:
    """U_k = cos(theta) I + i k sin(theta) n.sigma on the target qubit."""
    if k not in OUTCOMES:
        raise ValueError("outcome must be +-1")
    c = math.cos(params.theta)
    s = math.sin(params.theta)
    rot = axis_operator(n_qubits, qubit, params.axis).scale(1j * k * s)
    return PauliPolynomial.identity(n_qubits, c) + rot


def delta_closed_form(params: LoccParams) -> float:
    _, ny, nz = params.axis
    s = math.sin(params.theta)
    return 4.0 * s * s * (ny * ny + nz * nz)


# -- the protocol core ---------------------------------------------------------


@dataclass(frozen=True)
class ProtocolSystem:
    """One model's protocol, independent of which model produced it.

    Read by both the direct evaluator and the optimizer's response surface.
    `observables` are the labelled operators of the post-measurement
    profile; `closed_form` maps parameters to the model's predicted delta,
    where one is known.
    """

    n_qubits: int
    hamiltonian: PauliPolynomial
    ground_energy: float
    target: int
    backend: object
    m_ops: Mapping[int, PauliPolynomial]
    scheme: str
    observables: Mapping[str, PauliPolynomial]
    closed_form: Optional[Callable[[LoccParams], float]] = None

    @classmethod
    def from_toric(cls, lat: ToricLattice, scheme: MeasurementScheme, backend=None) -> "ProtocolSystem":
        observables = {}
        for kind, ops in (("star", lat.stars()), ("plaquette", lat.plaquettes())):
            for idx, op in enumerate(ops):
                r, c = divmod(idx, lat.L)
                observables[f"{kind}({r},{c})"] = PauliPolynomial.from_string(op)
        return cls(
            n_qubits=lat.n_qubits,
            hamiltonian=lat.hamiltonian(),
            ground_energy=lat.ground_energy(),
            target=lat.bob_qubit,
            backend=backend or StabilizerBackend(lat.ground_group()),
            m_ops=dict(zip(OUTCOMES, measurement_ops(scheme))),
            scheme=describe_scheme(scheme, lat),
            observables=observables,
            closed_form=delta_closed_form,
        )


def stage_expectations(system: ProtocolSystem, locc: LoccChoice, op: PauliPolynomial) -> tuple[float, float]:
    """(sum_k <M_k op M_k>, sum_k <M_k U_k^dag op U_k M_k>): op after the
    measurement, and after the conditioned rotation."""
    expect = system.backend.expect
    measured = rotated = 0.0
    for k in OUTCOMES:
        m = system.m_ops[k]
        measured += expect(m.mul(op).mul(m)).real
        u = locc_unitary(outcome_params(locc, k), k, system.target, system.n_qubits)
        staged = u.mul(m)
        rotated += expect(staged.adjoint().mul(op).mul(staged)).real
    return measured, rotated


def post_measurement_profile(system: ProtocolSystem) -> dict[str, float]:
    """sum_k <M_k O M_k> for every labelled observable O of the system."""
    expect = system.backend.expect
    return {
        label: sum(expect(m.mul(op).mul(m)).real for m in system.m_ops.values())
        for label, op in system.observables.items()
    }


def direct_energy(system: ProtocolSystem, locc: LoccChoice, include_profile: bool = True) -> EnergyReport:
    """Full direct evaluation of the protocol for one parameter choice.

    Both energies are computed as explicit operator sandwiches; no reduced
    formula is used, so this is the reference path the optimizer's fast
    path is tested against.  A per-outcome `locc` is reported through its
    outcome +1 parameters.
    """
    raw_a, raw_b = stage_expectations(system, locc, system.hamiltonian)
    p_plus, p_minus = (system.backend.expect(system.m_ops[k]).real for k in OUTCOMES)
    e_a = raw_a - system.ground_energy
    e_b = raw_b - system.ground_energy
    shown = outcome_params(locc, 1)
    return EnergyReport(
        scheme=system.scheme,
        backend=system.backend.name,
        theta=shown.theta,
        axis=shown.axis,
        p_plus=p_plus,
        p_minus=p_minus,
        e_a=e_a,
        e_b=e_b,
        delta=e_b - e_a,
        closed_form=None if system.closed_form is None else system.closed_form(shown),
        ground_energy=system.ground_energy,
        stabilizer_expectations=post_measurement_profile(system) if include_profile else {},
    )


# -- toric shorthands: build the system, call the core -------------------------
# The CLI calls the core directly; these stay while the traced benchmark
# (perfbench/spans.py) wraps them by name.

# theta = 0 makes U_k the identity; used where only the measured stage is read.
NO_ROTATION = LoccParams(0.0, (0.0, 0.0, 1.0))


def outcome_probabilities(scheme: MeasurementScheme, lat: ToricLattice, backend=None) -> tuple[float, float]:
    """(p_plus, p_minus), each measured as <M_k>."""
    return energy_injected(scheme, lat, backend)[1:]


def energy_injected(scheme: MeasurementScheme, lat: ToricLattice, backend=None):
    """(E_A relative to ground, p_plus, p_minus) after the measurement."""
    rep = direct_energy(ProtocolSystem.from_toric(lat, scheme, backend), NO_ROTATION, include_profile=False)
    return rep.e_a, rep.p_plus, rep.p_minus


def excitation_profile(scheme: MeasurementScheme, lat: ToricLattice, backend=None) -> dict[str, float]:
    """Post-measurement expectation of every star and plaquette operator."""
    return post_measurement_profile(ProtocolSystem.from_toric(lat, scheme, backend))


def energy_after_locc(
    scheme: MeasurementScheme,
    params: LoccParams,
    lat: ToricLattice,
    backend=None,
    include_profile: bool = True,
) -> EnergyReport:
    """direct_energy for one toric parameter point."""
    return direct_energy(ProtocolSystem.from_toric(lat, scheme, backend), params, include_profile)


def describe_scheme(scheme: MeasurementScheme, lat: ToricLattice) -> str:
    if scheme.edges == frozenset(lat.region_a_edges):
        return f"x-string on all {len(scheme.edges)} edges of region A (L={lat.L})"
    return f"x-string on {len(scheme.edges)} edges (L={lat.L})"


# -- structural checks ---------------------------------------------------------


@dataclass(frozen=True)
class Check:
    label: str
    passed: bool
    value: float
    contrast: bool = False  # value is expected to be LARGE, not a residual

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict} {self.label} (residual {self.value:.3e})"


@dataclass(frozen=True)
class CheckReport:
    name: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _zero_tol(backend) -> float:
    return 0.0 if backend.exact else MATCH_TOL


def verify_plaquette_collapse(system: ProtocolSystem, lat: ToricLattice, scheme: MeasurementScheme) -> CheckReport:
    """Sandwiching a plaquette between the Kraus projectors either kills it
    (odd shared support with the measured string) or passes it through
    (even shared support).  Checked as exact polynomial identities and as
    backend expectations, for every plaquette and both outcomes.  `scheme`
    is the measurement the system was built from; its edges predict the
    case."""
    backend = system.backend
    checks = []
    support = scheme.edges
    for idx, (edges, plaquette) in enumerate(zip(lat.plaquette_edges, lat.plaquettes())):
        overlap_odd = len(support & set(edges)) % 2 == 1
        b_poly = PauliPolynomial.from_string(plaquette)
        r, c = divmod(idx, lat.L)
        for k, m in system.m_ops.items():
            left = m.mul(b_poly)
            sandwich = left.mul(m)
            if overlap_odd:
                resid = sandwich.max_abs_coeff()
                label = f"plaquette({r},{c}) k={k:+d} collapses"
            else:
                resid = sandwich.sub(left).max_abs_coeff()
                label = f"plaquette({r},{c}) k={k:+d} passes through"
            checks.append(Check(label, resid <= IDENTITY_TOL, resid))
            want = 0.0 if overlap_odd else backend.expect(left).real
            got = backend.expect(sandwich).real
            resid_e = abs(got - want)
            checks.append(
                Check(f"plaquette({r},{c}) k={k:+d} expectation", resid_e <= _zero_tol(backend), resid_e)
            )
    return CheckReport("plaquette collapse rule", tuple(checks))


def verify_local_expectations(system: ProtocolSystem, lat: ToricLattice) -> CheckReport:
    """Every single-qubit Pauli has zero ground-state expectation; the
    stabilizer terms themselves have expectation one (contrast row)."""
    backend = system.backend
    tol = _zero_tol(backend)
    checks = []
    worst = 0.0
    for qubit in range(lat.n_qubits):
        for axis in AXIS_NAMES:
            val = abs(backend.expect(sigma_poly(lat.n_qubits, qubit, axis)))
            worst = max(worst, val)
    checks.append(
        Check(f"all {3 * lat.n_qubits} single-site expectations vanish", worst <= tol, worst)
    )
    contrast = backend.expect(PauliPolynomial.from_string(lat.stars()[0])).real
    checks.append(Check("contrast: star expectation is one", abs(contrast - 1.0) <= tol, abs(contrast - 1.0)))
    return CheckReport("bare local operators average to zero", tuple(checks))


def _adjacent_sum(n_qubits: int, ops: Sequence[PauliString], touching: Sequence[int]) -> PauliPolynomial:
    """Sum of the stabilizers ops[i] for i in touching."""
    acc = PauliPolynomial.zero(n_qubits)
    for idx in touching:
        acc = acc + PauliPolynomial.from_string(ops[idx])
    return acc


def verify_cross_terms(system: ProtocolSystem, lat: ToricLattice) -> CheckReport:
    """The mixed products sigma^i sigma^j (adjacent-star sum), sandwiched
    between the projectors, have zero ground-state expectation for the
    pairs that appear in the energy difference; the (y,y) pair is kept as
    a nonzero contrast so the zeros are not vacuous."""
    backend = system.backend
    tol = _zero_tol(backend)
    n = lat.n_qubits
    star_sum = _adjacent_sum(n, lat.stars(), lat.stars_touching(lat.bob_qubit))
    checks = []
    for i, j in (("z", "x"), ("x", "y")):
        pair = sigma_poly(n, lat.bob_qubit, i).mul(sigma_poly(n, lat.bob_qubit, j))
        for k, m in system.m_ops.items():
            val = abs(backend.expect(m.mul(pair).mul(star_sum).mul(m)))
            checks.append(Check(f"({i},{j}) k={k:+d} cross term vanishes", val <= tol, val))
    contrast = 0.0
    pair_yy = sigma_poly(n, lat.bob_qubit, "y").mul(sigma_poly(n, lat.bob_qubit, "y"))
    for m in system.m_ops.values():
        contrast += backend.expect(m.mul(pair_yy).mul(star_sum).mul(m)).real
    checks.append(Check("contrast: (y,y) term is nonzero", abs(contrast) > 0.5, abs(contrast), contrast=True))
    return CheckReport("rotation cross terms vanish", tuple(checks))


def target_commutator(system: ProtocolSystem, axis: Sequence[float]) -> PauliPolynomial:
    """[H, n.sigma] at the target qubit, computed from the full Hamiltonian."""
    return system.hamiltonian.commutator(axis_operator(system.n_qubits, system.target, axis))


def verify_derivation_chain(system: ProtocolSystem, lat: ToricLattice, params: LoccParams) -> CheckReport:
    """Step-by-step checks of the algebra behind the closed form.

    (a) conjugating H by the rotation splits into the measured energy plus
        a single commutator correction (exact polynomial identity);
    (b) that commutator reduces to the adjacent stars/plaquettes with the
        stated -2 coefficients (exact polynomial identity);
    (c) the term linear in the rotation angle has zero expectation;
    (d) the remaining quadratic term reproduces the directly computed
        energy difference;
    (e) and equals the closed form 4 sin^2(theta) (ny^2 + nz^2).
    """
    backend = system.backend
    n = lat.n_qubits
    bob = lat.bob_qubit
    ham = system.hamiltonian
    nx, ny, nz = params.axis
    s = math.sin(params.theta)
    rot_axis = axis_operator(n, bob, params.axis)
    comm = target_commutator(system, params.axis)
    checks = []

    # (a) M U' H U M = M H M + i k sin(theta) M U' [H, n.sigma] M, per outcome.
    worst = 0.0
    for k, m in system.m_ops.items():
        u = locc_unitary(params, k, bob, n)
        lhs = m.mul(u.adjoint()).mul(ham).mul(u).mul(m)
        rhs = m.mul(ham).mul(m) + m.mul(u.adjoint()).mul(comm).mul(m).scale(1j * k * s)
        worst = max(worst, lhs.sub(rhs).max_abs_coeff())
    checks.append(Check("conjugation splits into commutator correction", worst <= IDENTITY_TOL, worst))

    # (b) [H, n.sigma] = -2 nx B sx - 2 ny (A+B) sy - 2 nz A sz at the target.
    star_sum = _adjacent_sum(n, lat.stars(), lat.stars_touching(bob))
    plaq_sum = _adjacent_sum(n, lat.plaquettes(), lat.plaquettes_touching(bob))
    expected = (
        plaq_sum.mul(sigma_poly(n, bob, "x")).scale(-2.0 * nx)
        + (star_sum + plaq_sum).mul(sigma_poly(n, bob, "y")).scale(-2.0 * ny)
        + star_sum.mul(sigma_poly(n, bob, "z")).scale(-2.0 * nz)
    )
    resid_b = comm.sub(expected).max_abs_coeff()
    checks.append(Check("commutator reduces to adjacent stabilizers", resid_b <= IDENTITY_TOL, resid_b))

    # (c) sum_k i k (sin 2 theta / 2) <M [H, n.sigma] M> = 0.
    linear = 0.0 + 0.0j
    for k, m in system.m_ops.items():
        linear += 1j * k * (math.sin(2 * params.theta) / 2.0) * backend.expect(m.mul(comm).mul(m))
    checks.append(Check("linear rotation term vanishes", abs(linear) <= MATCH_TOL, abs(linear)))

    # (d) sin^2(theta) sum_k <M n.sigma [H, n.sigma] M> equals the direct delta.
    quad = 0.0
    for m in system.m_ops.values():
        quad += (s * s) * backend.expect(m.mul(rot_axis).mul(comm).mul(m)).real
    report = direct_energy(system, params, include_profile=False)
    resid_d = abs(quad - report.delta)
    checks.append(Check("quadratic term equals direct delta", resid_d <= MATCH_TOL, resid_d))

    # (e) and both equal the closed form.
    resid_e = abs(quad - delta_closed_form(params))
    checks.append(Check("delta equals closed form", resid_e <= MATCH_TOL, resid_e))

    return CheckReport("derivation chain", tuple(checks))
