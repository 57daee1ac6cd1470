"""Measurement-plus-feedback protocol energies, for the torus and the chain.

The protocol: measure an observable on region A (projective, outcomes
k = +-1 with Kraus projectors M_k), classically communicate k, then rotate
the single target qubit by U_k = cos(theta) I + i k sin(theta) n.sigma.
Post-measurement quantities use the unnormalized Kraus convention

    E_A = sum_k <xi| M_k H M_k |xi>,
    E_B = sum_k <xi| M_k U_k^dag H U_k M_k |xi>,

i.e. ensemble averages over outcomes, reported relative to the ground
energy.  A ProtocolSystem bundles one model's Hamiltonian, measured string,
ground-state backend and measured stage (p_k, h_k, E_A, each computed once);
direct_energy adds the rotation with exact Pauli-polynomial algebra, so the
toric code on either engine and the chain run the identical code path.
Two local facts keep that algebra small: M_k = (I + kS)/2 sandwiches a
polynomial in one pass over its terms, and U_k acts on the target alone
(E_B - E_A = sum_k <M_k (U_k^dag H_t U_k - H_t) M_k>, H_t the terms there).
Every <M_k P M_k>, both outcomes from one table, comes from
`KrausSandwiches` (kraus.py), which ProtocolSystem extends; so do the
profile's rows.  The response reads the nine sigma^i H sigma^j from H's own
slots (`hamiltonian_sandwiches`), with H among the unshifted columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .kraus import OUTCOMES, KrausSandwiches
from .lattice import MeasurementScheme, ToricLattice
from .pauli import PauliPolynomial, PauliString, TermRow, nan_max
from .reports import Check, CheckReport, EnergyReport
from .stabilizer import StabilizerGroup
from . import statevector as sv

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
        if not math.isfinite(self.theta):
            raise ValueError(f"theta {self.theta!r} is not finite")
        norm = math.sqrt(sum(c * c for c in self.axis))
        # not <=, so that a NaN norm fails too
        if not abs(norm - 1.0) <= AXIS_TOL:
            raise ValueError(f"axis norm {norm!r} is not 1")
        object.__setattr__(self, "axis", tuple(float(c) for c in self.axis))

    @classmethod
    def from_direction(cls, theta: float, direction: Sequence[float]) -> "LoccParams":
        norm = math.sqrt(sum(c * c for c in direction))
        if norm in (0.0, math.inf):
            # the squares under- or overflowed: divide by the largest component first
            scale = max(map(abs, direction))
            if 0.0 < scale < math.inf:
                direction = [c / scale for c in direction]
                norm = math.sqrt(sum(c * c for c in direction))
        if not 0.0 < norm < math.inf:
            raise ValueError("axis direction must be nonzero and finite")
        return cls(float(theta), tuple(c / norm for c in direction))


LoccChoice = Union[LoccParams, Mapping[int, LoccParams]]


def outcome_params(locc: LoccChoice, k: int) -> LoccParams:
    """The parameters applied after outcome k: shared, or picked per outcome."""
    return locc[k] if isinstance(locc, Mapping) else locc


# -- ground-state backends ---------------------------------------------------
# A backend is anything with .name, .exact, .expect(poly) -> complex and
# .expect_columns(rows, width) -> list[complex], the engine's one query kernel
# (expect is its one-column case).


class StabilizerBackend:
    """Exact toric-code expectations from syndromes and loop signs; any lattice size."""

    name = "stabilizer"
    exact = True

    def __init__(self, group: StabilizerGroup):
        self.group = group

    def expect(self, poly: PauliPolynomial) -> complex:
        return self.group.poly_expectation(poly)

    def expect_columns(self, rows: Iterable[TermRow], width: int) -> list[complex]:
        return self.group.column_expectations(rows, width)


class StatevectorBackend:
    """Brute-force oracle expectations over any model's ground state; small systems only."""

    name = "statevector"
    exact = False

    def __init__(self, state: sv.StateVector):
        self.state = state

    def expect(self, poly: PauliPolynomial) -> complex:
        return sv.poly_expectation(poly, self.state)

    def expect_columns(self, rows: Iterable[TermRow], width: int) -> list[complex]:
        return sv.column_expectations(rows, width, self.state)


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
class ProtocolSystem(KrausSandwiches):
    """One model's protocol, independent of which model produced it.

    Read by both the direct evaluator and the optimizer's response surface,
    which share its measured stage: `probabilities`, `measured_energies` and
    `injected_energy`.  `measured` is the string S whose outcome k gives the
    Kraus projector M_k = (I + kS)/2; it must not touch the target.
    `term_labels` names the terms of `hamiltonian` in key order, for the profile;
    `closed_form` maps parameters to the model's predicted delta, where one
    is known.  On the torus that is 4 sin^2(theta) (ny^2 + nz^2), derived
    for an X-string that anticommutes with every plaquette at the target:
    each of them collapses, and only the two adjacent stars contribute.
    """

    n_qubits: int
    hamiltonian: PauliPolynomial
    ground_energy: float
    target: int
    backend: object
    measured: PauliString
    scheme: str
    term_labels: tuple[str, ...]
    closed_form: Optional[Callable[[LoccParams], float]] = None

    @classmethod
    def from_toric(cls, lat: ToricLattice, scheme: MeasurementScheme, backend=None) -> "ProtocolSystem":
        measured = scheme.operator()
        collapses = all(
            not measured.commutes(lat.plaquette(*divmod(i, lat.L))) for i in lat.plaquettes_touching(lat.bob_qubit)
        )
        return cls(
            n_qubits=lat.n_qubits,
            hamiltonian=lat.hamiltonian(),
            ground_energy=lat.ground_energy(),
            target=lat.bob_qubit,
            backend=backend or StabilizerBackend(lat.ground_group()),
            measured=measured,
            scheme=describe_scheme(scheme, lat),
            term_labels=tuple(f"{kind}({r},{c})" for kind in ("star", "plaquette")
                              for r in range(lat.L) for c in range(lat.L)),
            closed_form=delta_closed_form if collapses else None,
        )

    def hamiltonian_sandwiches(
        self, diagonal: Sequence[Iterable[complex]],
        shifted: Iterable[tuple[tuple[int, int], Sequence[Iterable[complex]]]],
    ) -> list[list[complex]]:
        """<M_k P M_k> for operators P on H's terms: the `sandwiches` values of
        the unshifted columns `diagonal`, then those of each pass in `shifted`.

        H itself joins `diagonal` as its first column; its values are the
        measured energies, so a response that reads H's keys queries each
        of them once, not once more for `measured_energies`.  Returns the
        values without H's.
        """
        ham = self.hamiltonian.terms
        first, *rest = self.sandwiches(ham, [((0, 0), (ham.values(), *diagonal)), *shifted])
        # the value measured_energies would compute: the same column, summed in the same order
        self.__dict__.setdefault("measured_energies", {k: v.real for k, v in zip(OUTCOMES, first)})
        return [first[len(OUTCOMES):], *rest]

    @cached_property
    def measured_energies(self) -> dict[int, float]:
        """h_k = <G_k>, G_k = M_k H M_k, by outcome; their sum is the energy
        after the measurement.  Only the energies are kept: holding both G_k
        for the system's life raises the peak memory of a large-torus scan."""
        return {k: h.real for k, h in self.sandwich_expectations(self.hamiltonian).items()}

    @property
    def injected_energy(self) -> float:
        """E_A = sum_k h_k - E_0, the energy the measurement injects."""
        return sum(self.measured_energies.values()) - self.ground_energy

    @cached_property
    def probabilities(self) -> dict[int, float]:
        """p_k = <M_k>, by outcome."""
        return {k: self.backend.expect(self.m_ops[k]).real for k in OUTCOMES}

    @cached_property
    def target_hamiltonian(self) -> PauliPolynomial:
        """H_t: the Hamiltonian terms that touch the target, the only ones U_k changes."""
        bit = 1 << self.target
        return PauliPolynomial(
            self.n_qubits, {key: c for key, c in self.hamiltonian.terms.items() if (key[0] | key[1]) & bit}
        )


def post_measurement_profile(system: ProtocolSystem) -> dict[str, float]:
    """sum_k <M_k O M_k> per labelled Hamiltonian term O, the bare term
    (`bare_term_expectations`); unmatched labels raise ValueError."""
    return dict(zip(system.term_labels, system.bare_term_expectations(system.hamiltonian.terms), strict=True))


def energy_change(system: ProtocolSystem, changes: Mapping[int, PauliPolynomial]) -> float:
    """delta = sum_k <M_k D_k M_k>, D_k = U_k^dag H_t U_k - H_t the change outcome k makes to the target's terms."""
    return sum(system.sandwich_expectations(changes[k])[k].real for k in OUTCOMES)


def direct_energy(system: ProtocolSystem, locc: LoccChoice) -> EnergyReport:
    """Full direct evaluation of the protocol for one parameter choice.

    E_A and p_k are the system's cached measured stage (`injected_energy`,
    `probabilities`), delta = E_B - E_A is `energy_change`.  No reduced formula
    (commutator, response tensor or closed form) is used, so this is the
    reference path the optimizer's fast path is tested against.  A per-outcome
    `locc` is reported through its outcome +1 parameters.  The report's profile
    is empty; a JSON report attaches post_measurement_profile(system).
    """
    ham_t = system.target_hamiltonian
    unitaries = {k: locc_unitary(outcome_params(locc, k), k, system.target, system.n_qubits) for k in OUTCOMES}
    delta = energy_change(system, {k: u.adjoint().mul(ham_t).mul(u).sub(ham_t) for k, u in unitaries.items()})
    p = system.probabilities
    e_a = system.injected_energy
    shown = outcome_params(locc, 1)
    return EnergyReport(
        scheme=system.scheme,
        backend=system.backend.name,
        theta=shown.theta,
        axis=shown.axis,
        p_plus=p[1],
        p_minus=p[-1],
        e_a=e_a,
        e_b=e_a + delta,
        delta=delta,
        closed_form=None if system.closed_form is None else system.closed_form(shown),
        ground_energy=system.ground_energy,
    )


# -- toric shorthands: build the system, call the core -------------------------
# The CLI calls the core directly; these stay while the traced benchmark
# (perfbench/spans.py) wraps them by name.

def outcome_probabilities(scheme: MeasurementScheme, lat: ToricLattice, backend=None) -> tuple[float, float]:
    """(p_plus, p_minus), each measured as <M_k>."""
    p = ProtocolSystem.from_toric(lat, scheme, backend).probabilities
    return p[1], p[-1]


def energy_injected(scheme: MeasurementScheme, lat: ToricLattice, backend=None):
    """(E_A relative to ground, p_plus, p_minus) after the measurement."""
    system = ProtocolSystem.from_toric(lat, scheme, backend)
    return system.injected_energy, system.probabilities[1], system.probabilities[-1]


def excitation_profile(scheme: MeasurementScheme, lat: ToricLattice, backend=None) -> dict[str, float]:
    """Post-measurement expectation of every star and plaquette operator."""
    return post_measurement_profile(ProtocolSystem.from_toric(lat, scheme, backend))


def energy_after_locc(scheme: MeasurementScheme, params: LoccParams, lat: ToricLattice, backend=None) -> EnergyReport:
    """direct_energy for one toric parameter point."""
    return direct_energy(ProtocolSystem.from_toric(lat, scheme, backend), params)


def describe_scheme(scheme: MeasurementScheme, lat: ToricLattice) -> str:
    if scheme.edges == frozenset(lat.region_a_edges):
        return f"x-string on all {len(scheme.edges)} edges of region A (L={lat.L})"
    return f"x-string on {len(scheme.edges)} edges (L={lat.L})"


# -- structural checks ---------------------------------------------------------


def _zero_tol(backend) -> float:
    return 0.0 if backend.exact else MATCH_TOL


def verify_plaquette_collapse(system: ProtocolSystem, lat: ToricLattice) -> CheckReport:
    """Sandwiching a plaquette B between the Kraus projectors either kills
    it (it anticommutes with the measured string: M_k B M_k has no term) or
    passes it through (it commutes: M_k B M_k equals M_k B term for term).
    One exact identity per plaquette and outcome (a product keeps no
    coefficient below PRUNE_TOL); no engine is read, as both sides are
    operators.  A row's value is the largest unpruned coefficient difference
    over the keys of the two sides."""
    checks = []
    for idx, plaquette in enumerate(lat.plaquettes()):
        collapses = not system.measured.commutes(plaquette)
        b_poly = PauliPolynomial.from_string(plaquette)
        r, c = divmod(idx, lat.L)
        for k, m in system.m_ops.items():
            left = m.mul(b_poly)
            got = left.mul(m).terms
            want = {} if collapses else left.terms
            resid = max((abs(got.get(a, 0.0) - want.get(a, 0.0)) for a in got.keys() | want.keys()), default=0.0)
            label = f"plaquette({r},{c}) k={k:+d} {'collapses' if collapses else 'passes through'}"
            checks.append(Check(label, got == want, resid))
    return CheckReport("plaquette collapse rule", tuple(checks))


def verify_local_expectations(system: ProtocolSystem, lat: ToricLattice) -> CheckReport:
    """Every single-qubit Pauli has zero ground-state expectation; the
    stabilizer terms themselves have expectation one (contrast row).  One
    expect_columns call reads the three Paulis of a qubit."""
    backend = system.backend
    tol = _zero_tol(backend)
    checks = []
    worst = 0.0
    for qubit in range(lat.n_qubits):
        bit = 1 << qubit
        # sigma_poly's X, Y and Z on the qubit, as three one-term columns
        rows = (((bit, 0), (1 + 0j, None, None)), ((bit, bit), (None, 1j, None)), ((0, bit), (None, None, 1 + 0j)))
        for value in backend.expect_columns(rows, 3):
            worst = max(worst, abs(value))
    checks.append(
        Check(f"all {3 * lat.n_qubits} single-site expectations vanish", worst <= tol, worst)
    )
    contrast = backend.expect(PauliPolynomial.from_string(lat.star(0, 0))).real
    checks.append(Check("contrast: star expectation is one", abs(contrast - 1.0) <= tol, abs(contrast - 1.0)))
    return CheckReport("bare local operators average to zero", tuple(checks))


def cross_term_operators(lat: ToricLattice) -> dict[tuple[str, str], PauliPolynomial]:
    """LEMMA3's operators sigma^i sigma^j A at the target, A the adjacent-star sum; no engine is read."""
    n, bob = lat.n_qubits, lat.bob_qubit
    star_sum, _ = lat.adjacent_sums(bob)
    return {(i, j): sigma_poly(n, bob, i).mul(sigma_poly(n, bob, j)).mul(star_sum) for i, j in ("zx", "xy", "yy")}


def verify_cross_terms(system: ProtocolSystem, operators: Mapping[tuple[str, str], PauliPolynomial]) -> CheckReport:
    """The products of `cross_term_operators` between the projectors have zero
    ground-state expectation for the pairs in the energy difference; the (y,y)
    pair is kept as a nonzero contrast so the zeros are not vacuous."""
    tol = _zero_tol(system.backend)
    checks = []
    for (i, j), op in operators.items():
        values = system.sandwich_expectations(op)
        if i == j:
            contrast = abs(sum(v.real for v in values.values()))
            checks.append(Check(f"contrast: ({i},{j}) term is nonzero", contrast > 0.5, contrast, contrast=True))
        else:
            for k, value in values.items():
                checks.append(Check(f"({i},{j}) k={k:+d} cross term vanishes", abs(value) <= tol, abs(value)))
    return CheckReport("rotation cross terms vanish", tuple(checks))


def target_commutator(system: ProtocolSystem, axis: Sequence[float]) -> PauliPolynomial:
    """[H, n.sigma] at the target qubit, computed from the target's terms H_t:
    every other term commutes with n.sigma there."""
    return system.target_hamiltonian.commutator(axis_operator(system.n_qubits, system.target, axis))


@dataclass(frozen=True)
class DerivationDraw:
    """One draw of `derivation_draws`: the rows of (a) and (b), and what (c) and (d) sandwich."""

    params: LoccParams
    identities: tuple[Check, Check]
    commutator: PauliPolynomial  # [H_t, n.sigma]
    quadratic: PauliPolynomial  # n.sigma [H_t, n.sigma]
    changes: dict[int, PauliPolynomial]  # energy_change's D_k


def derivation_draws(system: ProtocolSystem, lat: ToricLattice, draws: Iterable[LoccParams]) -> list[DerivationDraw]:
    """The derivation chain's algebra, which reads no engine: one build serves
    every engine's `verify_derivation_chain`.  (a) Conjugating H by the rotation
    splits into the measured energy plus one commutator correction, an exact
    identity checked on the target's terms H_t with U^dag U = I (U acts on the
    target alone, so the two imply it for H); (b) that commutator reduces to the
    adjacent stars and plaquettes with the stated -2 coefficients, exactly.
    M_k H_t M_k and (b)'s adjacent products are built once for all draws."""
    n, bob = lat.n_qubits, lat.bob_qubit
    ham_t = system.target_hamiltonian
    measured = {k: m.mul(ham_t).mul(m) for k, m in system.m_ops.items()}
    star_sum, plaq_sum = lat.adjacent_sums(bob)
    adjacent = [p.mul(sigma_poly(n, bob, a)) for p, a in zip((plaq_sum, star_sum + plaq_sum, star_sum), AXIS_NAMES)]
    out = []
    for params in draws:
        comm = target_commutator(system, params.axis)
        # (a) M U' H U M = M H M + i k sin(theta) M U' [H, n.sigma] M, per outcome.
        worst, changes = 0.0, {}
        for k, m in system.m_ops.items():
            u = locc_unitary(params, k, bob, n)
            u_dag = u.adjoint()
            rotated = u_dag.mul(ham_t).mul(u)
            changes[k] = rotated.sub(ham_t)
            rhs = measured[k] + m.mul(u_dag.mul(comm)).mul(m).scale(1j * k * math.sin(params.theta))
            worst = nan_max((worst, m.mul(rotated).mul(m).sub(rhs).max_abs_coeff(),
                             u_dag.mul(u).sub(PauliPolynomial.identity(n)).max_abs_coeff()))
        # (b) [H, n.sigma] = -2 nx B sx - 2 ny (A+B) sy - 2 nz A sz at the target.
        (nx, ny, nz), (b_x, b_y, b_z) = params.axis, adjacent
        resid_b = comm.sub(b_x.scale(-2.0 * nx) + b_y.scale(-2.0 * ny) + b_z.scale(-2.0 * nz)).max_abs_coeff()
        identities = (Check("conjugation splits into commutator correction", worst <= IDENTITY_TOL, worst),
                      Check("commutator reduces to adjacent stabilizers", resid_b <= IDENTITY_TOL, resid_b))
        out.append(DerivationDraw(params, identities, comm, axis_operator(n, bob, params.axis).mul(comm), changes))
    return out


def verify_derivation_chain(system: ProtocolSystem, draw: DerivationDraw) -> CheckReport:
    """The closed form's derivation on `system`'s engine: `derivation_draws`'
    identities (a) and (b); (c) the term linear in the rotation angle has zero
    expectation; (d) the quadratic term reproduces the direct energy difference,
    (e) and equals the system's closed form, where it has one."""
    params = draw.params
    s = math.sin(params.theta)
    checks = list(draw.identities)

    # (c) sum_k i k (sin 2 theta / 2) <M [H, n.sigma] M> = 0.
    linear = 0.0 + 0.0j
    for k, value in system.sandwich_expectations(draw.commutator).items():
        linear += 1j * k * (math.sin(2 * params.theta) / 2.0) * value
    checks.append(Check("linear rotation term vanishes", abs(linear) <= MATCH_TOL, abs(linear)))

    # (d) sin^2(theta) sum_k <M n.sigma [H, n.sigma] M> equals the direct delta.
    quad = 0.0
    for value in system.sandwich_expectations(draw.quadratic).values():
        quad += (s * s) * value.real
    resid_d = abs(quad - energy_change(system, draw.changes))
    checks.append(Check("quadratic term equals direct delta", resid_d <= MATCH_TOL, resid_d))

    # (e) and both equal the closed form.
    if system.closed_form is not None:
        resid_e = abs(quad - system.closed_form(params))
        checks.append(Check("delta equals closed form", resid_e <= MATCH_TOL, resid_e))

    return CheckReport("derivation chain", tuple(checks))
