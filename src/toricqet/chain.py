"""Positive control: a transverse-field Ising chain where extraction works.

The toric-code result is a null; this module proves the same measurement,
feedback, and optimizer machinery reports delta < 0 on a system whose
ground state actually supports it.  Open chain of N qubits,

    H = -J sum_i sigma^z_i sigma^z_{i+1} - h sum_i sigma^x_i,

ground state from dense diagonalization.  Default protocol: sigma^x
measurement on site_A, conditioned rotation on site_B, with independent
per-outcome parameters (the most general single-step strategy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .optimize import GridSpec, OptimizeResult, optimize_system
from .pauli import PauliPolynomial, PauliString
from .protocol import (
    LoccChoice,
    ProtocolSystem,
    StatevectorBackend,
    direct_energy,
    post_measurement_profile,
    stage_expectations,
)
from .reports import EnergyReport
from . import statevector as sv

MIN_SITES = 2
MAX_SITES = 6
# Eigensolver residual bound per unit of max(1, |J|, |h|): the residual of a
# backward-stable eigh grows with the norm of the matrix.
RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class ChainModel:
    n_qubits: int
    coupling: float
    field: float
    site_a: int
    site_b: int
    hamiltonian: PauliPolynomial
    ground: sv.StateVector
    ground_energy: float

    def label(self) -> str:
        return (
            f"chain(N={self.n_qubits},J={self.coupling:g},h={self.field:g},"
            f"A={self.site_a},B={self.site_b})"
        )


def chain_hamiltonian(n: int, coupling: float, field: float) -> PauliPolynomial:
    terms = []
    for i in range(n - 1):
        terms.append((PauliString.from_support(n, [i, i + 1], "z"), -coupling))
    for i in range(n):
        terms.append((PauliString.single(n, i, "x"), -field))
    return PauliPolynomial.from_strings(n, terms)


def build_chain(
    n: int,
    coupling: float = 1.0,
    field: float = 1.0,
    site_a: int = 0,
    site_b: Optional[int] = None,
) -> ChainModel:
    if not MIN_SITES <= n <= MAX_SITES:
        raise ValueError(f"chain size must be in [{MIN_SITES}, {MAX_SITES}], got {n}")
    if site_b is None:
        site_b = n - 1
    if not (0 <= site_a < n and 0 <= site_b < n):
        raise ValueError("sites out of range")
    if site_a == site_b:
        raise ValueError("measured and rotated sites must differ")
    for name, value in (("coupling", coupling), ("field", field)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    ham = chain_hamiltonian(n, coupling, field)
    # An overflow leaves a non-finite residual, which the bound rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        mat = sv.poly_to_dense(ham)
        evals, evecs = np.linalg.eigh(mat)
        ground = sv.StateVector(n, np.ascontiguousarray(evecs[:, 0]))
        residual = float(np.linalg.norm(mat @ ground.amplitudes - evals[0] * ground.amplitudes))
    bound = RESIDUAL_TOL * max(1.0, abs(coupling), abs(field))
    if not residual <= bound:
        raise ValueError(f"eigensolver residual {residual:.3e} exceeds {bound:.3e}")
    return ChainModel(
        n_qubits=n,
        coupling=float(coupling),
        field=float(field),
        site_a=site_a,
        site_b=site_b,
        hamiltonian=ham,
        ground=ground,
        ground_energy=float(evals[0]),
    )


def measurement_projectors(model: ChainModel, axis: str = "x") -> dict[int, PauliPolynomial]:
    """Kraus projectors (I +- sigma^axis_siteA) / 2."""
    half = PauliPolynomial.from_string(PauliString.single(model.n_qubits, model.site_a, axis), 0.5)
    ident = PauliPolynomial.identity(model.n_qubits, 0.5)
    return {1: ident + half, -1: ident - half}


def protocol_system(model: ChainModel, axis: str = "x") -> ProtocolSystem:
    """The chain protocol: sigma^axis on site_a measured, site_b rotated.

    The profile observables are the bare Hamiltonian term operators; the
    chain has no closed form for delta.
    """
    n = model.n_qubits
    observables = {
        f"zz({i},{i + 1})": PauliPolynomial.from_string(PauliString.from_support(n, [i, i + 1], "z"))
        for i in range(n - 1)
    }
    for i in range(n):
        observables[f"x({i})"] = PauliPolynomial.from_string(PauliString.single(n, i, "x"))
    return ProtocolSystem(
        n_qubits=n,
        hamiltonian=model.hamiltonian,
        ground_energy=model.ground_energy,
        target=model.site_b,
        backend=StatevectorBackend(model.ground),
        m_ops=measurement_projectors(model, axis),
        scheme=f"sigma^{axis} measurement on site {model.site_a} of {model.label()}",
        observables=observables,
    )


def qet_run(model: ChainModel, locc: LoccChoice, axis: str = "x") -> EnergyReport:
    return direct_energy(protocol_system(model, axis), locc)


def post_measurement_terms(model: ChainModel, axis: str = "x") -> dict[str, float]:
    """Post-measurement expectation of each bare Hamiltonian term operator."""
    return post_measurement_profile(protocol_system(model, axis))


def term_energy_changes(model: ChainModel, locc: LoccChoice, axis: str = "x") -> dict[str, float]:
    """Per-term energy change between the measured and rotated ensembles.

    The rotation is local, so only terms touching site_b may change; the
    dictionary makes that bookkeeping testable.
    """
    system = protocol_system(model, axis)
    changes: dict[str, float] = {}
    for string, coeff in model.hamiltonian.strings():
        before, after = stage_expectations(system, locc, PauliPolynomial.from_string(string, coeff))
        support = string.x_bits | string.z_bits
        label = f"term(x={string.x_bits:#x},z={string.z_bits:#x})"
        changes[label] = after - before
        changes[label + ":touches_b"] = float(bool(support >> model.site_b & 1))
    return changes


def optimize_control(
    model: ChainModel,
    grid: Optional[GridSpec] = None,
    axis: str = "x",
    independent: bool = True,
) -> OptimizeResult:
    """Search for extraction on the chain; independent per-outcome
    parameters by default, the strongest single-round strategy."""
    return optimize_system(protocol_system(model, axis), grid, independent=independent)
