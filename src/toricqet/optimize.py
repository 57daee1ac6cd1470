"""Exact minimum over every rotation, and the grid sweep behind the CSV.

Because the conditioned unitary is linear in (cos theta, sin theta), the
final energy is an exact quadratic form in that pair.  For each
outcome k the response precomputes

    h_k      = <M_k H M_k>
    C_k[i]   = <M_k [H, sigma^i] M_k>          (i = x, y, z)
    W_k[i,j] = <M_k sigma^i H sigma^j M_k>

after which, with the unit 4-vector w = (cos theta, sin theta n),

    delta_k = w^T K_k w,   K_k = [[0, r_k^T / 2], [r_k / 2, sym(Re W_k) - h_k I]],
    r_k = k Re(i C_k).

w covers the unit 3-sphere, so the minimum over all (theta, n) is
lambda_min(sum_k K_k) for one shared rotation and sum_k lambda_min(K_k) for
independent per-outcome rotations; the eigenvector is the witness.  The
grid sweep evaluates the same surface at O(1) per point for the CSV table
and cross-checks the minimum.  The identity of the quadratic form with the
direct operator sandwich is part of the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .lattice import MeasurementScheme, ToricLattice
from .protocol import AXIS_NAMES, OUTCOMES, LoccChoice, LoccParams, ProtocolSystem, outcome_params, sigma_poly

CANONICAL_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
# theta = 0 leaves the state untouched: delta = K_00 = 0 exactly.
IDLE = LoccParams(0.0, CANONICAL_AXES[0])
# How far the exact minimum may sit above the grid minimum, relative to the
# largest entry of sum_k Re W_k: the grid's n.W.n - sum_k h_k cancels terms
# of that size, so its rounding grows with the lattice.
GRID_CHECK_TOL = 1e-12
# On a float (statevector) backend a lowest eigenvalue in
# [-NOISE_TOL * max(1, max|K|), 0) is taken as 0: K carries rounding of that
# relative size.  An exact backend's K has no such noise, so there any
# negative eigenvalue counts.
NOISE_TOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Sweep resolution: theta_count points over [0, 2pi], a Fibonacci
    sphere of sphere_count axes (three canonical axes prepended)."""

    theta_count: int = 129
    sphere_count: int = 512

    def __post_init__(self):
        if self.theta_count < 2 or self.sphere_count < 1:
            raise ValueError("grid must have at least 2 angles and 1 axis")

    def thetas(self) -> np.ndarray:
        return np.linspace(0.0, 2.0 * math.pi, self.theta_count)

    def axes(self) -> np.ndarray:
        return np.vstack([np.array(CANONICAL_AXES), fibonacci_sphere(self.sphere_count)])


def fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic near-uniform unit vectors."""
    i = np.arange(count, dtype=np.float64)
    z = 1.0 - (2.0 * i + 1.0) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    phi = golden * i
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


class QuadraticResponse:
    """Per-outcome response tensors, their quadratic forms K_k, and the
    energy evaluations built on them."""

    def __init__(self, system: ProtocolSystem):
        self.system = system
        ham = system.hamiltonian
        n = system.n_qubits
        expect = system.backend.expect
        sigmas = [sigma_poly(n, system.target, a) for a in AXIS_NAMES]
        commutators = [ham.commutator(s) for s in sigmas]
        self.h: dict[int, float] = {}
        self.c: dict[int, np.ndarray] = {}
        self.w: dict[int, np.ndarray] = {}
        for k in OUTCOMES:
            m = system.m_ops[k]
            self.h[k] = expect(m.mul(ham).mul(m)).real
            self.c[k] = np.array(
                [expect(m.mul(comm).mul(m)) for comm in commutators], dtype=complex
            )
            w = np.empty((3, 3), dtype=complex)
            for i in range(3):
                left = m.mul(sigmas[i]).mul(ham)
                for j in range(3):
                    w[i, j] = expect(left.mul(sigmas[j]).mul(m))
            self.w[k] = w
        self.p_plus = expect(system.m_ops[1]).real
        self.e_a = sum(self.h.values()) - system.ground_energy
        # Shared-ansatz aggregates: quadratic form and linear coefficient.
        self.w_shared = sum(self.w[k].real for k in OUTCOMES)
        self.r_shared = sum(k * (1j * self.c[k]).real for k in OUTCOMES)
        self.forms = {}
        for k in OUTCOMES:
            form = np.zeros((4, 4))
            form[0, 1:] = form[1:, 0] = k * (1j * self.c[k]).real / 2.0
            quad = self.w[k].real
            form[1:, 1:] = (quad + quad.T) / 2.0 - self.h[k] * np.eye(3)
            self.forms[k] = form

    # -- exact evaluations ---------------------------------------------------

    def delta(self, locc: LoccChoice) -> float:
        """sum_k w_k^T K_k w_k for a shared or per-outcome choice."""
        total = 0.0
        for k in OUTCOMES:
            p = outcome_params(locc, k)
            w = np.array([math.cos(p.theta), *(math.sin(p.theta) * a for a in p.axis)])
            total += float(w @ self.forms[k] @ w)
        return total

    def minimum(self, independent: bool = False) -> tuple[float, LoccChoice]:
        """The exact minimum of delta over every rotation, and a witness."""
        noise = 0.0 if self.system.backend.exact else NOISE_TOL
        if independent:
            lowest = {k: _lowest(self.forms[k], noise) for k in OUTCOMES}
            return sum(value for value, _ in lowest.values()), {k: p for k, (_, p) in lowest.items()}
        return _lowest(sum(self.forms.values()), noise)

    # -- vectorized sweep ----------------------------------------------------

    def sweep(self, thetas: np.ndarray, axes: np.ndarray) -> np.ndarray:
        """Delta on the (theta x axis) grid, theta-major, shape (T, M)."""
        s = np.sin(thetas)
        c = np.cos(thetas)
        a = np.einsum("mi,ij,mj->m", axes, self.w_shared, axes) - sum(self.h.values())
        b = axes @ self.r_shared
        return np.outer(s * s, a) + np.outer(s * c, b)


@dataclass(frozen=True)
class OptimizeResult:
    """The exact minimum and witness, and the grid surface behind the sweep CSV:
    deltas and the torus closed form (on every system) at (thetas[i], axes[j])."""

    min_delta: float
    params: LoccParams
    per_outcome: Optional[dict]
    grid_min: float
    thetas: np.ndarray
    axes: np.ndarray
    deltas: np.ndarray
    closed_form: np.ndarray
    p_plus: float
    e_a: float
    zero_theta_attains: bool

    def argmin_description(self) -> str:
        if self.per_outcome is not None:
            parts = []
            for k in sorted(self.per_outcome, reverse=True):
                p = self.per_outcome[k]
                parts.append(
                    f"k={k:+d}: theta={p.theta:.9g} axis=({p.axis[0]:.6g},{p.axis[1]:.6g},{p.axis[2]:.6g})"
                )
            return "; ".join(parts)
        p = self.params
        return f"theta={p.theta:.9g} axis=({p.axis[0]:.6g},{p.axis[1]:.6g},{p.axis[2]:.6g})"


def _lowest(form: np.ndarray, noise: float = 0.0) -> tuple[float, LoccParams]:
    """lambda_min(K) and the rotation whose w is its eigenvector, read with
    cos theta >= 0.  The lowest eigenvalue is never above K_00 = 0; when it
    is not below -noise * max(1, max|K|) either, it is a true 0 (or rounding
    noise of one) and the idle rotation attains that exactly."""
    values, vectors = np.linalg.eigh(form)
    if values[0] >= -noise * max(1.0, float(np.abs(form).max())):
        return 0.0, IDLE
    w = vectors[:, 0] if vectors[0, 0] >= 0.0 else -vectors[:, 0]
    theta = math.atan2(float(np.linalg.norm(w[1:])), float(w[0]))
    # + 0.0 turns -0.0 components into 0.0, so no axis prints as -0.
    return float(values[0]), LoccParams.from_direction(theta, w[1:] + 0.0)


def optimize_system(
    system: ProtocolSystem,
    grid: Optional[GridSpec] = None,
    independent: bool = False,
) -> OptimizeResult:
    grid = grid or GridSpec()
    resp = QuadraticResponse(system)
    thetas = grid.thetas()
    axes = grid.axes()
    deltas = resp.sweep(thetas, axes)
    grid_min = float(deltas.min())
    min_delta, locc = resp.minimum(independent)
    scale = max(1.0, float(np.abs(resp.w_shared).max()))
    if not min_delta <= grid_min + GRID_CHECK_TOL * scale:
        raise AssertionError(f"exact minimum {min_delta!r} lies above the grid minimum {grid_min!r}")

    closed_form = np.outer(4.0 * np.sin(thetas) ** 2, axes[:, 1] ** 2 + axes[:, 2] ** 2)
    return OptimizeResult(
        min_delta=min_delta,
        params=outcome_params(locc, 1),
        per_outcome=locc if independent else None,
        grid_min=grid_min,
        thetas=thetas,
        axes=axes,
        deltas=deltas,
        closed_form=closed_form,
        p_plus=resp.p_plus,
        e_a=resp.e_a,
        zero_theta_attains=min_delta >= 0.0,
    )


def optimize_locc(
    lat: ToricLattice,
    scheme: MeasurementScheme,
    grid: Optional[GridSpec] = None,
    backend=None,
    independent: bool = False,
) -> OptimizeResult:
    system = ProtocolSystem.from_toric(lat, scheme, backend)
    return optimize_system(system, grid, independent=independent)
