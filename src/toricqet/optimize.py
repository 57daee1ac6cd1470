"""Grid sweep and refinement searching for an energy-extracting rotation.

Because the conditioned unitary is linear in (cos theta, sin theta), the
final energy is an exact quadratic form in those coefficients.  For each
outcome k the sweep precomputes

    h_k      = <M_k H M_k>
    C_k[i]   = <M_k [H, sigma^i] M_k>          (i = x, y, z)
    W_k[i,j] = <M_k sigma^i H sigma^j M_k>

after which every grid point costs O(1):

    delta(theta, n) = sum_k sin^2 * (n.Re(W_k).n - h_k)
                            + sin*cos * Re(i k n.C_k).

The identity of this fast path with the direct operator sandwich is part
of the test suite.  For a fixed axis the theta minimum is analytic, so
refinement only searches the sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .lattice import MeasurementScheme, ToricLattice
from .protocol import AXIS_NAMES, OUTCOMES, LoccParams, ProtocolSystem, sigma_poly

CANONICAL_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
REFINE_VALUE_TOL = 1e-9
ARGMIN_TOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Sweep resolution: theta_count points over [0, 2pi], a Fibonacci
    sphere of sphere_count axes (three canonical axes prepended)."""

    theta_count: int = 129
    sphere_count: int = 512
    refine: bool = True

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
    """Per-outcome response tensors and the O(1) energy evaluations."""

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

    # -- scalar evaluations ------------------------------------------------

    def coefficients(self, axis: Sequence[float], outcome: Optional[int] = None) -> tuple[float, float]:
        """(a, b) with delta = sin^2 * a + sin*cos * b for this axis."""
        n = np.asarray(axis, dtype=np.float64)
        if outcome is None:
            a = float(n @ self.w_shared @ n) - sum(self.h.values())
            b = float(self.r_shared @ n)
        else:
            a = float(n @ self.w[outcome].real @ n) - self.h[outcome]
            b = float((outcome * (1j * self.c[outcome]).real) @ n)
        return a, b

    def delta(self, params: LoccParams) -> float:
        a, b = self.coefficients(params.axis)
        s, c = math.sin(params.theta), math.cos(params.theta)
        return s * s * a + s * c * b

    def delta_independent(self, per_outcome: Mapping[int, LoccParams]) -> float:
        total = 0.0
        for k in OUTCOMES:
            p = per_outcome[k]
            a, b = self.coefficients(p.axis, outcome=k)
            s, c = math.sin(p.theta), math.cos(p.theta)
            total += s * s * a + s * c * b
        return total

    @staticmethod
    def best_theta(a: float, b: float) -> tuple[float, float]:
        """Analytic minimum of sin^2*a + sin*cos*b: (theta*, value)."""
        value = 0.5 * (a - math.hypot(a, b))
        theta = -0.5 * math.atan2(b, a)
        if theta < 0.0:
            theta += math.pi
        if abs(b) == 0.0 and a >= 0.0:
            theta = 0.0
        return theta, value

    # -- vectorized sweep ----------------------------------------------------

    def axis_coefficients(self, axes: np.ndarray, outcome: Optional[int] = None):
        if outcome is None:
            quad = self.w_shared
            lin = self.r_shared
            offset = sum(self.h.values())
        else:
            quad = self.w[outcome].real
            lin = outcome * (1j * self.c[outcome]).real
            offset = self.h[outcome]
        a = np.einsum("mi,ij,mj->m", axes, quad, axes) - offset
        b = axes @ lin
        return a, b

    def sweep(self, thetas: np.ndarray, axes: np.ndarray) -> np.ndarray:
        """Delta on the (theta x axis) grid, theta-major, shape (T, M)."""
        s = np.sin(thetas)
        c = np.cos(thetas)
        a, b = self.axis_coefficients(axes)
        return np.outer(s * s, a) + np.outer(s * c, b)


@dataclass(frozen=True)
class OptimizeResult:
    min_delta: float
    params: LoccParams
    per_outcome: Optional[dict]
    grid_min: float
    table: Optional[np.ndarray]
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


def _to_unit(vec: np.ndarray) -> tuple[float, float, float]:
    n = np.asarray(vec, dtype=np.float64)
    n = n / np.linalg.norm(n)
    return (float(n[0]), float(n[1]), float(n[2]))


def _sphere_from_angles(u: float, v: float) -> np.ndarray:
    su = math.sin(u)
    return np.array([su * math.cos(v), su * math.sin(v), math.cos(u)])


def _refine_axis(value_of: Callable[[np.ndarray], float], start: np.ndarray):
    """Compass search over sphere angles; value_of must be cheap."""
    u = math.acos(max(-1.0, min(1.0, float(start[2]))))
    v = math.atan2(float(start[1]), float(start[0]))
    best = value_of(start)
    step = 0.3
    while step > 1e-8:
        improved = False
        for du, dv in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            cand = _sphere_from_angles(u + du, v + dv)
            val = value_of(cand)
            if val < best - 1e-16:
                best, u, v = val, u + du, v + dv
                improved = True
                break
        if not improved:
            step *= 0.5
    return _sphere_from_angles(u, v), best


def _minimize_over_axes(resp: QuadraticResponse, axes: np.ndarray, refine: bool, outcome=None):
    """Best (theta, axis, value) using the analytic theta minimum per axis."""
    a, b = resp.axis_coefficients(axes, outcome=outcome)
    values = 0.5 * (a - np.hypot(a, b))
    best_idx = int(np.argmin(values))
    best_axis = axes[best_idx]

    def value_of(n: np.ndarray) -> float:
        aa, bb = resp.coefficients(n, outcome=outcome)
        return 0.5 * (aa - math.hypot(aa, bb))

    if refine:
        best_axis, _ = _refine_axis(value_of, best_axis)
    aa, bb = resp.coefficients(best_axis, outcome=outcome)
    theta, value = QuadraticResponse.best_theta(aa, bb)
    return theta, _to_unit(best_axis), value


def optimize_system(
    system: ProtocolSystem,
    grid: Optional[GridSpec] = None,
    independent: bool = False,
    with_table: bool = True,
) -> OptimizeResult:
    grid = grid or GridSpec()
    resp = QuadraticResponse(system)
    thetas = grid.thetas()
    axes = grid.axes()
    deltas = resp.sweep(thetas, axes)
    grid_min = float(deltas.min())
    flat_idx = int(deltas.argmin())
    ti, mi = divmod(flat_idx, len(axes))
    zero_theta_attains = bool(deltas[0].min() <= grid_min + ARGMIN_TOL)

    if independent:
        per_outcome = {}
        total = 0.0
        for k in OUTCOMES:
            theta, axis, value = _minimize_over_axes(resp, axes, grid.refine, outcome=k)
            per_outcome[k] = LoccParams(theta, axis)
            total += value
        best_params = per_outcome[1]
        min_delta = min(total, grid_min)
    else:
        per_outcome = None
        theta, axis, value = _minimize_over_axes(resp, axes, grid.refine)
        if value < grid_min:
            best_params = LoccParams(theta, axis)
            min_delta = value
        else:
            best_params = LoccParams(float(thetas[ti]), _to_unit(axes[mi]))
            min_delta = grid_min

    table = _sweep_table(resp, thetas, axes, deltas) if with_table else None
    return OptimizeResult(
        min_delta=min_delta,
        params=best_params,
        per_outcome=per_outcome,
        grid_min=grid_min,
        table=table,
        p_plus=resp.p_plus,
        e_a=resp.e_a,
        zero_theta_attains=zero_theta_attains,
    )


def _sweep_table(resp: QuadraticResponse, thetas: np.ndarray, axes: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Rows (theta, nx, ny, nz, p_plus, E_A, E_B, delta, closed_form),
    theta-major then axis order, matching the CSV contract."""
    t_count, m_count = deltas.shape
    rows = np.empty((t_count * m_count, 9), dtype=np.float64)
    rows[:, 0] = np.repeat(thetas, m_count)
    rows[:, 1:4] = np.tile(axes, (t_count, 1))
    rows[:, 4] = resp.p_plus
    rows[:, 5] = resp.e_a
    flat = deltas.reshape(-1)
    rows[:, 6] = resp.e_a + flat
    rows[:, 7] = flat
    s2 = np.repeat(np.sin(thetas) ** 2, m_count)
    rows[:, 8] = 4.0 * s2 * (rows[:, 2] ** 2 + rows[:, 3] ** 2)
    return rows


def optimize_locc(
    lat: ToricLattice,
    scheme: MeasurementScheme,
    grid: Optional[GridSpec] = None,
    backend=None,
    independent: bool = False,
    with_table: bool = True,
) -> OptimizeResult:
    system = ProtocolSystem.from_toric(lat, scheme, backend)
    return optimize_system(system, grid, independent=independent, with_table=with_table)
