"""Exact minimum over every rotation, and the grid sweep behind the CSV.

Because the conditioned unitary is linear in (cos theta, sin theta), the
final energy is an exact quadratic form in that pair.  For each
outcome k the response precomputes

    h_k      = <M_k H M_k>                  (the system's measured_energies)
    C_k[i]   = <M_k [H_t, sigma^i] M_k>     (i = x, y, z; target_commutator)
    W_k[i,j] = <M_k sigma^i H sigma^j M_k>  (four passes over H's slots)

H_t holds the terms on the target, the only ones sigma^i fails to commute
with; the sigmas commute with M_k, since S never touches the target.  Both
outcomes of an operator come from one pass over its terms, which returns
their expectations (`ProtocolSystem.sandwiches`).  No product
sigma^i H sigma^j is built: for a term a of H, sigma^i a sigma^j =
c' (a xor t_ij), with t_ij the key of sigma^i sigma^j on the target and c'
a function of a's coefficient and its bits at the target, one
PauliPolynomial.mul product per such class (`product_coefficients`).  So
each W column is H's table with its keys XORed by t_ij and its own
coefficients, read from the slots H's keys hash to once
(`ProtocolSystem.hamiltonian_sandwiches`).  The nine columns take four
passes (KEY_FAMILIES): H with the three diagonal products (t = 0), whose
H column gives h_k, then (x,y), (x,z) and (y,z), since (i, j) shares t
with (j, i).  The response costs one engine lookup per key of seven
tables: the three commutators (a few keys each) and the four passes
(about |H| keys each).
Then, with the unit 4-vector w = (cos theta, sin theta n),

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

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

import numpy as np

from .lattice import MeasurementScheme, ToricLattice
from .pauli import PauliPolynomial
from .protocol import AXIS_NAMES, OUTCOMES, LoccChoice, LoccParams, ProtocolSystem, sigma_poly, target_commutator

CANONICAL_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
# The (i, j) of W_k grouped by the keys of sigma^i H sigma^j: the key of each
# term of H is XORed with that of sigma^i sigma^j, in H's order.  So the
# diagonal products have H's keys, and (i, j) and (j, i) share theirs.
KEY_FAMILIES = (((0, 0), (1, 1), (2, 2)), ((0, 1), (1, 0)), ((0, 2), (2, 0)), ((1, 2), (2, 1)))
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
        sigmas = [sigma_poly(system.n_qubits, system.target, a) for a in AXIS_NAMES]
        comms = [system.sandwich_expectations(target_commutator(system, axis)) for axis in CANONICAL_AXES]
        c = {k: np.array([comm[k] for comm in comms], dtype=complex) for k in OUTCOMES}
        w = {k: np.zeros((3, 3), dtype=complex) for k in OUTCOMES}
        per_term = product_coefficients(system, sigmas)
        diagonal, *off_diagonal = ([map(itemgetter(3 * i + j), per_term) for i, j in family] for family in KEY_FAMILIES)
        shifted = []
        for ((i, j), _), columns in zip(KEY_FAMILIES[1:], off_diagonal):
            (xi, zi), (xj, zj) = next(iter(sigmas[i].terms)), next(iter(sigmas[j].terms))
            shifted.append(((xi ^ xj, zi ^ zj), columns))
        for family, values in zip(KEY_FAMILIES, system.hamiltonian_sandwiches(diagonal, shifted)):
            for ((i, j), k), value in zip(itertools.product(family, OUTCOMES), values):
                w[k][i, j] = value
        # Shared-ansatz aggregates: quadratic form and linear coefficient.
        self.w_shared = sum(w[k].real for k in OUTCOMES)
        self.r_shared = sum(k * (1j * c[k]).real for k in OUTCOMES)
        self.forms = {}
        for k in OUTCOMES:
            form = np.zeros((4, 4))
            form[0, 1:] = form[1:, 0] = k * (1j * c[k]).real / 2.0
            quad = w[k].real
            form[1:, 1:] = (quad + quad.T) / 2.0 - system.measured_energies[k] * np.eye(3)
            self.forms[k] = form

    # -- exact minimum -------------------------------------------------------

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
        a = np.einsum("mi,ij,mj->m", axes, self.w_shared, axes) - sum(self.system.measured_energies.values())
        b = axes @ self.r_shared
        deltas = np.outer(s * s, a)
        deltas += np.outer(s * c, b)  # in place: one fewer grid-sized array at the peak
        return deltas


@dataclass(frozen=True)
class OptimizeResult:
    """The exact minimum and its witness (one LoccParams, or {k: LoccParams} for
    independent rotations; direct_energy takes either), and the grid surface
    behind the sweep CSV: deltas at (thetas[i], axes[j])."""

    min_delta: float
    witness: LoccChoice
    grid_min: float
    thetas: np.ndarray
    axes: np.ndarray
    deltas: np.ndarray

    def closed_form_rows(self):
        """The torus closed form 4 sin^2(theta) (ny^2 + nz^2), one theta row of the grid at a time."""
        weights = self.axes[:, 1] ** 2 + self.axes[:, 2] ** 2
        for scale in 4.0 * np.sin(self.thetas) ** 2:
            yield scale * weights

    def argmin_description(self) -> str:
        def describe(p: LoccParams) -> str:
            return f"theta={p.theta:.9g} axis=({p.axis[0]:.6g},{p.axis[1]:.6g},{p.axis[2]:.6g})"

        if isinstance(self.witness, LoccParams):
            return describe(self.witness)
        return "; ".join(f"k={k:+d}: {describe(self.witness[k])}" for k in sorted(self.witness, reverse=True))


def product_coefficients(system: ProtocolSystem, sigmas: list[PauliPolynomial]) -> list[tuple[complex, ...]]:
    """Per term a of H, in H's order, the coefficients of sigma^i a sigma^j,
    (i, j) row-major, each sigma a one-term polynomial on the target.

    sigma^i a sigma^j = c' (a xor t_ij), and c' depends only on a's
    coefficient and its x and z bits at the target, so it is computed once
    per such class, as sigmas[i].mul(a).mul(sigmas[j]) of the class's first
    term.  Each product term has one contribution, so c' has the bits of
    that term of sigma^i.mul(H).mul(sigma^j); mul's `0.0 +` clears signed
    zeros, so coefficients that compare equal share a class.
    """
    t = system.target
    memo: dict[tuple[complex, int, int], tuple[complex, ...]] = {}
    per_term = []
    for (x, z), c in system.hamiltonian.terms.items():
        cls = (c, (x >> t) & 1, (z >> t) & 1)
        coeffs = memo.get(cls)
        if coeffs is None:
            term = PauliPolynomial(system.n_qubits, {(x, z): c})
            coeffs = memo[cls] = tuple(next(iter(si.mul(term).mul(sj).terms.values())) for si in sigmas for sj in sigmas)
        per_term.append(coeffs)
    return per_term


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
    min_delta, witness = resp.minimum(independent)
    scale = max(1.0, float(np.abs(resp.w_shared).max()))
    if not min_delta <= grid_min + GRID_CHECK_TOL * scale:
        raise AssertionError(f"exact minimum {min_delta!r} lies above the grid minimum {grid_min!r}")
    return OptimizeResult(min_delta, witness, grid_min, thetas, axes, deltas)


def optimize_locc(
    lat: ToricLattice,
    scheme: MeasurementScheme,
    grid: Optional[GridSpec] = None,
    backend=None,
    independent: bool = False,
) -> OptimizeResult:
    system = ProtocolSystem.from_toric(lat, scheme, backend)
    return optimize_system(system, grid, independent=independent)
