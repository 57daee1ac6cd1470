"""Toric-code lattice on an L x L periodic square grid.

Qubits live on edges.  Each vertex v = (row, col) owns the edge going east
and the edge going south, so the qubit index is

    index = 2 * (row * L + col) + dir,   dir: east = 0, south = 1

with rows increasing southward, columns eastward, both mod L.  Stars are
X-strings on the four edges meeting a vertex; plaquettes are Z-strings on
the four edges bounding a face, labelled by its north-west corner:

    star(r, c)      = {E(r, c), S(r, c), E(r, c-1), S(r-1, c)}
    plaquette(r, c) = {E(r, c), S(r, c), E(r+1, c), S(r, c+1)}

The Hamiltonian is minus the sum of all stars and plaquettes.  The ground
sector is labelled by the two non-contractible Z loops (east edges of row 0,
south edges of column 0); the dual X loops that toggle those labels are the
east edges of column 0 and the south edges of row 0.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Iterable

from .pauli import PauliPolynomial, PauliString
from .stabilizer import StabilizerGroup, check_sector

EAST = 0
SOUTH = 1
# The largest torus, in qubits (L = 160).  Each Hamiltonian term key is an
# int as wide as its highest edge, so H alone holds O(L^4) bytes (74 MB at
# L = 128, 177 MB at L = 160, by tracemalloc).  `nogo-scan` peaks at 150 MB
# RSS at L = 128 and 281 MB at L = 160, at the first and at the last edge
# (ru_maxrss from wait4; 2 CPUs, Python 3.11), and a larger L is refused
# before any geometry is built.
LATTICE_QUBIT_LIMIT = 2 * 160 * 160


class CapacityError(Exception):
    """Request exceeds a size limit: the torus's, or the brute-force backend's."""


@dataclass(frozen=True)
class MeasurementScheme:
    """Support of one X-string measurement on region A.

    The measured observable is the product of X over `edges`; outcomes are
    +-1 and the Kraus operators are (I +- operator) / 2.
    """

    n_qubits: int
    edges: frozenset[int]

    def operator(self) -> PauliString:
        return PauliString.from_support(self.n_qubits, self.edges, "x")

    def kraus(self, outcome: int) -> PauliPolynomial:
        return PauliPolynomial.projector(self.operator(), outcome)


class ToricLattice:
    """Geometry, Hamiltonian, and ground-state groups for one lattice size."""

    def __init__(self, L: int, bob_qubit: int = 0):
        if not (isinstance(L, numbers.Integral) and isinstance(bob_qubit, numbers.Integral)):
            raise ValueError(f"L and bob_qubit must be integers, not {L!r} and {bob_qubit!r}")
        if L < 2:
            raise ValueError("L must be at least 2")
        self.L = L = int(L)
        self.n_qubits = 2 * L * L
        if self.n_qubits > LATTICE_QUBIT_LIMIT:
            raise CapacityError(f"L={L} has {self.n_qubits} qubits, over the lattice limit of {LATTICE_QUBIT_LIMIT}")
        if not 0 <= bob_qubit < self.n_qubits:
            raise ValueError(f"bob_qubit {bob_qubit} out of range for {self.n_qubits} edges")
        self.bob_qubit = int(bob_qubit)
        self.region_a_edges = tuple(e for e in range(self.n_qubits) if e != self.bob_qubit)

        self.star_edges = tuple(
            self._star(r, c) for r in range(L) for c in range(L)
        )
        self.plaquette_edges = tuple(
            self._plaquette(r, c) for r in range(L) for c in range(L)
        )
        # Non-contractible Z loops labelling the sector, and the dual X loops
        # that flip those labels while commuting with the Hamiltonian.
        self.z_loop_edges = (
            tuple(self.edge_index(0, c, EAST) for c in range(L)),
            tuple(self.edge_index(r, 0, SOUTH) for r in range(L)),
        )
        self.x_flip_edges = (
            tuple(self.edge_index(r, 0, EAST) for r in range(L)),
            tuple(self.edge_index(0, c, SOUTH) for c in range(L)),
        )

    # -- indexing ----------------------------------------------------------

    def edge_index(self, row: int, col: int, direction: int) -> int:
        if direction not in (EAST, SOUTH):
            raise ValueError("direction must be EAST (0) or SOUTH (1)")
        return 2 * ((row % self.L) * self.L + (col % self.L)) + direction

    def edge_label(self, edge: int) -> str:
        site, direction = divmod(edge, 2)
        row, col = divmod(site, self.L)
        return f"{'E' if direction == EAST else 'S'}({row},{col})"

    def _star(self, r: int, c: int) -> tuple[int, ...]:
        return (
            self.edge_index(r, c, EAST),
            self.edge_index(r, c, SOUTH),
            self.edge_index(r, c - 1, EAST),
            self.edge_index(r - 1, c, SOUTH),
        )

    def _plaquette(self, r: int, c: int) -> tuple[int, ...]:
        return (
            self.edge_index(r, c, EAST),
            self.edge_index(r, c, SOUTH),
            self.edge_index(r + 1, c, EAST),
            self.edge_index(r, c + 1, SOUTH),
        )

    # -- operators ---------------------------------------------------------

    def star(self, r: int, c: int) -> PauliString:
        return PauliString.from_support(self.n_qubits, self._star(r, c), "x")

    def plaquette(self, r: int, c: int) -> PauliString:
        return PauliString.from_support(self.n_qubits, self._plaquette(r, c), "z")

    def stars(self) -> tuple[PauliString, ...]:
        return tuple(
            PauliString.from_support(self.n_qubits, edges, "x") for edges in self.star_edges
        )

    def plaquettes(self) -> tuple[PauliString, ...]:
        return tuple(
            PauliString.from_support(self.n_qubits, edges, "z") for edges in self.plaquette_edges
        )

    def z_loops(self) -> tuple[PauliString, PauliString]:
        a, b = self.z_loop_edges
        return (
            PauliString.from_support(self.n_qubits, a, "z"),
            PauliString.from_support(self.n_qubits, b, "z"),
        )

    def x_flips(self) -> tuple[PauliString, PauliString]:
        a, b = self.x_flip_edges
        return (
            PauliString.from_support(self.n_qubits, a, "x"),
            PauliString.from_support(self.n_qubits, b, "x"),
        )

    def hamiltonian(self) -> PauliPolynomial:
        terms = [(s, -1.0) for s in self.stars()] + [(p, -1.0) for p in self.plaquettes()]
        return PauliPolynomial.from_strings(self.n_qubits, terms)

    def ground_energy(self) -> float:
        return -2.0 * self.L * self.L

    def ground_group(self, sector: tuple[int, int] = (1, 1)) -> StabilizerGroup:
        """The ground state in the given loop sector: stabilized by every star
        and plaquette, and by the two Z loops with the sector's signs.

        Its expectations come from the star and plaquette syndromes of a key
        and its crossings of the dual X loops (see `stabilizer`); no
        generator set is built.
        """
        return StabilizerGroup(self, sector)

    # -- incidence ---------------------------------------------------------

    def stars_touching(self, edge: int) -> tuple[int, ...]:
        return tuple(i for i, edges in enumerate(self.star_edges) if edge in edges)

    def plaquettes_touching(self, edge: int) -> tuple[int, ...]:
        return tuple(i for i, edges in enumerate(self.plaquette_edges) if edge in edges)

    def adjacent_sums(self, edge: int) -> tuple[PauliPolynomial, PauliPolynomial]:
        """The sums of the stars and of the plaquettes touching edge; only those are built."""
        def total(build, touching):
            return PauliPolynomial.from_strings(self.n_qubits, ((build(*divmod(i, self.L)), 1.0) for i in touching))
        return total(self.star, self.stars_touching(edge)), total(self.plaquette, self.plaquettes_touching(edge))

    # -- measurement schemes -------------------------------------------------

    def scheme_from_edges(self, edges: Iterable[int]) -> MeasurementScheme:
        """Build an X-string scheme, cancelling repeated edges mod 2."""
        support: set[int] = set()
        for e in edges:
            if not isinstance(e, numbers.Integral):
                raise ValueError(f"edge {e!r} is not an integer")
            e = int(e)
            if not 0 <= e < self.n_qubits:
                raise ValueError(f"edge {e} out of range")
            support.symmetric_difference_update({e})
        if not support:
            raise ValueError("measurement support is empty after mod-2 reduction")
        if self.bob_qubit in support:
            raise ValueError(
                f"support touches the target edge {self.edge_label(self.bob_qubit)}"
            )
        return MeasurementScheme(self.n_qubits, frozenset(support))

    def full_region_scheme(self) -> MeasurementScheme:
        """X on every edge except the target edge."""
        return self.scheme_from_edges(self.region_a_edges)

    # -- reporting -----------------------------------------------------------

    def describe(self) -> dict:
        return {
            "L": self.L,
            "n_qubits": self.n_qubits,
            "bob_qubit": self.bob_qubit,
            "bob_edge": self.edge_label(self.bob_qubit),
            "stars": [list(edges) for edges in self.star_edges],
            "plaquettes": [list(edges) for edges in self.plaquette_edges],
            "z_loops": [list(edges) for edges in self.z_loop_edges],
            "x_flips": [list(edges) for edges in self.x_flip_edges],
            "measurement_support": sorted(self.full_region_scheme().edges),
        }
