"""Exact ground-state expectations of the toric code, from homology.

The ground state in loop sector (s1, s2) is the stabilizer state of every
star, every plaquette and the two Z loops, the loops with signs s1 and s2.
Its group is maximal, so a bare term X^x Z^z has a nonzero expectation iff
it commutes with every generator (Kitaev, Ann. Phys. 303, 2 (2003)):

- z has even overlap with every star (zero star syndrome), so z is a
  product of plaquettes and Z loops;
- x has even overlap with every plaquette (zero plaquette syndrome) and
  with both Z loops, so x is a product of stars.

Then X^x fixes the state and Z^z acts on it as the product of the sector
signs of the Z loops in z.  Plaquettes commute with the dual X loops
(`x_flip_edges`), and Z loop i anticommutes with X loop i alone, so z holds
loop i iff it crosses X loop i an odd number of times.  The value is +-1,
exactly: `phase_value(0)` or `phase_value(2)`.

Keys are packed ints over the edges.  Edge 2i is the east edge of vertex
i = row * L + col and edge 2i + 1 its south edge, so ``v & EVEN`` holds the
east bits and ``(v >> 1) & EVEN`` the south bits, each at bit 2i of its
vertex.  A syndrome is then a few shifts and masks: within a row a
neighbour is 2 bits away, and the row wraps through the column-0 and
column-(L-1) masks; between rows a neighbour is 2L bits away, and the
column wraps by rotating the n-bit int.

Polynomials that share their keys, such as the two Kraus outcomes of one
operator, are queried together (`column_expectations`): each key is tested
once, and its value feeds one total per polynomial.  `poly_expectation` is
its one-column case.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .pauli import PauliPolynomial, TermRow, phase_value

if TYPE_CHECKING:
    from .lattice import ToricLattice


def check_sector(sector: tuple[int, int]):
    """Reject a ground sector that is not a pair of +-1 loop signs."""
    if len(sector) != 2 or any(s not in (1, -1) for s in sector):
        raise ValueError("sector must be a pair of +-1 loop signs")


class StabilizerGroup:
    """The toric-code ground state of one loop sector, with exact expectations."""

    def __init__(self, lat: ToricLattice, sector: tuple[int, int] = (1, 1)):
        check_sector(sector)
        L, n = lat.L, lat.n_qubits
        self.n_qubits = n
        # a neighbouring row is 2L bits away
        self._shift = 2 * L
        self._full = (1 << n) - 1
        self._even = self._full // 3
        # the east-bit positions of column 0 and column L-1, and of the rest
        first = sum(1 << 2 * L * r for r in range(L))
        last = first << 2 * (L - 1)
        self._cols = (first, self._even ^ first, last, self._even ^ last)
        self._z_loops = tuple(sum(1 << e for e in edges) for edges in lat.z_loop_edges)
        self._x_loops = tuple(sum(1 << e for e in edges) for edges in lat.x_flip_edges)
        s1, s2 = sector
        # value by (crosses X loop 1, crosses X loop 2), as 2 * a + b
        self._values = tuple(phase_value(0 if s == 1 else 2) for s in (1, s2, s1, s1 * s2))

    def _value(self, x: int, z: int):
        """<X^x Z^z> in the ground state: +-1 as a complex unit, or None for 0."""
        n, full, even, shift = self.n_qubits, self._full, self._even, self._shift
        first, not_first, last, not_last = self._cols
        if z:
            # star at vertex i: east and south of i, east of its west
            # neighbour, south of its north neighbour (2L bits down, cyclic)
            east, south = z & even, (z >> 1) & even
            north = south << shift
            if east ^ south ^ ((east & not_last) << 2) ^ ((east & last) >> shift - 2) ^ (north & full) ^ (north >> n):
                return None
        if x:
            loop1, loop2 = self._z_loops
            if (x & loop1).bit_count() & 1 or (x & loop2).bit_count() & 1:
                return None
            # plaquette at vertex i: east and south of i, south of its east
            # neighbour, east of its south neighbour (2L bits up, cyclic)
            east, south = x & even, (x >> 1) & even
            below = east << n - shift
            if east ^ south ^ ((south & not_first) >> 2) ^ ((south & first) << shift - 2) ^ (below & full) ^ (below >> n):
                return None
        loop1, loop2 = self._x_loops
        return self._values[2 * ((z & loop1).bit_count() & 1) + ((z & loop2).bit_count() & 1)]

    # -- queries -----------------------------------------------------------

    def poly_expectation(self, poly: PauliPolynomial) -> complex:
        """Exact ground-state expectation of a Pauli polynomial: the one-column
        case of column_expectations."""
        if poly.n_qubits != self.n_qubits:
            raise ValueError("polynomial and group act on different qubit counts")
        return self.column_expectations(zip(poly.terms, zip(poly.terms.values())), 1)[0]

    def column_expectations(self, rows: Iterable[TermRow], width: int) -> list[complex]:
        """Exact expectations of `width` polynomials that share one key order.

        `rows` yields (key, coefficients): one coefficient per column, None
        where that column has no term with the key.  Each key is tested
        once, and column j sums its terms in row order.
        """
        totals = [0.0 + 0.0j] * width
        for (x, z), coeffs in rows:
            value = self._value(x, z)
            if value is None:
                continue
            for j, coeff in enumerate(coeffs):
                if coeff is not None:
                    totals[j] += coeff * value
        return totals
