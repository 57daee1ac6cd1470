"""Reference stabilizer engine: a generic phased echelon over GF(2).

A state on n qubits is fixed by n independent, pairwise-commuting Hermitian
Pauli strings with signs +-1.  Expectations of arbitrary Pauli strings then
follow from GF(2) linear algebra: a string has expectation +-1 when its
symplectic vector lies in the row span of the generators, and expectation 0
otherwise.

Every vector is packed as one int, ``x_bits | z_bits << n``.  At
construction the signed generators are Gaussian-eliminated into phased
rows: each row is a group element i^e * X^x Z^z stored as (vector, e mod 4),
multiplied with exact phase tracking, and back-substituted so that every
row has exactly one pivot bit.  With rows that fully reduced, the reduction

    R(v) = product of the rows at the pivot bits of v

is a group element, and v is a member iff R(v) has vector v; the bare term
X^x Z^z = i^{-e} R(v) then has expectation i^{-e}.  All group elements
commute and square to +I, so R is linear: R(a ^ b) = R(a) R(b), exactly.

Each group keeps one anchor, a (key, R(key)) pair: a key whose difference
from the anchor has fewer pivot bits is reduced as R(anchor) R(key ^ anchor),
so a heavy key such as the measured all-but-one X string is reduced once.

It knows nothing of the torus, so the tests check the homology engine
`toricqet.stabilizer.StabilizerGroup` against it, built from the lattice's
own stars, plaquettes and Z loops (`reference_group`).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from conftest import is_hermitian

from toricqet.lattice import ToricLattice
from toricqet.pauli import PauliPolynomial, PauliString, TermRow, phase_value


def reference_group(lat: ToricLattice, sector=(1, 1)) -> "EchelonGroup":
    """The ground state in a loop sector, from independent generators: all
    stars and plaquettes except one of each (their full products are the
    identity), plus the two Z loops carrying the sector signs."""
    gens = list(lat.stars()[:-1]) + list(lat.plaquettes()[:-1]) + list(lat.z_loops())
    signs = [1] * (2 * (lat.L * lat.L - 1)) + [sector[0], sector[1]]
    return EchelonGroup(gens, signs)


class EchelonGroup:
    """Generator set defining a stabilizer state, with exact expectations."""

    def __init__(self, generators: Sequence[PauliString], signs: Optional[Sequence[int]] = None):
        generators = tuple(generators)
        if not generators:
            raise ValueError("need at least one generator")
        n = generators[0].n_qubits
        if any(g.n_qubits != n for g in generators):
            raise ValueError("generators act on different qubit counts")
        if len(generators) != n:
            raise ValueError(f"need exactly {n} generators for {n} qubits, got {len(generators)}")
        if signs is None:
            signs = (1,) * n
        signs = tuple(int(s) for s in signs)
        if len(signs) != len(generators) or any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +-1, one per generator")
        for g in generators:
            if not is_hermitian(g):
                raise ValueError(f"generator {g!r} is not Hermitian")
        if not _all_commute(generators):
            raise ValueError("generators do not all commute")

        self.n_qubits = n
        self.generators = generators
        self.signs = signs
        # pivot column -> (row vector, phase exponent mod 4); each row has
        # exactly one bit in _pivot_mask, its own.
        self._rows: dict[int, tuple[int, int]] = {}
        self._pivot_mask = 0
        self._build_echelon()
        # (key, pivot-bit count of key, vector of R(key), phase of R(key))
        self._anchor = (0, 0, 0, 0)

    def _build_echelon(self):
        n = self.n_qubits
        rows = self._rows
        for g, s in zip(self.generators, self.signs):
            v = g.x_bits | (g.z_bits << n)
            e = g.phase_exp + (2 if s < 0 else 0)
            while v:
                col = (v & -v).bit_length() - 1
                hit = rows.get(col)
                if hit is None:
                    rows[col] = (v, e % 4)
                    self._pivot_mask |= 1 << col
                    break
                e += hit[1] + 2 * ((v >> n) & hit[0]).bit_count()
                v ^= hit[0]
            else:
                raise ValueError("generators are linearly dependent over GF(2)")
        # A row's other pivot bits all lie above its own pivot, so clearing
        # them from the highest pivot down only ever uses finished rows.
        for col in sorted(rows, reverse=True):
            v, e = rows[col]
            rest = (v & self._pivot_mask) ^ (1 << col)
            if rest:
                v, e = self._mul(v, e, self._reduce(rest))
                rows[col] = (v, e)

    def _mul(self, v: int, e: int, other: tuple[int, int]) -> tuple[int, int]:
        """(v, e) times other, as (vector, phase exponent mod 4)."""
        w, f = other
        return v ^ w, (e + f + 2 * ((v >> self.n_qubits) & w).bit_count()) % 4

    def _reduce(self, v: int) -> tuple[int, int]:
        """R(v): the product of the rows at the pivot bits of v."""
        n = self.n_qubits
        rows = self._rows
        acc = e = 0
        bits = v & self._pivot_mask
        while bits:
            low = bits & -bits
            bits ^= low
            w, f = rows[low.bit_length() - 1]
            e += f + 2 * ((acc >> n) & w).bit_count()
            acc ^= w
        return acc, e % 4

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
        where that column has no term with the key.  Each key is reduced
        once, and column j sums its terms in row order.
        """
        n = self.n_qubits
        mask = self._pivot_mask
        totals = [0.0 + 0.0j] * width
        for (x, z), coeffs in rows:
            v = x | (z << n)
            count = (v & mask).bit_count()
            anchor = self._anchor
            diff = v ^ anchor[0]
            if (diff & mask).bit_count() < count:
                w, e = self._mul(anchor[2], anchor[3], self._reduce(diff))
            else:
                w, e = self._reduce(v)
                if count > anchor[1]:
                    self._anchor = (v, count, w, e)
            if w != v:
                continue
            # bare term = i^{-e} * (group element), so <bare> = i^{-e}.
            value = phase_value(-e)
            for j, coeff in enumerate(coeffs):
                if coeff is not None:
                    totals[j] += coeff * value
        return totals


def _all_commute(generators: Sequence[PauliString]) -> bool:
    """True iff every pair of the strings commutes.

    Bit i of col_x[q] / col_z[q] says whether string i has an X / Z part on
    qubit q.  XOR-ing col_z over a string's X support and col_x over its Z
    support gives, at bit j, the parity of its symplectic product with
    string j.  Cost O(n * weight) big-int XORs instead of n^2/2 pair tests.
    """
    n = generators[0].n_qubits
    col_x = [0] * n
    col_z = [0] * n
    for i, g in enumerate(generators):
        bit = 1 << i
        for q in _bits(g.x_bits):
            col_x[q] |= bit
        for q in _bits(g.z_bits):
            col_z[q] |= bit
    for g in generators:
        parity = 0
        for q in _bits(g.x_bits):
            parity ^= col_z[q]
        for q in _bits(g.z_bits):
            parity ^= col_x[q]
        if parity:
            return False
    return True


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1
