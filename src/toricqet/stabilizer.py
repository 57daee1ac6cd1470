"""Stabilizer-group representation of the code ground state.

A state on n qubits is fixed by n independent, pairwise-commuting Hermitian
Pauli strings with signs +-1.  Expectations of arbitrary Pauli strings then
follow from GF(2) linear algebra: a string has expectation +-1 when its
symplectic vector lies in the row span of the generators (the sign comes
from replaying the actual Pauli product of the matching generator subset),
and expectation 0 otherwise.

The generator matrix is Gaussian-eliminated once at construction; each
query is a back-substitution against the cached pivot rows.  Groups are
immutable after construction, so concurrent read-only queries are safe.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .pauli import PauliPolynomial, PauliString, phase_value


class StabilizerGroup:
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
            if not g.is_hermitian():
                raise ValueError(f"generator {g.label()} is not Hermitian")
        for i, g in enumerate(generators):
            for h in generators[i + 1 :]:
                if not g.commutes(h):
                    raise ValueError("generators do not all commute")

        self.n_qubits = n
        self.generators = generators
        self.signs = signs
        # pivot column -> (reduced row vector, combination of original rows),
        # both packed as ints (bit j of a vector = column j, x part then z part).
        self._pivots: dict[int, tuple[int, int]] = {}
        self._build_echelon()

    def _vec(self, x_bits: int, z_bits: int) -> int:
        return x_bits | (z_bits << self.n_qubits)

    def _build_echelon(self):
        for i, g in enumerate(self.generators):
            v = self._vec(g.x_bits, g.z_bits)
            comb = 1 << i
            while v:
                col = (v & -v).bit_length() - 1
                hit = self._pivots.get(col)
                if hit is None:
                    self._pivots[col] = (v, comb)
                    break
                v ^= hit[0]
                comb ^= hit[1]
            else:
                raise ValueError("generators are linearly dependent over GF(2)")

    def _solve(self, x_bits: int, z_bits: int) -> Optional[int]:
        """Combination bitmask of generators multiplying to (x, z), or None."""
        v = self._vec(x_bits, z_bits)
        comb = 0
        while v:
            col = (v & -v).bit_length() - 1
            hit = self._pivots.get(col)
            if hit is None:
                return None
            v ^= hit[0]
            comb ^= hit[1]
        return comb

    def _replay_phase(self, comb: int) -> int:
        """phase_exp of the product of the selected signed generators."""
        xa = za = pha = 0
        sel = comb
        while sel:
            i = (sel & -sel).bit_length() - 1
            sel &= sel - 1
            g = self.generators[i]
            pha += g.phase_exp + 2 * (za & g.x_bits).bit_count()
            if self.signs[i] < 0:
                pha += 2
            xa ^= g.x_bits
            za ^= g.z_bits
        return pha % 4

    # -- queries -----------------------------------------------------------

    def membership(self, p: PauliString) -> Optional[int]:
        """Sign of p in the group (+-1), or None if p is outside.

        Rejects non-Hermitian strings: their expectations are complex and
        handled at the polynomial level instead.
        """
        if p.n_qubits != self.n_qubits:
            raise ValueError("string and group act on different qubit counts")
        if not p.is_hermitian():
            raise ValueError(f"string {p.label()} is not Hermitian")
        comb = self._solve(p.x_bits, p.z_bits)
        if comb is None:
            return None
        group_phase = self._replay_phase(comb)
        offset = (p.phase_exp - group_phase) % 4
        if offset == 0:
            return 1
        if offset == 2:
            return -1
        raise AssertionError("phase offset of Hermitian strings must be 0 or 2")

    def expectation(self, p: PauliString) -> float:
        sign = self.membership(p)
        return 0.0 if sign is None else float(sign)

    def poly_expectation(self, poly: PauliPolynomial) -> complex:
        """Exact ground-state expectation of a Pauli polynomial."""
        if poly.n_qubits != self.n_qubits:
            raise ValueError("polynomial and group act on different qubit counts")
        total = 0.0 + 0.0j
        for (x, z), coeff in poly.terms.items():
            comb = self._solve(x, z)
            if comb is None:
                continue
            # bare term = i^{-q} * (group element), so <bare> = i^{-q}.
            total += coeff * phase_value(-self._replay_phase(comb))
        return total

    def with_signs(self, signs: Iterable[int]) -> "StabilizerGroup":
        """Same generators with a different sign assignment (other sector)."""
        return StabilizerGroup(self.generators, tuple(signs))
