"""Exact algebra of Pauli strings and sparse Pauli polynomials.

An n-qubit Pauli string is encoded by two bitmasks and a phase exponent:

    P = i^phase_exp * (X^x0 Z^z0) ox (X^x1 Z^z1) ox ... ox (X^x_{n-1} Z^z_{n-1})

where bit j of ``x_bits`` / ``z_bits`` is the X / Z exponent on qubit j.
The factor ordering on each qubit is X-then-Z, so the project-wide phase
convention is XZ = -iY (equivalently Y = iXZ): the string with both bits
set at one qubit and phase_exp = 1 is exactly sigma_y.

All phases are powers of i tracked exactly as an integer mod 4.  A string
is Hermitian iff ``phase_exp`` and the number of Y-sites (bits set in both
masks) have the same parity.

Bitmasks are plain Python integers, so widths scale with the lattice and
multiplication / commutation are word-packed popcounts under the hood.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

# Coefficients below this magnitude are dropped from polynomials.  Every
# exact quantity in this project is an integer or dyadic rational times a
# power of i, so the threshold cleanly separates zero from nonzero.
PRUNE_TOL = 1e-12

_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

# One term key of several polynomials that share a key order, with each
# polynomial's coefficient there (None where it has no such term): the rows
# an engine's column_expectations reads.
TermRow = tuple[tuple[int, int], Sequence[Optional[complex]]]


def nan_max(values: Iterable[float]) -> float:
    """max(values, default=0.0), but NaN if any value is NaN: max alone returns one only in first place."""
    return max(values, key=lambda v: (v != v, v), default=0.0)


def phase_value(phase_exp: int) -> complex:
    """Return i**phase_exp as an exact complex unit."""
    return _I_POW[phase_exp % 4]


@dataclass(frozen=True)
class PauliString:
    """Signed/phased tensor product of single-qubit Paulis, bit-packed."""

    n_qubits: int
    x_bits: int
    z_bits: int
    phase_exp: int = 0

    def __post_init__(self):
        if self.n_qubits <= 0:
            raise ValueError("n_qubits must be positive")
        mask = (1 << self.n_qubits) - 1
        if self.x_bits & ~mask or self.z_bits & ~mask:
            raise ValueError("bitmask exceeds n_qubits")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @classmethod
    def single(cls, n_qubits: int, qubit: int, axis: str) -> "PauliString":
        """The operator sigma^axis on one qubit (axis in 'x', 'y', 'z')."""
        return cls.from_support(n_qubits, (qubit,), axis)

    @classmethod
    def from_support(cls, n_qubits: int, qubits: Iterable[int], axis: str) -> "PauliString":
        """Product of sigma^axis over the given qubits (each at most once)."""
        mask = 0
        for q in qubits:
            if not 0 <= q < n_qubits:
                raise ValueError(f"qubit {q} out of range for {n_qubits} qubits")
            bit = 1 << q
            if mask & bit:
                raise ValueError(f"repeated qubit {q} in support")
            mask |= bit
        if axis == "x":
            return cls(n_qubits, mask, 0, 0)
        if axis == "z":
            return cls(n_qubits, 0, mask, 0)
        if axis == "y":
            return cls(n_qubits, mask, mask, mask.bit_count())
        raise ValueError(f"unknown Pauli axis {axis!r}")

    # -- algebra ---------------------------------------------------------

    def commutes(self, other: "PauliString") -> bool:
        """Symplectic test: even overlap of (x, z') and (z, x') parts."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("Pauli strings act on different qubit counts")
        overlap = (self.x_bits & other.z_bits).bit_count() + (self.z_bits & other.x_bits).bit_count()
        return overlap % 2 == 0


@dataclass(frozen=True)
class PauliPolynomial:
    """Sparse complex-weighted sum of Pauli strings.

    Terms map the bare bitmask pair (x_bits, z_bits) to a complex
    coefficient; any i^phase of the constituent strings is folded into the
    coefficient.  Coefficients with magnitude below PRUNE_TOL are never
    stored (a NaN is kept: dropping it would read it as zero).
    """

    n_qubits: int
    terms: Mapping[tuple[int, int], complex]

    @classmethod
    def zero(cls, n_qubits: int) -> "PauliPolynomial":
        return cls(n_qubits, {})

    @classmethod
    def identity(cls, n_qubits: int, coeff: complex = 1.0) -> "PauliPolynomial":
        return cls._from_raw(n_qubits, {(0, 0): complex(coeff)})

    @classmethod
    def from_string(cls, string: PauliString, coeff: complex = 1.0) -> "PauliPolynomial":
        c = complex(coeff) * phase_value(string.phase_exp)
        return cls._from_raw(string.n_qubits, {(string.x_bits, string.z_bits): c})

    @classmethod
    def from_strings(cls, n_qubits: int, weighted: Iterable[tuple[PauliString, complex]]) -> "PauliPolynomial":
        acc: dict[tuple[int, int], complex] = {}
        for string, coeff in weighted:
            if string.n_qubits != n_qubits:
                raise ValueError("Pauli strings act on different qubit counts")
            key = (string.x_bits, string.z_bits)
            acc[key] = acc.get(key, 0.0) + complex(coeff) * phase_value(string.phase_exp)
        return cls._from_raw(n_qubits, acc)

    @classmethod
    def projector(cls, string: PauliString, k: int) -> "PauliPolynomial":
        """The Kraus projector (I + k string)/2 onto outcome k = +-1 of a Hermitian string."""
        if k not in (1, -1):
            raise ValueError("outcome must be +-1")
        return cls.identity(string.n_qubits, 0.5) + cls.from_string(string, 0.5 * k)

    @classmethod
    def _from_raw(cls, n_qubits: int, raw: dict[tuple[int, int], complex]) -> "PauliPolynomial":
        pruned = {k: v for k, v in raw.items() if not abs(v) < PRUNE_TOL}
        return cls(n_qubits, pruned)

    # -- ring operations -------------------------------------------------

    def add(self, other: "PauliPolynomial") -> "PauliPolynomial":
        if self.n_qubits != other.n_qubits:
            raise ValueError("polynomials act on different qubit counts")
        acc = dict(self.terms)
        for key, c in other.terms.items():
            acc[key] = acc.get(key, 0.0) + c
        return PauliPolynomial._from_raw(self.n_qubits, acc)

    __add__ = add

    def sub(self, other: "PauliPolynomial") -> "PauliPolynomial":
        return self.add(other.scale(-1.0))

    __sub__ = sub

    def scale(self, factor: complex) -> "PauliPolynomial":
        return PauliPolynomial._from_raw(
            self.n_qubits, {k: v * factor for k, v in self.terms.items()}
        )

    def mul(self, other: "PauliPolynomial") -> "PauliPolynomial":
        """Distributed product with term merging and pruning."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("polynomials act on different qubit counts")
        acc: dict[tuple[int, int], complex] = {}
        for (x1, z1), c1 in self.terms.items():
            for (x2, z2), c2 in other.terms.items():
                # Bare-string product: X^x1 Z^z1 X^x2 Z^z2 picks up a sign
                # from each site where z1 and x2 overlap.
                sign = -1.0 if (z1 & x2).bit_count() & 1 else 1.0
                key = (x1 ^ x2, z1 ^ z2)
                acc[key] = acc.get(key, 0.0) + c1 * c2 * sign
        return PauliPolynomial._from_raw(self.n_qubits, acc)

    def commutator(self, other: "PauliPolynomial") -> "PauliPolynomial":
        return self.mul(other).sub(other.mul(self))

    def adjoint(self) -> "PauliPolynomial":
        # (X^x Z^z)^dagger = (-1)^{|x & z|} X^x Z^z.
        acc = {}
        for (x, z), c in self.terms.items():
            sign = -1.0 if (x & z).bit_count() & 1 else 1.0
            acc[(x, z)] = c.conjugate() * sign
        return PauliPolynomial._from_raw(self.n_qubits, acc)

    # -- inspection ------------------------------------------------------

    def n_terms(self) -> int:
        return len(self.terms)

    def max_abs_coeff(self) -> float:
        return nan_max(abs(c) for c in self.terms.values())

    def strings(self) -> Iterable[tuple[PauliString, complex]]:
        """Iterate terms as (bare PauliString, coefficient) pairs."""
        for (x, z), c in self.terms.items():
            yield PauliString(self.n_qubits, x, z, 0), c
