"""Kraus sandwiches M_k P M_k of the protocol's measurement, both outcomes per table.

The measurement of a Hermitian string S has the Kraus projectors
M_k = (I + kS)/2, k in OUTCOMES.  A term a of P that anticommutes with S
drops out of M_k P M_k, and one that commutes adds h_k a + s_k sign S a.
Both outcomes share the keys a and S a, so one pass over P's terms builds
them both, one coefficient per outcome.  `KrausSandwiches.sandwiches`
hashes one key order into one slot per term (the rows of a and S a, and
the sign), and fills one table per pass through those slots.  A pass may
shift every key by one key t on the target: S never touches the target,
so a xor t keeps a's slot.  The backend's column kernel reads a table
once: a query costs one engine lookup per key, not one per key, outcome
and operator.  `sandwich_expectations` is the one-operator query;
`sandwich(op, k)` is kept for operators that depend on k and for the
polynomial identities the checks compare.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .pauli import PRUNE_TOL, PauliPolynomial, TermRow

OUTCOMES = (1, -1)


class KrausSandwiches:
    """The sandwich tables of a system with `measured` (S, a Hermitian string
    off the target), `n_qubits` and a ground-state `backend`."""

    @cached_property
    def m_ops(self) -> dict[int, PauliPolynomial]:
        """The Kraus projectors M_k = (I + kS)/2, by outcome."""
        return {k: PauliPolynomial.projector(self.measured, k) for k in OUTCOMES}

    @cached_property
    def kraus_weights(self) -> tuple[tuple[complex, complex], ...]:
        """(coefficient of I, coefficient of S) in M_k, by outcome (OUTCOMES order)."""
        key = (self.measured.x_bits, self.measured.z_bits)
        return tuple((self.m_ops[k].terms[(0, 0)], self.m_ops[k].terms[key]) for k in OUTCOMES)

    def partner(self, key: tuple[int, int]) -> Optional[tuple[tuple[int, int], float]]:
        """(key of S a, sign) for a bare term a = X^x Z^z: M_k a M_k = h_k a + s_k sign X^x' Z^z',
        (h_k, s_k) the kraus_weights of outcome k.  None when a anticommutes
        with S and drops out."""
        x, z = key
        sx, sz = self.measured.x_bits, self.measured.z_bits
        if ((x & sz).bit_count() + (z & sx).bit_count()) & 1:
            return None
        return (x ^ sx, z ^ sz), -1.0 if (sz & x).bit_count() & 1 else 1.0

    def sandwiches(
        self, keys: Iterable[tuple[int, int]], passes: Iterable[tuple[tuple[int, int], Sequence[Iterable[complex]]]]
    ) -> Iterator[Iterable[TermRow]]:
        """Tables of M_k P M_k, both outcomes, for operators P on one key order.

        `keys` are the term keys a of a polynomial, in its order.  They are
        hashed once, into one slot per term: None where a anticommutes with S
        (it drops out), else the row of a, the row of S a and the sign of
        S a.  Each pass (t, columns) then fills the table through those
        slots, with no hashing.  Column c of a pass, coefficients in key
        order, stands for P = sum_a c_a (a xor t), where t acts only off S's
        support (a key on the target); a xor t has a's slot, shifted by t.
        Each P gets one coefficient per outcome (OUTCOMES order), None where
        it falls below PRUNE_TOL.  A table yields (key xor t, row) in row
        order, and column 2c + j of it has the keys, key order and
        coefficient bits of m_ops[k].mul(P).mul(m_ops[k]) for
        k = OUTCOMES[j].  The passes fill one table in place, as each is
        drawn, so a table is valid until the next one is drawn.
        """
        rows: dict[tuple[int, int], list] = {}
        slots = []
        for key in keys:
            hit = self.partner(key)
            if hit is None:
                slots.append(None)
            else:
                slots.append((rows.setdefault(key, []), rows.setdefault(hit[0], []), hit[1]))
        (half_p, shift_p), (half_m, shift_m) = self.kraus_weights
        for (tx, tz), columns in passes:
            zeros = [0.0] * (len(OUTCOMES) * len(columns))
            for row in rows.values():
                row[:] = zeros
            for col, coeffs in zip(range(0, len(zeros), len(OUTCOMES)), columns):
                for c, slot in zip(coeffs, slots, strict=True):
                    if slot is not None:
                        row, shifted, sign = slot
                        row[col] += half_p * c
                        row[col + 1] += half_m * c
                        shifted[col] += shift_p * c * sign
                        shifted[col + 1] += shift_m * c * sign
            for row in rows.values():
                for j, c in enumerate(row):
                    if not abs(c) >= PRUNE_TOL:
                        row[j] = None
            yield zip(((x ^ tx, z ^ tz) for x, z in rows), rows.values()) if tx | tz else rows.items()

    def _table(self, op: PauliPolynomial) -> Iterable[TermRow]:
        table, = self.sandwiches(op.terms, (((0, 0), (op.terms.values(),)),))
        return table

    def sandwich(self, op: PauliPolynomial, k: int) -> PauliPolynomial:
        """M_k op M_k for one outcome: the outcome-k column of op's sandwiches
        table, for an op that depends on k or a polynomial identity."""
        j = OUTCOMES.index(k)
        return PauliPolynomial(self.n_qubits, {key: row[j] for key, row in self._table(op) if row[j] is not None})

    def sandwich_expectations(self, op: PauliPolynomial) -> dict[int, complex]:
        """{k: <M_k op M_k>}: both outcomes from one table, each key queried once."""
        return dict(zip(OUTCOMES, self.backend.expect_columns(self._table(op), len(OUTCOMES))))
