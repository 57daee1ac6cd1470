"""Kraus sandwiches <M_k P M_k> of the protocol's measurement, both outcomes per pass.

The measurement of a Hermitian string S has the Kraus projectors
M_k = (I + kS)/2, k in OUTCOMES.  A term a of P that anticommutes with S
drops out of M_k P M_k, and one that commutes adds h_k a + s_k sign S a.
Both outcomes share the keys a and S a, so one pass over P's terms builds
them both, one coefficient per outcome.  `KrausSandwiches.sandwiches`
hashes one key order into one slot per term (the rows of a and S a, and
the sign), fills one table per pass through those slots, and returns the
pass's expectations.  A pass may shift every key by one key t on the
target: S never touches the target, so a xor t keeps a's slot.  The
backend's column kernel reads a table once: a query costs one engine
lookup per key, not one per key, outcome and operator.
`sandwich_expectations` is the one-operator query, and
`bare_term_expectations` gives the post-measurement profile's rows.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from .pauli import PRUNE_TOL, PauliPolynomial

OUTCOMES = (1, -1)


class KrausSandwiches:
    """The Kraus sandwich expectations of a system with `measured` (S, a
    Hermitian string off the target), `n_qubits` and a ground-state `backend`."""

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
    ) -> list[list[complex]]:
        """<M_k P M_k>, both outcomes, for operators P on one key order: one
        list of values per pass.

        `keys` are the term keys a of a polynomial, in its order.  They are
        hashed once, into one slot per term: None where a anticommutes with S
        (it drops out), else the row of a, the row of S a and the sign of
        S a.  Each pass (t, columns) then fills one table through those
        slots, with no hashing, and the backend reads it in one
        expect_columns call.  Column c of a pass, coefficients in key order,
        stands for P = sum_a c_a (a xor t), where t acts only off S's
        support (a key on the target); a xor t has a's slot, shifted by t.
        The table holds, for each P and outcome, the keys, key order and
        coefficient bits of m_ops[k].mul(P).mul(m_ops[k]), pruned below
        PRUNE_TOL, so value 2c + j of a pass is that product's
        expectation for k = OUTCOMES[j].
        """
        # A row is named by the lower key of its pair {a, S a}: the key itself,
        # or (lower key,) for the higher one.  Raw S a keys share CPython int
        # hashes and their leading digits, so a lookup among them compared
        # whole n-bit ints.  The higher key is not held: a pass rebuilds it.
        rows: dict[tuple, list] = {}
        slots = []
        for key in keys:
            hit = self.partner(key)
            if hit is None:
                slots.append(None)
            elif key < hit[0]:
                slots.append((rows.setdefault(key, []), rows.setdefault((key,), []), hit[1]))
            else:
                slots.append((rows.setdefault((hit[0],), []), rows.setdefault(hit[0], []), hit[1]))
        (half_p, shift_p), (half_m, shift_m) = self.kraus_weights
        values = []
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
                    if abs(c) < PRUNE_TOL:
                        row[j] = None
            values.append(self.backend.expect_columns(self._table(rows, tx, tz), len(zeros)))
        return values

    def _table(self, rows: dict[tuple, list], tx: int, tz: int) -> Iterator[tuple[tuple[int, int], list]]:
        """(key xor t, row) for each of `sandwiches`' rows, in order."""
        stx, stz = self.measured.x_bits ^ tx, self.measured.z_bits ^ tz
        for name, row in rows.items():
            if len(name) == 1:
                (x, z), = name
                yield (x ^ stx, z ^ stz), row
            elif tx | tz:
                yield (name[0] ^ tx, name[1] ^ tz), row
            else:
                yield name, row

    def sandwich_expectations(self, op: PauliPolynomial) -> dict[int, complex]:
        """{k: <M_k op M_k>}: both outcomes from one table, each key queried once."""
        values, = self.sandwiches(op.terms, (((0, 0), (op.terms.values(),)),))
        return dict(zip(OUTCOMES, values))

    def bare_term_expectations(self, keys: Iterable[tuple[int, int]]) -> Iterator[float]:
        """sum_k <M_k a M_k> for each bare term a = X^x Z^z (coefficient 1), in order.

        a's table has at most the two rows `sandwiches` would give it: a and
        S a, with |coefficients| = 1/2 (none pruned).  They are built here
        with its float operations and go straight to the backend, one query
        per term, without a `sandwiches` call per term.
        """
        one = 1 + 0j
        own = [0.0 + half * one for half, _ in self.kraus_weights]
        shifted = {sign: [0.0 + shift * one * sign for _, shift in self.kraus_weights] for sign in (1.0, -1.0)}
        for key in keys:
            hit = self.partner(key)
            rows = () if hit is None else ((key, own), (hit[0], shifted[hit[1]]))
            yield sum(v.real for v in self.backend.expect_columns(rows, len(OUTCOMES)))
