"""Result records and their CSV/JSON serialization.

Only this module knows the sweep CSV column layout, part of the tool's
contract and golden-file tested; floats are printed with 17 significant
digits so runs reproduce byte-for-byte.

The sweep CSV's E_B, delta and closed_form fields, three per grid point,
go through ``floatfmt.format_fields``, one theta row of the grid at a time:
numpy writes the bytes of ``'%.17g' % x``.  It is exact by construction (an
exact two-product, an even integer hi, ties rounded half-to-even, Python's
own formatting outside [1e-4, 1e16)); floatfmt's docstring has the argument.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

import numpy as np

from .floatfmt import FIELD_WIDTH, format_fields, padded

SWEEP_COLUMNS = (
    "theta",
    "nx",
    "ny",
    "nz",
    "p_plus",
    "E_A",
    "E_B",
    "delta",
    "closed_form",
    "backend",
)

PROB_TOL = 1e-10
ENERGY_FLOOR = -1e-10
# Energies relative to E_0 are differences of raw sums of size |E_0|, whose
# rounding is below ENERGY_REL_EPS * |E_0|; a smaller difference is not resolved.
ENERGY_REL_EPS = 2.0 ** -40


@dataclass(frozen=True)
class EnergyReport:
    """One full protocol evaluation: measurement, rotation, energies.

    Energies e_a and e_b are relative to the ground energy; the absolute
    values are recoverable through ground_energy.  closed_form is None for
    a model without a closed-form delta.
    """

    scheme: str
    backend: str
    theta: float
    axis: tuple[float, float, float]
    p_plus: float
    p_minus: float
    e_a: float
    e_b: float
    delta: float
    closed_form: Optional[float]
    ground_energy: float
    stabilizer_expectations: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        values = [self.theta, *self.axis, self.p_plus, self.p_minus,
                  self.e_a, self.e_b, self.delta, self.ground_energy]
        if self.closed_form is not None:
            values.append(self.closed_form)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("report contains non-finite entries")
        if abs(self.p_plus + self.p_minus - 1.0) > PROB_TOL:
            raise ValueError(
                f"outcome probabilities sum to {self.p_plus + self.p_minus!r}, not 1"
            )
        for name, p in (("p_plus", self.p_plus), ("p_minus", self.p_minus)):
            if not -PROB_TOL <= p <= 1.0 + PROB_TOL:
                raise ValueError(f"{name} = {p!r} is not a probability")
        if self.e_a < ENERGY_FLOOR:
            rounding = ENERGY_REL_EPS * abs(self.ground_energy)
            if -self.e_a <= rounding:
                raise ValueError(f"e_a = {self.e_a!r} lies within the rounding tolerance {rounding:.3g} "
                                 f"of |E_0| = {abs(self.ground_energy):.3g}; the measured energy cannot be resolved")
            raise ValueError(f"measurement cannot remove energy: e_a = {self.e_a!r}")

    @property
    def e_a_absolute(self) -> float:
        return self.ground_energy + self.e_a

    @property
    def e_b_absolute(self) -> float:
        return self.ground_energy + self.e_b

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "backend": self.backend,
            "theta": self.theta,
            "axis": list(self.axis),
            "p_plus": self.p_plus,
            "p_minus": self.p_minus,
            "E_A": self.e_a,
            "E_B": self.e_b,
            "delta": self.delta,
            "closed_form": self.closed_form,
            "ground_energy": self.ground_energy,
            "E_A_absolute": self.e_a_absolute,
            "E_B_absolute": self.e_b_absolute,
            "stabilizer_expectations": dict(self.stabilizer_expectations),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


@dataclass(frozen=True)
class Check:
    label: str
    passed: bool
    value: float
    contrast: bool = False  # value is expected to be LARGE, not a residual


@dataclass(frozen=True)
class CheckReport:
    name: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)


def format_float(x: float) -> str:
    return f"{x:.17g}"


def sweep_csv_lines(blocks: Iterable[tuple]):
    """Yield the header, then, for each (system, surface, backend tag) block,
    one text block per theta row of the grid: its lines, one per axis,
    joined by newlines.  p_plus and E_A come from a ``ProtocolSystem``, the
    rest from an ``OptimizeResult``.  The lines of a row are a byte matrix
    with NUL padding: theta, the axis prefix (the axis, p_plus and E_A,
    formatted once per block), the E_B, delta and closed_form fields (a
    comma in the last, always NUL, byte of the first two) and the backend
    suffix.  The three value fields of a row come from one ``format_fields``
    call on a (3, axes) array filled in place, written through a
    (field, axis, byte) view of the matrix.  Dropping the NUL bytes leaves
    the text."""
    yield ",".join(SWEEP_COLUMNS)
    for system, surface, backend in blocks:
        e_a = system.injected_energy
        shared = f"{format_float(float(system.probabilities[1]))},{format_float(float(e_a))}"
        prefixes = [f",{','.join(map(format_float, axis))},{shared}," for axis in surface.axes.tolist()]
        thetas = [format_float(theta) for theta in surface.thetas.tolist()]
        start = max(map(len, thetas))
        end = start + max(map(len, prefixes))
        suffix = f",{backend}\n".encode()
        buffer = bytearray(len(prefixes) * (end + 3 * FIELD_WIDTH + len(suffix)))
        line = np.frombuffer(buffer, np.uint8).reshape(len(prefixes), -1)
        line[:, start:end] = padded(prefixes, end - start)
        line[:, -len(suffix):] = np.frombuffer(suffix, np.uint8)
        line[-1, -1] = 0  # no newline after the last line
        fields = line[:, end:end + 3 * FIELD_WIDTH].reshape(len(prefixes), 3, FIELD_WIDTH).transpose(1, 0, 2)
        values = np.empty((3, len(prefixes)))
        for theta, deltas, closed in zip(padded(thetas, start), surface.deltas, surface.closed_form_rows()):
            line[:, :start] = theta
            np.add(e_a, deltas, out=values[0])
            values[1] = deltas
            values[2] = closed
            fields[:] = format_fields(values.ravel()).reshape(fields.shape)
            line[:, end + FIELD_WIDTH - 1:end + 2 * FIELD_WIDTH:FIELD_WIDTH] = ord(",")
            yield buffer.translate(None, b"\0").decode()


def write_lines(path: str, artifact: str, lines: Iterable[str]):
    """Write each line and a newline to path; every CLI artifact goes through
    here, so a failed write reads "cannot write <artifact> to <path>: <reason>"."""
    try:
        with open(path, "w") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write {artifact} to {path}: {exc.strerror or exc}") from exc


def write_sweep_csv(path: str, blocks: Iterable[tuple]):
    """Write (system, surface, backend tag) blocks as one table under a single header."""
    write_lines(path, "sweep table", sweep_csv_lines(blocks))
