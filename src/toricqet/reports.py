"""Result records and their CSV/JSON serialization.

The sweep CSV column order is part of the tool's contract and is golden-file
tested; floats are printed with 17 significant digits so runs reproduce
byte-for-byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

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


def format_float(x: float) -> str:
    return f"{x:.17g}"


def sweep_csv_lines(rows: Sequence[Sequence[float]], backend: str):
    """Yield CSV lines for (theta, nx, ny, nz, p_plus, E_A, E_B, delta,
    closed_form) rows, appending the backend tag column."""
    yield ",".join(SWEEP_COLUMNS)
    for row in rows:
        if len(row) != len(SWEEP_COLUMNS) - 1:
            raise ValueError(f"sweep row has {len(row)} fields, expected {len(SWEEP_COLUMNS) - 1}")
        yield ",".join([format_float(float(v)) for v in row] + [backend])


def write_sweep_csv(path: str, blocks: Sequence[tuple[Sequence[Sequence[float]], str]]):
    """Write (rows, backend tag) blocks as one table under a single header."""
    try:
        with open(path, "w") as fh:
            for i, (rows, backend) in enumerate(blocks):
                lines = sweep_csv_lines(rows, backend)
                if i > 0:
                    next(lines)  # the header
                for line in lines:
                    fh.write(line + "\n")
    except OSError as exc:
        raise OSError(f"cannot write sweep table to {path}: {exc}") from exc
