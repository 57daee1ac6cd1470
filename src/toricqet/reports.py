"""Result records and their CSV/JSON serialization.

Only this module knows the sweep CSV column layout, part of the tool's
contract and golden-file tested; floats are printed with 17 significant
digits so runs reproduce byte-for-byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

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


def sweep_csv_lines(blocks: Iterable[tuple]):
    """Yield the header, then one line per grid point of each (surface, backend
    tag) block, theta-major; a surface is an ``optimize.OptimizeResult``.  Only
    E_B, delta and closed_form are formatted per row, the rest once."""
    yield ",".join(SWEEP_COLUMNS)
    for surface, backend in blocks:
        axes = [",".join(map(format_float, axis)) for axis in surface.axes.tolist()]
        shared = f"{format_float(float(surface.p_plus))},{format_float(float(surface.e_a))}"
        for theta, deltas, closed in zip(surface.thetas.tolist(), surface.deltas, surface.closed_form):
            head = format_float(theta)
            for axis, e, d, c in zip(axes, (surface.e_a + deltas).tolist(), deltas.tolist(), closed.tolist()):
                yield f"{head},{axis},{shared},{format_float(e)},{format_float(d)},{format_float(c)},{backend}"


def write_sweep_csv(path: str, blocks: Iterable[tuple]):
    """Write (surface, backend tag) blocks as one table under a single header."""
    try:
        with open(path, "w") as fh:
            for line in sweep_csv_lines(blocks):
                fh.write(line + "\n")
    except OSError as exc:
        raise OSError(f"cannot write sweep table to {path}: {exc}") from exc
