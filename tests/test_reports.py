"""Report invariants and CSV serialization."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from toricqet.chain import build_chain, protocol_system
from toricqet.lattice import ToricLattice
from toricqet.optimize import GridSpec, optimize_system
from toricqet.protocol import ProtocolSystem, make_backends
from toricqet.reports import (
    SWEEP_COLUMNS,
    EnergyReport,
    format_float,
    sweep_csv_lines,
    write_sweep_csv,
)


def make_report(**overrides):
    base = dict(
        scheme="test scheme",
        backend="stabilizer",
        theta=0.25,
        axis=(0.0, 0.6, 0.8),
        p_plus=0.5,
        p_minus=0.5,
        e_a=2.0,
        e_b=2.5,
        delta=0.5,
        closed_form=0.5,
        ground_energy=-8.0,
        stabilizer_expectations={"star(0,0)": 1.0},
    )
    base.update(overrides)
    return EnergyReport(**base)


class TestEnergyReport:
    def test_valid_report_roundtrips(self):
        rep = make_report()
        data = json.loads(rep.to_json())
        assert data["delta"] == 0.5
        assert data["axis"] == [0.0, 0.6, 0.8]
        assert data["backend"] == "stabilizer"
        assert rep.e_a_absolute == -6.0
        assert rep.e_b_absolute == -5.5

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            make_report(p_plus=0.7, p_minus=0.5)
        with pytest.raises(ValueError):
            make_report(p_plus=-0.1, p_minus=1.1)

    def test_rejects_negative_injection(self):
        with pytest.raises(ValueError):
            make_report(e_a=-0.5, e_b=0.0, delta=0.5)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            make_report(e_b=math.nan, delta=math.nan)
        with pytest.raises(ValueError):
            make_report(e_b=math.inf, delta=math.inf)

    def test_tiny_negative_e_a_tolerated(self):
        rep = make_report(e_a=-1e-12, e_b=0.5 - 1e-12)
        assert rep.e_a == -1e-12


def surface(thetas, axes, deltas, closed_form, p_plus=0.5, e_a=2.0):
    """A grid surface with the fields of an OptimizeResult that the CSV reads."""
    return SimpleNamespace(thetas=np.array(thetas), axes=np.array(axes), deltas=np.array(deltas),
                           closed_form=np.array(closed_form), p_plus=p_plus, e_a=e_a)


class TestCsv:
    POINT = surface([0.25], [[0.0, 0.5, 0.75]], [[0.5]], [[0.5]])
    GRID = surface([0.25, 0.5], [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], [[0.0, 0.25], [0.0, 0.75]],
                   [[0.0, 0.25], [0.0, 0.75]])

    def test_header_and_row(self):
        lines = list(sweep_csv_lines([(self.POINT, "stabilizer")]))
        assert lines[0] == "theta,nx,ny,nz,p_plus,E_A,E_B,delta,closed_form,backend"
        assert lines[1] == "0.25,0,0.5,0.75,0.5,2,2.5,0.5,0.5,stabilizer"

    def test_full_precision_kept(self):
        point = surface([0.6], [[1.0 / 3.0, 0.0, 0.0]], [[0.0]], [[0.0]])
        line = list(sweep_csv_lines([(point, "stabilizer")]))[1]
        fields = line.split(",")
        assert float(fields[0]) == 0.6
        assert float(fields[1]) == 1.0 / 3.0

    def test_float_formatting_roundtrips(self):
        values = [1.0 / 3.0, math.pi, -0.10557280900008412, 1e-17, 0.0]
        for v in values:
            assert float(format_float(v)) == v

    def test_write_and_read_back(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(str(path), [(self.GRID, "statevector")])
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        assert lines[0].split(",") == list(SWEEP_COLUMNS)
        # theta-major, axes in order within each theta
        assert [ln.split(",")[:4] for ln in lines[1:]] == [
            ["0.25", "1", "0", "0"], ["0.25", "0", "0", "1"], ["0.5", "1", "0", "0"], ["0.5", "0", "0", "1"],
        ]
        assert [ln.split(",")[6] for ln in lines[1:]] == ["2", "2.25", "2", "2.75"]
        assert all(ln.endswith(",statevector") for ln in lines[1:])

    def test_write_error_names_path(self, tmp_path):
        bad = tmp_path / "missing" / "sweep.csv"
        with pytest.raises(OSError, match="sweep"):
            write_sweep_csv(str(bad), [(self.POINT, "stabilizer")])

    def test_blocks_share_one_header(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(str(path), [(self.POINT, "stabilizer"), (self.GRID, "statevector")])
        lines = path.read_text().splitlines()
        assert len(lines) == 6
        assert [ln for ln in lines if ln.startswith("theta")] == [lines[0]]
        assert [ln.rsplit(",", 1)[1] for ln in lines[1:]] == ["stabilizer"] + ["statevector"] * 4


def table_csv(blocks) -> str:
    """The sweep CSV as a 9-column float table, one row of (theta, nx, ny,
    nz, p_plus, E_A, E_B, delta, closed_form) per grid point, each value
    passed through format_float: the reference the streaming writer must
    reproduce byte for byte."""
    lines = [",".join(SWEEP_COLUMNS)]
    for res, backend in blocks:
        t_count, m_count = res.deltas.shape
        rows = np.empty((t_count * m_count, 9), dtype=np.float64)
        rows[:, 0] = np.repeat(res.thetas, m_count)
        rows[:, 1:4] = np.tile(res.axes, (t_count, 1))
        rows[:, 4] = res.p_plus
        rows[:, 5] = res.e_a
        flat = res.deltas.reshape(-1)
        rows[:, 6] = res.e_a + flat
        rows[:, 7] = flat
        s2 = np.repeat(np.sin(res.thetas) ** 2, m_count)
        rows[:, 8] = 4.0 * s2 * (rows[:, 2] ** 2 + rows[:, 3] ** 2)
        fields = [format_float(v) for v in rows.reshape(-1).tolist()]
        lines += [",".join(fields[i:i + 9] + [backend]) for i in range(0, len(fields), 9)]
    return "".join(line + "\n" for line in lines)


class TestCsvMatchesTable:
    """The writer reads the grid surface directly; its bytes equal those of
    the float table it replaced, whatever the LAPACK build computes."""

    def check(self, tmp_path, blocks):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(str(path), blocks)
        got, want = path.read_text(), table_csv(blocks)
        same = got == want  # compared outside the assert: a diff of 30 MB strings takes minutes
        first = next((i for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines())) if a != b), None)
        assert same, f"first differing line {first} ({len(got)} vs {len(want)} characters)"

    def test_control_table_grid(self, tmp_path):
        # the control-table benchmark workload: 263,939 rows
        model = build_chain(6, site_b=1)
        res = optimize_system(protocol_system(model), GridSpec(theta_count=257, sphere_count=1024),
                              independent=True)
        self.check(tmp_path, [(res, model.label())])

    def test_torus_both_backends(self, tmp_path):
        lat = ToricLattice(2)
        scheme = lat.full_region_scheme()
        blocks = [
            (optimize_system(ProtocolSystem.from_toric(lat, scheme, backend)), backend.name)
            for backend in make_backends(lat, "both", (1, 1))
        ]
        self.check(tmp_path, blocks)
