"""Report invariants and CSV serialization."""

import json
import math

import pytest

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


class TestCsv:
    ROW = (0.25, 0.0, 0.5, 0.75, 0.5, 2.0, 2.5, 0.5, 0.5)

    def test_header_and_row(self):
        lines = list(sweep_csv_lines([self.ROW], "stabilizer"))
        assert lines[0] == "theta,nx,ny,nz,p_plus,E_A,E_B,delta,closed_form,backend"
        assert lines[1] == "0.25,0,0.5,0.75,0.5,2,2.5,0.5,0.5,stabilizer"

    def test_full_precision_kept(self):
        row = (0.6, 1.0 / 3.0, 0.0, 0.0, 0.5, 2.0, 2.0, 0.0, 0.0)
        line = list(sweep_csv_lines([row], "stabilizer"))[1]
        fields = line.split(",")
        assert float(fields[0]) == 0.6
        assert float(fields[1]) == 1.0 / 3.0

    def test_float_formatting_roundtrips(self):
        values = [1.0 / 3.0, math.pi, -0.10557280900008412, 1e-17, 0.0]
        for v in values:
            assert float(format_float(v)) == v

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            list(sweep_csv_lines([(1.0, 2.0)], "stabilizer"))

    def test_write_and_read_back(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(str(path), [([self.ROW, self.ROW], "statevector")])
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].split(",") == list(SWEEP_COLUMNS)
        assert lines[1] == lines[2]
        assert lines[1].endswith(",statevector")

    def test_write_error_names_path(self, tmp_path):
        bad = tmp_path / "missing" / "sweep.csv"
        with pytest.raises(OSError, match="sweep"):
            write_sweep_csv(str(bad), [([self.ROW], "stabilizer")])

    def test_blocks_share_one_header(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(str(path), [([self.ROW], "stabilizer"), ([self.ROW, self.ROW], "statevector")])
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert [ln for ln in lines if ln.startswith("theta")] == [lines[0]]
        assert [ln.rsplit(",", 1)[1] for ln in lines[1:]] == ["stabilizer", "statevector", "statevector"]
