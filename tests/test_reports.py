"""Report invariants and CSV serialization."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from toricqet import floatfmt, reports
from toricqet.chain import build_chain, protocol_system
from toricqet.floatfmt import FIELD_WIDTH, format_fields
from toricqet.lattice import ToricLattice
from toricqet.optimize import IDLE, GridSpec, OptimizeResult, optimize_system
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
        with pytest.raises(ValueError, match="measurement cannot remove energy"):
            make_report(e_a=-0.5, e_b=0.0, delta=0.5)

    def test_negative_injection_within_rounding_of_ground_energy(self):
        # at |E_0| = 3e10 one ulp of E_0 is ~4e-6: the sign of e_a is rounding
        with pytest.raises(ValueError, match="rounding tolerance .* the measured energy cannot be resolved"):
            make_report(e_a=-1e-6, e_b=0.5, delta=0.5 + 1e-6, ground_energy=-3e10)
        with pytest.raises(ValueError, match="measurement cannot remove energy"):
            make_report(e_a=-1.0, e_b=0.5, delta=1.5, ground_energy=-3e10)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            make_report(e_b=math.nan, delta=math.nan)
        with pytest.raises(ValueError):
            make_report(e_b=math.inf, delta=math.inf)

    def test_tiny_negative_e_a_tolerated(self):
        rep = make_report(e_a=-1e-12, e_b=0.5 - 1e-12)
        assert rep.e_a == -1e-12


def block(thetas, axes, deltas, tag, p_plus=0.5, e_a=2.0):
    """A CSV block: a stand-in for the system's measured stage (p_plus, E_A)
    and an OptimizeResult holding the grid surface."""
    system = SimpleNamespace(probabilities={1: p_plus, -1: 1.0 - p_plus}, injected_energy=e_a)
    return system, OptimizeResult(0.0, IDLE, 0.0, np.array(thetas), np.array(axes), np.array(deltas)), tag


class TestCsv:
    POINT = block([0.25], [[0.0, 0.5, 0.75]], [[0.5]], "stabilizer")
    GRID = block([0.25, 0.5], [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], [[0.0, 0.25], [0.0, 0.75]], "statevector")

    def test_header_and_row(self):
        lines = list(sweep_csv_lines([self.POINT]))
        assert lines[0] == "theta,nx,ny,nz,p_plus,E_A,E_B,delta,closed_form,backend"
        # closed_form is the torus formula 4 sin^2(theta) (ny^2 + nz^2)
        closed = float(next(self.POINT[1].closed_form_rows())[0])
        assert closed == pytest.approx(4.0 * math.sin(0.25) ** 2 * (0.5 ** 2 + 0.75 ** 2), rel=1e-15)
        assert lines[1] == f"0.25,0,0.5,0.75,0.5,2,2.5,0.5,{format_float(closed)},stabilizer"

    def test_full_precision_kept(self):
        point = block([0.6], [[1.0 / 3.0, 0.0, 0.0]], [[0.0]], "stabilizer")
        line = list(sweep_csv_lines([point]))[1]
        fields = line.split(",")
        assert float(fields[0]) == 0.6
        assert float(fields[1]) == 1.0 / 3.0

    def test_float_formatting_roundtrips(self):
        values = [1.0 / 3.0, math.pi, -0.10557280900008412, 1e-17, 0.0]
        for v in values:
            assert float(format_float(v)) == v

    def test_write_and_read_back(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(str(path), [self.GRID])
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        assert lines[0].split(",") == list(SWEEP_COLUMNS)
        # theta-major, axes in order within each theta
        assert [ln.split(",")[:4] for ln in lines[1:]] == [
            ["0.25", "1", "0", "0"], ["0.25", "0", "0", "1"], ["0.5", "1", "0", "0"], ["0.5", "0", "0", "1"],
        ]
        assert [ln.split(",")[6] for ln in lines[1:]] == ["2", "2.25", "2", "2.75"]
        assert all(ln.endswith(",statevector") for ln in lines[1:])

    def test_one_block_per_theta_row(self):
        # the header, then each theta row's lines joined by newlines, none trailing
        blocks = list(sweep_csv_lines([self.GRID]))
        assert len(blocks) == 3
        assert [len(b.split("\n")) for b in blocks[1:]] == [2, 2]
        assert not any(b.endswith("\n") for b in blocks)
        assert [ln.split(",")[0] for ln in blocks[2].split("\n")] == ["0.5", "0.5"]

    @pytest.mark.parametrize("grid", [
        GRID,
        block([0.0, 0.25, 1.5], [[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.0, 0.0, 1.0], [0.6, 0.0, -0.8]],
              np.arange(12.0).reshape(3, 4) * [[0.0], [1e-5], [0.125]], "statevector"),
    ])
    def test_one_kernel_call_per_theta_row(self, monkeypatch, grid):
        # E_B, delta and closed_form of a theta row are formatted in one call
        sizes = []

        def counting(values):
            sizes.append(values.size)
            return format_fields(values)

        monkeypatch.setattr(reports, "format_fields", counting)
        lines = "\n".join(sweep_csv_lines([grid])).split("\n")
        t_count, m_count = grid[1].deltas.shape
        assert sizes == [3 * m_count] * t_count
        # zeros and values below 1e-4 go to Python; the bytes are the reference's
        assert "".join(line + "\n" for line in lines) == table_csv([grid])

    def test_write_error_names_path(self, tmp_path):
        bad = tmp_path / "missing" / "sweep.csv"
        with pytest.raises(OSError, match="sweep"):
            write_sweep_csv(str(bad), [self.POINT])

    def test_blocks_share_one_header(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(str(path), [self.POINT, self.GRID])
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
    for system, res, backend in blocks:
        t_count, m_count = res.deltas.shape
        rows = np.empty((t_count * m_count, 9), dtype=np.float64)
        rows[:, 0] = np.repeat(res.thetas, m_count)
        rows[:, 1:4] = np.tile(res.axes, (t_count, 1))
        rows[:, 4] = system.probabilities[1]
        rows[:, 5] = system.injected_energy
        flat = res.deltas.reshape(-1)
        rows[:, 6] = system.injected_energy + flat
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
        system = protocol_system(model)
        res = optimize_system(system, GridSpec(theta_count=257, sphere_count=1024), independent=True)
        self.check(tmp_path, [(system, res, model.label())])

    def test_torus_both_backends(self, tmp_path):
        lat = ToricLattice(2)
        scheme = lat.full_region_scheme()
        systems = [ProtocolSystem.from_toric(lat, scheme, backend) for backend in make_backends(lat, "both", (1, 1))]
        blocks = [(system, optimize_system(system), system.backend.name) for system in systems]
        self.check(tmp_path, blocks)


class TestFloatKernel:
    """format_fields against Python's '%.17g' % v, string for string."""

    @staticmethod
    def check(values):
        values = np.asarray(values, dtype=np.float64)
        rows = np.zeros((values.size, FIELD_WIDTH + 1), np.uint8)
        rows[:, :FIELD_WIDTH] = format_fields(values)
        rows[:, FIELD_WIDTH] = ord("\n")
        got = rows.tobytes().translate(None, b"\0").decode().split("\n")[:-1]
        want = ["%.17g" % v for v in values.tolist()]
        assert len(got) == len(want)
        mismatches = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
        assert not mismatches, mismatches[:5]

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(17)
        for _ in range(10):  # 10^6 patterns, in chunks to bound memory
            self.check(rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64).view(np.float64))

    def test_random_bit_patterns_near_the_kernel_range(self, monkeypatch):
        # random significands and signs, binary exponents from 2^-16 to 2^55:
        # most values lie in [1e-4, 1e16), where the vectorized path must be the one taken
        rng = np.random.default_rng(18)
        fallbacks, python_fields = [], floatfmt.python_fields
        monkeypatch.setattr(floatfmt, "python_fields", lambda v: fallbacks.append(v.size) or python_fields(v))
        for _ in range(4):
            bits = rng.integers(0, 2 ** 52, 100_000, dtype=np.uint64)
            bits |= rng.integers(1023 - 16, 1023 + 56, 100_000).astype(np.uint64) << np.uint64(52)
            bits |= rng.integers(0, 2, 100_000).astype(np.uint64) << np.uint64(63)
            values = bits.view(np.float64)
            self.check(values)
            outside = np.count_nonzero((np.abs(values) < 1e-4) | (np.abs(values) >= 1e16))
            assert outside <= sum(fallbacks) <= outside + 100
            fallbacks.clear()

    def test_both_sides_of_each_power_of_ten(self):
        # 40 neighbouring doubles each way of 1e-7 ... 1e18, both signs: the
        # kernel range's edges, and a log10 that may land on the wrong integer
        steps = np.arange(-40, 41)
        values = np.concatenate([(np.float64(f"1e{e}").view(np.int64) + steps).view(np.float64)
                                 for e in range(-7, 19)])
        self.check(np.concatenate((values, -values)))

    def test_exact_ties_round_half_to_even(self):
        ties = [1234567890123456.25, 1234567890123456.75, 123456789012345.125, 123456789012345.375]
        assert 1234567890123456.25 - 1234567890123456 == 0.25  # the decimal is the exact double
        values = ties + [-t for t in ties]
        self.check(values)
        rows = format_fields(np.array(values[:2]))
        assert [row.tobytes().replace(b"\0", b"") for row in rows] == [b"1234567890123456.2", b"1234567890123456.8"]

    def test_zeros_subnormals_extremes_and_non_finite(self):
        self.check([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                    1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan,
                    1e-4, 1e16, 9999999999999998.0, 0.00010000000000000002, 1.0, -1.0, 0.5, 1e15])
