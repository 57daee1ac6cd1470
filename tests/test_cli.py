"""End-to-end command-line behavior: output lines, files, exit codes."""

import hashlib
import json
from pathlib import Path

import pytest

from toricqet.cli import CONFIG_KEYS, main
from toricqet.lattice import ToricLattice
from toricqet.protocol import ProtocolSystem

GOLDEN = Path(__file__).parent / "golden"

FAST_GRID = ["--theta-count", "9", "--sphere-count", "8"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_small_lattice_both_backends(self, capsys):
        code, out, _ = run(capsys, "verify", "--L", "2", "--backend", "both")
        assert code == 0
        for tag in ("LEMMA1", "LEMMA2", "LEMMA3", "DERIVATION"):
            for backend in ("stabilizer", "statevector"):
                assert f"{tag} PASS [{backend}]" in out
        assert "FAIL" not in out

    def test_check_count_scales_with_lattice(self, capsys):
        code, out, _ = run(capsys, "verify", "--L", "3")
        assert code == 0
        assert "LEMMA1 PASS [stabilizer] plaquette collapse rule: 36 checks" in out

    def test_capacity_exceeded_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--L", "4", "--backend", "statevector")
        assert code == 2
        assert "capacity" in err

    def test_custom_edges_verified(self, capsys):
        # measuring a sub-region still satisfies the collapse dichotomy
        code, out, _ = run(capsys, "verify", "--L", "2", "--edges", "1", "2", "5")
        assert code == 0
        assert "LEMMA1 PASS" in out

    def test_edges_touching_target_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--L", "2", "--edges", "0", "1")
        assert code == 2
        assert "error" in err

    def test_negative_samples_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--L", "2", "--samples", "-3")
        assert code == 2
        assert out == ""
        assert "samples" in err and len(err.splitlines()) == 1


class TestNogoScan:
    def test_confirms_and_writes_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        json_path = tmp_path / "argmin.json"
        code, out, _ = run(
            capsys, "nogo-scan", "--L", "2", "--backend", "both", *FAST_GRID,
            "--out", str(csv_path), "--json", str(json_path),
        )
        assert code == 0
        assert "NOGO CONFIRMED" in out
        assert "theta=0 attains minimum: True" in out

        lines = csv_path.read_text().splitlines()
        assert lines[0] == "theta,nx,ny,nz,p_plus,E_A,E_B,delta,closed_form,backend"
        assert sum(1 for ln in lines if ln.startswith("theta")) == 1
        tags = {ln.rsplit(",", 1)[1] for ln in lines[1:]}
        assert tags == {"stabilizer", "statevector"}
        assert len(lines) == 1 + 2 * 9 * (3 + 8)

        report = json.loads(json_path.read_text())
        assert report["delta"] == pytest.approx(report["closed_form"], abs=1e-9)
        assert report["E_A"] == pytest.approx(2.0)

    def test_runs_are_deterministic(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run(capsys, "nogo-scan", "--L", "2", *FAST_GRID, "--out", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_printed_deviation_matches_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "nogo-scan", "--L", "2", "--backend", "both", "--out", str(csv_path))
        assert code == 0
        rows = [ln.split(",") for ln in csv_path.read_text().splitlines()[1:]]
        for tag in ("stabilizer", "statevector"):
            worst = max(abs(float(r[7]) - float(r[8])) for r in rows if r[9] == tag)
            line = next(ln for ln in out.splitlines() if ln.startswith(f"[{tag}]"))
            assert f"max |delta - closed_form| = {worst:.3e};" in line

    def test_sector_choice_scans_clean(self, capsys):
        code, out, _ = run(capsys, "nogo-scan", "--L", "2", "--sector", "-1", "-1", *FAST_GRID)
        assert code == 0
        assert "NOGO CONFIRMED" in out

    def test_independent_outcomes_scan(self, capsys):
        code, out, _ = run(capsys, "nogo-scan", "--L", "2", "--independent", *FAST_GRID)
        assert code == 0
        assert "k=+1" in out and "k=-1" in out

    def test_out_of_memory_is_capacity_error(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("toricqet.cli.optimize_system", exhausted)
        code, _, err = run(capsys, "nogo-scan", "--L", "2", *FAST_GRID)
        assert code == 2
        assert err.startswith("capacity error") and len(err.splitlines()) == 1


class TestControl:
    def test_detects_extraction_on_chain(self, capsys):
        code, out, _ = run(capsys, "control", "--sites", "2", *FAST_GRID)
        assert code == 0
        assert "CONTROL: QET DETECTED" in out
        assert "-0.105572809" in out

    def test_uncoupled_chain_has_no_extraction(self, capsys):
        code, out, _ = run(capsys, "control", "--sites", "2", "--coupling", "0", *FAST_GRID)
        assert code == 1
        assert "CONTROL: NO QET" in out

    def test_shared_parameters_miss_it(self, capsys):
        code, out, _ = run(capsys, "control", "--sites", "2", "--shared", *FAST_GRID)
        assert code == 1
        assert "CONTROL: NO QET" in out

    def test_noise_minimum_prints_zero(self, capsys):
        code, out, _ = run(capsys, "control", "--sites", "4", "--shared", "--axis", "x", *FAST_GRID)
        assert code == 1
        assert out.splitlines()[-1] == "CONTROL: NO QET, min delta = 0"

    def test_witness_axes_carry_no_negative_zero(self, capsys, tmp_path):
        json_path = tmp_path / "control.json"
        code, out, _ = run(capsys, "control", "--sites", "2", *FAST_GRID, "--json", str(json_path))
        assert code == 0
        assert "k=+1: theta=0 axis=(1,0,0); k=-1: theta=1.57079633 axis=(0,1,0)" in out
        report = json.loads(json_path.read_text())
        assert report["theta"] == 0.0 and report["axis"] == [1.0, 0.0, 0.0]
        assert "-0.0" not in json_path.read_text()

    @pytest.mark.parametrize("flag", ["--coupling", "--field"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_parameter_is_usage_error(self, capsys, flag, value):
        code, out, err = run(capsys, "control", "--sites", "2", flag, value, *FAST_GRID)
        assert code == 2
        assert "CONTROL" not in out
        assert flag[2:] in err and len(err.splitlines()) == 1

    def test_large_coupling_reaches_verdict(self, capsys):
        # eigensolver residual 2.6e-9: above 1e-9, inside the bound scaled by |J|
        code, out, err = run(capsys, "control", "--sites", "6", "--coupling", "1e6", *FAST_GRID)
        assert out.splitlines()[-1].startswith("CONTROL:")
        assert err == ""

    def test_rounding_gap_at_large_coupling_is_not_disagreement(self, capsys):
        # optimizer -0.99999998 and direct -0.9999999702 differ by 1e-8, the
        # rounding of energies of size 1e8, inside 2^-40 |E_0|
        code, out, err = run(capsys, "control", "--coupling", "1e8", *FAST_GRID)
        assert code == 0
        assert out.splitlines()[-1].startswith("CONTROL: QET DETECTED, min delta = -0.99999998")
        assert err == ""

    @pytest.mark.parametrize("argv", [["--coupling", "1e200"], ["--sites", "3", "--field", "1e150"]])
    def test_unresolvable_minimum_is_usage_error(self, capsys, argv):
        # a minimum below -1e-9 but inside 2^-40 |E_0| is neither QET nor its absence
        code, out, err = run(capsys, "control", *argv, *FAST_GRID)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "cannot be resolved" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [["--sites", "6", "--coupling", "1e308"], ["--field", "1e200"]])
    def test_eigensolver_failure_is_usage_error(self, capsys, argv):
        # residual nan / inf: the run stops with one line, not a traceback
        code, out, err = run(capsys, "control", *argv, *FAST_GRID)
        assert code == 2
        assert "CONTROL" not in out
        assert "eigensolver residual" in err and len(err.splitlines()) == 1

    def test_chain_too_long_is_usage_error(self, capsys):
        code, _, err = run(capsys, "control", "--sites", "7", *FAST_GRID)
        assert code == 2
        assert "error" in err

    def test_json_report_written(self, capsys, tmp_path):
        json_path = tmp_path / "control.json"
        code, _, _ = run(capsys, "control", "--sites", "2", *FAST_GRID, "--json", str(json_path))
        assert code == 0
        report = json.loads(json_path.read_text())
        assert report["delta"] == pytest.approx(-0.10557280900008412, abs=1e-9)
        assert report["closed_form"] is None


def golden_digests() -> dict:
    lines = (GOLDEN / "artifacts.sha256").read_text().splitlines()
    return {name: digest for digest, name in (line.split() for line in lines)}


class TestGoldenArtifacts:
    """Default-grid artifacts stay byte-identical to the recorded digests."""

    def test_nogo_scan_both_backends(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        json_path = tmp_path / "argmin.json"
        code, _, _ = run(capsys, "nogo-scan", "--L", "2", "--backend", "both",
                         "--out", str(csv_path), "--json", str(json_path))
        assert code == 0
        want = golden_digests()
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == want["nogo-scan-L2-both.csv"]
        assert hashlib.sha256(json_path.read_bytes()).hexdigest() == want["nogo-scan-L2-both.json"]

    def test_control_sweep_table(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "control", "--sites", "2", "--out", str(csv_path))
        assert code == 0
        want = golden_digests()["control-sites2.csv"]
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == want

    def test_verify_stdout(self, capsys):
        # stabilizer engine only and no random draws: pure-Python arithmetic,
        # so the bytes do not depend on the BLAS build
        code, out, _ = run(capsys, "verify", "--L", "4", "--bob-qubit", "5", "--samples", "0")
        assert code == 0
        want = golden_digests()["verify-L4-bob5-samples0.txt"]
        assert hashlib.sha256(out.encode()).hexdigest() == want


def count_calls(monkeypatch, owner, name) -> list:
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestBuildCounts:
    """Each run builds one ProtocolSystem per backend, through whichever
    factory, and the checks and reports read it instead of rebuilding."""

    @pytest.mark.parametrize("argv,systems,hamiltonians", [
        (["verify", "--L", "3", "--backend", "both"], 2, 2),
        (["nogo-scan", "--L", "2", "--backend", "both", *FAST_GRID, "--json", "{tmp}/argmin.json"], 2, 2),
        (["control", "--sites", "2", *FAST_GRID], 1, 0),
    ])
    def test_one_system_per_backend(self, capsys, monkeypatch, tmp_path, argv, systems, hamiltonians):
        built = count_calls(monkeypatch, ProtocolSystem, "__init__")
        hams = count_calls(monkeypatch, ToricLattice, "hamiltonian")
        code, _, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
        assert code == 0, err
        assert (len(built), len(hams)) == (systems, hamiltonians)


class TestDescribe:
    def test_matches_golden_geometry(self, capsys):
        code, out, _ = run(capsys, "describe", "--L", "2")
        assert code == 0
        want = (GOLDEN / "describe_L2.json").read_text()
        assert out == want

    def test_writes_to_file(self, capsys, tmp_path):
        path = tmp_path / "geom.json"
        code, _, _ = run(capsys, "describe", "--L", "3", "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["L"] == 3 and doc["n_qubits"] == 18


class TestConfigFile:
    def test_config_sets_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"L": 3}))
        code, out, _ = run(capsys, "verify", "--config", str(cfg))
        assert code == 0
        assert "36 checks" in out  # L=3 geometry

    def test_explicit_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"L": 3}))
        code, out, _ = run(capsys, "verify", "--config", str(cfg), "--L", "2")
        assert code == 0
        assert "16 checks" in out  # L=2 geometry wins

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"lattice_size": 3}))
        code, _, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert "lattice_size" in err

    def test_malformed_json_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        code, _, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--config", str(tmp_path / "nope.json"))
        assert code == 2

    def test_wrong_value_type_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"L": "3"}))
        code, _, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert "integer" in err

    @pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
    def test_every_key_type_checked(self, capsys, tmp_path, key):
        # an object fits no key; true is an int to Python but no key's integer
        wrong = 1 if key == "independent" else True
        for value in ({"nested": 1}, wrong):
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({key: value}))
            code, _, err = run(capsys, "describe", "--config", str(cfg))
            assert code == 2
            assert repr(key) in err

    def test_grid_keys_reach_other_commands(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"theta_count": 9, "sphere_count": 8, "coupling": 0.0}))
        code, out, _ = run(capsys, "control", "--config", str(cfg))
        assert code == 1
        assert "CONTROL: NO QET" in out


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_sector_values(self, capsys):
        code, _, err = run(capsys, "verify", "--L", "2", "--sector", "1", "2")
        assert code == 2

    @pytest.mark.parametrize("command", ["nogo-scan", "control"])
    def test_seed_only_on_verify(self, capsys, command):
        # only verify draws random parameters
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
