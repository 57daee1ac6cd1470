"""End-to-end command-line behavior: output lines, files, exit codes."""

import argparse
import errno
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from toricqet import cli, optimize, protocol
from toricqet.cli import entry, main
from toricqet.kraus import KrausSandwiches
from toricqet.lattice import ToricLattice
from toricqet.pauli import PauliPolynomial
from toricqet.protocol import LoccParams, ProtocolSystem, direct_energy

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
        assert "LEMMA1 PASS [stabilizer] plaquette collapse rule: 18 checks" in out

    def test_capacity_exceeded_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--L", "4", "--backend", "statevector")
        assert code == 2
        assert "capacity" in err

    def test_custom_edges_verified(self, capsys, monkeypatch):
        # measuring a sub-region still satisfies the collapse dichotomy; edges
        # 1, 2, 5 meet both plaquettes at the target oddly, so the derivation
        # chain still compares against the closed form
        chains = count_calls(monkeypatch, cli, "verify_derivation_chain")
        code, out, _ = run(capsys, "verify", "--L", "2", "--edges", "1", "2", "5")
        assert code == 0
        assert "LEMMA1 PASS" in out
        assert chains and all(rep.checks[-1].label == "delta equals closed form" for rep in chains)

    def test_closed_form_skipped_where_not_derived(self, capsys, tmp_path):
        # edge 3 meets plaquette (2,3,8,5) at target edge 8 once and plaquette
        # (8,9,14,11) not at all: that one passes through, so 4 sin^2(theta)
        # (ny^2 + nz^2) does not apply and the claim is not refuted
        argv = ("--L", "3", "--bob-qubit", "8", "--edges", "3")
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0
        assert "FAIL" not in out
        json_path = tmp_path / "argmin.json"
        code, out, _ = run(capsys, "nogo-scan", *argv, *FAST_GRID, "--json", str(json_path))
        assert code == 0
        assert "NOGO CONFIRMED" in out
        assert json.loads(json_path.read_text())["closed_form"] is None

    def test_edges_touching_target_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--L", "2", "--edges", "0", "1")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        ["--L", "3", "--bob-qubit", "5", "--seed", "1"],
        ["--L", "3", "--bob-qubit", "8", "--edges", "3", "--seed", "2"],
        ["--L", "3", "--sector", "-1", "-1"],
        ["--L", "2", "--seed", "7", "--samples", "10"],
    ])
    def test_both_backends_print_each_engine_alone(self, capsys, argv):
        # the engines share the operator algebra, and that changes no line
        outs = {}
        for which in ("both", "stabilizer", "statevector"):
            code, outs[which], err = run(capsys, "verify", *argv, "--backend", which)
            assert code == 0, err
        assert outs["both"] == outs["stabilizer"] + outs["statevector"]

    def test_nan_kraus_coefficient_fails_step_a(self, capsys, monkeypatch):
        # a NaN S coefficient in the Kraus pair is kept, not pruned to zero,
        # so identity (a) reads NaN and fails on either engine
        kraus = KrausSandwiches.m_ops.func

        def nan_kraus(system):
            key = (system.measured.x_bits, system.measured.z_bits)
            return {k: PauliPolynomial(m.n_qubits, {**m.terms, key: complex("nan")}) for k, m in kraus(system).items()}

        monkeypatch.setattr(ProtocolSystem, "m_ops", property(nan_kraus))
        code, out, _ = run(capsys, "verify", "--L", "2", "--backend", "both")
        assert code == 1
        for name in ("stabilizer", "statevector"):
            assert f"DERIVATION FAIL [{name}] derivation chain: 7 parameter draws, max residual nan" in out
        assert out.count("failed: conjugation splits into commutator correction (residual nan)") == 2 * 7

    def test_negative_samples_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--L", "2", "--samples", "-3")
        assert code == 2
        assert out == ""
        assert "samples" in err and len(err.splitlines()) == 1

    def test_negative_seed_rejected(self, capsys):
        # random.Random(-1) would draw seed 1's points without a word
        code, out, err = run(capsys, "verify", "--L", "2", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "seed" in err and len(err.splitlines()) == 1


class TestSampleParams:
    """The derivation checks' parameter draws come from the standard library."""

    def draws(self, seed, samples=6):
        return cli._sample_params(argparse.Namespace(seed=seed, samples=samples))

    def test_same_seed_same_draws(self):
        assert self.draws(3) == self.draws(3)

    def test_seeds_differ(self):
        assert self.draws(0)[2:] != self.draws(1)[2:]

    def test_unit_axes_and_angles_in_range(self):
        draws = self.draws(11, samples=40)
        assert len(draws) == 42
        for params in draws:
            assert math.hypot(*params.axis) == pytest.approx(1.0, abs=1e-12)
        for params in draws[2:]:
            assert 0.0 <= params.theta < 2.0 * math.pi

    def test_verify_imports_no_numpy_random(self):
        script = ("import sys\nfrom toricqet import cli\n"
                  "code = cli.main(['verify', '--L', '2', '--samples', '3', '--seed', '5'])\n"
                  "print(code, 'numpy.random' in sys.modules)")
        proc = run_fresh(["-c", script], None)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"


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

    def test_no_closed_form_clause_without_a_closed_form(self, capsys):
        # X on edge 3 collapses only one of the two plaquettes at edge 8: no closed form.
        code, out, _ = run(capsys, "nogo-scan", "--L", "3", "--bob-qubit", "8", "--edges", "3")
        assert code == 0
        assert "NOGO CONFIRMED" in out
        assert "closed_form" not in out

    def test_sector_choice_scans_clean(self, capsys):
        code, out, _ = run(capsys, "nogo-scan", "--L", "2", "--sector", "-1", "-1", *FAST_GRID)
        assert code == 0
        assert "NOGO CONFIRMED" in out

    def test_independent_outcomes_scan(self, capsys):
        code, out, _ = run(capsys, "nogo-scan", "--L", "2", "--independent", *FAST_GRID)
        assert code == 0
        assert "k=+1" in out and "k=-1" in out

    def test_independent_json_evaluates_the_per_outcome_witness(self, capsys, monkeypatch, tmp_path):
        # a planted witness that rotates each outcome differently: the JSON
        # must apply outcome -1's own rotation, not outcome +1's to both
        witness = {1: LoccParams(0.3, (0.0, 1.0, 0.0)), -1: LoccParams(1.1, (0.0, 0.0, 1.0))}
        monkeypatch.setattr(optimize.QuadraticResponse, "minimum", lambda self, independent=False: (-1.0, witness))
        json_path = tmp_path / "argmin.json"
        code, out, _ = run(capsys, "nogo-scan", "--L", "2", "--independent", *FAST_GRID, "--json", str(json_path))
        assert code == 1
        assert "NOGO REFUTED" in out
        lat = ToricLattice(2)
        system = ProtocolSystem.from_toric(lat, lat.full_region_scheme())
        want = direct_energy(system, witness).delta
        assert want != direct_energy(system, witness[1]).delta
        assert json.loads(json_path.read_text())["delta"] == want

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
        code, out, _ = run(capsys, "control", "--sites", "4", "--site-b", "3", "--shared", "--axis", "x",
                           *FAST_GRID)
        assert code == 1
        assert out.splitlines()[-1] == "CONTROL: NO QET, min delta = 0"

    @pytest.mark.parametrize("argv,minimum", [
        (["--sites", "3"], "-0.08626792"),
        (["--sites", "6"], "-0.06977756"),
        (["--sites", "2", "--site-a", "1"], "-0.10557280"),
        (["--sites", "6", "--site-a", "5"], "-0.06977756"),
    ])
    def test_default_rotated_site_neighbours_measured_one(self, capsys, argv, minimum):
        code, out, err = run(capsys, "control", *argv, *FAST_GRID)
        assert code == 0, err
        assert out.splitlines()[-1].startswith(f"CONTROL: QET DETECTED, min delta = {minimum}")

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
        code, out, err = run(capsys, "control", "--sites", "6", "--site-b", "5", "--coupling", "1e6",
                             *FAST_GRID)
        assert out.splitlines()[-1].startswith("CONTROL:")
        assert err == ""

    def test_rounding_gap_at_large_coupling_is_not_disagreement(self, capsys):
        # optimizer -0.99999998 and direct -0.9999999702 differ by 1e-8, the
        # rounding of energies of size 1e8, inside 2^-40 |E_0|
        code, out, err = run(capsys, "control", "--coupling", "1e8", *FAST_GRID)
        assert code == 0
        assert out.splitlines()[-1].startswith("CONTROL: QET DETECTED, min delta = -0.99999998")
        assert err == ""

    @pytest.mark.parametrize("argv", [
        ["--coupling", "1e200"], ["--sites", "3", "--site-b", "2", "--field", "1e150"],
    ])
    def test_unresolvable_minimum_is_usage_error(self, capsys, argv):
        # a minimum below -1e-9 but inside 2^-40 |E_0| is neither QET nor its absence
        code, out, err = run(capsys, "control", *argv, *FAST_GRID)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "cannot be resolved" in err
        assert len(err.splitlines()) == 1

    def test_negative_injected_energy_at_huge_field_blames_rounding(self, capsys):
        # E_A = sum_k h_k - E_0 reads -1.5e-05 from rounding of order |E_0| = 3e10
        code, out, err = run(capsys, "control", "--sites", "3", "--coupling", "0.5", "--field", "1e10",
                             *FAST_GRID)
        assert code == 2
        assert out == ""
        assert err.startswith("error: e_a = -1.52587890625e-05 lies within the rounding tolerance")
        assert "of |E_0| = 3e+10; the measured energy cannot be resolved" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

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


SRC = str(Path(cli.__file__).resolve().parent.parent)


def run_fresh(argv: list, threads) -> subprocess.CompletedProcess:
    """`python argv` in a new interpreter with this checkout's toricqet first on
    the path, and OPENBLAS_NUM_THREADS unset (threads None) or set to threads."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120)


class TestBlasThreads:
    """toricqet runs OpenBLAS on one thread unless told otherwise, and the
    thread count never changes a result."""

    def test_artifacts_equal_at_one_and_two_threads(self, tmp_path):
        # N=6 sends the chain's 64x64 eigh down OpenBLAS's threaded path
        artifacts = []
        for threads in ("1", "2"):
            csv_path, json_path = tmp_path / f"sweep{threads}.csv", tmp_path / f"report{threads}.json"
            proc = run_fresh(["-m", "toricqet.cli", "control", "--sites", "6", "--site-b", "1",
                              "--theta-count", "9", "--sphere-count", "16",
                              "--out", str(csv_path), "--json", str(json_path)], threads)
            assert proc.returncode == 0, proc.stderr
            artifacts.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert artifacts[0] == artifacts[1]

    @pytest.mark.parametrize("preset,want", [(None, "1"), ("2", "2")])
    def test_import_defaults_to_one_thread(self, preset, want):
        proc = run_fresh(["-c", "import os, toricqet; print(os.environ['OPENBLAS_NUM_THREADS'])"], preset)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == want + "\n"


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

    # A one-edge measurement: only the plaquettes on edge 3 collapse, the
    # others pass through the projectors, and no closed form applies.
    ONE_EDGE = ["--L", "3", "--bob-qubit", "8", "--edges", "3"]

    def test_verify_stdout_pass_through(self, capsys):
        code, out, _ = run(capsys, "verify", *self.ONE_EDGE, "--samples", "0")
        assert code == 0
        assert out.startswith("LEMMA1 PASS [stabilizer] plaquette collapse rule: 18 checks")
        want = golden_digests()["verify-L3-bob8-edges3-samples0.txt"]
        assert hashlib.sha256(out.encode()).hexdigest() == want

    def test_nogo_scan_json_pass_through(self, capsys, tmp_path):
        json_path = tmp_path / "argmin.json"
        code, _, _ = run(capsys, "nogo-scan", *self.ONE_EDGE, "--json", str(json_path))
        assert code == 0
        assert json.loads(json_path.read_text())["closed_form"] is None
        want = golden_digests()["nogo-scan-L3-bob8-edges3.json"]
        assert hashlib.sha256(json_path.read_bytes()).hexdigest() == want

    # The statevector engine's post-measurement profiles: the chain's term
    # labels, and the torus stars and plaquettes read off the oracle.

    def test_control_json_profile(self, capsys, tmp_path):
        json_path = tmp_path / "control.json"
        code, _, _ = run(capsys, "control", "--sites", "2", "--json", str(json_path))
        assert code == 0
        assert list(json.loads(json_path.read_text())["stabilizer_expectations"]) == ["zz(0,1)", "x(0)", "x(1)"]
        want = golden_digests()["control-sites2.json"]
        assert hashlib.sha256(json_path.read_bytes()).hexdigest() == want

    def test_nogo_scan_statevector_json_profile(self, capsys, tmp_path):
        json_path = tmp_path / "argmin.json"
        code, _, _ = run(capsys, "nogo-scan", "--L", "3", "--backend", "statevector", "--bob-qubit", "5",
                         "--json", str(json_path))
        assert code == 0
        assert len(json.loads(json_path.read_text())["stabilizer_expectations"]) == 18
        want = golden_digests()["nogo-scan-L3-statevector-bob5.json"]
        assert hashlib.sha256(json_path.read_bytes()).hexdigest() == want


def count_calls(monkeypatch, owner, name) -> list:
    """Wrap owner.name; the returned list gets the result of each call."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(result)
        return result

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

    @pytest.mark.parametrize("argv,profiles", [
        (["verify", "--L", "3", "--backend", "both"], 0),
        (["nogo-scan", "--L", "2", "--backend", "both", *FAST_GRID, "--out", "{tmp}/sweep.csv"], 0),
        (["nogo-scan", "--L", "2", "--backend", "both", *FAST_GRID, "--json", "{tmp}/argmin.json"], 1),
        (["control", "--sites", "2", *FAST_GRID, "--json", "{tmp}/control.json"], 1),
    ])
    def test_profile_only_for_a_json_report(self, capsys, monkeypatch, tmp_path, argv, profiles):
        # verify builds and queries no profile; a JSON report attaches one
        calls = count_calls(monkeypatch, cli, "post_measurement_profile")
        inner = count_calls(monkeypatch, protocol, "post_measurement_profile")
        code, _, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
        assert code == 0, err
        assert (len(calls), len(inner)) == (profiles, 0)


class TestSharedAlgebra:
    """verify builds the checks' operator algebra once for all engines, and
    computes no whole-Hamiltonian sandwich, which no check reads."""

    def test_second_engine_adds_no_product(self, capsys, monkeypatch):
        counts = {}
        for which in ("both", "stabilizer"):
            products = count_calls(monkeypatch, PauliPolynomial, "mul")
            code, _, err = run(capsys, "verify", "--L", "3", "--backend", which, "--seed", "1")
            assert code == 0, err
            counts[which] = len(products)
            monkeypatch.undo()
        assert counts["both"] == counts["stabilizer"] > 0

    @pytest.mark.parametrize("argv", [
        ["--L", "3", "--backend", "both"],
        ["--L", "20", "--bob-qubit", "17", "--seed", "4"],
    ])
    def test_measured_energies_never_computed(self, capsys, monkeypatch, argv):
        def refuse(system):
            raise AssertionError("verify computed measured_energies")

        monkeypatch.setattr(ProtocolSystem, "measured_energies", property(refuse))
        code, out, err = run(capsys, "verify", *argv)
        assert code == 0, err
        assert "FAIL" not in out


class TestNoWholeLatticeProducts:
    """verify reads the measured stage G_k once and rotates only the target's
    terms, and the optimizer reads the target's commutator and sigma^i H sigma^j:
    no Pauli product under them takes an operand larger than the Hamiltonian."""

    @staticmethod
    def _mul_sizes(monkeypatch, module, names):
        """Largest operand of each PauliPolynomial.mul made under module.names."""
        depth = [0]
        sizes = []

        def nested(fn):
            def inner(*args, **kwargs):
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return inner

        for name in names:
            monkeypatch.setattr(module, name, nested(getattr(module, name)))
            if hasattr(cli, name):
                monkeypatch.setattr(cli, name, getattr(module, name))
        mul = PauliPolynomial.mul

        def sized_mul(left, right):
            if depth[0]:
                sizes.append(max(left.n_terms(), right.n_terms()))
            return mul(left, right)

        monkeypatch.setattr(PauliPolynomial, "mul", sized_mul)
        return sizes

    def test_verify_multiplies_only_small_polynomials(self, capsys, monkeypatch):
        sizes = self._mul_sizes(monkeypatch, protocol, ("derivation_draws", "verify_derivation_chain", "direct_energy"))
        code, out, err = run(capsys, "verify", "--L", "20", "--bob-qubit", "17", "--seed", "4")
        assert code == 0, err
        assert out.count(" PASS ") == 4
        assert sizes, "no product recorded under the derivation chain"
        assert max(sizes) < ToricLattice(20).hamiltonian().n_terms()

    def test_nogo_scan_multiplies_nothing_larger_than_h(self, capsys, monkeypatch):
        sizes = self._mul_sizes(monkeypatch, optimize, ("optimize_system",))
        code, out, err = run(capsys, "nogo-scan", "--L", "8", "--bob-qubit", "100", *FAST_GRID)
        assert code == 0, err
        assert "NOGO CONFIRMED" in out
        assert sizes, "no product recorded under the optimizer"
        assert max(sizes) <= ToricLattice(8).hamiltonian().n_terms()


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


def subcommand_options() -> dict:
    """Subcommand -> the dests of its options."""
    action = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {a.dest for a in p._actions} for name, p in action.choices.items()}


# every config key: an option's dest, --help and --config left out
CONFIG_KEYS = set().union(*subcommand_options().values()) - {"help", "config"}


def command_taking(key: str) -> str:
    """The first subcommand that declares the config key."""
    return next(name for name, dests in subcommand_options().items() if key in dests)


class TestConfigFile:
    def test_config_sets_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"L": 3}))
        code, out, _ = run(capsys, "verify", "--config", str(cfg))
        assert code == 0
        assert "rule: 18 checks" in out  # L=3 geometry

    def test_explicit_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"L": 3}))
        code, out, _ = run(capsys, "verify", "--config", str(cfg), "--L", "2")
        assert code == 0
        assert "rule: 8 checks" in out  # L=2 geometry wins

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
            code, _, err = run(capsys, command_taking(key), "--config", str(cfg))
            assert code == 2
            assert repr(key) in err and "must be" in err

    # per subcommand, an argv and a key that another subcommand declares
    UNDECLARED = {
        "verify": (["--L", "2"], "out"),
        "nogo-scan": (["--L", "2", *FAST_GRID], "seed"),
        "control": (["--sites", "2", *FAST_GRID], "L"),
        "describe": ([], "theta_count"),
    }

    @pytest.mark.parametrize("command", sorted(UNDECLARED))
    def test_key_of_another_subcommand_rejected(self, capsys, tmp_path, monkeypatch, command):
        argv, key = self.UNDECLARED[command]
        assert key in CONFIG_KEYS and key not in subcommand_options()[command]
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: "x.csv" if key == "out" else 3}))
        code, out, err = run(capsys, command, *argv, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert repr(key) in err and command in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    # one value of each key's declared type; coupling takes an integer as a number
    ACCEPTED = {
        "L": 3, "sector": [1, -1], "bob_qubit": 2, "edges": [1, 2], "backend": "both",
        "theta_count": 9, "sphere_count": 8, "independent": True, "seed": 4, "samples": 0,
        "out": "geom.json", "json_out": "report.json", "sites": 3, "coupling": 2,
        "field": 0.5, "site_a": 1, "site_b": 0, "chain_axis": "y",
    }

    def parsed(self, capsys, monkeypatch, tmp_path, key, value):
        command = command_taking(key)
        seen = []
        monkeypatch.setitem(cli.COMMANDS, command, lambda args: seen.append(args) or 0)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        code, _, err = run(capsys, command, "--config", str(cfg))
        assert code == 0, err
        return seen[0]

    def test_accepted_values_cover_every_key(self):
        assert set(self.ACCEPTED) == CONFIG_KEYS

    @pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
    def test_every_key_accepts_its_type(self, capsys, monkeypatch, tmp_path, key):
        args = self.parsed(capsys, monkeypatch, tmp_path, key, self.ACCEPTED[key])
        assert getattr(args, key) == self.ACCEPTED[key]

    @pytest.mark.parametrize("key", ["edges", "out", "json_out", "site_b"])
    def test_null_accepted_where_default_is_none(self, capsys, monkeypatch, tmp_path, key):
        args = self.parsed(capsys, monkeypatch, tmp_path, key, None)
        assert getattr(args, key) is None

    def test_config_without_path_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config"])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err

    def test_grid_keys_reach_other_commands(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"theta_count": 9, "sphere_count": 8, "coupling": 0.0}))
        code, out, _ = run(capsys, "control", "--config", str(cfg))
        assert code == 1
        assert "CONTROL: NO QET" in out


class TestUsage:
    @pytest.mark.parametrize("argv,code", [(["describe", "--L", "2"], 0), (["describe", "--L", "1"], 2)])
    def test_console_script_exits_with_main_code(self, capsys, monkeypatch, argv, code):
        monkeypatch.setattr("sys.argv", ["toricqet", *argv])
        with pytest.raises(SystemExit) as exc:
            entry()
        assert exc.value.code == code

    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_oversized_lattice_is_capacity_error(self, capsys):
        tracemalloc.start()
        start = time.perf_counter()
        code = main(["describe", "--L", "100000"])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("capacity error: ") and len(err.splitlines()) == 1
        assert elapsed < 1.0
        assert peak < 1 << 20

    @pytest.mark.parametrize("argv,artifact", [
        (["nogo-scan", "--L", "2", *FAST_GRID, "--json"], "argmin report"),
        (["nogo-scan", "--L", "2", *FAST_GRID, "--out"], "sweep table"),
        (["control", "--sites", "2", *FAST_GRID, "--json"], "control report"),
        (["control", "--sites", "2", *FAST_GRID, "--out"], "sweep table"),
        (["describe", "--L", "2", "--out"], "lattice description"),
    ])
    def test_failed_write_is_one_error_line(self, capsys, tmp_path, argv, artifact):
        path = tmp_path / "missing" / "artifact"
        code, _, err = run(capsys, *argv, str(path))
        assert code == 2
        assert err == f"error: cannot write {artifact} to {path}: {os.strerror(errno.ENOENT)}\n"

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
