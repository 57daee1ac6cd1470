"""Tests of the benchmark's own code.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    """Returns the given instants in order, one per reading."""

    def __init__(self, *instants):
        self._instants = iter(instants)

    def __call__(self):
        return next(self._instants)


# -- self time -------------------------------------------------------------------


def test_self_times_of_nested_spans_partition_the_root():
    # root [0, 10] > a [1, 4] > c [2, 3];  root > b [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    got = spans.self_times(starts, ends, parents)
    assert got == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(got) == pytest.approx(10.0)


def test_self_times_merge_overlapping_children_and_clip_to_parent():
    # children [1, 5] and [3, 7] cover 6 s of the root; [8, 12] is clipped at 10
    starts = [0.0, 1.0, 3.0, 8.0]
    ends = [10.0, 5.0, 7.0, 12.0]
    parents = [-1, 0, 0, 0]
    assert spans.self_times(starts, ends, parents)[0] == pytest.approx(2.0)


def test_tracer_records_parents_and_layer_self_times():
    # clock readings: outer begins 0, inner begins 1, inner ends 4, outer ends 10
    tracer = spans.Tracer(clock=FakeClock(0.0, 1.0, 4.0, 10.0))
    inner = tracer.wrap("inner", lambda: "x")
    outer = tracer.wrap("outer", lambda: inner())
    assert outer() == "x"
    assert list(tracer.parents) == [-1, 0]
    metric_of = {"outer": "cli.self_s", "inner": "pauli.mul_s"}
    layers = spans.layer_metrics(tracer, metric_of)
    assert layers["cli.self_s"] == pytest.approx(7.0)
    assert layers["pauli.mul_s"] == pytest.approx(3.0)
    assert layers["trace.wall_s"] == pytest.approx(10.0)


def test_generator_spans_cover_only_the_next_calls():
    # one span per next(), including the final one that ends the iteration
    tracer = spans.Tracer(clock=FakeClock(0.0, 1.0, 5.0, 6.0, 10.0, 11.0))
    lines = tracer.wrap_generator("csv", lambda: iter(["theta,nx", "0,1"]), spans._count_csv_line)
    assert list(lines()) == ["theta,nx", "0,1"]
    assert [e - s for s, e in zip(tracer.starts, tracer.ends)] == [1.0, 1.0, 1.0]
    assert tracer.counters["reports.csv_rows"] == 1
    assert tracer.counters["reports.csv_bytes"] == len("theta,nx\n0,1\n")


def test_traced_child_layers_sum_to_the_traced_wall(tmp_path):
    spec = {"argv": ["verify", "--L", "2", "--backend", "both"], "trace": True,
            "spans_out": str(tmp_path / "spans.json")}
    proc = subprocess.run([sys.executable, str(run.CHILD), json.dumps(spec)], cwd=ROOT,
                          env=run.child_env(ROOT / "src"), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    layers = result["layers"]
    total = sum(layers[name] for name in spans.TIME_METRICS)
    assert total == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert layers["statevector.apply_calls"] > 0
    assert layers["stabilizer.builds"] == 1
    assert layers["protocol.checks"] > 0
    dumped = json.loads((tmp_path / "spans.json").read_text())
    assert len(dumped["labels"]) == len(dumped["parent"]) == len(dumped["start_s"])
    assert dumped["labels"][0] == "cli.main"


# -- output checks -----------------------------------------------------------------


VERIFY_OUT = "\n".join(
    f"{tag} PASS [stabilizer] something: 2 checks, max residual 0.000e+00"
    for tag in ("LEMMA1", "LEMMA2", "LEMMA3", "DERIVATION")
)


def test_verify_check_accepts_all_pass_and_rejects_wrong_exit_code():
    check = workloads.WORKLOADS["algebra-verify"].check
    assert check(0, VERIFY_OUT, "") == []
    assert check(1, VERIFY_OUT, "") == ["exit code 1, expected 0"]


def test_verify_check_rejects_a_fail_line_and_a_missing_line():
    check = workloads.WORKLOADS["algebra-verify"].check
    failing = VERIFY_OUT.replace("LEMMA2 PASS", "LEMMA2 FAIL")
    assert any("not PASS" in p for p in check(0, failing, ""))
    missing = "\n".join(VERIFY_OUT.splitlines()[:3])
    assert any("expected 4" in p for p in check(0, missing, ""))
    # the oracle workload runs both backends, so it needs eight lines
    assert workloads.WORKLOADS["oracle-verify"].check(0, VERIFY_OUT, "")


def test_torus_check_requires_confirmation_and_closed_form(tmp_path):
    check = workloads.WORKLOADS["torus-scan"].check
    (tmp_path / "argmin.json").write_text(json.dumps({"delta": 0.0, "closed_form": 0.0}))
    assert check(0, "NOGO CONFIRMED: min delta = 0", str(tmp_path)) == []
    assert check(0, "NOGO REFUTED: min delta = -1", str(tmp_path)) == ["no NOGO CONFIRMED line"]
    (tmp_path / "argmin.json").write_text(json.dumps({"delta": 1e-9, "closed_form": 0.0}))
    assert check(0, "NOGO CONFIRMED", str(tmp_path))


def test_control_check_rejects_a_csv_with_one_changed_byte(tmp_path):
    csv = tmp_path / "sweep.csv"
    csv.write_bytes(b"theta,nx\n0,1\n")
    digest = workloads.file_sha256(str(csv))
    out = "CONTROL: QET DETECTED, min delta = -0.07"
    assert workloads._control_check(0, out, str(tmp_path), want_sha256=digest) == []
    csv.write_bytes(b"theta,nx\n0,2\n")
    problems = workloads._control_check(0, out, str(tmp_path), want_sha256=digest)
    assert len(problems) == 1 and "sha256" in problems[0]
    assert workloads._control_check(1, "CONTROL: NO QET", str(tmp_path), want_sha256=digest) == [
        "exit code 1, expected 0", "no CONTROL: QET DETECTED line", problems[0]]


def test_targets_pair_the_seeded_edge_with_its_mirror():
    torus = workloads.WORKLOADS["torus-scan"]
    assert torus.targets(7) == torus.targets(7)
    pairs = {torus.targets(seed) for seed in range(50)}
    assert len(pairs) > 1
    assert all(0 <= b < 2 * 24 * 24 and b + m == 2 * 24 * 24 - 1 for b, m in pairs)
    assert workloads.WORKLOADS["control-table"].targets(1) == (None,)
    verify = workloads.WORKLOADS["oracle-verify"].argv(4, 5, "t")
    assert verify[verify.index("--bob-qubit") + 1] == "4"
    assert verify[verify.index("--seed") + 1] == "5"


def test_a_failing_sample_is_counted_not_dropped(tmp_path):
    # the CLI rejects L=1 with exit code 2, so the verify check must fail
    bad = workloads.Workload("bad", "", 2, lambda bob, seed, tmp: ["verify", "--L", "1"],
                             workloads.WORKLOADS["algebra-verify"].check)
    sample = run.run_sample(bad, 0, 0, False, run.child_env(ROOT / "src"), ROOT / "src",
                            tmp_path, tmp_path / "spans.json")
    assert sample.exit_code == 2
    assert "exit code 2, expected 0" in sample.problems
    assert sample.wall_s is not None and sample.peak_rss_mb > 0


# -- the benchmark definition --------------------------------------------------------


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in doc["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert all(m["unit"] == run.END_TO_END_UNITS[m["name"]] for m in doc["end_to_end"])
    assert [m["name"] for m in doc["per_layer"]] == list(run.PER_LAYER_METRICS)
    assert all(m["unit"] == run.metric_unit(m["name"]) for m in doc["per_layer"])


def test_run_refuses_a_directory_without_the_source(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", "torus-scan", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no toricqet source" in proc.stderr
    assert not os.listdir(tmp_path)
