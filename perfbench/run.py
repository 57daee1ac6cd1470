"""End-to-end benchmark of the toricqet CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload torus-scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A run is a closed loop with one client: each sample is a fresh interpreter
(``child.py``) that runs ``toricqet.cli.main`` once on the workload's
arguments, and the next sample starts when the previous one has ended.
Samples run in blocks, one sample per target edge of the workload, and a
block starts while it is expected to finish within ``--seconds``.  Before
the loop, fresh interpreters import ``toricqet.cli``, alternating with
interpreters that import only numpy, to measure set-up time.

With ``--trace 0`` every sample is untraced and the run reports the
end-to-end metrics: ``wall_s``, the wall time of ``main`` (median over
blocks of the mean over a block's target edges, see ``Workload.targets``),
``setup_s``, the median time of a fresh interpreter to import
``toricqet.cli`` scaled to a reference start-up speed (see
``SETUP_REFERENCE_S``), and ``peak_rss_mb``, the median peak RSS of a
sample process from ``wait4``.  The unscaled ``setup_raw_s`` is printed
and recorded next to them.  With ``--trace 1`` untraced and traced samples
alternate, and the run reports the per-layer metrics of the traced ones
(see ``spans.py``) plus the tracing overhead.

Every sample's output is checked (see ``workloads.py``); a sample that fails
a check is counted in ``failed``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record, with provenance and every sample, is written
to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from spans import LAYER_METRICS
from workloads import WORKLOADS, Workload

CHILD = Path(__file__).resolve().parent / "child.py"
OUT_DIR = ".perfbench"
# Fresh-interpreter imports per run, after one that warms the file cache.
SETUP_PROBES = 7
# Seconds a fresh interpreter takes to import numpy at the start-up speed that
# setup_s is expressed at (about its median on the development machine).
# Start-up time on a shared machine drifts by up to 2x over minutes, so the
# median toricqet.cli import time is scaled by SETUP_REFERENCE_S over the
# median numpy import time, measured alternately with it in the same run.
SETUP_REFERENCE_S = 0.12
# A sample still running after this long is killed and counted as failed.
SAMPLE_TIMEOUT_S = 120.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_METRICS = (*LAYER_METRICS, "trace.overhead_s")


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "B"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


@dataclass
class Sample:
    target: int | None  # --bob-qubit of this sample
    traced: bool
    wall_s: float | None = None  # inside the child, around cli.main
    peak_rss_mb: float | None = None
    exit_code: int | None = None
    problems: list = field(default_factory=list)
    layers: dict | None = None
    numpy: str | None = None  # version the child imported


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("TORICQET_THREADS", None)  # every workload runs at the default
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def measure_setup(env: dict) -> tuple[list, list]:
    """Seconds for fresh interpreters to import toricqet.cli, and to import only
    numpy, alternately; the first pair only warms the file cache."""
    package, reference = [], []
    for _ in range(SETUP_PROBES + 1):
        for code, times in (("import toricqet.cli", package), ("import numpy", reference)):
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=SAMPLE_TIMEOUT_S)
            times.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise RuntimeError(f"{code} failed: {proc.stderr.strip()}")
    return package[1:], reference[1:]


def run_sample(workload: Workload, target: int | None, seed: int, traced: bool, env: dict,
               src: Path, tmp_root: Path, spans_out: Path) -> Sample:
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        spec = {"argv": workload.argv(target, seed, tmp), "trace": traced,
                "spans_out": str(spans_out) if traced else None}
        proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(spec)], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        killer = threading.Timer(SAMPLE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            output = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        sample = Sample(target, traced, peak_rss_mb=usage.ru_maxrss / 1024.0)
        lines = output.strip().splitlines()
        try:
            if proc.returncode != 0:
                raise ValueError(f"exit status {proc.returncode}")
            result = json.loads(lines[-1])
        except (ValueError, IndexError) as exc:
            sample.problems.append(f"sample process failed ({exc}): {' | '.join(lines[-3:])}")
            return sample
        sample.wall_s = result["wall_s"]
        sample.exit_code = result["exit_code"]
        sample.layers = result.get("layers")
        sample.numpy = result["numpy"]
        sample.problems += workload.check(result["exit_code"], result["stdout"], tmp)
        if not Path(result["cli_file"]).resolve().is_relative_to(src):
            sample.problems.append(f"imported {result['cli_file']}, not the checkout's source")
        return sample
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def run_workload(workload: Workload, seed: int, seconds: int, trace: bool, root: Path) -> dict:
    src = root / "src"
    out = root / OUT_DIR
    (out / "results").mkdir(parents=True, exist_ok=True)
    (out / "spans").mkdir(parents=True, exist_ok=True)
    env = child_env(src)
    setup, setup_reference = measure_setup(env)

    # One block runs every target once, untraced and (with --trace 1) traced;
    # blocks repeat while the next one is expected to end within the budget.
    targets = workload.targets(seed)
    block = [(target, traced) for target in targets for traced in ((False, True) if trace else (False,))]
    spans_out = out / "spans" / f"{workload.name}.json"  # the last traced sample's spans
    samples: list[Sample] = []
    block_s: list[float] = []
    start = time.perf_counter()
    while not block_s or time.perf_counter() - start + statistics.median(block_s) <= seconds:
        began = time.perf_counter()
        samples += [run_sample(workload, target, seed, traced, env, src, out, spans_out)
                    for target, traced in block]
        block_s.append(time.perf_counter() - began)
    numpy_version = next((s.numpy for s in samples if s.numpy), None)

    failed = sum(1 for s in samples if s.problems)
    blocks = [[s for s in samples[i:i + len(block)] if not s.traced and s.wall_s is not None]
              for i in range(0, len(samples), len(block))]
    blocks = [b for b in blocks if b]
    plain = [s for b in blocks for s in b]
    # a block's wall time is the mean over its targets, so it hardly depends on the seed
    wall_s = _median([statistics.fmean(s.wall_s for s in b) for b in blocks])
    if trace:
        traced_layers = [s.layers for s in samples if s.traced and s.layers]
        metrics = {name: _median([layers[name] for layers in traced_layers])
                   for name in LAYER_METRICS}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - _median([s.wall_s for s in plain])
        counts = {name: len(traced_layers) for name in metrics}
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": _median(setup) * SETUP_REFERENCE_S / _median(setup_reference),
            "peak_rss_mb": _median([s.peak_rss_mb for s in plain]),
        }
        counts = {"wall_s": len(blocks), "setup_s": len(setup), "peak_rss_mb": len(plain)}
    units = {name: END_TO_END_UNITS.get(name) or metric_unit(name) for name in metrics}
    return {
        "workload": workload.name,
        "argv": [workload.argv(target, seed, "<tmp>") for target in targets],
        "provenance": provenance(root, seed, numpy_version),
        "seconds": seconds,
        "trace": trace,
        "attempted": len(samples),
        "failed": failed,
        "fail_ratio": failed / len(samples),
        "metrics": {name: {"value": value, "unit": units[name], "samples": counts[name]}
                    for name, value in metrics.items()},
        "setup_raw_s": {"value": _median(setup), "unit": "s", "samples": len(setup)},
        "setup_probes_s": setup,
        "setup_reference_probes_s": setup_reference,
        "samples": [asdict(s) for s in samples],
    }


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout's own .git, if it has one; never looks above root."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(src: Path) -> str:
    """Digest of the package source, which identifies the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((src / "toricqet").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, seed: int, numpy_version: str | None) -> dict:
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_sha256(root / "src"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": seed,
    }


def print_result(result: dict):
    print(f"{result['workload']} seed={result['provenance']['seed']}: "
          + " / ".join(f"toricqet {' '.join(argv)}" for argv in result["argv"]))
    shown = {**result["metrics"], "setup_raw_s": result["setup_raw_s"]}
    for name, m in shown.items():
        print(f"  {name:38s} {m['value']:14.6g} {m['unit']:6s} (median of {m['samples']})")
    print(f"  {'fail_ratio':38s} {result['fail_ratio']:14.6g} {'':6s} "
          f"({result['failed']} failed of {result['attempted']} samples)")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "toricqet" / "cli.py").is_file():
        print(f"error: no toricqet source under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), root)
        path = root / OUT_DIR / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")
        print_result(result)
        results.append(result)

    prefix = len(results) > 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {"value": m["value"], "unit": m["unit"]}
            for r in results for name, m in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
