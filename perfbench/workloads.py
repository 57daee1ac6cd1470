"""The four benchmark workloads: their command lines and output checks.

Each workload is one ``toricqet`` invocation at a fixed size.  They are
chosen so that each stresses a different layer (see ``why``), and so that
the layers without a workload of their own (pauli, lattice) get one.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

# sha256 of the control-table CSV; the sweep CSV is byte-identical across runs.
CONTROL_CSV_SHA256 = "3d2b8f25b1684a5535ca832b98125862c451220f3533be76181062930437123d"
# The argmin JSON of nogo-scan must match the closed form to this tolerance.
CLOSED_FORM_TOL = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    L: Optional[int]  # torus size, or None for a workload without a target edge
    argv: Callable[[Optional[int], int, str], list]  # (target edge, seed, artifact dir) -> CLI argv
    check: Callable[[int, str, str], list]  # (exit code, stdout, artifact dir) -> problems

    def targets(self, seed: int) -> tuple:
        """The target edge drawn by the seed and its mirror in edge-index order.

        Run time grows with the target's index (about 1.5x from the first to
        the last edge at L=20 and L=24), so samples alternate between edge b
        and edge 2 L^2 - 1 - b: the mean time of such a pair depends little on
        the seed, while every run still covers low and high indices.
        """
        if self.L is None:
            return (None,)
        edges = 2 * self.L * self.L
        bob = random.Random(seed).randrange(edges)
        return (bob, edges - 1 - bob)


def _lines_with(stdout: str, prefix: str) -> list:
    return [line for line in stdout.splitlines() if line.startswith(prefix)]


def _check_exit(code: int, want: int = 0) -> list:
    return [] if code == want else [f"exit code {code}, expected {want}"]


def _check_verify(code: int, stdout: str, backends: int) -> list:
    problems = _check_exit(code)
    verdicts = [line for line in stdout.splitlines()
                if line.startswith(("LEMMA", "DERIVATION"))]
    # LEMMA1, LEMMA2, LEMMA3 and DERIVATION once per backend
    if len(verdicts) != 4 * backends:
        problems.append(f"{len(verdicts)} LEMMA/DERIVATION lines, expected {4 * backends}")
    problems += [f"verdict not PASS: {line}" for line in verdicts
                 if line.split()[1] != "PASS"]
    return problems


def _torus_scan_argv(bob: int, seed: int, tmp: str) -> list:
    return ["nogo-scan", "--L", "24", "--bob-qubit", str(bob),
            "--json", os.path.join(tmp, "argmin.json")]


def _torus_scan_check(code: int, stdout: str, tmp: str) -> list:
    problems = _check_exit(code)
    if not _lines_with(stdout, "NOGO CONFIRMED"):
        problems.append("no NOGO CONFIRMED line")
    try:
        with open(os.path.join(tmp, "argmin.json")) as fh:
            report = json.load(fh)
        gap = abs(report["delta"] - report["closed_form"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return problems + [f"argmin JSON unreadable: {exc}"]
    if not gap <= CLOSED_FORM_TOL:
        problems.append(f"|delta - closed_form| = {gap!r} > {CLOSED_FORM_TOL}")
    return problems


def _control_argv(bob: Optional[int], seed: int, tmp: str) -> list:
    # No seed-dependent input: the CSV digest is fixed.  Site B = 1, because
    # with the default B = 5 the N=6 chain shows no extraction (exit 1).
    return ["control", "--sites", "6", "--site-b", "1", "--theta-count", "257",
            "--sphere-count", "1024", "--out", os.path.join(tmp, "sweep.csv"),
            "--json", os.path.join(tmp, "report.json")]


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _control_check(code: int, stdout: str, tmp: str, want_sha256: str = CONTROL_CSV_SHA256) -> list:
    problems = _check_exit(code)
    if not _lines_with(stdout, "CONTROL: QET DETECTED"):
        problems.append("no CONTROL: QET DETECTED line")
    try:
        got = file_sha256(os.path.join(tmp, "sweep.csv"))
    except OSError as exc:
        return problems + [f"sweep CSV unreadable: {exc}"]
    if got != want_sha256:
        problems.append(f"sweep CSV sha256 {got}, expected {want_sha256}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "torus-scan",
            "nogo-scan --L 24 --bob-qubit B --json F: stabilizer-engine solves and group build dominate; no dense oracle, no CSV",
            24,
            _torus_scan_argv,
            _torus_scan_check,
        ),
        Workload(
            "oracle-verify",
            "verify --L 3 --backend both --bob-qubit B --seed S: dense statevector applies on 18 qubits dominate",
            3,
            lambda bob, seed, tmp: ["verify", "--L", "3", "--backend", "both",
                                    "--bob-qubit", str(bob), "--seed", str(seed)],
            lambda code, stdout, tmp: _check_verify(code, stdout, backends=2),
        ),
        Workload(
            "algebra-verify",
            "verify --L 20 --bob-qubit B --seed S: Pauli-polynomial products and lattice operator builds dominate; many small stabilizer queries",
            20,
            lambda bob, seed, tmp: ["verify", "--L", "20", "--bob-qubit", str(bob), "--seed", str(seed)],
            lambda code, stdout, tmp: _check_verify(code, stdout, backends=1),
        ),
        Workload(
            "control-table",
            "control --sites 6 --site-b 1 --theta-count 257 --sphere-count 1024 --out F --json F: writing the 263,939-row sweep CSV dominates",
            None,
            _control_argv,
            _control_check,
        ),
    )
}
