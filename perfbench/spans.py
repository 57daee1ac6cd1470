"""Span recording around toricqet's public functions, from outside the package.

A traced sample wraps the functions listed in TARGETS, calls
``toricqet.cli.main`` once, and turns the recorded spans into per-layer
metrics.  Every wrapped call records one span (function label, start, end,
parent).  A layer's time is the self time of its spans: a span's duration
minus the part of it that its child spans cover.  Because every span below
the ``cli.main`` root has exactly one parent, the self times of all spans
sum to the root's duration, i.e. to the traced wall time.

Nothing under ``src/`` is modified: the wrappers replace the attributes on
the loaded ``toricqet`` modules and classes, in every module namespace that
imported the original by name.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Optional, Sequence

# Bytes per complex128 amplitude, for the computed-bytes count of dense applies.
AMPLITUDE_BYTES = 16
# First column of the sweep CSV header; data rows start with a number.
CSV_HEADER_PREFIX = "theta,"


# -- counters attached to wrapped calls ------------------------------------------
# Each takes (counters, args, result) and runs after the span has closed.


def _count_builds(counters, args, result):
    counters["stabilizer.builds"] += 1


def _count_expect(counters, args, result):
    counters["stabilizer.expect_calls"] += 1
    counters["stabilizer.expect_terms"] += len(args[1].terms)


def _count_mul(counters, args, result):
    counters["pauli.mul_calls"] += 1
    counters["pauli.mul_pairs"] += len(args[0].terms) * len(args[1].terms)
    counters["pauli.mul_terms_out"] += len(result.terms)


def _count_lattice_op(counters, args, result):
    counters["lattice.ops_calls"] += 1


def _count_apply(counters, args, result):
    poly, state = args[0], args[1]
    counters["statevector.apply_calls"] += 1
    counters["statevector.apply_terms"] += len(poly.terms)
    counters["statevector.bytes_moved_computed"] += (
        len(poly.terms) * (1 << state.n_qubits) * AMPLITUDE_BYTES
    )


def _count_checks(counters, args, result):
    counters["protocol.checks"] += len(result.checks)


def _count_sweep(counters, args, result):
    counters["optimize.grid_points"] += result.size


def _count_csv_line(counters, line):
    # the writer adds one newline per line; a table's first line is its header
    if not line.startswith(CSV_HEADER_PREFIX):
        counters["reports.csv_rows"] += 1
    counters["reports.csv_bytes"] += len(line) + 1


# -- what to wrap -----------------------------------------------------------------
# (module, attribute path, layer metric the span's self time goes to, counter).
# Private helpers are not wrapped: their time is self time of the public caller.

_LATTICE_OPS = (
    "ToricLattice.__init__", "ToricLattice.star", "ToricLattice.plaquette",
    "ToricLattice.stars", "ToricLattice.plaquettes", "ToricLattice.z_loops",
    "ToricLattice.x_flips", "ToricLattice.hamiltonian", "ToricLattice.stars_touching",
    "ToricLattice.plaquettes_touching", "ToricLattice.scheme_from_edges",
    "ToricLattice.full_region_scheme", "MeasurementScheme.operator", "MeasurementScheme.kraus",
)
_PROTOCOL_FUNCS = (
    "StabilizerBackend.__init__", "StatevectorBackend.__init__", "make_backends",
    "measurement_ops", "sigma_poly", "axis_operator", "locc_unitary", "delta_closed_form",
    "outcome_probabilities", "energy_injected", "excitation_profile", "energy_after_locc",
    "describe_scheme", "target_commutator",
)
_PROTOCOL_CHECKS = (
    "verify_plaquette_collapse", "verify_local_expectations", "verify_cross_terms",
    "verify_derivation_chain",
)
_CHAIN_RUN = (
    "measurement_projectors", "protocol_system", "qet_run", "post_measurement_terms",
    "term_energy_changes", "optimize_control",
)

TARGETS = (
    ("stabilizer", "StabilizerGroup.__init__", "stabilizer.build_s", _count_builds),
    # ground_group gathers the generators; its self time counts as group build
    ("lattice", "ToricLattice.ground_group", "stabilizer.build_s", None),
    ("stabilizer", "StabilizerGroup.poly_expectation", "stabilizer.expect_s", _count_expect),
    ("pauli", "PauliPolynomial.mul", "pauli.mul_s", _count_mul),
    *(("lattice", path, "lattice.ops_s", _count_lattice_op) for path in _LATTICE_OPS),
    ("statevector", "apply_poly", "statevector.apply_s", _count_apply),
    ("statevector", "poly_expectation", "statevector.apply_s", None),
    ("statevector", "ground_state", "statevector.ground_state_s", None),
    *(("protocol", name, "protocol.self_s", None) for name in _PROTOCOL_FUNCS),
    *(("protocol", name, "protocol.self_s", _count_checks) for name in _PROTOCOL_CHECKS),
    ("optimize", "ProtocolSystem.from_toric", "optimize.self_s", None),
    ("optimize", "optimize_system", "optimize.self_s", None),
    ("optimize", "optimize_locc", "optimize.self_s", None),
    ("optimize", "QuadraticResponse.__init__", "optimize.response_s", None),
    ("optimize", "QuadraticResponse.sweep", "optimize.sweep_s", _count_sweep),
    ("chain", "chain_hamiltonian", "chain.build_s", None),
    ("chain", "build_chain", "chain.build_s", None),
    *(("chain", name, "chain.run_s", None) for name in _CHAIN_RUN),
    ("reports", "EnergyReport.to_json", "reports.json_s", None),
    ("reports", "EnergyReport.to_dict", "reports.json_s", None),
    ("cli", "main", "cli.self_s", None),
)
# Generator functions: each next() on the returned generator is one span.
GENERATOR_TARGETS = (
    ("reports", "sweep_csv_lines", "reports.csv_s", _count_csv_line),
)

TIME_METRICS = tuple(dict.fromkeys(
    [t[2] for t in TARGETS] + [t[2] for t in GENERATOR_TARGETS]
))
COUNT_METRICS = (
    "stabilizer.builds", "stabilizer.expect_calls", "stabilizer.expect_terms",
    "pauli.mul_calls", "pauli.mul_pairs", "pauli.mul_terms_out",
    "lattice.ops_calls",
    "statevector.apply_calls", "statevector.apply_terms", "statevector.bytes_moved_computed",
    "protocol.checks", "optimize.grid_points", "reports.csv_rows", "reports.csv_bytes",
)
# Every per-layer metric a traced sample reports, in a stable order.
LAYER_METRICS = (*TIME_METRICS, *COUNT_METRICS, "pauli.mul_merge_ratio", "trace.wall_s")


class Tracer:
    """Spans of one process, kept in memory until ``dump``.

    Calls are single-threaded (toricqet's thread pool is off by default), so
    one stack of open spans gives every span its parent.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.labels: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def _begin(self, label: str) -> int:
        idx = len(self.labels)
        self.labels.append(label)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(idx)
        self.starts.append(self._clock())
        return idx

    def _finish(self, idx: int):
        self.ends[idx] = self._clock()
        self._open.pop()

    def wrap(self, label: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(idx)
            if count is not None:
                count(self.counters, args, result)
            return result

        return traced

    def wrap_generator(self, label: str, fn: Callable, count_item: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._iterate(label, fn(*args, **kwargs), count_item)

        return traced

    def _iterate(self, label: str, gen, count_item):
        while True:
            idx = self._begin(label)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._finish(idx)
            if count_item is not None:
                count_item(self.counters, item)
            yield item

    def dump(self, path: str, meta: dict):
        """Write every span once, as columns, with times relative to the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        doc = {
            **meta,
            "columns": ["label", "start_s", "end_s", "parent"],
            "labels": self.labels,
            "start_s": [round(s - t0, 9) for s in self.starts],
            "end_s": [round(e - t0, 9) for e in self.ends],
            "parent": list(self.parents),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def self_times(starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent, and overlapping children are
    merged, so the result is never negative and never double-counts.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        cursor = start
        for child in sorted(children.get(idx, ()), key=lambda c: starts[c]):
            lo = max(starts[child], cursor)
            hi = min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer, metric_of: dict[str, str]) -> dict[str, float]:
    """Per-layer self times and counters of one traced sample."""
    totals = {name: 0.0 for name in TIME_METRICS}
    for label, value in zip(tracer.labels, self_times(tracer.starts, tracer.ends, tracer.parents)):
        totals[metric_of[label]] += value
    counters = tracer.counters
    for name in COUNT_METRICS:
        totals[name] = float(counters.get(name, 0.0))
    pairs = totals["pauli.mul_pairs"]
    totals["pauli.mul_merge_ratio"] = totals["pauli.mul_terms_out"] / pairs if pairs else 0.0
    roots = [i for i, parent in enumerate(tracer.parents) if parent < 0]
    totals["trace.wall_s"] = sum(tracer.ends[i] - tracer.starts[i] for i in roots)
    return totals


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer) -> dict[str, str]:
    """Wrap every target in the imported toricqet package; return label -> layer metric.

    A module-level function is replaced in each of the package's modules that
    holds it under some name, so ``from .x import f`` call sites are traced too.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "toricqet" or name.startswith("toricqet."))]
    metric_of = {}

    def patch(module_name, path, wrapper_for):
        module = importlib.import_module(f"toricqet.{module_name}")
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        label = f"{module_name}.{path}"
        wrapped = wrapper_for(label, original)
        setattr(owner, attr, wrapped)
        if owner is module:
            for other in modules:
                for name, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, name, wrapped)
        return label

    for module_name, path, metric, count in TARGETS:
        label = patch(module_name, path, lambda lb, fn: tracer.wrap(lb, fn, count))
        metric_of[label] = metric
    for module_name, path, metric, count_item in GENERATOR_TARGETS:
        label = patch(module_name, path, lambda lb, fn: tracer.wrap_generator(lb, fn, count_item))
        metric_of[label] = metric
    return metric_of
