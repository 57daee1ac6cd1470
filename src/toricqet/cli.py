"""Command-line front end.

Subcommands: verify (structural checks, LEMMA1/2/3 + DERIVATION lines),
nogo-scan (parameter sweep, CSV/JSON artifacts), control (positive-control
chain), describe (lattice geometry as JSON).

Exit codes: 0 success / claim confirmed, 1 claim refuted (a check failed
or an extracting parameter point was found where none should exist),
2 usage or capacity error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import typing
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .chain import build_chain, optimize_control, qet_run
from .lattice import ToricLattice
from .optimize import GridSpec, optimize_locc
from .protocol import (
    LoccParams,
    energy_after_locc,
    make_backends,
    verify_cross_terms,
    verify_derivation_chain,
    verify_local_expectations,
    verify_plaquette_collapse,
)
from .reports import format_float, write_sweep_csv
from .statevector import CapacityError

NOGO_EPS = 1e-10
CONTROL_EPS = 1e-9


@dataclass
class RunConfig:
    """Everything a run needs; the --config JSON file mirrors these fields."""

    command: str = ""
    L: int = 2
    sector: tuple[int, int] = (1, 1)
    bob_qubit: int = 0
    edges: Optional[tuple[int, ...]] = None
    backend: str = "stabilizer"
    theta_count: int = 129
    sphere_count: int = 512
    independent: bool = False
    seed: int = 0
    samples: int = 5
    out: Optional[str] = None
    json_out: Optional[str] = None
    sites: int = 2
    coupling: float = 1.0
    field: float = 1.0
    site_a: int = 0
    site_b: Optional[int] = None
    chain_axis: str = "x"

    @classmethod
    def from_namespace(cls, ns: argparse.Namespace) -> "RunConfig":
        cfg = cls()
        for f in fields(cls):
            if hasattr(ns, f.name):
                value = getattr(ns, f.name)
                if value is not None or _FIELD_TYPES[f.name][0]:
                    setattr(cfg, f.name, value)
        cfg.sector = tuple(cfg.sector)
        if cfg.edges is not None:
            cfg.edges = tuple(cfg.edges)
        return cfg

    def lattice(self) -> ToricLattice:
        return ToricLattice(self.L, bob_qubit=self.bob_qubit)

    def scheme(self, lat: ToricLattice):
        if self.edges is None:
            return lat.full_region_scheme()
        return lat.scheme_from_edges(self.edges)

    def grid(self) -> GridSpec:
        return GridSpec(theta_count=self.theta_count, sphere_count=self.sphere_count)


def _split_optional(hint) -> tuple[bool, type]:
    """(nullable, value type) of a RunConfig annotation."""
    if typing.get_origin(hint) is typing.Union:
        members = typing.get_args(hint)
        return type(None) in members, next(m for m in members if m is not type(None))
    return False, hint


_FIELD_TYPES = {name: _split_optional(hint) for name, hint in typing.get_type_hints(RunConfig).items()}
CONFIG_KEYS = set(_FIELD_TYPES) - {"command"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# JSON check and its description, per RunConfig value type.
_VALUE_CHECKS = {
    int: (_is_int, "an integer"),
    float: (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    bool: (lambda v: isinstance(v, bool), "a boolean"),
    str: (lambda v: isinstance(v, str), "a string"),
    tuple: (lambda v: isinstance(v, list) and all(_is_int(x) for x in v), "a list of integers"),
}


def _check_config_value(key: str, value):
    nullable, kind = _FIELD_TYPES[key]
    if value is None:
        if nullable:
            return
        raise ValueError(f"config key {key!r} cannot be null")
    accepts, described = _VALUE_CHECKS[typing.get_origin(kind) or kind]
    if not accepts(value):
        raise ValueError(f"config key {key!r} must be {described}, got {value!r}")


def _load_config(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = set(data) - CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys in {path}: {sorted(unknown)}")
    for key, value in data.items():
        _check_config_value(key, value)
    return data


def _scan_config_path(argv: Sequence[str]) -> Optional[str]:
    for i, arg in enumerate(argv):
        if arg == "--config":
            if i + 1 >= len(argv):
                raise ValueError("--config needs a path")
            return argv[i + 1]
        if arg.startswith("--config="):
            return arg.split("=", 1)[1]
    return None


# -- parser --------------------------------------------------------------------


def build_parser(defaults: Optional[dict] = None) -> argparse.ArgumentParser:
    # defaults from a --config file must be pushed into each subparser:
    # subcommands parse into a fresh namespace, so top-level set_defaults
    # never reaches their arguments
    parser = argparse.ArgumentParser(
        prog="toricqet",
        description="Exact check of measurement-feedback energy extraction on the toric code.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = []

    def add_command(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        subparsers.append(p)
        return p

    def lattice_flags(p):
        p.add_argument("--L", type=int, default=2, help="lattice size (2L^2 qubits)")
        p.add_argument("--sector", type=int, nargs=2, default=(1, 1), metavar=("S1", "S2"),
                       help="loop sector signs, each +-1")
        p.add_argument("--bob-qubit", type=int, default=0, dest="bob_qubit",
                       help="target edge index for the conditioned rotation")
        p.add_argument("--edges", type=int, nargs="+", default=None,
                       help="explicit measurement support (default: all of region A)")
        p.add_argument("--config", default=None, help="JSON file with RunConfig defaults")
        p.add_argument("--seed", type=int, default=0, help="seed for sampled parameter draws")

    def grid_flags(p):
        p.add_argument("--theta-count", type=int, default=129, dest="theta_count")
        p.add_argument("--sphere-count", type=int, default=512, dest="sphere_count")

    p_verify = add_command("verify", help="run the structural checks")
    lattice_flags(p_verify)
    p_verify.add_argument("--backend", choices=("stabilizer", "statevector", "both"),
                          default="stabilizer")
    p_verify.add_argument("--samples", type=int, default=5,
                          help="random parameter draws for the derivation checks")

    p_scan = add_command("nogo-scan", help="sweep rotation parameters for extraction")
    lattice_flags(p_scan)
    grid_flags(p_scan)
    p_scan.add_argument("--backend", choices=("stabilizer", "statevector", "both"),
                        default="stabilizer")
    p_scan.add_argument("--independent", action="store_true",
                        help="also minimize with independent per-outcome parameters")
    p_scan.add_argument("--out", default=None, help="write the sweep table CSV here")
    p_scan.add_argument("--json", dest="json_out", default=None,
                        help="write the argmin report JSON here")

    p_ctl = add_command("control", help="positive control on a small spin chain")
    p_ctl.add_argument("--sites", type=int, default=2)
    p_ctl.add_argument("--coupling", type=float, default=1.0)
    p_ctl.add_argument("--field", type=float, default=1.0)
    p_ctl.add_argument("--site-a", type=int, default=0, dest="site_a")
    p_ctl.add_argument("--site-b", type=int, default=None, dest="site_b")
    p_ctl.add_argument("--axis", choices=("x", "y", "z"), default="x", dest="chain_axis",
                       help="measurement axis on site A")
    grid_flags(p_ctl)
    p_ctl.add_argument("--shared", action="store_false", dest="independent", default=True,
                       help="restrict to one (theta, axis) with the outcome sign flip")
    p_ctl.add_argument("--out", default=None, help="write the shared-ansatz sweep CSV here")
    p_ctl.add_argument("--json", dest="json_out", default=None)
    p_ctl.add_argument("--config", default=None)
    p_ctl.add_argument("--seed", type=int, default=0)

    p_desc = add_command("describe", help="emit lattice geometry as JSON")
    p_desc.add_argument("--L", type=int, default=2)
    p_desc.add_argument("--bob-qubit", type=int, default=0, dest="bob_qubit")
    p_desc.add_argument("--out", default=None)
    p_desc.add_argument("--config", default=None)

    if defaults:
        for p in subparsers:
            p.set_defaults(**defaults)
    return parser


# -- subcommands -----------------------------------------------------------------


def _sample_params(cfg: RunConfig) -> list[LoccParams]:
    if cfg.samples < 0:
        raise ValueError(f"samples must be non-negative, got {cfg.samples}")
    rng = np.random.default_rng(cfg.seed)
    draws = [
        LoccParams(math.pi / 2, (0.0, 1.0, 0.0)),
        LoccParams.from_direction(0.3, (1.0, 1.0, 1.0)),
    ]
    for _ in range(cfg.samples):
        direction = rng.standard_normal(3)
        while np.linalg.norm(direction) < 1e-6:
            direction = rng.standard_normal(3)
        draws.append(LoccParams.from_direction(rng.uniform(0.0, 2.0 * math.pi), direction))
    return draws


def cmd_verify(cfg: RunConfig) -> int:
    lat = cfg.lattice()
    scheme = cfg.scheme(lat)
    backends = make_backends(lat, cfg.backend, cfg.sector)
    draws = _sample_params(cfg)
    all_passed = True
    for backend in backends:
        named = (
            ("LEMMA1", verify_plaquette_collapse(lat, scheme, backend)),
            ("LEMMA2", verify_local_expectations(lat, backend)),
            ("LEMMA3", verify_cross_terms(lat, scheme, backend)),
        )
        for tag, report in named:
            worst = max((c.value for c in report.checks if not c.contrast), default=0.0)
            verdict = "PASS" if report.passed else "FAIL"
            all_passed &= report.passed
            print(f"{tag} {verdict} [{backend.name}] {report.name}: "
                  f"{len(report.checks)} checks, max residual {worst:.3e}")
            for c in report.failures():
                print(f"  failed: {c.label} (residual {c.value:.3e})")
        chain_checks = [verify_derivation_chain(lat, scheme, p, backend) for p in draws]
        worst = max(c.value for rep in chain_checks for c in rep.checks)
        ok = all(rep.passed for rep in chain_checks)
        all_passed &= ok
        print(f"DERIVATION {'PASS' if ok else 'FAIL'} [{backend.name}] derivation chain: "
              f"{len(draws)} parameter draws, max residual {worst:.3e}")
        for rep in chain_checks:
            for c in rep.failures():
                print(f"  failed: {c.label} (residual {c.value:.3e})")
    return 0 if all_passed else 1


def cmd_nogo_scan(cfg: RunConfig) -> int:
    lat = cfg.lattice()
    scheme = cfg.scheme(lat)
    backends = make_backends(lat, cfg.backend, cfg.sector)
    grid = cfg.grid()
    blocks = []
    overall_min = math.inf
    best = None
    for backend in backends:
        res = optimize_locc(lat, scheme, grid, backend=backend, independent=cfg.independent)
        blocks.append((res.table, backend.name))
        deviation = float(np.abs(res.table[:, 7] - res.table[:, 8]).max())
        print(f"[{backend.name}] min delta = {format_float(res.min_delta)} "
              f"at {res.argmin_description()}; grid min = {format_float(res.grid_min)}; "
              f"max |delta - closed_form| = {deviation:.3e}; "
              f"theta=0 attains minimum: {res.zero_theta_attains}")
        if res.min_delta < overall_min:
            overall_min = res.min_delta
            best = (backend, res)
    if cfg.out:
        write_sweep_csv(cfg.out, blocks)
        print(f"sweep table written to {cfg.out}")
    if cfg.json_out:
        backend, res = best
        report = energy_after_locc(scheme, res.params, lat, backend)
        with open(cfg.json_out, "w") as fh:
            fh.write(report.to_json() + "\n")
        print(f"argmin report written to {cfg.json_out}")
    if overall_min < -NOGO_EPS:
        print(f"NOGO REFUTED: extraction point found, min delta = {format_float(overall_min)}")
        return 1
    print(f"NOGO CONFIRMED: min delta = {format_float(overall_min)} >= -{NOGO_EPS:g}")
    return 0


def cmd_control(cfg: RunConfig) -> int:
    model = build_chain(cfg.sites, cfg.coupling, cfg.field, cfg.site_a, cfg.site_b)
    res = optimize_control(model, cfg.grid(), axis=cfg.chain_axis,
                           independent=cfg.independent, with_table=cfg.out is not None)
    locc = res.per_outcome if res.per_outcome is not None else res.params
    report = qet_run(model, locc, axis=cfg.chain_axis)
    if abs(report.delta - res.min_delta) > CONTROL_EPS:
        print(f"optimizer ({format_float(res.min_delta)}) and direct evaluation "
              f"({format_float(report.delta)}) disagree")
        return 1
    if cfg.out and res.table is not None:
        write_sweep_csv(cfg.out, [(res.table, model.label())])
        print(f"sweep table written to {cfg.out}")
    if cfg.json_out:
        with open(cfg.json_out, "w") as fh:
            fh.write(report.to_json() + "\n")
        print(f"report written to {cfg.json_out}")
    if res.min_delta < -CONTROL_EPS:
        print(f"CONTROL: QET DETECTED, min delta = {format_float(res.min_delta)} "
              f"at {res.argmin_description()}")
        return 0
    print(f"CONTROL: NO QET, min delta = {format_float(res.min_delta)}")
    return 1


def cmd_describe(cfg: RunConfig) -> int:
    doc = cfg.lattice().describe()
    text = json.dumps(doc, indent=2)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


COMMANDS = {
    "verify": cmd_verify,
    "nogo-scan": cmd_nogo_scan,
    "control": cmd_control,
    "describe": cmd_describe,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config_path = _scan_config_path(argv)
        defaults = _load_config(config_path) if config_path else None
        parser = build_parser(defaults)
        ns = parser.parse_args(argv)
        cfg = RunConfig.from_namespace(ns)
        cfg.command = ns.command
        return COMMANDS[ns.command](cfg)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("capacity error: out of memory (try a smaller lattice or grid)", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
