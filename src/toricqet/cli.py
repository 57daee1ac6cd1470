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
import random
import sys
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from .chain import build_chain, protocol_system
from .lattice import CapacityError, MeasurementScheme, ToricLattice
from .optimize import GridSpec, optimize_system
from .pauli import nan_max
from .protocol import (
    LoccParams,
    ProtocolSystem,
    cross_term_operators,
    derivation_draws,
    direct_energy,
    make_backends,
    post_measurement_profile,
    verify_cross_terms,
    verify_derivation_chain,
    verify_local_expectations,
    verify_plaquette_collapse,
)
from .reports import ENERGY_REL_EPS, format_float, write_lines, write_sweep_csv

NOGO_EPS = 1e-10
# direct_energy forms E_B - E_A from raw energies of size |E_0|, so the control
# tolerance is max(CONTROL_EPS, ENERGY_REL_EPS * |E_0|).
CONTROL_EPS = 1e-9


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

    def lattice_flags(p):
        p.add_argument("--L", type=int, default=2, help="lattice size (2L^2 qubits)")
        p.add_argument("--sector", type=int, nargs=2, default=(1, 1), metavar=("S1", "S2"),
                       help="loop sector signs, each +-1")
        p.add_argument("--bob-qubit", type=int, default=0, dest="bob_qubit",
                       help="target edge index for the conditioned rotation")
        p.add_argument("--edges", type=int, nargs="+", default=None,
                       help="explicit measurement support (default: all of region A)")

    def grid_flags(p):
        p.add_argument("--theta-count", type=int, default=GridSpec.theta_count, dest="theta_count")
        p.add_argument("--sphere-count", type=int, default=GridSpec.sphere_count, dest="sphere_count")

    p_verify = sub.add_parser("verify", help="run the structural checks")
    lattice_flags(p_verify)
    p_verify.add_argument("--seed", type=int, default=0, help="seed for sampled parameter draws")
    p_verify.add_argument("--backend", choices=("stabilizer", "statevector", "both"),
                          default="stabilizer")
    p_verify.add_argument("--samples", type=int, default=5,
                          help="random parameter draws for the derivation checks")

    p_scan = sub.add_parser("nogo-scan", help="sweep rotation parameters for extraction")
    lattice_flags(p_scan)
    grid_flags(p_scan)
    p_scan.add_argument("--backend", choices=("stabilizer", "statevector", "both"),
                        default="stabilizer")
    p_scan.add_argument("--independent", action="store_true",
                        help="minimize with independent per-outcome parameters instead of one shared rotation")
    p_scan.add_argument("--out", default=None, help="write the sweep table CSV here")
    p_scan.add_argument("--json", dest="json_out", default=None,
                        help="write the argmin report JSON here")

    p_ctl = sub.add_parser("control", help="positive control on a small spin chain")
    p_ctl.add_argument("--sites", type=int, default=2)
    p_ctl.add_argument("--coupling", type=float, default=1.0)
    p_ctl.add_argument("--field", type=float, default=1.0)
    p_ctl.add_argument("--site-a", type=int, default=0, dest="site_a")
    p_ctl.add_argument("--site-b", type=int, default=None, dest="site_b",
                       help="rotated site (default: the measured site's neighbour)")
    p_ctl.add_argument("--axis", choices=("x", "y", "z"), default="x", dest="chain_axis",
                       help="measurement axis on site A")
    grid_flags(p_ctl)
    p_ctl.add_argument("--shared", action="store_false", dest="independent", default=True,
                       help="restrict to one (theta, axis) with the outcome sign flip")
    p_ctl.add_argument("--out", default=None, help="write the shared-ansatz sweep CSV here")
    p_ctl.add_argument("--json", dest="json_out", default=None)

    p_desc = sub.add_parser("describe", help="emit lattice geometry as JSON")
    p_desc.add_argument("--L", type=int, default=2)
    p_desc.add_argument("--bob-qubit", type=int, default=0, dest="bob_qubit")
    p_desc.add_argument("--out", default=None)

    for p in sub.choices.values():
        p.add_argument("--config", default=None,
                       help="JSON file of defaults, one key per option (e.g. theta_count)")
        if defaults:
            p.set_defaults(**defaults)
    return parser


# -- config file -----------------------------------------------------------------
# A config key is an option's dest; its JSON type follows the option's declaration.


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_config_value(action: argparse.Action, value):
    key = action.dest
    if value is None:
        if action.default is None:
            return
        raise ValueError(f"config key {key!r} cannot be null")
    if action.nargs == 0:
        accepted, described = isinstance(value, bool), "a boolean"
    elif action.nargs is not None:
        accepted, described = isinstance(value, list) and all(map(_is_int, value)), "a list of integers"
    elif action.type is int:
        accepted, described = _is_int(value), "an integer"
    elif action.type is float:
        accepted, described = _is_int(value) or isinstance(value, float), "a number"
    else:
        accepted, described = isinstance(value, str), "a string"
    if not accepted:
        raise ValueError(f"config key {key!r} must be {described}, got {value!r}")


def _load_config(path: str, parser: argparse.ArgumentParser, command: str) -> dict:
    """The file's values, each an option `parser` declares for `command`, of its flag's type."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {a.dest: a for a in sub.choices[command]._actions if a.dest not in ("help", "config")}
    undeclared = set(data) - set(options)
    if undeclared:
        raise ValueError(f"config keys in {path} that {command} does not take: {sorted(undeclared)}")
    for key, value in data.items():
        _check_config_value(options[key], value)
    return data


# -- subcommands -----------------------------------------------------------------


def _toric(args: argparse.Namespace) -> tuple[ToricLattice, MeasurementScheme]:
    lat = ToricLattice(args.L, bob_qubit=args.bob_qubit)
    scheme = lat.full_region_scheme() if args.edges is None else lat.scheme_from_edges(args.edges)
    return lat, scheme


def _grid(args: argparse.Namespace) -> GridSpec:
    return GridSpec(theta_count=args.theta_count, sphere_count=args.sphere_count)


def _sample_params(args: argparse.Namespace) -> list[LoccParams]:
    """The two fixed draws, then `samples` points from random.Random(seed):
    the standard library's generator, which costs no import of numpy's generators."""
    if args.samples < 0:
        raise ValueError(f"samples must be non-negative, got {args.samples}")
    # Random(-s) would silently draw the stream of seed s
    if args.seed < 0:
        raise ValueError(f"seed must be non-negative, got {args.seed}")
    rng = random.Random(args.seed)
    draws = [
        LoccParams(math.pi / 2, (0.0, 1.0, 0.0)),
        LoccParams.from_direction(0.3, (1.0, 1.0, 1.0)),
    ]
    for _ in range(args.samples):
        direction = [rng.gauss(0.0, 1.0) for _ in range(3)]
        while math.hypot(*direction) < 1e-6:
            direction = [rng.gauss(0.0, 1.0) for _ in range(3)]
        draws.append(LoccParams.from_direction(rng.uniform(0.0, 2.0 * math.pi), direction))
    return draws


def cmd_verify(args: argparse.Namespace) -> int:
    lat, scheme = _toric(args)
    draws = _sample_params(args)
    systems = [ProtocolSystem.from_toric(lat, scheme, b) for b in make_backends(lat, args.backend, args.sector)]
    # the checks' operator algebra reads no engine: it is built once, and each engine evaluates it
    collapse = verify_plaquette_collapse(systems[0], lat)
    cross = cross_term_operators(lat)
    steps = derivation_draws(systems[0], lat, draws)
    all_passed = True
    for system in systems:
        groups = (
            ("LEMMA1", [collapse]),
            ("LEMMA2", [verify_local_expectations(system, lat)]),
            ("LEMMA3", [verify_cross_terms(system, cross)]),
            ("DERIVATION", [verify_derivation_chain(system, step) for step in steps]),
        )
        for tag, reports in groups:
            checks = [c for report in reports for c in report.checks]
            worst = nan_max(c.value for c in checks if not c.contrast)
            ok = all(c.passed for c in checks)
            all_passed &= ok
            size = f"{len(draws)} parameter draws" if tag == "DERIVATION" else f"{len(checks)} checks"
            print(f"{tag} {'PASS' if ok else 'FAIL'} [{system.backend.name}] {reports[0].name}: "
                  f"{size}, max residual {worst:.3e}")
            for c in checks:
                if not c.passed:
                    print(f"  failed: {c.label} (residual {c.value:.3e})")
    return 0 if all_passed else 1


def cmd_nogo_scan(args: argparse.Namespace) -> int:
    lat, scheme = _toric(args)
    backends = make_backends(lat, args.backend, args.sector)
    grid = _grid(args)
    blocks = []
    overall_min = math.inf
    best = None
    for backend in backends:
        system = ProtocolSystem.from_toric(lat, scheme, backend)
        res = optimize_system(system, grid, independent=args.independent)
        blocks.append((system, res, backend.name))
        # row by row: two grid-sized temporaries here would set the scan's peak memory
        deviation = "" if system.closed_form is None else (
            f"max |delta - closed_form| = "
            f"{max(np.abs(d - c).max() for d, c in zip(res.deltas, res.closed_form_rows())):.3e}; ")
        print(f"[{backend.name}] min delta = {format_float(res.min_delta)} "
              f"at {res.argmin_description()}; grid min = {format_float(res.grid_min)}; "
              f"{deviation}theta=0 attains minimum: {res.min_delta >= 0.0}")
        if res.min_delta < overall_min:
            overall_min = res.min_delta
            best = (system, res)
    if args.out:
        write_sweep_csv(args.out, blocks)
        print(f"sweep table written to {args.out}")
    if args.json_out:
        system, res = best
        report = replace(direct_energy(system, res.witness), stabilizer_expectations=post_measurement_profile(system))
        write_lines(args.json_out, "argmin report", [report.to_json()])
        print(f"argmin report written to {args.json_out}")
    if overall_min < -NOGO_EPS:
        print(f"NOGO REFUTED: extraction point found, min delta = {format_float(overall_min)}")
        return 1
    print(f"NOGO CONFIRMED: min delta = {format_float(overall_min)} >= -{NOGO_EPS:g}")
    return 0


def cmd_control(args: argparse.Namespace) -> int:
    model = build_chain(args.sites, args.coupling, args.field, args.site_a, args.site_b)
    system = protocol_system(model, args.chain_axis)
    res = optimize_system(system, _grid(args), independent=args.independent)
    report = direct_energy(system, res.witness)
    tol = max(CONTROL_EPS, ENERGY_REL_EPS * abs(system.ground_energy))
    if abs(report.delta - res.min_delta) > tol:
        print(f"optimizer ({format_float(res.min_delta)}) and direct evaluation "
              f"({format_float(report.delta)}) disagree")
        return 1
    if -tol <= res.min_delta < -CONTROL_EPS:
        raise ValueError(f"min delta = {format_float(res.min_delta)} lies within the rounding tolerance "
                         f"{tol:.3g} of |E_0| = {abs(system.ground_energy):.3g}; extraction cannot be resolved")
    if args.out:
        write_sweep_csv(args.out, [(system, res, model.label())])
        print(f"sweep table written to {args.out}")
    if args.json_out:
        report = replace(report, stabilizer_expectations=post_measurement_profile(system))
        write_lines(args.json_out, "control report", [report.to_json()])
        print(f"report written to {args.json_out}")
    if res.min_delta < -tol:
        print(f"CONTROL: QET DETECTED, min delta = {format_float(res.min_delta)} "
              f"at {res.argmin_description()}")
        return 0
    print(f"CONTROL: NO QET, min delta = {format_float(res.min_delta)}")
    return 1


def cmd_describe(args: argparse.Namespace) -> int:
    doc = ToricLattice(args.L, bob_qubit=args.bob_qubit).describe()
    text = json.dumps(doc, indent=2)
    if args.out:
        write_lines(args.out, "lattice description", [text])
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
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.config is not None:
            # explicit flags still beat the file's values on the second parse
            args = build_parser(_load_config(args.config, parser, args.command)).parse_args(argv)
        return COMMANDS[args.command](args)
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
