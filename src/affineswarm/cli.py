"""Command-line interface.

Subcommands: ``plan`` (leader trajectory CSV), ``graph`` (consensus
matrices plus spectrum report), ``check`` (schedule safety report),
``simulate`` (full run bundle), ``validate`` (recompute metrics from an
existing bundle). Exit codes: 0 success, 1 validation failure, 2 usage
or parse error.

Every command but ``validate`` takes the scenario file as its one
positional argument. The simulator is deterministic; ``--seed`` is
reserved and rejected so nobody assumes stochasticity. Without
``--out``, ``simulate`` writes its bundle to ``<root>/<scenario name>``,
where ``AFFINESWARM_OUT`` sets the root (default ``runs``).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import __version__
from .bundle import (
    dumps_json,
    emit_bundle,
    matrices_document,
    plan_csv_text,
    read_bundle,
)
from .errors import AffineSwarmError, ScenarioError, SimulationError
from .formation import verify_spectrum
from .metrics import strain_check, validate_run
from .phases import leader_trajectory
from .scenario import Scenario, SimParams, load_scenario
from .simulation import closed_loop_radius, run_simulation

ENV_OUT = "AFFINESWARM_OUT"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affineswarm",
        description="Decentralized affine-transformation coordination toolkit.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--seed",
        default=None,
        help="reserved; the simulator is deterministic and rejects this flag",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, summary, kind in (
        ("plan", "write leader desired-trajectory CSV", "CSV"),
        ("graph", "emit consensus matrices and the spectrum report as JSON", "JSON"),
        ("check", "check the schedule against the strain bound", "JSON"),
    ):
        p_doc = sub.add_parser(name, help=summary)
        p_doc.add_argument("scenario", help="scenario file (JSON)")
        p_doc.add_argument("--out", default=None, help=f"{kind} path (default stdout)")

    p_sim = sub.add_parser("simulate", help="run the full simulation and emit a bundle")
    p_sim.add_argument("scenario")
    p_sim.add_argument("--out", default=None, help="bundle output directory")
    for f in dataclasses.fields(SimParams):  # overrides, see _resolved_scenario
        p_sim.add_argument(
            f"--{f.name.replace('_', '-')}",
            type=int if f.type == "int" else float,
            default=None,
        )
    p_sim.add_argument(
        "--skip-safety-check",
        action="store_true",
        help="run even when the schedule fails the strain precheck",
    )

    p_val = sub.add_parser("validate", help="recompute metrics from an existing bundle")
    p_val.add_argument("bundle", help="bundle directory written by simulate")
    return parser


def _emit(data: bytes, out: str | None = None):
    if out is None and hasattr(sys.stdout, "buffer"):  # the bytes in any locale
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
    elif out is None:  # a text-only stream, such as an io.StringIO
        sys.stdout.write(data.decode(errors="surrogateescape"))
    else:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_bytes(data)


def _cmd_plan(args) -> int:
    scenario = load_scenario(args.scenario)
    traj = leader_trajectory(
        scenario.schedule, scenario.config, scenario.params.control_rate
    )
    _emit(plan_csv_text(traj), args.out)
    return 0


def _cmd_graph(args) -> int:
    scenario = load_scenario(args.scenario)
    spectrum = verify_spectrum(scenario.config.matrices)
    rho = closed_loop_radius(scenario.config.matrices, scenario.params)
    _emit(dumps_json(matrices_document(scenario, spectrum, rho)).encode(), args.out)
    return 0 if spectrum.ok else 1


def _cmd_check(args) -> int:
    scenario = load_scenario(args.scenario)
    report = strain_check(scenario, scenario.safety.delta_budget)
    _emit(dumps_json(report.to_dict()).encode(), args.out)
    return 0 if report.passed else 1


def _resolved_scenario(scenario: Scenario, args) -> Scenario:
    """The scenario with every ``simulate`` flag that was given.

    Values ``SimParams`` rejects, and a run they put over the memory
    budget, raise ``ScenarioError`` naming the flags.
    """
    overrides = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(SimParams)
        if getattr(args, f.name) is not None
    }
    try:
        params = dataclasses.replace(scenario.params, **overrides)
        return dataclasses.replace(scenario, params=params)
    except ValueError as exc:
        flags = " ".join(
            f"--{name.replace('_', '-')} {value}" for name, value in overrides.items()
        )
        raise ScenarioError([f"{flags}: {exc}"]) from None


def _cmd_simulate(args) -> int:
    scenario = _resolved_scenario(load_scenario(args.scenario), args)
    params = scenario.params
    out_dir = args.out
    if out_dir is None:
        root = os.environ.get(ENV_OUT, "runs")
        out_dir = str(Path(root) / scenario.name)

    spectrum = verify_spectrum(scenario.config.matrices)
    rho = closed_loop_radius(scenario.config.matrices, params)
    if not spectrum.ok:
        raise AffineSwarmError(
            f"consensus matrices fail the spectrum check "
            f"(max real part {spectrum.max_real_part:.3e}, "
            f"H deviation {spectrum.h_deviation:.3e})"
        )
    if not rho < 1.0:
        raise SimulationError(
            f"closed loop is unstable: spectral radius rho={rho:.6g} >= 1 at "
            f"kp={params.kp:g}, kd={params.kd:g}, dt={params.dt:g}, "
            f"delay_ticks={params.delay_ticks}; lower dt or the delay, or retune "
            f"kp and kd"
        )
    if not args.skip_safety_check:
        safety = strain_check(scenario, scenario.safety.delta_budget)
        if not safety.passed:
            intervals = str(safety.violations[:4])  # so the line does not grow
            if len(safety.violations) > 4:
                intervals += f" and {len(safety.violations) - 4} more"
            raise AffineSwarmError(
                f"commanded min strain {safety.min_strain_observed:.6g} is below "
                f"the bound {safety.lambda_min_bound:.6g}; violating intervals "
                f"{intervals} (pass --skip-safety-check to run anyway)"
            )
    trace = run_simulation(scenario)
    metrics = validate_run(trace, scenario)
    bundle = emit_bundle(out_dir, scenario, trace, metrics, spectrum, rho)
    report = dumps_json(metrics.to_dict()).encode()
    _emit(b"bundle written to " + os.fsencode(bundle) + b"\n" + report)
    return 0


def _cmd_validate(args) -> int:
    scenario, trace = read_bundle(args.bundle)
    metrics = validate_run(trace, scenario)
    _emit(dumps_json(metrics.to_dict()).encode())
    ok = metrics.safety_pass and metrics.converged
    if metrics.min_corridor_clearance is not None:
        ok = ok and metrics.min_corridor_clearance > 0.0
    return 0 if ok else 1


_COMMANDS = {
    "plan": _cmd_plan,
    "graph": _cmd_graph,
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is not None:
        print(
            "error: the simulation is deterministic; --seed is reserved and "
            "not accepted",
            file=sys.stderr,
        )
        return 2
    try:
        return _COMMANDS[args.command](args)
    except ScenarioError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return 2
    except (AffineSwarmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
