"""Per-layer timing by wrapping the library's public functions from outside.

Each layer function is replaced, for the duration of a traced run, at every
``affineswarm`` module attribute that refers to it, so calls through
``from .x import f`` bindings are caught too. ``PhaseSchedule.coords_at``
is wrapped on its class. For every layer name the tracer accumulates
inclusive time ``s``, self time ``self_s`` (inclusive minus time spent in
wrapped children) and ``calls``, grouped by the CLI command that caused
them. A name missing from the library (renamed or removed) is skipped and
reads as zero.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

PACKAGE = "affineswarm"

# layer name -> (module, attribute) pairs; several pairs share one name when
# the layer is made of several functions.
LAYERS = {
    "scenario.load_scenario": [("scenario", "load_scenario")],
    "scenario.parse_scenario": [("scenario", "parse_scenario")],
    "formation.validate_config": [("formation", "validate_config")],
    "formation.matrices": [
        ("formation", "compute_follower_weights"),
        ("formation", "compute_alpha"),
        ("formation", "build_matrices"),
    ],
    "formation.verify_spectrum": [("formation", "verify_spectrum")],
    "transform.assemble_jacobian": [("transform", "assemble_jacobian")],
    "phases.coords_at": [("phases", "PhaseSchedule.coords_at")],
    "phases.desired_positions": [("phases", "desired_positions")],
    "phases.quintic_blend": [("phases", "quintic_blend")],
    "phases.check_schedule_safety": [("phases", "check_schedule_safety")],
    "phases.leader_trajectory": [("phases", "leader_trajectory")],
    "simulation.run_simulation": [("simulation", "run_simulation")],
    "simulation.follower_reference": [("simulation", "follower_reference")],
    "metrics.validate_run": [("metrics", "validate_run")],
    "metrics.tracking_error_metrics": [("metrics", "tracking_error_metrics")],
    "metrics.corridor_clearance": [("metrics", "corridor_clearance")],
    "metrics.convergence_check": [("metrics", "convergence_check")],
    "metrics.pairwise_min_distance": [("metrics", "pairwise_min_distance")],
    "bundle.emit_bundle": [("bundle", "emit_bundle")],
    "bundle.trace_csv_text": [("bundle", "trace_csv_text")],
    "bundle.read_manifest": [("bundle", "read_manifest")],
    "bundle.read_trace": [("bundle", "read_trace")],
    "bundle.plan_csv_text": [("bundle", "plan_csv_text")],
}


class Tracer:
    """Accumulates ``[s, self_s, calls]`` per (command, layer name)."""

    def __init__(self):
        self.stats: dict[str, dict[str, list]] = {}
        self._stack: list[float] = []  # time spent in children, per open span
        self._command = ""

    def _record(self, name: str, elapsed: float, child: float):
        entry = self.stats.setdefault(self._command, {}).setdefault(name, [0.0, 0.0, 0])
        entry[0] += elapsed
        entry[1] += elapsed - child
        entry[2] += 1

    def wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self._record(name, elapsed, child)

        return wrapper

    def command(self, command: str, fn, *args):
        """Call ``fn(*args)`` as the root span ``cli.<command>``."""
        self._command = command
        return self.wrap(f"cli.{command}", fn)(*args)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function; restore every attribute on exit."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        saved = []
        try:
            for layer, targets in LAYERS.items():
                for mod_name, attr in targets:
                    module = sys.modules.get(f"{PACKAGE}.{mod_name}")
                    if module is None:
                        continue
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        cls = getattr(module, cls_name, None)
                        fn = vars(cls).get(meth) if cls is not None else None
                        if fn is not None:
                            saved.append((cls, meth, fn))
                            setattr(cls, meth, self.wrap(layer, fn))
                        continue
                    fn = getattr(module, attr, None)
                    if fn is None:
                        continue
                    wrapped = self.wrap(layer, fn)
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is fn:
                                saved.append((m, key, fn))
                                setattr(m, key, wrapped)
            yield self
        finally:
            for owner, key, fn in reversed(saved):
                setattr(owner, key, fn)


def totals(stats: dict) -> dict[str, list]:
    """``[s, self_s, calls]`` per layer name, summed over the commands of ``stats``."""
    out: dict[str, list] = {}
    for per_command in stats.values():
        for name, (s, self_s, calls) in per_command.items():
            entry = out.setdefault(name, [0.0, 0.0, 0])
            entry[0] += s
            entry[1] += self_s
            entry[2] += calls
    return out
