"""Benchmark of the affineswarm CLI: end-to-end times and a traced per-layer run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload default --seed 1 --seconds 30 --trace 0

Workloads are ``default``, ``swarm`` and ``fine-step`` (see workloads.py and
NOTES.md). One timing process runs every sample one after another, with
BLAS threads set to 1. Each iteration times ``graph`` in fresh interpreters
(``setup_s``) and then one round of ``check``, ``plan``, ``simulate`` and
``validate`` in a fresh worker process (worker.py). Every timed sample is
divided by the mean of the host-speed probes run around it (probe.py).
``--trace 1`` alternates traced and untraced rounds and reports per-layer
metrics instead of end-to-end ones.

Prints every metric with its unit and the gate verdict, writes the full
record under ``.perfbench_work/records/`` and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits 2 without a result when the checkout holds no affineswarm sources.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse
import contextlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import gate
import workloads
from probe import NOMINAL_PROBE_S, normalise, probe
from tracer import LAYERS, totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

COMMANDS = ("check", "plan", "simulate", "validate")
SETUP_PER_ROUND = 3
MIN_SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "check_s": "s",
    "plan_s": "s",
    "simulate_s": "s",
    "validate_s": "s",
    "peak_rss_mb": "MB",
}

# Reported layer metrics: "<layer>.<s|self_s|calls>" from the tracer, plus
# counts computed from the scenario and the bundle.
PER_LAYER = {
    "scenario.load_scenario.s": "s",
    "scenario.parse_scenario.s": "s",
    "formation.validate_config.s": "s",
    "formation.validate_config.calls": "count",
    "formation.matrices.s": "s",
    "formation.verify_spectrum.s": "s",
    "transform.assemble_jacobian.s": "s",
    "transform.assemble_jacobian.calls": "count",
    "phases.coords_at.s": "s",
    "phases.coords_at.calls": "count",
    "phases.desired_positions.s": "s",
    "phases.desired_positions.calls": "count",
    "phases.quintic_blend.calls": "count",
    "phases.check_schedule_safety.s": "s",
    "phases.check_schedule_safety.calls": "count",
    "phases.leader_trajectory.s": "s",
    "simulation.run_simulation.s": "s",
    "simulation.run_simulation.self_s": "s",
    "simulation.follower_reference.s": "s",
    "simulation.follower_reference.calls": "count",
    "simulation.substep_updates": "count",
    "simulation.trace_mb": "MB",
    "metrics.validate_run.s": "s",
    "metrics.validate_run.self_s": "s",
    "metrics.tracking_error_metrics.s": "s",
    "metrics.corridor_clearance.s": "s",
    "metrics.convergence_check.s": "s",
    "metrics.pairwise_min_distance.s": "s",
    "metrics.pair_distances": "count",
    "bundle.emit_bundle.s": "s",
    "bundle.trace_csv_text.s": "s",
    "bundle.bytes_written": "bytes",
    "bundle.read_manifest.s": "s",
    "bundle.read_trace.s": "s",
    "bundle.bytes_read": "bytes",
    "bundle.plan_csv_text.s": "s",
    "cli.graph.self_s": "s",
    "cli.check.self_s": "s",
    "cli.plan.self_s": "s",
    "cli.simulate.self_s": "s",
    "cli.validate.self_s": "s",
    "share.simulate.phases_transform": "frac",
    "share.simulate.pairs_bundle": "frac",
    "share.simulate.run_simulation_self": "frac",
    "host.probe_s": "s",
    "raw.setup_s": "s",
    "raw.check_s": "s",
    "raw.plan_s": "s",
    "raw.simulate_s": "s",
    "raw.validate_s": "s",
    "trace.overhead_frac": "frac",
}


def summary(values) -> dict | None:
    """Median, quartiles and sample count; plus the highest of p99/p95/p90/p75
    that has at least ten samples beyond it."""
    v = sorted(values)
    if not v:
        return None
    q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
    out = {"median": statistics.median(v), "q1": q1, "q3": q3, "n": len(v)}
    for pct in (99, 95, 90, 75):
        if len(v) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(v, n=100)[pct - 1]
            break
    return out


def machine_facts() -> dict:
    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    with contextlib.suppress(OSError):
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
        commit = head
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
    }


class Run:
    """State of one benchmark run: samples, operation counts, failures."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.probes: list[list[float]] = []  # [start time, probe seconds]
        self.probe_due = True  # the next sample needs a probe before it
        self.setup: list[dict] = []
        self.rounds: list[dict] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.first_facts: dict | None = None
        self.digests: dict[str, str] = {}  # command -> the run's first output digest

    def probe(self):
        t = time.perf_counter()
        self.probes.append([t, probe()])
        self.probe_due = False

    def fail_op(self, messages):
        self.failed += 1
        self.failures.extend(messages)

    def check_scenario(self, path: Path) -> list[str]:
        """Failures of the program's ``check`` on a drawn scenario; never raises."""
        argv = ["check", str(path), "--out", str(self.work / "check.json")]
        try:
            from affineswarm import cli

            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            return [f"scenario check: raised\n{traceback.format_exc()}"]
        return [] if rc == 0 else [f"scenario check: exit code {rc!r}"]

    def graph_argv(self) -> list[str]:
        return [sys.executable, "-m", "affineswarm", "graph", str(self.scenario),
                "--out", str(self.work / "graph.json")]

    def setup_sample(self):
        """Time ``graph`` in a fresh interpreter: imports, parse, matrices, spectrum."""
        if self.probe_due:
            self.probe()
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(self.graph_argv(), cwd=ROOT, env=self.env,
                                  capture_output=True, timeout=60)
            rc, err = proc.returncode, proc.stderr.decode(errors="replace")[-500:]
        except subprocess.TimeoutExpired:
            rc, err = None, "timed out"
        seconds = time.perf_counter() - t0
        self.probe()
        self.attempted += 1
        if rc == 0:
            problems = [f"setup {p}" for p in gate.graph_failures(self.work / "graph.json")]
        else:
            problems = [f"setup graph: exit {rc!r}: {err}"]
        if problems:
            self.fail_op(problems)
            return
        self.setup.append({"start": t0, "seconds": seconds})

    def round(self, traced: bool, remaining: float):
        """One worker process running every command once."""
        index = len(self.rounds)
        spec = {
            "root": str(ROOT),
            "work": str(self.work),
            "scenario": str(self.scenario),
            "trace": traced,
            "first": self.first_facts is None,
            "has_corridor": "corridor" in self.doc,
            "d_min": self.info["d_min"],
        }
        spec_path = self.work / "spec.json"
        result_path = self.work / f"round{index}.json"
        spec_path.write_text(json.dumps(spec))
        names = (("graph",) if traced else ()) + COMMANDS
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
                cwd=ROOT, env=self.env, capture_output=True,
                timeout=max(10.0, min(CHILD_TIMEOUT_S, remaining)),
            )
            result = json.loads(result_path.read_text()) if proc.returncode == 0 else None
            err = proc.stderr.decode(errors="replace")[-2000:]
        except subprocess.TimeoutExpired:
            result, err = None, "worker timed out"
        except (OSError, ValueError) as exc:
            result, err = None, repr(exc)
        self.probe_due = True
        if result is None:
            self.attempted += len(names)
            for _ in names:
                self.fail_op([f"round {index}: worker failed: {err}"])
            self.rounds.append({"traced": traced, "ok": False})
            return
        self.probes.extend(result["probes"])
        facts = result["facts"]
        if spec["first"] and "metrics" in facts:
            self.first_facts = facts
        extra = {"validate": self._validate_matches(facts)}
        self.attempted += len(result["samples"])
        for sample in result["samples"]:
            name = sample["command"]
            problems = sample["failures"] + extra.pop(name, [])
            digest = sample.get("digest")
            if digest is not None and self.digests.setdefault(name, digest) != digest:
                problems.append(f"{name}: output bytes differ from the run's first sample")
            if sample["error"]:
                problems.append(f"{name}: raised\n{sample['error']}")
            if problems:
                self.fail_op([f"round {index}: {p}" for p in problems])
            sample["ok"] = not problems
        result.update(traced=traced, ok=True)
        self.rounds.append(result)

    def _validate_matches(self, facts) -> list[str]:
        if "validate_metrics" not in facts or "metrics" not in facts:
            return [] if "validate_metrics" in facts else ["validate: no metrics to compare"]
        tol = (self.first_facts or {}).get("tolerance", 1e-7)
        return gate.compare(facts["metrics"], facts["validate_metrics"], tol,
                       self.info["d_min"], "validate vs simulate")

    def execute(self):
        args = self.args
        self.scenario = self.work / "scenario.json"
        self.info, problems = workloads.write_scenario(
            args.workload, args.seed, ROOT, self.scenario, self.check_scenario
        )
        self.attempted += 1  # the scenario's untimed check
        if problems:
            self.fail_op(problems)
        self.doc = json.loads(self.scenario.read_text())
        subprocess.run(self.graph_argv(), cwd=ROOT, env=self.env, capture_output=True,
                       timeout=60)  # untimed warm-up: compiles bytecode
        start = time.perf_counter()
        deadline = start + args.seconds
        min_rounds = 2 if args.trace else 1
        while True:
            t0 = time.perf_counter()
            for _ in range(SETUP_PER_ROUND):
                self.setup_sample()
            traced = bool(args.trace) and len(self.rounds) % 2 == 0
            self.round(traced, remaining=170.0 - (t0 - start))
            now = time.perf_counter()
            if len(self.rounds) >= min_rounds and now + (now - t0) > deadline:
                break
        # Setup samples follow the last round too, so its samples have as many
        # probes after them as every other round's.
        for _ in range(max(SETUP_PER_ROUND, MIN_SETUP_SAMPLES - len(self.setup))):
            self.setup_sample()
        self.measured_s = time.perf_counter() - start
        self.normalise()

    def normalise(self):
        """Add each sample's probe-normalised time; rescale traced layer times."""
        self.probes.sort()
        for r in self.rounds:
            for sample in r.get("samples", []):
                sample["normalised"] = normalise(sample["start"], sample["seconds"], self.probes)
                scale = sample["normalised"] / sample["seconds"]
                for entry in r["layers"].get(sample["command"], {}).values():
                    entry[0] *= scale
                    entry[1] *= scale
        for sample in self.setup:
            sample["normalised"] = normalise(sample["start"], sample["seconds"], self.probes)

    def samples(self, command: str, traced: bool, key: str = "normalised") -> list[float]:
        return [s[key] for r in self.rounds if r["ok"] and r["traced"] == traced
                for s in r["samples"] if s["command"] == command and s["ok"]]

    def end_to_end(self) -> dict:
        out = {"setup_s": summary(s["normalised"] for s in self.setup)}
        raw = {"setup_s": summary(s["seconds"] for s in self.setup)}
        for name in COMMANDS:
            out[f"{name}_s"] = summary(self.samples(name, False))
            raw[f"{name}_s"] = summary(self.samples(name, False, "seconds"))
        out["peak_rss_mb"] = summary(r["rss_mb"] for r in self.rounds
                                     if r["ok"] and not r["traced"] and r["rss_mb"])
        return out, raw

    def per_layer(self, raw: dict) -> tuple[dict, dict]:
        """Median over traced rounds of each layer's round totals, plus shares."""
        doc = self.doc
        n = len(doc["agents"])
        sim = doc["sim"]
        ticks = round(sim["duration"] * sim["control_rate"])
        substeps = round(1.0 / (sim["dt"] * sim["control_rate"]))
        per_round: dict[str, list[float]] = {}
        for r in self.rounds:
            if not (r["ok"] and r["traced"]):
                continue
            sums = totals(r["layers"])
            values = {}
            for name in list(LAYERS) + [f"cli.{c}" for c in ("graph",) + COMMANDS]:
                s, self_s, calls = sums.get(name, [0.0, 0.0, 0])
                values.update({f"{name}.s": s, f"{name}.self_s": self_s, f"{name}.calls": calls})
            facts = r["facts"]
            values["simulation.substep_updates"] = (
                ticks * substeps * n * values["simulation.run_simulation.calls"])
            values["simulation.trace_mb"] = 3 * (ticks + 1) * n * 3 * 8 / 2**20
            values["metrics.pair_distances"] = (
                values["metrics.pairwise_min_distance.calls"] * (ticks + 1) * n * (n - 1) // 2)
            values["bundle.bytes_written"] = facts.get("bytes_written", 0)
            values["bundle.bytes_read"] = facts.get("bytes_read", 0)
            values.update(simulate_shares(r["layers"].get("simulate", {})))
            for key, value in values.items():
                per_round.setdefault(key, []).append(value)
        layer = {key: summary(v) for key, v in per_round.items()}
        layer["host.probe_s"] = summary(p for _, p in self.probes)
        layer.update((f"raw.{key}", value) for key, value in raw.items())
        traced_sim = summary(self.samples("simulate", True))
        untraced_sim = summary(self.samples("simulate", False))
        if traced_sim and untraced_sim:
            layer["trace.overhead_frac"] = {
                "median": traced_sim["median"] / untraced_sim["median"] - 1.0,
                "n": traced_sim["n"] + untraced_sim["n"],
            }
        return layer, why_checks(self.args.workload, layer)


def simulate_shares(stats: dict) -> dict:
    """Shares of the traced ``simulate`` command's inclusive time."""
    total = stats.get("cli.simulate", [0.0])[0]
    if total <= 0.0:
        return {}
    groups: dict[str, float] = {}
    for name, (_, self_s, _) in stats.items():
        module = name.split(".")[0]
        group = "phases+transform" if module in ("phases", "transform") else module
        groups[group] = groups.get(group, 0.0) + self_s

    def inc(name):
        return stats.get(name, [0.0])[0]

    out = {f"share.simulate.self.{g}": v / total for g, v in groups.items()}
    out["share.simulate.phases_transform"] = groups.get("phases+transform", 0.0) / total
    out["share.simulate.pairs_bundle"] = (
        inc("metrics.pairwise_min_distance") + inc("bundle.emit_bundle")) / total
    out["share.simulate.run_simulation_self"] = (
        stats.get("simulation.run_simulation", [0.0, 0.0])[1] / total)
    return out


def why_checks(workload: str, layer: dict) -> dict:
    """Whether the traced run shows the property each workload was chosen for."""

    def med(key):
        return (layer.get(key) or {}).get("median", 0.0)

    if workload == "default":
        groups = {k: med(k) for k in layer if k.startswith("share.simulate.self.")}
        mine = med("share.simulate.self.phases+transform")
        return {"phases+transform self time is the largest layer share of simulate":
                bool(groups) and mine >= max(groups.values())}
    if workload == "swarm":
        return {
            "phases+transform is under a fifth of simulate":
                med("share.simulate.phases_transform") < 0.2,
            "pairwise_min_distance + emit_bundle exceed half of simulate":
                med("share.simulate.pairs_bundle") > 0.5,
        }
    return {"run_simulation self time exceeds half of simulate":
            med("share.simulate.run_simulation_self") > 0.5}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "affineswarm" / "__init__.py").is_file():
        print(f"error: no affineswarm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args, work)
        run.execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e, raw = run.end_to_end()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "measured_s": run.measured_s,
        "trace": args.trace,
        "machine": machine_facts(),
        "scenario": run.info,
        "nominal_probe_s": NOMINAL_PROBE_S,
        "host.probe_s": summary(p for _, p in run.probes),
        "probes": run.probes,
        "samples": [dict(s, command="setup") for s in run.setup] + [
            s for r in run.rounds if r["ok"] for s in r["samples"]],
        "end_to_end": e2e,
        "raw": raw,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "trace_digest": (run.first_facts or {}).get("trace_digest"),
        "bundle_digest": (run.first_facts or {}).get("bundle_digest"),
        "rounds": len(run.rounds),
        "peak_rss_mb": [[r["rss_mb"], r["ru_maxrss_mb"]] for r in run.rounds if r["ok"]],
        "setup_samples": len(run.setup),
    }
    if args.trace:
        layer, why = run.per_layer(raw)
        record.update(per_layer=layer, why=why)
        wanted, pool = PER_LAYER, layer
    else:
        wanted, pool = END_TO_END, e2e
    metrics = {}
    for name, unit in wanted.items():
        stat = pool.get(name)
        if stat is not None:
            metrics[name] = {"value": stat["median"], "unit": unit}

    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    correct = run.failed == 0 and len(metrics) == len(wanted)
    print(f"workload {args.workload}, seed {args.seed}: N={run.info['n_agents']}, "
          f"{len(run.rounds)} rounds, {len(run.setup)} setup samples, "
          f"probe median {record['host.probe_s']['median'] * 1e3:.1f} ms")
    for name, unit in wanted.items():
        stat = pool.get(name)
        if stat is None:
            print(f"  {name:40s} missing")
            continue
        spread = f"[{stat['q1']:.6g}, {stat['q3']:.6g}] n={stat['n']}" if "q1" in stat else ""
        print(f"  {name:40s} {stat['median']:<14.6g} {unit:6s} {spread}")
    for claim, ok in record.get("why", {}).items():
        print(f"  why: {claim}: {'yes' if ok else 'NO'}")
    print(f"gate: {'PASS' if correct else 'FAIL'} ({run.failed} failed of "
          f"{run.attempted} attempted); trace-CSV digest {record['trace_digest']}")
    for line in run.failures[:10]:
        print(f"  {line}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
