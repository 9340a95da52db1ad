"""One round of the CLI commands in a fresh interpreter.

Usage: ``python3 perfbench/worker.py <spec.json> <result.json>``.

The round runs ``check``, ``plan``, ``simulate`` and ``validate`` in
process through ``affineswarm.cli.main``, one after another; an untraced
round repeats the short ``check`` and ``plan`` for more samples. The
host-speed probe runs before the first command and after every command,
so each timed sample has a probe on either side; the parent normalises the
raw times with them (probe.normalise). A traced round also runs
``graph`` and wraps the library's layer functions. The process's peak RSS
is taken after the last command, before the gate reads anything. Failures
are caught and recorded; they never stop the round. Each ``plan`` and
``simulate`` sample carries the digest of its output, which the parent
compares across the run.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import gate
from probe import probe
from tracer import Tracer


def _call(main, argv, tracer, name):
    """Run one CLI command; returns (exit code or None, traceback or None, stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = tracer.command(name, main, argv) if tracer else main(argv)
        return rc, None, out.getvalue()
    except SystemExit as exc:  # argparse usage errors
        return exc.code, None, out.getvalue()
    except Exception:
        return None, traceback.format_exc(), out.getvalue()


# check and plan take well under a second; a round repeats each until it has
# spent this long on it (at most MAX_REPEATS times) to gain samples cheaply.
REPEAT_UNTIL_S = 0.5
MAX_REPEATS = 5


def peak_rss_mb() -> tuple[float | None, float]:
    """This process's peak resident set in MB (2^20 bytes): (VmHWM, ru_maxrss).

    VmHWM starts afresh at exec, so it is the worker's own peak. ru_maxrss
    carries over the high-water mark of the process that started the
    worker; it is kept in the record only to show the difference.
    """
    hwm = None
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            hwm = int(line.split()[1]) / 1024.0
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return hwm, maxrss


def _gate(sample: dict, stdout: str, spec: dict, facts: dict) -> list[str]:
    """Failures of one sample's outputs; adds the sample's output digest and
    fills ``facts`` for the parent."""
    name, out = sample["command"], Path(sample["out"])
    if sample["rc"] != 0:
        return [f"{name}: exit code {sample['rc']!r}"]
    try:
        if name == "graph":
            return gate.graph_failures(out)
        if name == "check":
            doc = json.loads(out.read_text())
            return [] if doc["pass"] is True else ["check: schedule fails the strain floor"]
        if name == "plan":
            sample["digest"] = hashlib.sha256(out.read_bytes()).hexdigest()
            return []
        if name == "simulate":
            failures, bundle_facts = gate.gate_bundle(
                out, spec["has_corridor"], spec["d_min"], spec["first"]
            )
            facts.update(bundle_facts)
            sample["digest"] = bundle_facts.get("bundle_digest")
            return failures
        if name == "validate":
            facts["validate_metrics"] = json.loads(stdout)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{name}: output unreadable: {exc!r}"]
    return []


def run_round(spec: dict) -> dict:
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    from affineswarm import cli

    work = Path(spec["work"])
    scenario = spec["scenario"]
    bundle = str(work / "bundle")
    traced = spec["trace"]
    commands = ["check", "plan", "simulate", "validate"]
    if traced:
        commands.insert(0, "graph")

    def argv(name: str, rep: int) -> tuple[list[str], str]:
        if name == "simulate":
            return ["simulate", scenario, "--out", bundle], bundle
        if name == "validate":
            return ["validate", bundle], bundle
        out = str(work / f"{name}{rep}.{'csv' if name == 'plan' else 'json'}")
        return [name, scenario, "--out", out], out

    tracer = Tracer() if traced else None
    shutil.rmtree(bundle, ignore_errors=True)
    probe()  # warm-up, untimed
    samples, stdouts, probes = [], [], []

    def timed_probe():
        t = time.perf_counter()
        probes.append([t, probe()])

    timed_probe()
    with tracer.installed() if tracer else contextlib.nullcontext():
        for name in commands:
            spent = 0.0
            for rep in range(MAX_REPEATS):
                args, out = argv(name, rep)
                t0 = time.perf_counter()
                rc, error, stdout = _call(cli.main, args, tracer, name)
                seconds = time.perf_counter() - t0
                timed_probe()
                samples.append({"command": name, "start": t0, "seconds": seconds,
                                "rc": rc, "error": error, "out": out})
                stdouts.append(stdout)
                spent += seconds
                if traced or name not in ("check", "plan") or spent >= REPEAT_UNTIL_S:
                    break
    rss_mb, ru_maxrss_mb = peak_rss_mb()

    facts: dict = {}
    for sample, stdout in zip(samples, stdouts):
        sample["failures"] = _gate(sample, stdout, spec, facts)

    return {"samples": samples, "probes": probes, "rss_mb": rss_mb,
            "ru_maxrss_mb": ru_maxrss_mb, "facts": facts,
            "layers": tracer.stats if tracer else {}}


def main(argv) -> int:
    spec_path, result_path = argv
    spec = json.loads(Path(spec_path).read_text())
    result = run_round(spec)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
