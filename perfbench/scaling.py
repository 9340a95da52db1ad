"""Report-only scaling sweep: engine and pair-search time against team size.

Usage (from the repository root)::

    python3 perfbench/scaling.py [--sizes 6 33 103 303]

For each N it draws a swarm layout from seed 1 (workloads.swarm_layout,
the leader triangle grown with sqrt(N) to keep the spacing feasible), runs
the swarm schedule for 40 s of simulated time and times ``run_simulation``
and ``metrics.pairwise_min_distance`` once each, in process. It prints a
table and writes ``.perfbench_work/records/scaling.json``. It is never part
of a gated run. At N=303 one pair-search chunk needs about 1.1 GB.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from probe import probe

ROOT = Path(__file__).resolve().parent.parent
DURATION_S = 40.0
SEED = 1
PAIR_CHUNK_TICKS = 512  # ticks per chunk in metrics.pairwise_min_distance


def chunk_gb(n: int) -> float:
    """Memory of one (chunk, N, N, 3) float64 difference array, in GB."""
    return PAIR_CHUNK_TICKS * n * n * 3 * 8 / 1e9


def measure(n: int) -> dict:
    from affineswarm import formation, metrics, scenario, simulation

    rng = np.random.default_rng(SEED)
    side = workloads.SWARM_SIDE_M * np.sqrt(n / 103.0)
    doc = workloads.swarm_doc(*workloads.swarm_layout(rng, n_followers=n - 3, side=side))
    doc["sim"]["duration"] = DURATION_S
    sc = scenario.parse_scenario(json.dumps(doc), source=f"swarm-N{n}")
    cfg = sc.config
    matrices = formation.build_matrices(
        cfg, formation.compute_follower_weights(cfg), formation.compute_alpha(cfg))
    p0 = probe()
    t0 = time.perf_counter()
    trace = simulation.run_simulation(cfg, matrices, sc.schedule, sc.params)
    t1 = time.perf_counter()
    metrics.pairwise_min_distance(trace)
    t2 = time.perf_counter()
    return {"n": n, "ticks": len(trace.times), "run_simulation_s": t1 - t0,
            "pairwise_min_distance_s": t2 - t1, "probe_s": (p0 + probe()) / 2.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[6, 33, 103, 303])
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    rows = []
    for n in args.sizes:
        if chunk_gb(n) > 0.5:
            print(f"warning: at N={n} one pair-search chunk needs about "
                  f"{chunk_gb(n):.1f} GB", file=sys.stderr)
        rows.append(measure(n))
        r = rows[-1]
        print(f"N={n:4d}  run_simulation {r['run_simulation_s']:8.3f} s  "
              f"pairwise_min_distance {r['pairwise_min_distance_s']:8.3f} s  "
              f"probe {r['probe_s'] * 1e3:.1f} ms", flush=True)
    out = ROOT / ".perfbench_work" / "records" / "scaling.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"duration_s": DURATION_S, "seed": SEED, "rows": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
