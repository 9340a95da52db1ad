"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one verdict
line per criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from affineswarm import (
    AtCoordinates,
    FormationMatrices,
    Phase,
    PhaseSchedule,
    SimParams,
    assemble_jacobian,
    decompose_jacobian,
    load_default_scenario,
    min_scaling_bound,
    pairwise_min_distance,
    quintic_blend,
    run_simulation,
    strain_check,
    transform_points,
    validate_run,
    verify_spectrum,
)
from affineswarm.cli import main
from affineswarm.scenario import default_scenario_text
from conftest import (
    consensus_fixed_point,
    hold_schedule,
    make_scenario,
    random_config,
    random_schedule,
)

AGENT_RADIUS = 0.065


def report(number, name):
    print(f"\nACCEPTANCE {number} ({name}): PASS")


@pytest.fixture(scope="module")
def scenario():
    return load_default_scenario()


@pytest.fixture(scope="module")
def matrices(scenario):
    cfg = scenario.config
    return FormationMatrices.from_config(cfg)


def test_criterion_1_strain_bound_arithmetic(scenario):
    start = time.perf_counter()
    assert abs(min_scaling_bound(0.01, 0.065, 0.5) - 0.3) <= 1e-12
    safety, d_min = strain_check(scenario, 0.01)
    assert d_min == 0.5
    assert safety.min_strain_observed == 0.5
    assert safety.passed
    assert time.perf_counter() - start < 1.0
    report(1, "minimum-strain arithmetic")


def test_criterion_2_spectrum_for_default_and_random_configs(matrices):
    start = time.perf_counter()
    configs = [matrices]
    rng = np.random.default_rng(2024)
    for _ in range(100):
        cfg = random_config(rng, n_followers=int(rng.integers(1, 28)))
        configs.append(
            FormationMatrices.from_config(cfg)
        )
    for m in configs:
        rep = verify_spectrum(m)
        assert rep.max_real_part < 0.0
        assert rep.h_deviation <= 1e-9
        assert rep.ok
        # The paper's identity H = -W^-1 L, with a dense solve as the oracle.
        assert np.abs(m.H + np.linalg.solve(m.W, m.L)).max() <= 1e-9
    assert time.perf_counter() - start < 10.0
    report(2, "weight-matrix spectrum, 100 random configs up to N=30")


def test_criterion_3_affine_consistency(scenario, matrices):
    cfg = scenario.config
    refs = cfg.reference_positions()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        coords = AtCoordinates(
            d1=rng.uniform(-3, 3),
            d2=rng.uniform(-3, 3),
            lambda1=rng.uniform(0.1, 2.0),
            lambda2=rng.uniform(0.1, 2.0),
            psi_d=rng.uniform(-math.pi, math.pi),
            psi_r=rng.uniform(-math.pi, math.pi),
        )
        q = assemble_jacobian(coords).Q
        d = np.array([coords.d1, coords.d2, 0.0])
        images = transform_points(q, d, refs)
        for fid in cfg.follower_ids:
            gap = np.linalg.norm(
                images[cfg.index_of(fid)] - matrices.H[cfg.index_of(fid)] @ images[:3]
            )
            worst = max(worst, gap)
    assert worst <= 1e-9
    report(3, f"affine consistency over 1000 maps, worst {worst:.2e} m")


def test_criterion_4_decentralized_convergence(scenario, matrices):
    cfg = scenario.config
    rng = np.random.default_rng(4)
    initial = {
        fid: cfg.reference_positions()[cfg.index_of(fid)]
        + np.append(rng.uniform(-0.3, 0.3, 2), 0.0)
        for fid in cfg.follower_ids
    }
    trace = run_simulation(
        make_scenario(
            cfg,
            hold_schedule(AtCoordinates(), duration=1.0),
            SimParams(duration=5.0),  # default gains
        ),
        initial_positions=initial,
    )
    targets = matrices.H @ cfg.reference_positions()[:3]
    residual = np.linalg.norm(trace.positions[-1] - targets, axis=1).max()
    assert residual <= 1e-4

    oracle = consensus_fixed_point(matrices.W, matrices.L, np.eye(3))
    direct = -np.linalg.solve(matrices.W, matrices.L) @ np.eye(3)
    assert np.abs(oracle - direct).max() <= 1e-6
    report(4, f"follower convergence in 5 s, residual {residual:.2e} m")


def _contraction_hold_schedule():
    return PhaseSchedule(
        phases=(
            Phase(
                0.0,
                8.0,
                AtCoordinates(),
                AtCoordinates(lambda1=0.5, lambda2=0.5),
            ),
        ),
    )


def test_criterion_5_safety_embodiment(scenario):
    cfg = scenario.config
    sim_kw = dict(
        dt=0.005, control_rate=100.0,
        kp=scenario.params.kp, kd=scenario.params.kd,
    )

    # The default scenario itself (full fidelity run), then random schedules
    # with the default agent radius.
    runs = [scenario]
    rng = np.random.default_rng(5)
    for _ in range(50):
        schedule = random_schedule(rng)
        params = SimParams(duration=schedule.t_end + 3.0, **sim_kw)
        runs.append(make_scenario(cfg, schedule, params))
    assert {s.safety.agent_radius for s in runs} == {AGENT_RADIUS}

    for run in runs:
        trace = run_simulation(run)
        delta = validate_run(trace, run).measured_delta
        safety, _ = strain_check(run, delta)
        bound = safety.lambda_min_bound
        assert safety.passed, f"schedule failed its own measured-delta bound {bound:.3f}"
        assert pairwise_min_distance(trace, run) >= 2.0 * AGENT_RADIUS

    # Pure contraction to half scale, then hold: closest approach is the
    # contracted reference separation, up to twice the tracking error.
    schedule = _contraction_hold_schedule()
    params = SimParams(duration=14.0, **sim_kw)
    contraction = make_scenario(cfg, schedule, params)
    trace = run_simulation(contraction)
    delta = validate_run(trace, contraction).measured_delta
    dist = pairwise_min_distance(trace, contraction)
    assert abs(dist - 0.25) <= 2.0 * delta + 1e-9
    report(5, f"51 safe runs kept {2 * AGENT_RADIUS:.2f} m separation; "
              f"contraction hold min distance {dist:.4f} m")


def test_criterion_6_quintic_blend():
    assert quintic_blend(0.0) == 0.0
    assert quintic_blend(1.0) == 1.0
    assert quintic_blend(0.5) == 0.5

    def d1(s):
        return 30 * s**4 - 60 * s**3 + 30 * s**2

    def d2(s):
        return 120 * s**3 - 180 * s**2 + 60 * s

    for s in (0.0, 1.0):
        assert d1(s) == 0.0
        assert d2(s) == 0.0
        h = 1e-5
        fd1 = (quintic_blend(s + h) - quintic_blend(s - h)) / (2 * h)
        assert abs(fd1) <= 1e-6
    h = 1e-3
    for s, step in ((0.0, h), (1.0, -h)):
        nodes = [quintic_blend(s + k * step) for k in range(5)]
        fd2 = (
            35 * nodes[0] - 104 * nodes[1] + 114 * nodes[2]
            - 56 * nodes[3] + 11 * nodes[4]
        ) / (12 * step**2)
        assert abs(fd2) <= 1e-6
    report(6, "quintic blend endpoint conditions")


def test_criterion_7_decomposition_round_trip():
    rng = np.random.default_rng(7)
    worst_q = 0.0
    worst_c = 0.0
    for _ in range(1000):
        coords = AtCoordinates(
            lambda1=rng.uniform(0.1, 2.0),
            lambda2=rng.uniform(0.1, 2.0),
            psi_d=rng.uniform(-math.pi / 2, math.pi / 2),
            psi_r=rng.uniform(-math.pi / 2, math.pi / 2),
        )
        q = assemble_jacobian(coords).Q
        dec = decompose_jacobian(q)
        q_again = assemble_jacobian(dec.coordinates()).Q
        worst_q = max(worst_q, np.abs(q - q_again).max())
        want = coords.canonical()
        got = dec.coordinates()
        worst_c = max(
            worst_c,
            abs(got.lambda1 - want.lambda1),
            abs(got.lambda2 - want.lambda2),
            # The strain axis lives modulo pi; measure across the seam.
            abs(math.remainder(got.psi_d - want.psi_d, math.pi)),
            abs(got.psi_r - want.psi_r),
        )
    assert worst_q <= 1e-12
    assert worst_c <= 1e-9
    report(7, f"1000 round trips, worst Q error {worst_q:.2e}, "
              f"worst coordinate error {worst_c:.2e}")


def test_criterion_8_end_to_end_default_scenario(tmp_path):
    scenario_path = tmp_path / "default.json"
    scenario_path.write_text(default_scenario_text())
    out = tmp_path / "run"
    start = time.perf_counter()
    code = main(["simulate", str(scenario_path), "--out", str(out)])
    wall = time.perf_counter() - start
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["min_corridor_clearance"] > 0.0
    assert metrics["converged"] is True
    assert metrics["safety_pass"] is True
    assert wall < 60.0
    report(8, f"end-to-end run in {wall:.1f} s, clearance "
              f"{metrics['min_corridor_clearance']:.3f} m")


def test_criterion_9_determinism(tmp_path):
    scenario_path = tmp_path / "default.json"
    scenario_path.write_text(default_scenario_text())
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", str(scenario_path), "--out", str(out)]) == 0
        outs.append(out)
    csvs = sorted(p.name for p in outs[0].glob("trace_*.csv"))
    assert len(csvs) == 6
    for name in csvs:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    report(9, "byte-identical trace CSVs across consecutive runs")
