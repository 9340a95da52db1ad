"""Run metrics: separation, clearance, tracking error, convergence, validation."""

import dataclasses
import math

import numpy as np
import pytest

from affineswarm import (
    AtCoordinates,
    Corridor,
    FormationMatrices,
    Phase,
    PhaseSchedule,
    SimParams,
    SimTrace,
    convergence_check,
    corridor_clearance,
    hold_schedule,
    pairwise_min_distance,
    run_simulation,
    serialize_scenario,
    strain_check,
    tracking_error_metrics,
    validate_run,
)
from affineswarm.bundle import dumps_json, safety_document
from affineswarm.cli import main
from conftest import make_scenario


def static_trace(positions, ticks=5, tick_rate=100.0, desired=None):
    """A trace holding the given (N, 3) positions for a few ticks."""
    pos = np.asarray(positions, dtype=float)
    n = len(pos)
    stack = np.repeat(pos[None], ticks, axis=0)
    des = stack.copy() if desired is None else np.repeat(
        np.asarray(desired, dtype=float)[None], ticks, axis=0
    )
    return SimTrace(
        times=np.arange(ticks) / tick_rate,
        agent_ids=tuple(f"a{i}" for i in range(n)),
        positions=stack,
        references=stack.copy(),
        desired=des,
    )


class TestPairwiseMinDistance:
    def test_static_reference_layout(self, default_scenario):
        trace = static_trace(default_scenario.config.reference_positions())
        assert pairwise_min_distance(trace) == 0.5

    def test_contracted_layout_is_half(self, default_scenario):
        pos = default_scenario.config.reference_positions().copy()
        pos[:, :2] *= 0.5
        assert pairwise_min_distance(static_trace(pos)) == 0.25

    def test_single_agent_sentinel(self):
        assert pairwise_min_distance(static_trace([[0.0, 0.0, 1.0]])) == math.inf

    def test_minimum_over_time(self):
        pos = np.zeros((3, 2, 3))
        pos[:, 1, 0] = [2.0, 1.0, 3.0]
        trace = SimTrace(
            times=np.arange(3) / 100.0,
            agent_ids=("a", "b"),
            positions=pos,
            references=pos.copy(),
            desired=pos.copy(),
        )
        assert pairwise_min_distance(trace) == 1.0


class TestCorridorClearance:
    def test_centered_agent(self):
        corridor = Corridor(x_start=0.0, x_end=1.0, width=1.2)
        trace = static_trace([[0.5, 0.0, 1.0]])
        assert corridor_clearance(trace, corridor, 0.065) == pytest.approx(0.535)

    def test_touching_wall(self):
        corridor = Corridor(x_start=0.0, x_end=1.0, width=1.2)
        trace = static_trace([[0.5, 0.6 - 0.065, 1.0]])
        assert corridor_clearance(trace, corridor, 0.065) == pytest.approx(0.0, abs=1e-15)

    def test_penetration_is_negative(self):
        corridor = Corridor(x_start=0.0, x_end=1.0, width=1.2)
        trace = static_trace([[0.5, 0.58, 1.0]])
        assert corridor_clearance(trace, corridor, 0.065) < 0.0

    def test_outside_span_sentinel(self):
        corridor = Corridor(x_start=10.0, x_end=11.0, width=1.2)
        trace = static_trace([[0.5, 0.0, 1.0]])
        assert corridor_clearance(trace, corridor, 0.065) == math.inf

    def test_translation_invariance(self, default_scenario):
        rng = np.random.default_rng(3)
        pos = rng.uniform(-1, 1, size=(4, 3))
        pos[:, 0] += 0.5
        corridor = Corridor(x_start=0.0, x_end=1.5, width=2.0, center_y=0.1)
        base = corridor_clearance(static_trace(pos), corridor, 0.065)
        offset = np.array([3.7, -1.2, 0.0])
        shifted_corridor = Corridor(
            x_start=corridor.x_start + offset[0],
            x_end=corridor.x_end + offset[0],
            width=corridor.width,
            center_y=corridor.center_y + offset[1],
        )
        shifted = corridor_clearance(
            static_trace(pos + offset), shifted_corridor, 0.065
        )
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            Corridor(x_start=0.0, x_end=1.0, width=0.0)
        with pytest.raises(ValueError):
            Corridor(x_start=1.0, x_end=0.0, width=1.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(x_start=0.0, x_end=1.0, width=math.nan), "width must be positive"),
            (dict(x_start=0.0, x_end=math.nan, width=1.0), "x_end must exceed"),
            (dict(x_start=math.nan, x_end=1.0, width=1.0), "x_end must exceed"),
            (
                dict(x_start=0.0, x_end=1.0, width=1.0, center_y=math.nan),
                "corridor center_y must be finite, got nan",
            ),
            (
                dict(x_start=0.0, x_end=math.inf, width=math.inf),
                "corridor x_end must be finite, got inf",
            ),
        ],
    )
    def test_rejects_nan_geometry(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Corridor(**kwargs)


class TestTrackingErrorMetrics:
    def test_perfect_tracking_is_zero(self, default_scenario):
        trace = static_trace(default_scenario.config.reference_positions())
        errors = tracking_error_metrics(trace)
        assert errors.measured_delta == 0.0
        assert all(v == 0.0 for v in errors.per_agent_max.values())

    def test_single_excursion(self):
        pos = np.zeros((4, 2, 3))
        des = pos.copy()
        pos[2, 1, 0] = 0.005
        trace = SimTrace(
            times=np.arange(4) / 100.0,
            agent_ids=("a", "b"),
            positions=pos,
            references=pos.copy(),
            desired=des,
        )
        errors = tracking_error_metrics(trace)
        assert errors.measured_delta == pytest.approx(0.005)
        assert errors.per_agent_max["b"] == pytest.approx(0.005)
        assert errors.per_agent_max["a"] == 0.0

    def test_recomputation_is_identical(self, default_scenario):
        trace = static_trace(default_scenario.config.reference_positions())
        first = tracking_error_metrics(trace)
        second = tracking_error_metrics(trace)
        assert first == second


@pytest.fixture(scope="module")
def settled_run(default_scenario):
    cfg = default_scenario.config
    matrices = FormationMatrices.from_config(cfg)
    rng = np.random.default_rng(9)
    initial = {
        fid: cfg.reference_positions()[cfg.index_of(fid)]
        + np.append(rng.uniform(-0.2, 0.2, 2), 0.0)
        for fid in cfg.follower_ids
    }
    trace = run_simulation(
        make_scenario(
            cfg,
            hold_schedule(AtCoordinates(), duration=1.0),
            SimParams(duration=6.0),
        ),
        initial_positions=initial,
    )
    return cfg, matrices, trace


class TestConvergenceCheck:
    def test_settled_run_converges(self, settled_run):
        _, matrices, trace = settled_run
        result = convergence_check(trace, matrices)
        assert result.converged
        assert result.residual <= 1e-4

    def test_truncated_run_raises(self, default_scenario):
        cfg = default_scenario.config
        matrices = FormationMatrices.from_config(cfg)
        trace = run_simulation(
            make_scenario(
                cfg,
                default_scenario.schedule,
                SimParams(dt=0.01, duration=15.0),  # stops mid-maneuver
            )
        )
        with pytest.raises(ValueError, match="window"):
            convergence_check(trace, matrices)

    def test_already_at_targets_gives_zero_residual(self, default_scenario):
        cfg = default_scenario.config
        matrices = FormationMatrices.from_config(cfg)
        trace = static_trace(cfg.reference_positions())
        result = convergence_check(trace, matrices)
        assert result.converged
        assert result.residual <= 1e-12


class TestStrainCheck:
    """The one certificate behind ``check``, the simulate precheck and ``validate``."""

    def test_budget_reproduces_check_document(self, default_scenario, tmp_path, capsys):
        s = default_scenario
        path = tmp_path / "default.json"
        path.write_text(serialize_scenario(s))
        assert main(["check", str(path)]) == 0
        report, d_min = strain_check(s, s.safety.delta_budget)
        assert capsys.readouterr().out == dumps_json(safety_document(report, d_min))

    def test_measured_delta_reproduces_validate_run(self, default_scenario):
        s = dataclasses.replace(default_scenario, params=SimParams(dt=0.01))
        metrics = validate_run(run_simulation(s), s)
        report, _ = strain_check(s, metrics.measured_delta)
        assert metrics.lambda_min_required == report.lambda_min_bound
        assert metrics.min_strain_commanded == report.min_strain_observed
        assert metrics.safety_pass == (
            report.passed and metrics.min_pairwise_distance >= 2 * s.safety.agent_radius
        )


class TestValidateRun:
    def test_reference_parameter_chain(self, default_scenario):
        # A synthetic trace with a 0.01 m worst excursion reproduces the
        # bound 2 (0.01 + 0.065) / 0.5 = 0.3, which the commanded minimum
        # strain of 0.5 satisfies.
        cfg = default_scenario.config
        refs = cfg.reference_positions()
        ticks = 8
        pos = np.repeat(refs[None], ticks, axis=0)
        pos[3, 0, 0] += 0.01
        trace = SimTrace(
            times=np.arange(ticks) / 100.0,
            agent_ids=cfg.ids,
            positions=pos,
            references=np.repeat(refs[None], ticks, axis=0),
            desired=np.repeat(refs[None], ticks, axis=0),
        )
        scenario = dataclasses.replace(default_scenario, corridor=None)
        metrics = validate_run(trace, scenario)
        assert metrics.measured_delta == pytest.approx(0.01, abs=1e-15)
        assert metrics.lambda_min_required == pytest.approx(0.3, abs=1e-12)
        assert metrics.min_strain_commanded == 0.5
        assert metrics.safety_pass

    def test_understrained_schedule_fails(self, default_scenario):
        cfg = default_scenario.config
        schedule = PhaseSchedule(
            phases=(
                Phase(
                    0.0,
                    10.0,
                    AtCoordinates(),
                    AtCoordinates(lambda1=0.25, lambda2=0.25),
                ),
            ),
        )
        trace = static_trace(cfg.reference_positions())
        pos = trace.positions.copy()
        pos[2, 0, 0] += 0.01
        bumped = SimTrace(
            times=trace.times,
            agent_ids=cfg.ids,
            positions=pos,
            references=trace.references,
            desired=trace.desired,
        )
        scenario = dataclasses.replace(
            default_scenario, schedule=schedule, corridor=None
        )
        metrics = validate_run(bumped, scenario)
        assert metrics.min_strain_commanded == pytest.approx(0.25, abs=1e-12)
        assert metrics.lambda_min_required == pytest.approx(0.3, abs=1e-12)
        assert not metrics.safety_pass

    def test_zero_deformation_run_passes(self, default_scenario):
        cfg = default_scenario.config
        refs = cfg.reference_positions()
        trace = SimTrace(
            times=np.arange(6) / 100.0,
            agent_ids=cfg.ids,
            positions=np.repeat(refs[None], 6, axis=0),
            references=np.repeat(refs[None], 6, axis=0),
            desired=np.repeat(refs[None], 6, axis=0),
        )
        scenario = dataclasses.replace(
            default_scenario,
            schedule=hold_schedule(AtCoordinates(), duration=1.0),
            corridor=None,
        )
        metrics = validate_run(trace, scenario)
        assert metrics.safety_pass
        assert metrics.converged
        assert metrics.min_corridor_clearance is None

    def test_corridor_metric_included(self, default_scenario, settled_run):
        cfg, _, trace = settled_run
        scenario = dataclasses.replace(
            default_scenario,
            schedule=hold_schedule(AtCoordinates(), duration=1.0),
            corridor=Corridor(x_start=-1.0, x_end=1.0, width=4.0),
        )
        metrics = validate_run(trace, scenario)
        assert metrics.min_corridor_clearance is not None
        assert metrics.min_corridor_clearance > 0.0

    def test_metrics_dict_schema(self, default_scenario, settled_run):
        cfg, _, trace = settled_run
        scenario = dataclasses.replace(
            default_scenario,
            schedule=hold_schedule(AtCoordinates(), duration=1.0),
            corridor=None,
        )
        metrics = validate_run(trace, scenario)
        assert set(metrics.to_dict()) == {
            "measured_delta",
            "min_pairwise_distance",
            "min_corridor_clearance",
            "converged",
            "residual",
            "lambda_min_required",
            "min_strain_commanded",
            "safety_pass",
        }
