"""Formation graph: validation, barycentric solves, consensus matrices."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affineswarm import (
    Agent,
    AtCoordinates,
    ConfigError,
    FormationMatrices,
    ReferenceConfig,
    SimParams,
    strain_check,
    validate_config,
    verify_spectrum,
)
from affineswarm.formation import _audit
from conftest import (
    barycentric_oracle,
    consensus_fixed_point,
    hold_schedule,
    make_scenario,
    matrices_oracle,
    random_config,
)


def three_leaders(z=1.0):
    return [
        Agent("u1", "leader", 0.0, 0.75),
        Agent("u2", "leader", -0.5, -0.75),
        Agent("u3", "leader", 0.5, -0.75),
    ]


def leaders_only_config():
    return ReferenceConfig.from_agents(three_leaders(), z=1.0, in_neighbors={})


def alpha_of(m, cfg):
    """Each follower's barycentric coordinates over the leaders: ``H[3:]``."""
    return dict(zip(cfg.ids[3:], m.H[3:]))


def weights_of(m, cfg):
    """Each follower's weights over its in-neighbors: ``W`` at ``neighbors``."""
    return dict(zip(cfg.ids[3:], np.take_along_axis(m.W[3:], m.neighbors, axis=1)))


def codes_of(problems):
    """Each problem's code: the text before its first ``": "``."""
    return [p.split(": ", 1)[0] for p in problems]


def refusal(problems):
    """``from_config``'s message for ``problems``: the first four, then how
    many more there are."""
    if len(problems) > 4:
        problems = [*problems[:4], f"and {len(problems) - 4} more"]
    return "invalid configuration: " + "; ".join(problems)


def assert_refused(cfg, code):
    """``validate_config`` reports ``code`` and ``from_config`` refuses with
    exactly its problems."""
    problems = validate_config(cfg)
    assert code in codes_of(problems)
    with pytest.raises(ConfigError) as info:
        FormationMatrices.from_config(cfg)
    assert str(info.value) == refusal(problems)
    return problems


class TestValidateConfig:
    def test_default_scenario_is_valid(self, default_scenario):
        assert validate_config(default_scenario.config) == []
        FormationMatrices.from_config(default_scenario.config)

    def test_midpoint_neighbor_triple_fails_containment(self, default_scenario):
        # cf3 sits exactly at the midpoint of cf2-cf5, so a triple holding
        # both is degenerate: the third weight collapses to zero.
        cfg = default_scenario.config
        neighbors = dict(cfg.in_neighbors)
        neighbors["cf3"] = ("cf2", "cf4", "cf5")
        neighbors["cf4"] = ("cf2", "cf3", "cf6")
        bad = ReferenceConfig(agents=cfg.agents, z=cfg.z, in_neighbors=neighbors)
        problems = assert_refused(bad, "containment")
        assert codes_of(problems) == ["containment", "containment"]

    def test_follower_at_triangle_vertex_reported(self):
        agents = three_leaders() + [Agent("f1", "follower", 0.0, 0.75)]
        cfg = ReferenceConfig.from_agents(
            agents, z=1.0, in_neighbors={"f1": ("u1", "u2", "u3")}
        )
        assert_refused(cfg, "containment")

    def test_collinear_leaders_reported(self):
        agents = [
            Agent("u1", "leader", 0.0, 0.0),
            Agent("u2", "leader", 1.0, 0.0),
            Agent("u3", "leader", 2.0, 0.0),
        ]
        cfg = ReferenceConfig.from_agents(agents, z=1.0, in_neighbors={})
        assert_refused(cfg, "collinear-leaders")

    @pytest.mark.parametrize("far", [1e17, 1e100])
    def test_far_leader_is_not_collinear(self, far):
        # LU's det of this triangle rounds to 0 once the far vertex dwarfs
        # the others; its shoelace determinant is the exact 1.5.
        agents = [
            Agent("u1", "leader", far, 0.75),
            Agent("u2", "leader", -0.5, -0.75),
            Agent("u3", "leader", 0.5, -0.75),
        ]
        cfg = ReferenceConfig.from_agents(agents, z=1.0, in_neighbors={})
        assert validate_config(cfg) == []

    def test_wrong_leader_count(self):
        agents = three_leaders() + [Agent("u4", "leader", 0.0, 0.0)]
        assert_refused(ReferenceConfig.from_agents(agents, 1.0, {}), "role-count")

    def test_leader_with_neighbors(self):
        cfg = ReferenceConfig.from_agents(
            three_leaders(), z=1.0, in_neighbors={"u1": ("u2", "u3", "u1")}
        )
        assert_refused(cfg, "leader-has-neighbors")

    def test_wrong_neighbor_cardinality(self):
        agents = three_leaders() + [Agent("f1", "follower", 0.0, 0.0)]
        cfg = ReferenceConfig.from_agents(
            agents, z=1.0, in_neighbors={"f1": ("u1", "u2")}
        )
        assert_refused(cfg, "neighbor-count")

    def test_unreachable_follower_cluster(self):
        agents = three_leaders() + [
            Agent("f1", "follower", 0.0, -0.1),
            Agent("f2", "follower", 0.1, -0.2),
            Agent("f3", "follower", -0.1, -0.2),
            Agent("f4", "follower", 0.0, -0.3),
        ]
        graph = {
            "f1": ("f2", "f3", "f4"),
            "f2": ("f1", "f3", "f4"),
            "f3": ("f1", "f2", "f4"),
            "f4": ("f1", "f2", "f3"),
        }
        assert_refused(ReferenceConfig.from_agents(agents, 1.0, graph), "unreachable")

    def test_duplicate_and_unknown_ids(self):
        agents = three_leaders() + [
            Agent("f1", "follower", 0.0, -0.1),
            Agent("f1", "follower", 0.05, -0.1),
        ]
        cfg = ReferenceConfig.from_agents(
            agents, z=1.0, in_neighbors={"f1": ("u1", "u2", "nope")}
        )
        codes = set(codes_of(assert_refused(cfg, "duplicate-id")))
        assert "duplicate-id" in codes
        assert "unknown-neighbor" in codes
        assert_refused(cfg, "unknown-neighbor")

    @pytest.mark.parametrize("x", [0.0, -0.0])
    def test_coincident_reference_positions(self, default_scenario, x):
        # cf7 sits on cf2 (-0.0 is 0.0) strictly inside its own in-neighbor
        # triangle, so the coincidence is the only violation.
        cfg = default_scenario.config
        agents = cfg.agents + (Agent("cf7", "follower", x, 0.25),)
        neighbors = dict(cfg.in_neighbors, cf7=("cf1", "cf5", "cf6"))
        bad = ReferenceConfig(agents=agents, z=cfg.z, in_neighbors=neighbors)
        problems = assert_refused(bad, "coincident")
        assert codes_of(problems) == ["coincident"]
        assert problems[0].startswith("coincident: agents 'cf2' and 'cf7' share")


class TestComputeAlpha:
    def test_table_follower_exact_thirds(self, default_scenario, default_matrices):
        alpha = alpha_of(default_matrices, default_scenario.config)
        np.testing.assert_allclose(
            alpha["cf2"], [2 / 3, 1 / 6, 1 / 6], rtol=0, atol=1e-14
        )
        np.testing.assert_allclose(
            alpha["cf3"], [1 / 3, 7 / 12, 1 / 12], rtol=0, atol=1e-14
        )
        np.testing.assert_allclose(
            alpha["cf4"], [1 / 3, 1 / 12, 7 / 12], rtol=0, atol=1e-14
        )

    def test_follower_coincident_with_leader(self):
        agents = three_leaders() + [Agent("f1", "follower", 0.0, 0.75)]
        cfg = ReferenceConfig.from_agents(
            agents, z=1.0, in_neighbors={"f1": ("u1", "u2", "u3")}
        )
        # The barycentric pass behind from_config puts it at (1, 0, 0) in
        # the leader triangle; that triangle is also its in-neighbor one,
        # so from_config refuses it as not strictly contained.
        alpha = _audit(cfg)[3]
        np.testing.assert_allclose(alpha[3], [1.0, 0.0, 0.0], atol=1e-14)
        with pytest.raises(ConfigError, match="containment"):
            FormationMatrices.from_config(cfg)

    def test_follower_at_centroid(self):
        agents = three_leaders() + [Agent("f1", "follower", 0.0, -0.25)]
        cfg = ReferenceConfig.from_agents(
            agents, z=1.0, in_neighbors={"f1": ("u1", "u2", "u3")}
        )
        alpha = alpha_of(FormationMatrices.from_config(cfg), cfg)
        np.testing.assert_allclose(alpha["f1"], [1 / 3] * 3, atol=1e-14)

    def test_matches_area_ratio_oracle(self, default_scenario, default_matrices):
        cfg = default_scenario.config
        leaders = [cfg.agents[cfg.index_of(lid)] for lid in cfg.leader_ids]
        tri = [np.array([a.x, a.y]) for a in leaders]
        alpha = alpha_of(default_matrices, cfg)
        for fid in cfg.follower_ids:
            a = cfg.agents[cfg.index_of(fid)]
            expected = barycentric_oracle(np.array([a.x, a.y]), tri)
            np.testing.assert_allclose(alpha[fid], expected, atol=1e-12)

    def test_collinear_leaders_raise(self):
        agents = [
            Agent("u1", "leader", 0.0, 0.0),
            Agent("u2", "leader", 1.0, 0.0),
            Agent("u3", "leader", 2.0, 0.0),
            Agent("f1", "follower", 1.0, 0.5),
        ]
        cfg = ReferenceConfig.from_agents(
            agents, z=1.0, in_neighbors={"f1": ("u1", "u2", "u3")}
        )
        with pytest.raises(ConfigError, match="collinear"):
            FormationMatrices.from_config(cfg)


class TestComputeFollowerWeights:
    def test_table_follower_weights(self, default_scenario, default_matrices):
        w = weights_of(default_matrices, default_scenario.config)
        np.testing.assert_allclose(w["cf2"], [0.5, 0.25, 0.25], atol=1e-14)
        np.testing.assert_allclose(w["cf3"], [2 / 7, 1 / 7, 4 / 7], atol=1e-14)
        np.testing.assert_allclose(w["cf4"], [2 / 7, 1 / 7, 4 / 7], atol=1e-14)

    def test_centroid_gives_equal_weights(self):
        agents = three_leaders() + [Agent("f1", "follower", 0.0, -0.25)]
        cfg = ReferenceConfig.from_agents(
            agents, z=1.0, in_neighbors={"f1": ("u1", "u2", "u3")}
        )
        w = weights_of(FormationMatrices.from_config(cfg), cfg)
        np.testing.assert_allclose(w["f1"], [1 / 3] * 3, atol=1e-14)

    def test_boundary_midpoint_rejected(self):
        # Midpoint of u2-u3 is on the triangle edge: weight for u1 is zero.
        agents = three_leaders() + [Agent("f1", "follower", 0.0, -0.75)]
        cfg = ReferenceConfig.from_agents(
            agents, z=1.0, in_neighbors={"f1": ("u1", "u2", "u3")}
        )
        with pytest.raises(ConfigError, match="not strictly inside"):
            FormationMatrices.from_config(cfg)

    def test_collinear_neighbors_rejected(self):
        agents = three_leaders() + [
            Agent("f1", "follower", 0.0, -0.2),
            Agent("f2", "follower", 0.0, -0.4),
            Agent("f3", "follower", 0.0, -0.6),
        ]
        graph = {
            "f1": ("u1", "u2", "u3"),
            "f2": ("u1", "f1", "f3"),  # all on the x = 0 line
            "f3": ("u1", "u2", "u3"),
        }
        cfg = ReferenceConfig.from_agents(agents, z=1.0, in_neighbors=graph)
        with pytest.raises(ConfigError, match="collinear"):
            FormationMatrices.from_config(cfg)

    def test_weights_sum_exactly_one(self, default_scenario, default_matrices):
        for w in weights_of(default_matrices, default_scenario.config).values():
            assert w.sum() == 1.0


class TestBuildMatrices:
    def test_leaders_only(self):
        m = FormationMatrices.from_config(leaders_only_config())
        assert np.array_equal(m.W, -np.eye(3))
        assert np.array_equal(m.H, np.eye(3))
        assert m.H[3:].shape == (0, 3)
        assert m.neighbors.shape == (0, 3)

    def test_default_structure(self, default_scenario, default_matrices):
        m = default_matrices
        n = len(default_scenario.config.agents)
        assert m.W.shape == (n, n)
        np.testing.assert_array_equal(np.diag(m.W), -np.ones(n))
        # Leader rows are pure diagonal entries.
        for i in range(3):
            row = m.W[i].copy()
            row[i] = 0.0
            assert not row.any()
        np.testing.assert_array_equal(m.L, np.vstack([np.eye(3), np.zeros((n - 3, 3))]))
        np.testing.assert_array_equal(m.H[:3], np.eye(3))
        np.testing.assert_allclose(m.H.sum(axis=1), np.ones(n), atol=1e-12)

    def test_default_follower_rows_carry_weights(self, default_scenario, default_matrices):
        cfg = default_scenario.config
        m = default_matrices
        row = cfg.index_of("cf2")
        np.testing.assert_allclose(m.W[row, cfg.index_of("cf1")], 0.5, atol=1e-14)
        np.testing.assert_allclose(m.W[row, cfg.index_of("cf3")], 0.25, atol=1e-14)
        np.testing.assert_allclose(m.W[row, cfg.index_of("cf4")], 0.25, atol=1e-14)
        row3 = cfg.index_of("cf3")
        np.testing.assert_allclose(m.W[row3, cfg.index_of("cf5")], 4 / 7, atol=1e-14)

    def test_weight_reconstruction(self, default_scenario, default_matrices):
        # Each follower's reference position is the weighted mix of its
        # in-neighbors' reference positions.
        cfg = default_scenario.config
        pts = cfg.planar_positions()
        for fid, w in weights_of(default_matrices, cfg).items():
            nbr = np.array([pts[cfg.index_of(j)] for j in cfg.in_neighbors[fid]])
            np.testing.assert_allclose(
                w @ nbr, pts[cfg.index_of(fid)], atol=1e-9
            )


@pytest.mark.parametrize(
    "agent_id, role, field, message",
    [
        ("cf,3", "follower", "id", "must not contain ',', got 'cf,3'"),
        ("cf3", "captain", "role", "must be 'leader' or 'follower', got 'captain'"),
    ],
)
def test_agent_built_in_code_checks_its_role_and_id(agent_id, role, field, message):
    # A scenario built in code meets the parser's rules too, so it cannot
    # write a trace file name that reading its bundle back would refuse.
    with pytest.raises(ValueError) as exc:
        Agent(agent_id, role, 0.0, 0.0)
    assert exc.value.problems == {field: message}
    assert str(exc.value) == f"{field}: {message}"


class TestVerifySpectrum:
    def test_singular_w_fails_the_hurwitz_test(self):
        # A follower row of zeros: W is exactly singular, so -W^-1 L does
        # not exist. H still solves W H = -L (residual 0); the Hurwitz test
        # is what refuses it.
        w = -np.eye(4)
        w[3, 3] = 0.0
        m = FormationMatrices(
            W=w,
            L=np.vstack([np.eye(3), np.zeros((1, 3))]),
            H=np.vstack([np.eye(3), np.full((1, 3), 1.0 / 3.0)]),
            neighbors=np.array([[0, 1, 2]]),
        )
        report = verify_spectrum(m)
        assert report.h_deviation == 0.0
        assert not report.hurwitz
        assert report.ok is False

    def test_leaders_only_spectrum(self):
        m = FormationMatrices.from_config(leaders_only_config())
        report = verify_spectrum(m)
        np.testing.assert_allclose(report.eigenvalues.real, -np.ones(3))
        assert report.h_deviation == 0.0
        assert report.ok

    def test_default_graph(self, default_matrices):
        report = verify_spectrum(default_matrices)
        assert report.hurwitz
        assert report.max_real_part < 0.0
        assert report.h_deviation <= 1e-9
        assert report.ok

    def test_no_linear_system_is_solved(self, monkeypatch):
        m = FormationMatrices.from_config(random_config(np.random.default_rng(7), 30))

        def never(*args, **kwargs):
            raise AssertionError("the spectrum check must not solve W X = -L")

        monkeypatch.setattr(np.linalg, "solve", never)
        report = verify_spectrum(m)
        assert report.ok
        assert report.h_deviation <= 1e-9

    def test_moved_follower_entry_of_h_is_refused(self, default_matrices):
        # W stays Hurwitz; only H misses W H = -L, by the 1e-6 it was moved
        # (W's diagonal is -1, and the moved row's listeners weigh it by < 1).
        h = default_matrices.H.copy()
        h[4, 1] += 1e-6
        report = verify_spectrum(replace(default_matrices, H=h))
        assert report.hurwitz
        assert report.h_deviation == pytest.approx(1e-6, rel=1e-9)
        assert report.ok is False

    def test_follower_only_cycle_flagged(self):
        # Hand-built W with a follower cluster that ignores the leaders:
        # the cluster block is row-stochastic, so W is singular.
        n = 7
        w = -np.eye(n)
        for i in range(3, 7):
            others = [j for j in range(3, 7) if j != i]
            w[i, others] = 1.0 / 3.0
        l_mat = np.vstack([np.eye(3), np.zeros((4, 3))])
        h = np.vstack([np.eye(3), np.full((4, 3), 1.0 / 3.0)])
        cluster = range(3, n)
        m = FormationMatrices(
            W=w,
            L=l_mat,
            H=h,
            neighbors=np.array([[j for j in cluster if j != i] for i in cluster]),
        )
        report = verify_spectrum(m)
        assert not report.ok
        assert (not report.hurwitz) or report.h_deviation > 1e-9


class TestFixedPointOracle:
    def test_iteration_matches_containment_map(self, default_matrices):
        rng = np.random.default_rng(5)
        leaders = rng.uniform(-3, 3, size=(3, 2))
        limit = consensus_fixed_point(default_matrices.W, default_matrices.L, leaders)
        np.testing.assert_allclose(
            limit, default_matrices.H @ leaders, atol=1e-6
        )

    def test_iteration_from_random_start_converges(self, default_matrices):
        # Same map started from a nonzero state: the limit is unchanged.
        rng = np.random.default_rng(6)
        leaders = rng.uniform(-1, 1, size=(3, 1))
        n = default_matrices.W.shape[0]
        x = rng.uniform(-5, 5, size=(n, 1))
        m = np.eye(n) + default_matrices.W
        drive = default_matrices.L @ leaders
        for _ in range(5000):
            x = m @ x + drive
        np.testing.assert_allclose(x, default_matrices.H @ leaders, atol=1e-6)


def reference_spacing(cfg: ReferenceConfig) -> float:
    """The ``d_min`` behind the strain floor of a holding scenario of ``cfg``."""
    scenario = make_scenario(cfg, hold_schedule(AtCoordinates()), SimParams())
    return strain_check(scenario, 0.0).d_min


class TestMinReferenceDistance:
    def test_default_layout(self, default_scenario):
        assert strain_check(default_scenario, 0.0).d_min == 0.5

    def test_two_agents(self):
        agents = [Agent("a", "leader", 0.0, 0.0), Agent("b", "leader", 1.0, 0.0)]
        cfg = ReferenceConfig.from_agents(agents, z=1.0, in_neighbors={})
        assert reference_spacing(cfg) == 1.0

    def test_moved_follower(self, default_scenario):
        cfg = default_scenario.config
        agents = [
            Agent(a.id, a.role, 0.1, -0.25) if a.id == "cf4" else a
            for a in cfg.agents
        ]
        moved = ReferenceConfig(agents=tuple(agents), z=cfg.z, in_neighbors=cfg.in_neighbors)
        assert reference_spacing(moved) == pytest.approx(0.35, abs=1e-12)

    def test_single_agent_rejected(self):
        cfg = ReferenceConfig.from_agents([Agent("a", "leader", 0, 0)], 1.0, {})
        with pytest.raises(ValueError):
            reference_spacing(cfg)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n_followers=st.integers(1, 12))
def test_random_valid_configs_satisfy_invariants(seed, n_followers):
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, n_followers)
    assert validate_config(cfg) == []

    m = FormationMatrices.from_config(cfg)
    alpha = alpha_of(m, cfg)
    weights = weights_of(m, cfg)
    pts = cfg.planar_positions()
    for fid in cfg.follower_ids:
        own = pts[cfg.index_of(fid)]
        a = alpha[fid]
        assert a.sum() == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(a @ pts[:3], own, atol=1e-9)
        w = weights[fid]
        assert w.min() > 0.0
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        nbr = np.array([pts[cfg.index_of(j)] for j in cfg.in_neighbors[fid]])
        np.testing.assert_allclose(w @ nbr, own, atol=1e-9)

    report = verify_spectrum(m)
    assert report.ok
    # The paper's identity H = -W^-1 L, with a dense solve as the oracle.
    assert np.abs(m.H + np.linalg.solve(m.W, m.L)).max() <= 1e-9
    assert (m.H >= -1e-12).all()  # followers inside the leader triangle
    np.testing.assert_allclose(m.H.sum(axis=1), 1.0, atol=1e-12)

    leaders = rng.uniform(-2, 2, size=(3, 2))
    limit = consensus_fixed_point(m.W, m.L, leaders)
    np.testing.assert_allclose(limit, m.H @ leaders, atol=1e-6)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), n_followers=st.integers(1, 40))
def test_from_config_matches_matrices_oracle(seed, n_followers):
    # The batched pass reproduces the per-follower solve bit for bit.
    cfg = random_config(np.random.default_rng(seed), n_followers)
    m = FormationMatrices.from_config(cfg)
    w_mat, h_mat = matrices_oracle(cfg)
    assert np.array_equal(m.W, w_mat)
    assert np.array_equal(m.H, h_mat)
    assert m.neighbors.tolist() == [
        [cfg.index_of(j) for j in cfg.in_neighbors[fid]] for fid in cfg.follower_ids
    ]


@pytest.mark.parametrize(
    "agent_id, field, value, codes",
    [
        ("cf2", "x", float("nan"), {"containment"}),
        ("cf3", "y", float("nan"), {"containment", "neighbor-collinear"}),
        ("cf1", "x", float("nan"), {"collinear-leaders", "neighbor-collinear"}),
        ("cf4", "y", float("inf"), {"containment"}),
    ],
)
def test_non_finite_coordinate_is_reported_and_refused(
    default_scenario, agent_id, field, value, codes
):
    # A config built in code skips the scenario schema; the formation pass
    # itself must fail every non-finite coordinate, never reach LinAlgError.
    cfg = default_scenario.config
    agents = tuple(
        replace(a, **{field: value}) if a.id == agent_id else a for a in cfg.agents
    )
    bad = ReferenceConfig(agents=agents, z=cfg.z, in_neighbors=cfg.in_neighbors)
    assert set(codes_of(validate_config(bad))) == codes
    for code in codes:
        assert_refused(bad, code)


def damaged(rng, cfg):
    """``cfg`` with one seeded damage to its layout or graph."""
    agents = list(cfg.agents)
    graph = dict(cfg.in_neighbors)
    i, j = rng.choice(len(agents), size=2, replace=False)
    a = agents[i]
    kind = rng.integers(7)
    if kind == 0:  # a finite extreme coordinate
        agents[i] = replace(a, **{rng.choice(["x", "y"]): rng.choice([-1e308, 1e308])})
    elif kind == 1:  # moved anywhere near the team
        agents[i] = replace(a, x=rng.uniform(-3, 3), y=rng.uniform(-3, 3))
    elif kind == 2 and graph:
        del graph[rng.choice(sorted(graph))]
    elif kind == 3:
        graph["ghost"] = tuple(rng.choice(cfg.ids, size=3, replace=False))
    elif kind == 4:
        agents[i] = replace(a, id=agents[j].id)
    elif kind == 5:
        agents[i] = replace(a, role="follower" if a.role == "leader" else "leader")
    else:
        agents[i] = replace(a, x=agents[j].x, y=agents[j].y)
    return ReferenceConfig(agents=tuple(agents), z=cfg.z, in_neighbors=graph)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), n_followers=st.integers(1, 8))
def test_damaged_layout_is_refused_with_exactly_its_problems(seed, n_followers):
    # Either the layout is still usable, or the refusal lists its problems;
    # no warning and no other exception escapes the audit.
    rng = np.random.default_rng(seed)
    cfg = random_config(rng, n_followers)
    for _ in range(rng.integers(1, 4)):
        cfg = damaged(rng, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        problems = validate_config(cfg)
        try:
            FormationMatrices.from_config(cfg)
        except ConfigError as exc:
            assert str(exc) == refusal(problems)
        else:
            assert problems == []


def test_index_lookups_use_matrix_order(default_scenario):
    cfg = default_scenario.config
    for i, aid in enumerate(cfg.ids):
        assert cfg.index_of(aid) == i
