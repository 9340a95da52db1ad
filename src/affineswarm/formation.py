"""Reference configurations, communication graphs, and consensus matrices.

A team is three leaders plus any number of followers, all at fixed
reference positions in a horizontal plane. Each follower listens to
exactly three in-neighbors and must sit strictly inside their triangle,
which makes its communication weights (the barycentric coordinates of
its reference position in that triangle) strictly positive and unique.

``FormationMatrices.from_config`` solves every follower's coordinates in
one batched pass and assembles the matrices below. ``validate_config``
lists what that pass finds wrong as ``"code: message"`` strings, and
``from_config`` refuses a layout with any of them in one ``ConfigError``:

* ``W`` (N x N): -1 on the diagonal, follower rows carry their weights in
  the in-neighbor columns, leader rows are pure -1 diagonal entries.
* ``L`` (N x 3): selector of the leader block, ``[I_3; 0]``.
* ``H`` (N x 3): leader rows are identity rows; follower rows hold the
  barycentric coordinates of the follower with respect to the leaders.

When every follower is reachable from every leader, ``W`` is Hurwitz and
``H = -W^{-1} L``, so leader positions alone determine where the whole
team settles. ``verify_spectrum`` checks both, the second as the residual
``W H + L``: each follower row of ``H`` is its neighbors' weighted sum.
"""

from __future__ import annotations

import reprlib
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, _FieldErrors

ROLE_LEADER = "leader"
ROLE_FOLLOWER = "follower"

# Barycentric coordinates at or below this value count as "on the
# boundary": the follower is rejected as not strictly contained.
CONTAINMENT_TOL = 1e-9

# |det| threshold below which a neighbor/leader triangle is degenerate.
COLLINEAR_TOL = 1e-12

# Linear solves for barycentric coordinates must sum to 1 at least this
# well before renormalization.
PARTITION_TOL = 1e-12

# Largest entry of the residual |W H + L| that verify_spectrum accepts.
SPECTRUM_TOL = 1e-9


def _component_problem(text: str, forbidden: str) -> str | None:
    """Why ``text`` is not one file-name component free of ``forbidden``, or None."""
    if text in ("", ".", ".."):
        return f"must be one file-name component, got {reprlib.repr(text)}"
    for c in text:
        if c in forbidden or not c.isprintable():
            return f"must not contain {c!r}, got {reprlib.repr(text)}"
    return None


@dataclass(frozen=True)
class Agent:
    """A team member. A ``role`` other than "leader" or "follower", or an ``id``
    unfit to name a trace file or fill a CSV field, raises a field-keyed ValueError."""

    id: str
    role: str
    x: float
    y: float

    def __post_init__(self):
        problems = {}
        if self.role not in (ROLE_LEADER, ROLE_FOLLOWER):
            got = reprlib.repr(self.role)
            problems["role"] = f"must be 'leader' or 'follower', got {got}"
        problem = _component_problem(self.id, '/\\,"')
        if problem:
            problems["id"] = problem
        if problems:
            raise _FieldErrors(problems)


@dataclass(frozen=True)
class ReferenceConfig:
    """Initial team layout: agents in matrix order plus the follower graph.

    ``agents`` must list the three leaders first; ``from_agents`` reorders
    an arbitrary listing. ``in_neighbors`` maps each follower id to its
    ordered triple of in-neighbor ids. ``z`` is the shared plane altitude.
    """

    agents: tuple[Agent, ...]
    z: float
    in_neighbors: dict[str, tuple[str, str, str]] = field(default_factory=dict)

    @staticmethod
    def from_agents(agents, z, in_neighbors) -> "ReferenceConfig":
        """Build a config from any agent ordering (leaders are moved first)."""
        agents = tuple(agents)
        ordered = tuple(a for a in agents if a.role == ROLE_LEADER) + tuple(
            a for a in agents if a.role != ROLE_LEADER
        )
        neighbors = {fid: tuple(nbrs) for fid, nbrs in in_neighbors.items()}
        return ReferenceConfig(agents=ordered, z=float(z), in_neighbors=neighbors)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.agents)

    @property
    def leader_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.agents if a.role == ROLE_LEADER)

    @property
    def follower_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.agents if a.role == ROLE_FOLLOWER)

    @cached_property
    def _index(self) -> dict[str, int]:
        # Built back to front, so a repeated id maps to its first row.
        return {a.id: i for i, a in reversed(tuple(enumerate(self.agents)))}

    def index_of(self, agent_id: str) -> int:
        return self._index[agent_id]

    @cached_property
    def matrices(self) -> "FormationMatrices":
        """The layout's matrices, built on first use (``ConfigError`` on any
        violation); not a field, so ``dataclasses.replace`` drops them."""
        return FormationMatrices.from_config(self)

    def planar_positions(self) -> np.ndarray:
        """(N, 2) array of initial positions in matrix order."""
        return np.array([[a.x, a.y] for a in self.agents], dtype=float)

    def reference_positions(self) -> np.ndarray:
        """(N, 3) array of initial positions with the plane altitude."""
        pts = np.empty((len(self.agents), 3))
        pts[:, :2] = self.planar_positions()
        pts[:, 2] = self.z
        return pts


def _barycentric(
    xy: np.ndarray, points: np.ndarray, triangles: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric coordinates of the rows ``points`` in the triangles ``triangles``.

    ``points`` is (K,) and ``triangles`` (K, 3), both rows of the (N, 2)
    planar positions ``xy``. One batched ``det`` and ``solve`` over the
    systems ``[x; y; 1] c = [p; 1]``. Returns ``(solvable, coords)``: a
    triangle whose ``|det|`` is not above ``COLLINEAR_TOL`` (NaN included)
    is not solved, and its coordinates are NaN.
    """
    m = np.ones((len(points), 3, 3))
    m[:, :2] = xy[triangles].transpose(0, 2, 1)
    coords = np.full((len(points), 3), np.nan)
    solvable = np.abs(np.linalg.det(m)) > COLLINEAR_TOL
    rhs = np.ones((np.count_nonzero(solvable), 3, 1))
    rhs[:, :2, 0] = xy[points[solvable]]
    coords[solvable] = np.linalg.solve(m[solvable], rhs)[..., 0]
    return solvable, coords


def _reachable_from(out_edges: dict[str, list[str]], source: str) -> set[str]:
    """Agents reachable from ``source`` along ``out_edges``, each agent's listeners."""
    seen = {source}
    stack = [source]
    while stack:
        node = stack.pop()
        for nxt in out_edges[node]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


# Extreme finite coordinates overflow the determinants and the weights; the
# checks below fail such a layout by value, so numpy's warnings add nothing.
@np.errstate(over="ignore", invalid="ignore")
def _audit(cfg: ReferenceConfig):
    """``validate_config``'s problems and the barycentric pass they rest on.

    Returns ``(problems, neighbors, weights, alpha)``: the ``"code:
    message"`` strings; the (F, 3) in-neighbor rows of every follower with
    a well-formed triple, in ``follower_ids`` order; their raw coordinates
    in those triangles; and every agent's raw coordinates in the leader
    triangle (N, 3), NaN when there is no such triangle.
    """
    problems: list[str] = []

    ids = cfg.ids
    for dup in sorted(i for i, count in Counter(ids).items() if count > 1):
        problems.append(f"duplicate-id: agent id {reprlib.repr(dup)} repeats")

    leaders = cfg.leader_ids
    if len(leaders) != 3:
        problems.append(f"role-count: expected exactly 3 leaders, got {len(leaders)}")
    if len(cfg.agents) >= 3 and any(a.role != ROLE_LEADER for a in cfg.agents[:3]):
        problems.append("leader-order: the first three agents must be the leaders")

    for lid in leaders:
        if cfg.in_neighbors.get(lid):
            problems.append(
                f"leader-has-neighbors: leader {reprlib.repr(lid)} must not have "
                "in-neighbors"
            )

    id_set = set(ids)
    followers_ok: list[str] = []
    for fid in cfg.follower_ids:
        nbrs = cfg.in_neighbors.get(fid)
        if nbrs is None:
            problems.append(
                f"neighbor-count: follower {reprlib.repr(fid)} has no in-neighbors"
            )
        elif len(nbrs) != 3 or len(set(nbrs)) != 3:
            problems.append(
                f"neighbor-count: follower {reprlib.repr(fid)} needs exactly 3 "
                f"distinct in-neighbors, got {reprlib.repr(list(nbrs))}"
            )
        elif bad := [j for j in nbrs if j not in id_set or j == fid]:
            problems.append(
                f"unknown-neighbor: follower {reprlib.repr(fid)} lists invalid "
                f"in-neighbors {reprlib.repr(bad)}"
            )
        else:
            followers_ok.append(fid)
    for fid in cfg.in_neighbors:
        if fid not in id_set:
            problems.append(
                f"unknown-neighbor: graph names unknown agent {reprlib.repr(fid)}"
            )

    xy = cfg.planar_positions().reshape(-1, 2)
    # Exact equality, so -0.0 meets 0.0; NaN equals nothing and fails the
    # geometric checks below.
    first_at: dict[tuple[float, float], int] = {}
    for i, point in enumerate(map(tuple, xy.tolist())):
        j = first_at.setdefault(point, i)
        if j != i:
            problems.append(
                f"coincident: agents {reprlib.repr(ids[j])} and "
                f"{reprlib.repr(ids[i])} share the reference position {point}"
            )
    rows = np.array([cfg.index_of(fid) for fid in followers_ok], dtype=int)
    neighbors = np.array(
        [[cfg.index_of(j) for j in cfg.in_neighbors[fid]] for fid in followers_ok],
        dtype=int,
    ).reshape(-1, 3)
    solvable, weights = _barycentric(xy, rows, neighbors)
    partitioned = np.abs(weights.sum(axis=1) - 1.0) <= PARTITION_TOL

    alpha = np.full((len(xy), 3), np.nan)
    if len(leaders) == 3:
        triangle = [cfg.index_of(lid) for lid in leaders]
        leaders_ok, alpha = _barycentric(
            xy, np.arange(len(xy)), np.broadcast_to(triangle, (len(xy), 3))
        )
        if not leaders_ok[0]:
            problems.append(
                "collinear-leaders: leader reference positions are collinear; "
                "the barycentric system is singular"
            )
        else:
            partitioned &= np.abs(alpha[rows].sum(axis=1) - 1.0) <= PARTITION_TOL

    contained = weights.min(axis=1) > CONTAINMENT_TOL
    for k in np.flatnonzero(~(contained & partitioned)):
        fid = followers_ok[k]
        if not solvable[k]:
            problems.append(
                f"neighbor-collinear: in-neighbors of {reprlib.repr(fid)} are collinear"
            )
        elif not contained[k]:
            problems.append(
                f"containment: follower {reprlib.repr(fid)} is not strictly inside "
                "its in-neighbor triangle (barycentric coordinates "
                f"{weights[k].round(12).tolist()})"
            )
        else:
            problems.append(
                f"partition: barycentric coordinates of {reprlib.repr(fid)} do not "
                f"sum to 1 within {PARTITION_TOL}"
            )

    if len(leaders) == 3 and followers_ok:
        out_edges: dict[str, list[str]] = {aid: [] for aid in ids}
        for fid, nbrs in cfg.in_neighbors.items():
            for j in nbrs:
                if j in out_edges and fid in out_edges:
                    out_edges[j].append(fid)
        for lid in leaders:
            reached = _reachable_from(out_edges, lid)
            missing = [fid for fid in cfg.follower_ids if fid not in reached]
            if missing:
                problems.append(
                    f"unreachable: no directed path from leader {reprlib.repr(lid)} "
                    f"to followers {reprlib.repr(missing)}"
                )

    return problems, neighbors, weights, alpha


def validate_config(cfg: ReferenceConfig) -> list[str]:
    """Check every structural and geometric invariant of a configuration.

    Returns every problem found as a ``"code: message"`` string; an empty
    list means the configuration is usable. Checks: role counts and
    ordering, unique ids, leader independence, in-neighbor cardinality,
    distinct reference positions, leader non-collinearity, strict
    containment of each follower in its in-neighbor triangle (coordinates
    that sum to 1 within ``PARTITION_TOL``), and reachability of every
    follower from every leader. Every geometric check is written so that
    NaN fails it.
    """
    return _audit(cfg)[0]


@dataclass(frozen=True)
class FormationMatrices:
    """Consensus matrices of one configuration, in its matrix order.

    The leaders are rows 0-2, so follower ``k`` is row ``3 + k``: its
    in-neighbor rows are ``neighbors[k]`` (an (F, 3) integer array), its
    weights ``W[3 + k, neighbors[k]]`` and its barycentric coordinates in
    the leader triangle ``H[3 + k]``.
    """

    W: np.ndarray
    L: np.ndarray
    H: np.ndarray
    neighbors: np.ndarray

    @classmethod
    def from_config(cls, cfg: ReferenceConfig) -> "FormationMatrices":
        """Assemble ``W``, ``L`` and ``H`` from a configuration's layout.

        Each follower's weights and leader coordinates come from one
        barycentric pass and are renormalized to sum exactly to 1. Raises
        ``ConfigError`` with ``validate_config``'s messages when the
        configuration has any violation: the first four, then how many
        more there are.
        """
        problems, neighbors, weights, alpha = _audit(cfg)
        if problems:
            if len(problems) > 4:  # so the line does not grow with the team
                problems[4:] = [f"and {len(problems) - 4} more"]
            raise ConfigError("invalid configuration: " + "; ".join(problems))
        n = len(cfg.agents)
        w_mat = np.zeros((n, n))
        np.fill_diagonal(w_mat, -1.0)
        w_mat[np.arange(3, n)[:, None], neighbors] = weights / weights.sum(
            axis=1, keepdims=True
        )
        l_mat = np.zeros((n, 3))
        l_mat[:3, :3] = np.eye(3)
        h_mat = np.zeros((n, 3))
        h_mat[:3, :3] = np.eye(3)
        h_mat[3:] = alpha[3:] / alpha[3:].sum(axis=1, keepdims=True)
        return cls(W=w_mat, L=l_mat, H=h_mat, neighbors=neighbors)


@dataclass(frozen=True)
class SpectralReport:
    """Numerical check that W is Hurwitz and H solves W H = -L (``h_deviation``
    is the residual, the largest entry of ``|W H + L|``)."""

    eigenvalues: np.ndarray
    max_real_part: float
    h_deviation: float
    hurwitz: bool
    ok: bool


def verify_spectrum(m: FormationMatrices) -> SpectralReport:
    """Check the stability and steady-state identity of the weight matrix.

    All eigenvalues of ``W`` must have negative real part, and the residual
    ``max |W H + L|``, how far ``H`` misses ``W H = -L``, must stay within
    ``SPECTRUM_TOL``. For the ``W`` of ``from_config``, ``||W||_inf = 2``, so
    the residual is at most twice the deviation ``max |H - (-W^{-1} L)|``;
    a Hurwitz ``W`` is invertible, so a zero residual means ``H = -W^{-1} L``.
    """
    eig = np.linalg.eigvals(m.W)
    max_real = float(eig.real.max())
    # A genuinely zero eigenvalue may round to +-1e-16; require a margin.
    hurwitz = max_real < -1e-12
    deviation = float(np.abs(m.W @ m.H + m.L).max())
    return SpectralReport(
        eigenvalues=eig,
        max_real_part=max_real,
        h_deviation=deviation,
        hurwitz=hurwitz,
        ok=bool(hurwitz and deviation <= SPECTRUM_TOL),
    )

