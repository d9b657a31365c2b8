"""Cascaded two-hand sampling with guidance.

Phase 1 draws an anchor hand unconditionally (null token) and pins its root,
which no training step supervises, to the canonical frame; a pinned hand is
its own mirror, so it is the left hand as it is. Phase 2 draws the
interacting right hand conditioned on that anchor: every reverse step mixes
conditional and unconditional clean estimates (classifier-free guidance),
steps from the mix, and descends the mix's inter-hand penetration loss
(anti-penetration guidance). Both estimates come from one denoiser call on
the conditional rows stacked over their fully dropped copies. Both phases
share one network and one deterministic noise stream per sample, so a
(weights, config) pair fully determines the output.

penetration_set owns contact: its one nearest-vertex query of the moving
hand's points against an anchor mesh (whose normals and k-d tree it reads),
bounded at CONTACT_RADIUS, is what APG, the synthetic-data rejection rule and
the geometry metrics read. The anchor's own HandMesh.reach, derived once per
mesh, owns the broad phase: every point the bounded query can answer lies in
it, so penetration_set queries only the points inside it, and APG poses
vertices only for rows whose capsule box meets it. Neither cull changes a bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import DiffusionSchedule, ddim_step, ddim_time_grid
from .hand_model import (
    DIM,
    OMEGA,
    HandParam,
    capsule_boxes,
    default_hand,
    kinematics_vjp,
    left_hand_mesh,
    pin_root,
)
from .mesh import CONTACT_RADIUS, HandMesh
from .nn import TAG_SAMPLE, rng_stream
from .rotations import rot6d_degenerate


W_PEN_START = 4.0       # APG step weight at the last reverse step (k = 0), unitless
W_PEN_DECAY = 0.9       # factor on the APG weight per reverse step further from t=0


def w_pen_at(k: int) -> float:
    """APG weight W_PEN_START * W_PEN_DECAY**k at reverse step k, counted up from t=0."""
    return W_PEN_START * W_PEN_DECAY**k


@dataclass
class SampleConfig:
    steps: int = 32
    w_cfg: float = 0.1
    apg: bool = True
    seed: int = 0
    count: int = 1
    object_points: np.ndarray | None = None

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.count < 0:
            raise ValueError("count must be >= 0")
        if not np.isfinite(self.w_cfg):
            raise ValueError("w_cfg must be finite")


@dataclass
class PenetrationReport:
    pairs: np.ndarray                 # (P, 2) indices (i of an A point, j of a B vertex)
    delta: np.ndarray                 # (P, 3) A point minus its B vertex, meters
    depths: np.ndarray                # (P,) projected depths, meters, > 0
    loss: float
    min_distance: float               # min over all A points of the B distance, meters;
                                      # exact below CONTACT_RADIUS, inf when none is in range

    def __len__(self) -> int:
        return len(self.pairs)


def cfg_mix(x0_cond: np.ndarray, x0_uncond: np.ndarray, w: float) -> np.ndarray:
    """(1+w) conditional - w unconditional clean estimate; for a fixed x_t the
    implied noise is affine in x0, so the step equals one from the mixed noise."""
    x0_cond = np.asarray(x0_cond, dtype=float)
    x0_uncond = np.asarray(x0_uncond, dtype=float)
    if x0_cond.shape != x0_uncond.shape:
        raise ValueError("estimate shapes differ")
    return (1.0 + w) * x0_cond - w * x0_uncond


def penetration_set(points: np.ndarray, mesh_b: HandMesh) -> PenetrationReport:
    """Contact of A's points (V, 3) against the anchor mesh B from one bounded
    nearest-vertex query; len() is P.

    Point i of A pairs with j, its nearest vertex in B, when j is closer
    than CONTACT_RADIUS and i sits behind B's surface there: its depth
    -n_j . delta is strictly positive, where delta is A's point minus B's
    vertex (the "inside" repulsion of Hasson et al., CVPR 2019). A point
    with no B vertex in range never pairs. The loss is sum |delta|^2 over
    the pairs; its gradient with respect to A's point i is 2 delta on paired
    rows and 0 elsewhere, with the pair set held constant. An empty pair set
    gives empty delta and depths and a loss of 0. min_distance covers every
    A point, paired or not: exact when below CONTACT_RADIUS, else inf.

    Only the A points inside B.reach are queried; the query would
    answer (inf, len(B)) for the rest. Nearest neighbors come from a k-d
    tree built on B alone, which fixes each query point's answer, exact
    distance ties included, whatever else is queried with it. Raises
    ValueError when A has a non-finite point or B's reach is not finite,
    as a non-finite B vertex makes it.
    """
    if not np.isfinite(points).all():
        raise ValueError("non-finite points in A")
    if not np.isfinite(mesh_b.reach).all():
        raise ValueError("non-finite reach box of B")
    lo, hi = mesh_b.reach
    cand = np.flatnonzero(((points >= lo) & (points <= hi)).all(axis=1))
    if not cand.size:
        return PenetrationReport(np.empty((0, 2), dtype=np.int64), np.empty((0, 3)),
                                 np.empty(0), 0.0, np.inf)
    dist, nearest = mesh_b.tree.query(points[cand], k=1, distance_upper_bound=CONTACT_RADIUS)
    hit = dist < CONTACT_RADIUS                      # the rest come back as (inf, len(B))
    near, j = cand[hit], nearest[hit]
    delta = points[near] - mesh_b.vertices[j]
    depth = -np.einsum("ij,ij->i", mesh_b.normals[j], delta)
    inside = depth > 0.0
    delta = delta[inside]
    loss = float(np.sum(np.linalg.norm(delta, axis=1) ** 2))
    return PenetrationReport(np.stack([near[inside], j[inside]], axis=1), delta,
                             depth[inside], loss, float(dist.min()))


def penetration_loss(params_clean: HandParam, params_anchor: HandParam,
                     model=None) -> float:
    """Penetration loss of a right hand (clean) against a left anchor. Raises
    ValueError before posing either hand when one has a non-finite value."""
    if not (np.isfinite(params_clean.vector).all() and np.isfinite(params_anchor.vector).all()):
        raise ValueError("non-finite hand parameters")
    model = model or default_hand()
    return penetration_set(model.posed_vertices(params_clean),
                           left_hand_mesh(params_anchor, model)).loss


def apg_gradient(x0_hat: np.ndarray, t_prev: int, anchor_meshes: list[HandMesh],
                 sched: DiffusionSchedule, model) -> np.ndarray:
    """d L_pen / d x_prev (B, 64) from the clean estimates x0_hat (B, 64).

    Row i is a right hand whose loss is taken against anchor_meshes[i], the
    posed left-hand mesh of its anchor. The step's noise estimate is held
    constant, so dL/dx_prev is dL/dx0 / sqrt(ab_prev), and so is the pair set:
    it is found once from x0_hat and not differentiated. The rows' capsule
    boxes come first, from one posed_segments call: a row whose hand box
    (the union of its bones' capsule_boxes, which hold its vertices) misses
    its anchor's reach has no vertex within CONTACT_RADIUS of it, so no
    pairs. The other rows are posed in one call and differentiated in one
    call; only their contact is found row by row, by penetration_set, whose
    pairs and delta give the cotangent. A row with no pairs gets a zero
    gradient, as does a row whose clean estimate is non-finite or whose
    root rotation is rot6d_degenerate (both possible under untrained
    weights), or whose anchor's reach is not finite. ``model`` must be the
    one that posed the anchors.
    """
    x0_hat = np.asarray(x0_hat, dtype=float)
    grad = np.zeros_like(x0_hat)
    ok = np.flatnonzero(np.isfinite(x0_hat).all(axis=1))
    ok = ok[~rot6d_degenerate(x0_hat[ok, OMEGA])]
    lo, hi = capsule_boxes(*model.posed_segments(HandParam(x0_hat[ok])))
    reach = np.array([anchor_meshes[i].reach for i in ok]).reshape(-1, 2, 3)
    ok = ok[((lo.min(axis=1) <= reach[:, 1]) & (hi.max(axis=1) >= reach[:, 0])
             & np.isfinite(reach).all(axis=1)).all(axis=1)]
    if not ok.size:
        return grad
    verts = model.posed_vertices(HandParam(x0_hat[ok]))
    cot = np.zeros_like(verts)
    for r, i in enumerate(ok):
        report = penetration_set(verts[r], anchor_meshes[i])
        cot[r, report.pairs[:, 0]] = 2.0 * report.delta
    active = cot.any(axis=(1, 2))    # rows with at least one pair
    if active.any():
        grad[ok[active]] = kinematics_vjp(HandParam(x0_hat[ok[active]]), model,
                                          cot[active]) / sched.sqrt_ab(t_prev)
    return grad


def apg_step(x_prev: np.ndarray, x0_hat: np.ndarray, t_prev: int,
             anchor_meshes: list[HandMesh], w_pen: float, sched: DiffusionSchedule,
             model) -> np.ndarray:
    """One anti-penetration descent step on every row of x_prev (B, 64), whose
    clean estimates are x0_hat. Rows that do not penetrate their anchor, and
    rows whose clean root rotation is degenerate, are returned unchanged."""
    return np.asarray(x_prev, dtype=float) - w_pen * apg_gradient(
        x0_hat, t_prev, anchor_meshes, sched, model)


# ---------------------------------------------------------------------------
# Cascaded inference


@dataclass
class SampleResult:
    x_l: np.ndarray            # (N, 64)
    x_r: np.ndarray            # (N, 64)

    def pair(self, i: int):
        return HandParam(self.x_l[i].copy()), HandParam(self.x_r[i].copy())


def _reverse_pass(denoiser, x, cond, drop, w_cfg, grid, sched, model,
                  object_embedding, anchor_meshes=None):
    """Reverse steps from x (B, 64) along grid on the condition cond with its
    drop mask, mixed with the unconditional estimate at CFG weight w_cfg.

    With w_cfg != 0 each step is one predict on 2B stacked rows: x twice,
    cond over zeros and drop over an all-dropped mask (the null token
    replaces those zeros); the one object token serves every row. Its first
    B rows are the conditional estimates and its last B the unconditional.
    With w_cfg == 0 each step predicts the B rows alone.
    """
    B = len(x)
    guided = w_cfg != 0.0
    if guided:
        cond = np.concatenate([cond, np.zeros_like(cond)])
        drop = np.concatenate([drop, np.ones(B, dtype=bool)])
    for si, (t, t_prev) in enumerate(grid):
        x0 = denoiser.predict(np.tile(x, (2, 1)) if guided else x, cond, drop,
                              np.full(len(cond), t), object_embedding=object_embedding)
        if guided:
            x0 = cfg_mix(x0[:B], x0[B:], w_cfg)
        x = ddim_step(x, x0, t, t_prev, sched)
        if anchor_meshes is not None:
            x = apg_step(x, x0, t_prev, anchor_meshes, w_pen_at(len(grid) - 1 - si),
                         sched, model)
    return x


def sample_pairs(denoiser, config: SampleConfig, sched: DiffusionSchedule,
                 model=None) -> SampleResult:
    """Draw ``config.count`` interacting pairs; pure in (weights, config)."""
    model = model or default_hand()
    grid = ddim_time_grid(sched.T, config.steps)
    B = config.count

    noise = np.empty((2, B, DIM))
    for i in range(B):
        noise[:, i] = rng_stream(config.seed, TAG_SAMPLE + i).standard_normal((2, DIM))

    object_embedding = None if config.object_points is None else \
        denoiser.embed_object(config.object_points)

    # Phase 1: unconditional anchor in canonical right-hand space, every row dropped.
    x = _reverse_pass(denoiser, noise[0].copy(), np.zeros((B, DIM)), np.ones(B, dtype=bool),
                      0.0, grid, sched, model, object_embedding)
    x_l = pin_root(HandParam(x)).vector

    # Phase 2: conditional partner with CFG and optional APG.
    anchor_meshes = [left_hand_mesh(HandParam(row), model) for row in x_l] if config.apg else None
    x_r = _reverse_pass(denoiser, noise[1].copy(), x_l.copy(), np.zeros(B, dtype=bool),
                        config.w_cfg, grid, sched, model, object_embedding, anchor_meshes)
    return SampleResult(x_l=x_l, x_r=x_r)

