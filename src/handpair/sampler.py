"""Cascaded two-hand sampling with guidance.

Phase 1 draws an anchor hand unconditionally (null token), pins its root to
the canonical frame, and mirrors it into a left hand. Phase 2 draws the
interacting right hand conditioned on that anchor, mixing conditional and
unconditional noise estimates (classifier-free guidance) and descending the
inter-hand penetration loss after every reverse step (anti-penetration
guidance). Both phases share one network and one deterministic noise stream
per sample, so a (weights, config) pair fully determines the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .diffusion import DiffusionSchedule, ddim_step, ddim_time_grid, eps_from_x0
from .errors import DegenerateRotation
from .hand_model import (
    HandParam,
    default_hand,
    kinematics_vjp,
    left_hand_mesh,
    mirror,
    pin_root,
)
from .mesh import HandMesh
from .nn import TAG_SAMPLE, rng_stream

IDENTITY_COND = np.zeros(64)


@dataclass
class SampleConfig:
    steps: int = 32
    w_cfg: float = 0.1
    apg: bool = True
    w_pen_start: float = 4.0
    w_pen_decay: float = 0.9
    seed: int = 0
    count: int = 1
    object_points: np.ndarray | None = None
    pen_squared: bool = True

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.w_pen_start < 0:
            raise ValueError("w_pen_start must be >= 0")
        if not 0.0 < self.w_pen_decay <= 1.0:
            raise ValueError("w_pen_decay must be in (0, 1]")


@dataclass
class PenetrationReport:
    pairs: np.ndarray                 # (P, 2) vertex indices (i in A, j in B)
    depths: np.ndarray                # (P,) projected depths, meters, > 0
    loss: float

    def validate(self) -> None:
        if len(self.pairs) == 0 and self.loss != 0.0:
            raise ValueError("empty pair set must have zero loss")
        if len(self.depths) and self.depths.min() <= 0:
            raise ValueError("projected depths must be strictly positive")


def w_pen_at(k: int, start: float = 4.0, decay: float = 0.9) -> float:
    """Guidance weight at reverse-step index k counted upward from t=0."""
    return start * decay**k


def cfg_mix(eps_cond: np.ndarray, eps_uncond: np.ndarray, w: float) -> np.ndarray:
    """(1+w) conditional - w unconditional noise estimate."""
    eps_cond = np.asarray(eps_cond, dtype=float)
    eps_uncond = np.asarray(eps_uncond, dtype=float)
    if eps_cond.shape != eps_uncond.shape:
        raise ValueError("estimate shapes differ")
    return (1.0 + w) * eps_cond - w * eps_uncond


def penetration_set(mesh_a: HandMesh, mesh_b: HandMesh) -> np.ndarray:
    """Vertex pairs (i, j): j is i's nearest vertex in B and i sits behind
    B's surface there (strictly positive projection onto -normal).

    Nearest neighbors come from a k-d tree; exact distance ties resolve to
    the lowest index.
    """
    tree = cKDTree(mesh_b.vertices)
    _, nearest = tree.query(mesh_a.vertices, k=1)
    delta = mesh_a.vertices - mesh_b.vertices[nearest]
    depth = -np.einsum("ij,ij->i", mesh_b.normals[nearest], delta)
    idx = np.flatnonzero(depth > 0.0)
    return np.stack([idx, nearest[idx]], axis=1) if len(idx) else np.empty((0, 2), dtype=np.int64)


def penetration_report(mesh_a: HandMesh, mesh_b: HandMesh,
                       squared: bool = True) -> PenetrationReport:
    pairs = penetration_set(mesh_a, mesh_b)
    if len(pairs) == 0:
        return PenetrationReport(pairs, np.empty(0), 0.0)
    delta = mesh_a.vertices[pairs[:, 0]] - mesh_b.vertices[pairs[:, 1]]
    depths = -np.einsum("ij,ij->i", mesh_b.normals[pairs[:, 1]], delta)
    dist = np.linalg.norm(delta, axis=1)
    loss = float(np.sum(dist**2) if squared else np.sum(dist))
    return PenetrationReport(pairs, depths, loss)


def penetration_loss(params_clean: HandParam, params_anchor: HandParam,
                     model=None, squared: bool = True) -> float:
    """Penetration loss of a right hand (clean) against a left anchor."""
    model = model or default_hand()
    mesh_a = model.posed_mesh(params_clean)
    mesh_b = left_hand_mesh(params_anchor, model)
    return penetration_report(mesh_a, mesh_b, squared).loss


def apg_gradient(x_prev: np.ndarray, eps_hat: np.ndarray, t_prev: int,
                 anchor: HandParam, sched: DiffusionSchedule, model=None,
                 squared: bool = True, anchor_mesh: HandMesh | None = None):
    """d L_pen / d x_prev through the clean-estimate map and the kinematics.

    eps_hat is held constant, and so is the pair set: it is found once from
    the clean estimate and not differentiated. ``anchor_mesh``, when given,
    is the anchor's posed left-hand mesh, reused instead of rebuilt.
    Returns (gradient (64,), pairs used).
    """
    model = model or default_hand()
    sqrt_ab = float(np.sqrt(sched.alpha_bar[t_prev]))
    sqrt_1mab = float(np.sqrt(1.0 - sched.alpha_bar[t_prev]))
    x0_hat = HandParam((np.asarray(x_prev, dtype=float) - sqrt_1mab * eps_hat) / sqrt_ab)
    mesh_a = model.posed_mesh(x0_hat)
    if anchor_mesh is None:
        anchor_mesh = left_hand_mesh(anchor, model)
    pairs = penetration_set(mesh_a, anchor_mesh)
    if len(pairs) == 0:
        return np.zeros(64), pairs
    delta = mesh_a.vertices[pairs[:, 0]] - anchor_mesh.vertices[pairs[:, 1]]
    cot = np.zeros((model.n_vertices, 3))
    if squared:
        np.add.at(cot, pairs[:, 0], 2.0 * delta)
    else:
        norms = np.maximum(np.linalg.norm(delta, axis=1, keepdims=True), 1e-12)
        np.add.at(cot, pairs[:, 0], delta / norms)
    grad_x0 = kinematics_vjp(x0_hat, model, cot)
    return grad_x0 / sqrt_ab, pairs


def apg_step(x_prev: np.ndarray, eps_hat: np.ndarray, t_prev: int,
             anchor: HandParam, w_pen: float, sched: DiffusionSchedule,
             model=None, squared: bool = True,
             anchor_mesh: HandMesh | None = None) -> np.ndarray:
    """One anti-penetration descent step on x_prev; no-op when disjoint.

    A clean estimate whose root rotation cannot be orthonormalized (possible
    under untrained weights) is left unadjusted rather than failing the run.
    """
    x_prev = np.asarray(x_prev, dtype=float)
    if w_pen == 0.0:
        return x_prev
    try:
        grad, _ = apg_gradient(x_prev, eps_hat, t_prev, anchor, sched, model,
                               squared, anchor_mesh=anchor_mesh)
    except DegenerateRotation:
        return x_prev
    return x_prev - w_pen * grad


# ---------------------------------------------------------------------------
# Cascaded inference


@dataclass
class SampleResult:
    x_l: np.ndarray            # (N, 64)
    x_r: np.ndarray            # (N, 64)
    config: SampleConfig = field(repr=False, default=None)

    def pair(self, i: int):
        return HandParam(self.x_l[i].copy()), HandParam(self.x_r[i].copy())


def _reverse_pass(denoiser, x, cond, grid, sched, config, model,
                  object_embedding, anchors=None, anchor_meshes=None):
    n_steps = len(grid)
    for si, (t, t_prev) in enumerate(grid):
        tt = np.full(len(x), t)
        if config.w_cfg != 0.0 or anchors is None:
            x0_u = denoiser.predict(x, np.tile(IDENTITY_COND, (len(x), 1)),
                                    np.ones(len(x), dtype=bool), tt,
                                    object_embedding=object_embedding)
            eps_u = eps_from_x0(x, x0_u, t, sched)
        if anchors is None:
            eps = eps_u
        else:
            x0_c = denoiser.predict(x, cond, np.zeros(len(x), dtype=bool), tt,
                                    object_embedding=object_embedding)
            eps_c = eps_from_x0(x, x0_c, t, sched)
            eps = cfg_mix(eps_c, eps_u, config.w_cfg) if config.w_cfg != 0.0 else eps_c
        x = ddim_step(x, eps, t, t_prev, sched)
        if anchors is not None and config.apg:
            w = w_pen_at(n_steps - 1 - si, config.w_pen_start, config.w_pen_decay)
            for i in range(len(x)):
                x[i] = apg_step(x[i], eps[i], t_prev, anchors[i], w, sched,
                                model, config.pen_squared,
                                anchor_mesh=anchor_meshes[i])
    return x


def sample_pairs(denoiser, config: SampleConfig, sched: DiffusionSchedule,
                 model=None) -> SampleResult:
    """Draw ``config.count`` interacting pairs; pure in (weights, config)."""
    model = model or default_hand()
    grid = ddim_time_grid(sched.T, config.steps)
    B = config.count

    noise = np.empty((2, B, 64))
    for i in range(B):
        rng = rng_stream(config.seed, TAG_SAMPLE + i)
        noise[0, i] = rng.standard_normal(64)
        noise[1, i] = rng.standard_normal(64)

    object_embedding = None
    if getattr(denoiser, "config", None) is not None and denoiser.config.object_conditional:
        if config.object_points is None:
            from .errors import MissingObject

            raise MissingObject("object-conditional sampling needs object_points")
        object_embedding = np.tile(denoiser.embed_object(config.object_points), (B, 1))

    # Phase 1: unconditional anchor in canonical right-hand space.
    x = _reverse_pass(denoiser, noise[0].copy(), None, grid, sched,
                      config, model, object_embedding)
    x_l = np.empty((B, 64))
    for i in range(B):
        anchor = HandParam(x[i])
        if object_embedding is None:
            # Unconditional roots are unsupervised; only the relative
            # transform is meaningful, so the anchor frame is canonical.
            anchor = pin_root(anchor)
        x_l[i] = mirror(anchor).vector

    # Phase 2: conditional partner with CFG and optional APG.
    anchors = [HandParam(x_l[i].copy()) for i in range(B)]
    anchor_meshes = None
    if config.apg:
        anchor_meshes = []
        for a in anchors:
            try:
                anchor_meshes.append(left_hand_mesh(a, model))
            except DegenerateRotation:
                anchor_meshes.append(None)
    x_r = _reverse_pass(denoiser, noise[1].copy(), x_l.copy(), grid, sched,
                        config, model, object_embedding, anchors, anchor_meshes)
    return SampleResult(x_l=x_l, x_r=x_r, config=config)


def sample_pair(denoiser, config: SampleConfig, sched: DiffusionSchedule,
                model=None):
    """Single (x_l, x_r) draw; equivalent to sample_pairs with count=1."""
    cfg = SampleConfig(**{**config.__dict__, "count": 1})
    result = sample_pairs(denoiser, cfg, sched, model)
    return result.pair(0)
