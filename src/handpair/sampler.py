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

from dataclasses import dataclass

import numpy as np

from .diffusion import DiffusionSchedule, ddim_step, ddim_time_grid, eps_from_x0, x0_from_eps
from .errors import MissingObject
from .hand_model import (
    OMEGA,
    HandParam,
    default_hand,
    kinematics_vjp,
    left_hand_mesh,
    mirror,
    pin_root,
)
from .mesh import HandMesh
from .nn import TAG_SAMPLE, rng_stream
from .rotations import rot6d_degenerate

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
    delta: np.ndarray                 # (P, 3) A vertex minus its B vertex, meters
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
    _, nearest = mesh_b.tree.query(mesh_a.vertices, k=1)
    delta = mesh_a.vertices - mesh_b.vertices[nearest]
    depth = -np.einsum("ij,ij->i", mesh_b.normals[nearest], delta)
    idx = np.flatnonzero(depth > 0.0)
    return np.stack([idx, nearest[idx]], axis=1) if len(idx) else np.empty((0, 2), dtype=np.int64)


def penetration_report(mesh_a: HandMesh, mesh_b: HandMesh) -> PenetrationReport:
    """Pair set of A against B, with its offsets, depths and loss.

    The loss is sum |delta|^2 over the pairs, where delta is A's vertex
    minus its nearest B vertex; its gradient with respect to A's vertex i is
    2 delta on paired rows and 0 elsewhere. The pair set is held constant.
    """
    pairs = penetration_set(mesh_a, mesh_b)
    if len(pairs) == 0:
        return PenetrationReport(pairs, np.empty((0, 3)), np.empty(0), 0.0)
    delta = mesh_a.vertices[pairs[:, 0]] - mesh_b.vertices[pairs[:, 1]]
    depths = -np.einsum("ij,ij->i", mesh_b.normals[pairs[:, 1]], delta)
    loss = float(np.sum(np.linalg.norm(delta, axis=1) ** 2))
    return PenetrationReport(pairs, delta, depths, loss)


def penetration_loss(params_clean: HandParam, params_anchor: HandParam,
                     model=None) -> float:
    """Penetration loss of a right hand (clean) against a left anchor."""
    model = model or default_hand()
    mesh_a = model.posed_mesh(params_clean)
    mesh_b = left_hand_mesh(params_anchor, model)
    return penetration_report(mesh_a, mesh_b).loss


def apg_gradient(x_prev: np.ndarray, eps_hat: np.ndarray, t_prev: int,
                 anchor_meshes: list[HandMesh], sched: DiffusionSchedule,
                 model) -> np.ndarray:
    """d L_pen / d x_prev (B, 64) through the clean-estimate map and the kinematics.

    Row i of x_prev and eps_hat (B, 64) is a right hand whose loss is taken
    against anchor_meshes[i], the posed left-hand mesh of its anchor.
    eps_hat is held constant, and so is the pair set: it is found once from
    the clean estimate and not differentiated. All rows are posed in one
    call and differentiated in one call; only the pair set is found row by
    row. A row whose clean root rotation is rot6d_degenerate (possible under
    untrained weights) gets a zero gradient, as does a row with no pairs.
    ``model`` must be the one that posed the anchors.
    """
    x0_hat = x0_from_eps(x_prev, eps_hat, t_prev, sched)
    grad = np.zeros_like(x0_hat)
    ok = np.flatnonzero(~rot6d_degenerate(x0_hat[:, OMEGA]))
    verts = model.posed_vertices(HandParam(x0_hat[ok]))
    cot = np.zeros_like(verts)
    for r, i in enumerate(ok):
        report = penetration_report(HandMesh(verts[r], model.faces), anchor_meshes[i])
        cot[r, report.pairs[:, 0]] = 2.0 * report.delta
    active = cot.any(axis=(1, 2))    # rows with at least one pair
    if active.any():
        grad[ok[active]] = kinematics_vjp(HandParam(x0_hat[ok[active]]), model,
                                          cot[active]) / sched.sqrt_ab(t_prev)
    return grad


def apg_step(x_prev: np.ndarray, eps_hat: np.ndarray, t_prev: int,
             anchor_meshes: list[HandMesh], w_pen: float, sched: DiffusionSchedule,
             model) -> np.ndarray:
    """One anti-penetration descent step on every row of x_prev (B, 64).

    Rows that do not penetrate their anchor, and rows whose clean root
    rotation is degenerate, are returned unchanged; see apg_gradient.
    """
    x_prev = np.asarray(x_prev, dtype=float)
    if w_pen == 0.0:
        return x_prev
    return x_prev - w_pen * apg_gradient(x_prev, eps_hat, t_prev, anchor_meshes, sched, model)


# ---------------------------------------------------------------------------
# Cascaded inference


@dataclass
class SampleResult:
    x_l: np.ndarray            # (N, 64)
    x_r: np.ndarray            # (N, 64)

    def pair(self, i: int):
        return HandParam(self.x_l[i].copy()), HandParam(self.x_r[i].copy())


def _reverse_pass(denoiser, x, cond, grid, sched, config, model,
                  object_embedding, anchor_meshes=None):
    n_steps = len(grid)
    for si, (t, t_prev) in enumerate(grid):
        tt = np.full(len(x), t)
        if config.w_cfg != 0.0 or cond is None:
            x0_u = denoiser.predict(x, np.tile(IDENTITY_COND, (len(x), 1)),
                                    np.ones(len(x), dtype=bool), tt,
                                    object_embedding=object_embedding)
            eps_u = eps_from_x0(x, x0_u, t, sched)
        if cond is None:
            eps = eps_u
        else:
            x0_c = denoiser.predict(x, cond, np.zeros(len(x), dtype=bool), tt,
                                    object_embedding=object_embedding)
            eps_c = eps_from_x0(x, x0_c, t, sched)
            eps = cfg_mix(eps_c, eps_u, config.w_cfg) if config.w_cfg != 0.0 else eps_c
        x = ddim_step(x, eps, t, t_prev, sched)
        if anchor_meshes is not None:
            w = w_pen_at(n_steps - 1 - si, config.w_pen_start, config.w_pen_decay)
            x = apg_step(x, eps, t_prev, anchor_meshes, w, sched, model)
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
            raise MissingObject("object-conditional sampling needs object_points")
        object_embedding = np.tile(denoiser.embed_object(config.object_points), (B, 1))

    # Phase 1: unconditional anchor in canonical right-hand space.
    x = _reverse_pass(denoiser, noise[0].copy(), None, grid, sched,
                      config, model, object_embedding)
    anchor = HandParam(x)
    if object_embedding is None:
        # Unconditional roots are unsupervised; only the relative
        # transform is meaningful, so the anchor frame is canonical.
        anchor = pin_root(anchor)
    x_l = mirror(anchor).vector

    # Phase 2: conditional partner with CFG and optional APG.
    anchor_meshes = [left_hand_mesh(HandParam(row), model) for row in x_l] if config.apg else None
    x_r = _reverse_pass(denoiser, noise[1].copy(), x_l.copy(), grid, sched,
                        config, model, object_embedding, anchor_meshes)
    return SampleResult(x_l=x_l, x_r=x_r)

