"""Plug-in pair regularizer: one frozen forward-reverse diffusion step.

The trained denoiser acts as a critic: both hands are mapped into canonical
right-hand space, diffused to a fixed time, denoised in one batched forward
(each conditioned on the other), and mapped back. The loss is the distance
between the denoised pair and the current pair. The critic is frozen: no
gradient ever reaches the network weights; the returned gradients are with
respect to the pair only, with the critic output treated as constant.

Every function is pure and broadcasts over pairs: (..., 64) hands with
(..., 2, 64) noise. The caller owns the noise, as the optimiser that owns the
loop does in score distillation; a fresh draw per call is its choice.
"""

from __future__ import annotations

import numpy as np

from .diffusion import DiffusionSchedule, forward_diffuse, orient
from .errors import ShapeMismatch
from .hand_model import DIM, HandParam, compose_root, mirror, reroot_pair

T_REG_DIVISOR = 8     # t_reg defaults to round(T / 8)


def forward_reverse_step(denoiser, sched: DiffusionSchedule, x_l: HandParam,
                         x_r: HandParam, t_reg: int, noise: np.ndarray):
    """Diffuse both hands to t_reg and denoise each conditioned on the other.

    Row 0 of each pair's ``noise`` perturbs the right-hand direction, row 1
    the mirrored left-hand direction. One ``predict`` denoises all 2B rows,
    pair i's right-hand row followed by its mirrored row. Returns
    (x_l_hat, x_r_hat) in the input frames.
    """
    noise = np.asarray(noise, dtype=float)
    lead = x_l.vector.shape[:-1]
    if noise.shape != (*lead, 2, DIM):
        raise ShapeMismatch(f"pairs {lead} need noise {(*lead, 2, DIM)}, got {noise.shape}")
    target, cond = orient(HandParam(x_l.vector[..., None, :]),
                          HandParam(x_r.vector[..., None, :]), [False, True])
    rel, cond_pinned = reroot_pair(target, cond)
    diffused = forward_diffuse(rel.vector, t_reg, noise, sched).reshape(-1, DIM)
    denoised = denoiser.predict(diffused, cond_pinned.vector.reshape(-1, DIM), None,
                                np.full(len(diffused), t_reg))
    hat = compose_root(cond, HandParam(denoised.reshape(noise.shape)))
    # Row 1 was denoised in mirrored space; mirror is its own inverse.
    return mirror(HandParam(hat.vector[..., 1, :])), HandParam(hat.vector[..., 0, :])


def reg_loss_and_grad(denoiser, sched: DiffusionSchedule, x_l: HandParam,
                      x_r: HandParam, noise: np.ndarray, t_reg: int | None = None):
    """(loss, d loss/d x_l, d loss/d x_r) per pair, shapes (...), (..., 64) and
    (..., 64); loss = |critic pair - pair|, critic detached. A pair the critic
    reproduces (loss below 1e-12) gets zero gradients."""
    t_reg = int(round(sched.T / T_REG_DIVISOR)) if t_reg is None else t_reg
    if not 1 <= t_reg <= sched.T:
        raise ValueError(f"t_reg must be in [1, T], got {t_reg}")
    x_l_hat, x_r_hat = forward_reverse_step(denoiser, sched, x_l, x_r, t_reg, noise)
    diff = np.concatenate([x_l_hat.vector - x_l.vector,
                           x_r_hat.vector - x_r.vector], axis=-1)
    # One BLAS dot per pair: the sum np.linalg.norm takes of a single vector.
    loss = np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])
    fixed = loss[..., None] < 1e-12
    grad = np.where(fixed, 0.0, -diff / np.where(fixed, 1.0, loss[..., None]))
    return loss, grad[..., :DIM], grad[..., DIM:]


def descend(denoiser, sched: DiffusionSchedule, x_l: HandParam, x_r: HandParam,
            steps: int, lr: float, noise: np.ndarray, t_reg: int | None = None):
    """Plain gradient descent on the pairs with one noise draw at every step;
    returns (x_l, x_r, losses), losses (steps + 1, ...)."""
    x_l, x_r = x_l.copy(), x_r.copy()
    losses = []
    for _ in range(steps):
        loss, g_l, g_r = reg_loss_and_grad(denoiser, sched, x_l, x_r, noise, t_reg)
        losses.append(loss)
        x_l.vector[:] -= lr * g_l
        x_r.vector[:] -= lr * g_r
    losses.append(reg_loss_and_grad(denoiser, sched, x_l, x_r, noise, t_reg)[0])
    return x_l, x_r, np.array(losses)
