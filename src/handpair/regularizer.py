"""Plug-in pair regularizer: one frozen forward-reverse diffusion step.

The trained denoiser acts as a critic: both hands are mapped into canonical
right-hand space, diffused to a fixed time, denoised in one batched forward
(each conditioned on the other), and mapped back. The loss is the distance
between the denoised pair and the current pair. The critic is frozen: no
gradient ever reaches the network weights; the returned gradients are with
respect to the pair only, with the critic output treated as constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import DiffusionSchedule, forward_diffuse, orient
from .hand_model import DIM, HandParam, compose_root, mirror, reroot_pair
from .nn import TAG_REG, rng_stream


@dataclass
class RegularizerConfig:
    t_reg: int | None = None      # default: round(T / 8)
    noise_mode: str = "fresh"     # "fresh" draws per call_index; "fixed" reuses one draw
    seed: int = 0

    def __post_init__(self):
        if self.noise_mode not in ("fresh", "fixed"):
            raise ValueError(f"noise_mode must be 'fresh' or 'fixed', got {self.noise_mode!r}")

    def resolve_t(self, sched: DiffusionSchedule) -> int:
        t = self.t_reg if self.t_reg is not None else int(round(sched.T / 8))
        if not 1 <= t <= sched.T:
            raise ValueError(f"t_reg must be in [1, T], got {t}")
        return t


def forward_reverse_step(denoiser, sched: DiffusionSchedule, x_l: HandParam,
                         x_r: HandParam, t_reg: int, noise: np.ndarray):
    """Diffuse both hands to t_reg and denoise each conditioned on the other.

    Row 0 of ``noise`` perturbs the right-hand direction, row 1 the mirrored
    left-hand direction. Returns (x_l_hat, x_r_hat) in the input frames.
    """
    target, cond = orient(x_l, x_r, [False, True])
    rel, cond_pinned = reroot_pair(target, cond)
    t = np.array([t_reg, t_reg])
    diffused = forward_diffuse(rel.vector, t, noise, sched)
    denoised = denoiser.predict(diffused, cond_pinned.vector, np.zeros(2, dtype=bool), t)
    hat = compose_root(cond, HandParam(denoised))
    # Row 1 was denoised in mirrored space; mirror is its own inverse.
    return mirror(HandParam(hat.vector[1])), HandParam(hat.vector[0])


def reg_loss_and_grad(denoiser, sched: DiffusionSchedule, x_l: HandParam,
                      x_r: HandParam,
                      config: RegularizerConfig = RegularizerConfig(),
                      noise: np.ndarray | None = None, call_index: int = 0):
    """(loss, d loss/d x_l, d loss/d x_r); loss = |critic pair - pair|, critic detached."""
    t_reg = config.resolve_t(sched)
    if noise is None:
        tag = TAG_REG if config.noise_mode == "fixed" else TAG_REG + 1 + call_index
        noise = rng_stream(config.seed, tag).standard_normal((2, DIM))
    x_l_hat, x_r_hat = forward_reverse_step(denoiser, sched, x_l, x_r, t_reg, noise)
    diff = np.concatenate([x_l_hat.vector - x_l.vector,
                           x_r_hat.vector - x_r.vector])
    loss = float(np.linalg.norm(diff))
    if loss < 1e-12:
        return loss, np.zeros(DIM), np.zeros(DIM)
    grad = -diff / loss          # d||s - x||/dx with s held constant
    return loss, grad[:DIM], grad[DIM:]


def descend(denoiser, sched: DiffusionSchedule, x_l: HandParam, x_r: HandParam,
            steps: int, lr: float,
            config: RegularizerConfig = RegularizerConfig()):
    """Plain gradient descent on the pair; returns (x_l, x_r, per-step losses)."""
    x_l, x_r = x_l.copy(), x_r.copy()
    losses = []
    for s in range(steps):
        loss, g_l, g_r = reg_loss_and_grad(denoiser, sched, x_l, x_r, config,
                                           call_index=s)
        losses.append(loss)
        x_l.vector[:] -= lr * g_l
        x_r.vector[:] -= lr * g_r
    losses.append(reg_loss_and_grad(denoiser, sched, x_l, x_r, config,
                                    call_index=steps)[0])
    return x_l, x_r, losses
