"""Noise schedule, diffusion algebra, and the dropout-augmented training loop.

The model predicts the clean vector x0. The sampler mixes guidance in x0 and
ddim_step steps from x0, dividing by sqrt(1 - alpha_bar_t) only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyDataset, InvalidSchedule, NonFiniteLoss, ScheduleSingularity
from .hand_model import DIM, OMEGA, TAU, HandParam, mirror, negate_x, reroot_pair
from .nn import rng_stream
from .rotations import rot6d_to_matrix


@dataclass(frozen=True)
class DiffusionSchedule:
    """Linear beta schedule with cumulative products alpha_bar[0..T]."""

    T: int
    beta: np.ndarray        # (T,)
    alpha_bar: np.ndarray   # (T+1,), alpha_bar[0] = 1

    def sqrt_ab(self, t):
        return np.sqrt(self.alpha_bar[t])

    def sqrt_1mab(self, t):
        return np.sqrt(1.0 - self.alpha_bar[t])


def make_schedule(T: int = 256, beta1: float = 1e-4, betaT: float = 0.01) -> DiffusionSchedule:
    if T < 1:
        raise InvalidSchedule(f"T must be >= 1, got {T}")
    if not (0.0 < beta1 <= betaT < 1.0):
        raise InvalidSchedule(f"need 0 < beta1 <= betaT < 1, got ({beta1}, {betaT})")
    beta = np.linspace(beta1, betaT, T)
    alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - beta)])
    return DiffusionSchedule(T, beta, alpha_bar)


def _coef(values, x):
    """Per-time values with a unit axis appended for each trailing axis of x,
    so times of shape (...) scale hands of shape (..., 64)."""
    values = np.asarray(values, dtype=float)
    return values.reshape(values.shape + (1,) * max(np.ndim(x) - values.ndim, 0))


def forward_diffuse(x0, t, eps, sched: DiffusionSchedule):
    """x_t = sqrt(alpha_bar_t) x0 + sqrt(1 - alpha_bar_t) eps."""
    return _coef(sched.sqrt_ab(t), x0) * np.asarray(x0, dtype=float) \
        + _coef(sched.sqrt_1mab(t), eps) * np.asarray(eps, dtype=float)


def eps_from_x0(x_t, x0_hat, t, sched: DiffusionSchedule):
    """Recover the implied noise from a clean estimate at time t."""
    ab = np.asarray(sched.alpha_bar[t], dtype=float)
    if np.any(ab >= 1.0 - 1e-12):
        raise ScheduleSingularity(f"alpha_bar at t={t} is within 1e-12 of 1")
    x_t = np.asarray(x_t, dtype=float)
    return (x_t - _coef(np.sqrt(ab), x_t) * np.asarray(x0_hat, dtype=float)) \
        / _coef(np.sqrt(1.0 - ab), x_t)


def ddim_step(x_t, x0_hat, t: int, t_prev: int, sched: DiffusionSchedule):
    """Deterministic reverse update (eta = 0) from t to t_prev < t: with eps the
    noise x0_hat implies at t, sqrt(ab_prev) x0_hat + sqrt(1 - ab_prev) eps."""
    if not 0 <= t_prev < t <= sched.T:
        raise InvalidSchedule(f"need 0 <= t_prev < t <= T, got ({t_prev}, {t})")
    eps = eps_from_x0(x_t, x0_hat, t, sched)
    return _coef(sched.sqrt_ab(t_prev), eps) * np.asarray(x0_hat, dtype=float) \
        + _coef(sched.sqrt_1mab(t_prev), eps) * eps


def ddim_time_grid(T: int, num_steps: int) -> list[tuple[int, int]]:
    """(t, t_prev) pairs: a uniform stride over [T..1], ending at t_prev=0."""
    ts = np.unique(np.round(np.linspace(T, 1, num_steps)).astype(int))[::-1]
    ts = ts[ts >= 1]
    pairs = [(int(ts[i]), int(ts[i + 1])) for i in range(len(ts) - 1)]
    pairs.append((int(ts[-1]), 0))
    return pairs


# ---------------------------------------------------------------------------
# Training (conditioning-hand dropout, mirrored-orientation augmentation)


LR_DECAY = 0.9          # factor on the learning rate after every LR_DECAY_EVERY epochs
LR_DECAY_EVERY = 20     # epochs between learning-rate decays


@dataclass
class TrainConfig:
    epochs: int = 80
    batch_size: int = 256
    lr: float = 2e-4
    p_uncond: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p_uncond <= 1.0:
            raise ValueError(f"p_uncond must be in [0,1], got {self.p_uncond}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")

    def schedule(self) -> DiffusionSchedule:
        """The noise schedule training uses: make_schedule's defaults."""
        return make_schedule()


@dataclass
class TrainResult:
    epoch_losses: list[float] = field(default_factory=list)
    steps: int = 0
    dropped_fraction: float = 0.0


def orient(x_l: HandParam, x_r: HandParam, flip):
    """(target, cond) per row: flip False gives (x_r | x_l), True gives the
    mirrored pair (mirror(x_l) | mirror(x_r)). Broadcasts over rows."""
    flip = np.asarray(flip, dtype=bool)[..., None]
    target = np.where(flip, mirror(x_l).vector, x_r.vector)
    cond = np.where(flip, mirror(x_r).vector, x_l.vector)
    return HandParam(target), HandParam(cond)


def assemble_batch(dataset, idx, flip_mask):
    """Orient each sampled pair, then re-root it into the condition frame.

    Targets carry the relative root transform after re-rooting; conditions
    are identity-rooted.
    """
    target, cond = reroot_pair(*orient(*dataset.pair(idx), flip_mask))
    return target.vector, cond.vector


def assemble_objects(dataset, idx, flip_mask):
    """Each sampled pair's object cloud (B, N, 3), carried as assemble_batch
    carries its hands: x negated on a flipped row, then into the frame of
    the condition's root (R_c, tau_c) before it is pinned, (o - tau_c) R_c."""
    cond = orient(*dataset.pair(idx), flip_mask)[1]
    clouds = dataset.objects(idx)
    flip = np.asarray(flip_mask, dtype=bool)
    clouds[flip] = negate_x(clouds[flip])
    return (clouds - cond.tau[:, None, :]) @ rot6d_to_matrix(cond.omega)


def train(dataset, denoiser, config: TrainConfig) -> TrainResult:
    """Optimize the denoiser on two-hand pairs per the dropout recipe.

    Every step draws its batch indices, orientation coins, dropout coins,
    times, and noise from a generator keyed on (seed, step), so the stream
    is reproducible regardless of how batches are assembled.
    """
    n = len(dataset)
    if n == 0:
        raise EmptyDataset("training requires at least one pair")
    sched = config.schedule()
    opt = denoiser.new_optimizer()
    steps_per_epoch = max(1, n // config.batch_size)
    batch = min(config.batch_size, n)

    result = TrainResult()
    dropped = 0
    total = 0
    step = 0
    for epoch in range(config.epochs):
        lr = config.lr * LR_DECAY ** (epoch // LR_DECAY_EVERY)
        losses = []
        for _ in range(steps_per_epoch):
            rng = rng_stream(config.seed, step)
            idx = rng.integers(0, n, size=batch)
            flip = rng.random(batch) < 0.5
            drop = rng.random(batch) < config.p_uncond
            t = rng.integers(1, sched.T + 1, size=batch)
            eps = rng.standard_normal((batch, DIM))

            targets, conds = assemble_batch(dataset, idx, flip)
            objects = assemble_objects(dataset, idx, flip) if dataset.has_objects else None
            x_t = forward_diffuse(targets, t, eps, sched)
            # A dropped row's target root is relative to a condition the
            # network does not see, so the loss skips that block.
            mask = np.ones((batch, DIM))
            mask[drop, OMEGA.start:TAU.stop] = 0.0

            cache = {}
            pred = denoiser.predict(x_t, conds, drop, t, objects=objects, rng=rng, cache=cache)
            denom = mask.sum()
            loss = float(np.sum(mask * (pred - targets) ** 2) / denom)
            if not np.isfinite(loss):
                raise NonFiniteLoss(
                    f"step {step}: non-finite loss on records {np.unique(idx)[:16].tolist()}")
            # Each part's weights step as soon as its gradient is final,
            # so one part's gradients are alive at a time, not the whole net's.
            denoiser.backward(2.0 * mask * (pred - targets) / denom, cache,
                              lambda part: opt.step(denoiser.params, part, lr))

            losses.append(loss)
            dropped += int(drop.sum())
            total += batch
            step += 1
        result.epoch_losses.append(float(np.mean(losses)))
    result.steps = step
    result.dropped_fraction = dropped / total if total else 0.0
    return result
