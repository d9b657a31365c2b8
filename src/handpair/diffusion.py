"""Noise schedule, diffusion algebra, and the dropout-augmented training loop.

The model predicts the clean vector x0; eps_from_x0 bridges predictions into
noise space for guidance mixing and the deterministic DDIM update.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyDataset, InvalidSchedule, NonFiniteLoss, ScheduleSingularity
from .hand_model import OMEGA, TAU, HandParam, mirror, reroot_pair
from .nn import rng_stream


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
    values = np.asarray(values, dtype=float)
    if values.ndim == 0 or np.ndim(x) <= 1:
        return values
    return values.reshape(-1, *([1] * (np.ndim(x) - 1)))


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


def x0_from_eps(x_t, eps_hat, t, sched: DiffusionSchedule):
    """Clean estimate implied by a noise estimate at time t."""
    x_t = np.asarray(x_t, dtype=float)
    return (x_t - _coef(sched.sqrt_1mab(t), x_t) * np.asarray(eps_hat, dtype=float)) \
        / _coef(sched.sqrt_ab(t), x_t)


def ddim_step(x_t, eps_hat, t: int, t_prev: int, sched: DiffusionSchedule):
    """Deterministic reverse update (eta = 0) from time t to t_prev < t."""
    if not 0 <= t_prev < t <= sched.T:
        raise InvalidSchedule(f"need 0 <= t_prev < t <= T, got ({t_prev}, {t})")
    x0_hat = x0_from_eps(x_t, eps_hat, t, sched)
    return _coef(sched.sqrt_ab(t_prev), x_t) * x0_hat \
        + _coef(sched.sqrt_1mab(t_prev), x_t) * np.asarray(eps_hat, dtype=float)


def ddim_time_grid(T: int, num_steps: int) -> list[tuple[int, int]]:
    """(t, t_prev) pairs: a uniform stride over [T..1], ending at t_prev=0."""
    ts = np.unique(np.round(np.linspace(T, 1, num_steps)).astype(int))[::-1]
    ts = ts[ts >= 1]
    pairs = [(int(ts[i]), int(ts[i + 1])) for i in range(len(ts) - 1)]
    pairs.append((int(ts[-1]), 0))
    return pairs


# ---------------------------------------------------------------------------
# Training (conditioning-hand dropout, mirrored-orientation augmentation)


@dataclass
class TrainConfig:
    epochs: int = 80
    batch_size: int = 256
    lr: float = 2e-4
    lr_decay: float = 0.9
    lr_decay_every: int = 20
    p_uncond: float = 0.5
    T: int = 256
    beta1: float = 1e-4
    betaT: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p_uncond <= 1.0:
            raise ValueError(f"p_uncond must be in [0,1], got {self.p_uncond}")

    def schedule(self) -> DiffusionSchedule:
        return make_schedule(self.T, self.beta1, self.betaT)


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
    trainable = hasattr(denoiser, "backward")
    opt = denoiser.new_optimizer() if trainable else None
    steps_per_epoch = max(1, n // config.batch_size)
    batch = min(config.batch_size, n)
    has_objects = getattr(dataset, "has_objects", False)

    result = TrainResult()
    dropped = 0
    total = 0
    step = 0
    for epoch in range(config.epochs):
        lr = config.lr * config.lr_decay ** (epoch // config.lr_decay_every)
        losses = []
        for _ in range(steps_per_epoch):
            rng = rng_stream(config.seed, step)
            idx = rng.integers(0, n, size=batch)
            flip = rng.random(batch) < 0.5
            drop = rng.random(batch) < config.p_uncond
            t = rng.integers(1, config.T + 1, size=batch)
            eps = rng.standard_normal((batch, 64))

            targets, conds = assemble_batch(dataset, idx, flip)
            objects = dataset.objects(idx) if has_objects else None
            x_t = forward_diffuse(targets, t, eps, sched)
            # A dropped row's target root is relative to a condition the
            # network does not see, so the loss skips that block.
            mask = np.ones((batch, 64))
            mask[drop, OMEGA.start:TAU.stop] = 0.0

            cache = {}
            pred = denoiser.predict(x_t, conds, drop, t, objects=objects, rng=rng, cache=cache)
            denom = mask.sum()
            loss = float(np.sum(mask * (pred - targets) ** 2) / denom)
            if not np.isfinite(loss):
                raise NonFiniteLoss(
                    f"step {step}: non-finite loss on records {np.unique(idx)[:16].tolist()}")
            if trainable:
                grads = denoiser.backward(2.0 * mask * (pred - targets) / denom, cache)
                opt.step(denoiser.params, grads, lr)

            losses.append(loss)
            dropped += int(drop.sum())
            total += batch
            step += 1
        result.epoch_losses.append(float(np.mean(losses)))
    result.steps = step
    result.dropped_fraction = dropped / total if total else 0.0
    return result
