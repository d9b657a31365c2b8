"""Two-hand feature backbone: a point-cloud network regressing pose targets.

The network maps a surface point cloud of an interacting pair to
[theta_l (45) | theta_r (45) | relative root rotation 6D (6) | relative
root translation (3)] = 99 values. Features for the distribution metrics
are the penultimate activations, BackboneConfig.feature_dim of them. Like
the denoiser, the network computes in the dtype of its weights, float32
when it draws them itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, split_indices
from .errors import EmptyDataset
from .hand_model import HandParam, default_hand, pair_segments, relative_root
from .mesh import sample_surface_points
from .nn import (TAG_BACKBONE_STEP, TAG_INIT, Adam, Linear, network_params, relu_backward,
                 relu_forward, rng_stream)
from .pointset import MIN_POINTS, PointSetEncoder

TARGET_DIM = 99


@dataclass(frozen=True)
class BackboneConfig:
    feature_dim: int = 128
    n_surface: int = 512
    epochs: int = 40
    batch_size: int = 32
    lr: float = 1e-3
    val_fraction: float = 0.15
    seed: int = 0

    def __post_init__(self):
        for name in ("feature_dim", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.n_surface < MIN_POINTS:
            raise ValueError(f"n_surface must be >= {MIN_POINTS}, got {self.n_surface}")
        # Below 1, the split's leftover rows go to training first, so at
        # least one record trains.
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in [0, 1), got {self.val_fraction}")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")


def regression_target(x_l: HandParam, x_r: HandParam) -> np.ndarray:
    omega_rel, tau_rel = relative_root(x_l, x_r)
    return np.concatenate([x_l.theta, x_r.theta, omega_rel, tau_rel], axis=-1)


class FeatureBackbone:
    def __init__(self, config: BackboneConfig = BackboneConfig(),
                 params: dict | None = None):
        self.config = config
        self.encoder = PointSetEncoder("bb", config.feature_dim,
                                       radii=(0.035, 0.10))
        self.reg_head = Linear("bb_reg", config.feature_dim, TARGET_DIM)
        self.params = network_params(self._init_params, params, config.seed, TAG_INIT + 1)
        self.val_loss_curve: list[float] = []

    def _init_params(self, rng) -> dict:
        params = {}
        self.encoder.init(params, rng)
        self.reg_head.init(params, rng)
        return params

    def features(self, clouds, cache=None) -> np.ndarray:
        """Penultimate activations (rectified encoder output), (B, feature_dim)."""
        enc = self.encoder.forward_one(self.params, clouds, cache)
        return relu_forward(enc, "bb.feat_relu", cache)

    def predict(self, clouds) -> np.ndarray:
        return self.reg_head.forward(self.params, self.features(clouds))

    def train_step(self, clouds, targets, opt: Adam, lr: float) -> float:
        cache = {}
        feats = self.features(clouds, cache)
        pred = self.reg_head.forward(self.params, feats, cache)
        err = pred - targets
        loss = float((err**2).mean())
        grads: dict[str, np.ndarray] = {}
        dpred = (2.0 * err / err.size).astype(pred.dtype, copy=False)
        dfeats = self.reg_head.backward(self.params, grads, dpred, cache)
        dfeats = relu_backward(dfeats, "bb.feat_relu", cache)
        self.encoder.backward_one(self.params, grads, dfeats, cache)
        opt.step(self.params, grads, lr)
        return loss


def train_backbone(dataset: Dataset, config: BackboneConfig = BackboneConfig(),
                   model=None) -> FeatureBackbone:
    """Fit the regression backbone; records the validation loss per epoch.

    The epoch-0 entry of ``val_loss_curve`` is the untrained loss, so the
    improvement factor is curve[0] / curve[-1]. When the split leaves no
    validation rows, as it does for n <= 6 records at the default
    val_fraction of 0.15, the curve is measured on the first tenth of the
    training rows (at least one), which training also fits.
    """
    if len(dataset) == 0:
        raise EmptyDataset("backbone training requires data")
    model = model or default_hand()
    bb = FeatureBackbone(config)
    x_l, x_r = dataset.pair(np.arange(len(dataset)))
    clouds = sample_surface_points(*pair_segments(x_l, x_r, model), config.n_surface, config.seed)
    targets = regression_target(x_l, x_r)

    fractions = (1.0 - config.val_fraction, config.val_fraction, 0.0)
    train_idx, val_idx, _ = split_indices(len(dataset), fractions, config.seed)
    if len(val_idx) == 0:
        val_idx = train_idx[: max(1, len(train_idx) // 10)]

    def val_loss():
        pred = bb.predict(clouds[val_idx])
        return float(((pred - targets[val_idx]) ** 2).mean())

    opt = Adam()
    bb.val_loss_curve = [val_loss()]
    steps_per_epoch = max(1, len(train_idx) // config.batch_size)
    step = 0
    for _ in range(config.epochs):
        for _ in range(steps_per_epoch):
            rng = rng_stream(config.seed, TAG_BACKBONE_STEP + step)
            pick = rng.choice(train_idx, size=min(config.batch_size, len(train_idx)),
                              replace=False)
            bb.train_step(clouds[pick], targets[pick], opt, config.lr)
            step += 1
        bb.val_loss_curve.append(val_loss())
    return bb
