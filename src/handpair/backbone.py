"""Two-hand feature backbone: a point-cloud network regressing pose targets.

The network maps a surface point cloud of an interacting pair to
[theta_l (45) | theta_r (45) | relative root rotation 6D (6) | relative
root translation (3)] = 99 values. Features for the distribution metrics
are the penultimate activations (dimension recorded in the manifest).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import Dataset, split
from .errors import EmptyDataset, LayoutMismatch
from .hand_model import HandParam, default_hand, pair_meshes, relative_root
from .mesh import sample_surface_points
from .nn import TAG_INIT, Adam, Linear, relu_backward, relu_forward, rng_stream
from .pointset import PointSetEncoder

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
        if params is not None:
            self.params = params
        else:
            rng = rng_stream(config.seed, TAG_INIT + 1)
            self.params = {}
            self.encoder.init(self.params, rng)
            self.reg_head.init(self.params, rng)
        self.val_loss_curve: list[float] = []

    def features(self, clouds, cache=None) -> np.ndarray:
        """Penultimate activations (rectified encoder output), (B, feature_dim)."""
        enc = self.encoder.forward_batch(self.params, clouds, cache)
        return relu_forward(enc, "bb.feat_relu", cache)

    def predict(self, clouds) -> np.ndarray:
        feats = self.features(clouds)
        return feats @ self.params["bb_reg.W"] + self.params["bb_reg.b"]

    def train_step(self, clouds, targets, opt: Adam, lr: float) -> float:
        cache = {}
        feats = self.features(clouds, cache)
        pred = self.reg_head.forward(self.params, feats, cache)
        err = pred - targets
        loss = float((err**2).mean())
        grads: dict[str, np.ndarray] = {}
        dpred = 2.0 * err / err.size
        dfeats = self.reg_head.backward(self.params, grads, dpred, cache)
        dfeats = relu_backward(dfeats, "bb.feat_relu", cache)
        self.encoder.backward_batch(self.params, grads, dfeats, cache)
        opt.step(self.params, grads, lr)
        return loss

    def checksum(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.params):
            h.update(name.encode())
            h.update(np.ascontiguousarray(self.params[name], dtype="<f4").tobytes())
        return h.hexdigest()


def build_clouds(dataset: Dataset, n_points: int, model=None, seed: int = 0) -> np.ndarray:
    """Surface clouds for every record, keyed per index for determinism."""
    model = model or default_hand()
    clouds = np.empty((len(dataset), n_points, 3))
    for i in range(len(dataset)):
        x_l, x_r = dataset.pair(i)
        clouds[i] = sample_surface_points(pair_meshes(x_l, x_r, model), n_points,
                                          seed=seed + i)
    return clouds


def train_backbone(dataset: Dataset, config: BackboneConfig = BackboneConfig(),
                   model=None) -> FeatureBackbone:
    """Fit the regression backbone; records the validation loss per epoch.

    The epoch-0 entry of ``val_loss_curve`` is the untrained loss, so the
    improvement factor is curve[0] / curve[-1].
    """
    if len(dataset) == 0:
        raise EmptyDataset("backbone training requires data")
    model = model or default_hand()
    bb = FeatureBackbone(config)
    clouds = build_clouds(dataset, config.n_surface, model, seed=config.seed)
    targets = regression_target(*dataset.pair(np.arange(len(dataset))))

    train_frac = 1.0 - config.val_fraction
    train_ds, val_ds = split(dataset, (train_frac, config.val_fraction, 0.0),
                             seed=config.seed)[:2]
    train_idx = _subset_indices(dataset, train_ds)
    val_idx = _subset_indices(dataset, val_ds)
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
            rng = rng_stream(config.seed, (1 << 32) + step)
            pick = rng.choice(train_idx, size=min(config.batch_size, len(train_idx)),
                              replace=False)
            bb.train_step(clouds[pick], targets[pick], opt, config.lr)
            step += 1
        bb.val_loss_curve.append(val_loss())
    return bb


def _subset_indices(dataset: Dataset, subset: Dataset) -> np.ndarray:
    """Recover row indices of ``subset`` inside ``dataset`` (exact rows)."""
    lookup = {row.tobytes(): i for i, row in enumerate(dataset.params)}
    return np.array([lookup[row.tobytes()] for row in subset.params], dtype=np.int64)


def save_backbone(path, backbone: FeatureBackbone) -> None:
    save_checkpoint(path, backbone.params, {
        "kind": "backbone",
        "feature_dim": backbone.config.feature_dim,
        "n_surface": backbone.config.n_surface,
        "val_loss_curve": [float(v) for v in backbone.val_loss_curve],
        "config": {"epochs": backbone.config.epochs,
                   "batch_size": backbone.config.batch_size,
                   "lr": backbone.config.lr,
                   "val_fraction": backbone.config.val_fraction,
                   "seed": backbone.config.seed},
    })


def load_backbone(path) -> FeatureBackbone:
    tensors, manifest = load_checkpoint(path)
    if manifest.get("kind") != "backbone":
        raise LayoutMismatch(f"expected a backbone checkpoint, got {manifest.get('kind')!r}")
    config = BackboneConfig(feature_dim=int(manifest["feature_dim"]),
                            n_surface=int(manifest["n_surface"]),
                            **manifest.get("config", {}))
    bb = FeatureBackbone(config, params=tensors)
    bb.val_loss_curve = list(manifest.get("val_loss_curve", []))
    return bb
