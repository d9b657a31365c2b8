import numpy as np
import pytest

from handpair.backbone import BackboneConfig, FeatureBackbone, regression_target, train_backbone
from handpair.checkpoint import checksum
from handpair.data import generate_synthetic, split_indices, two_mode_spec
from handpair.hand_model import pair_segments
from handpair.mesh import sample_surface_points
from handpair.pointset import MIN_POINTS


@pytest.fixture(scope="module")
def dataset():
    return generate_synthetic(two_mode_spec(count=48))


def _train(dataset, seed):
    return train_backbone(dataset, BackboneConfig(n_surface=128, epochs=2, batch_size=16,
                                                  seed=seed))


def test_backbone_validation_loss_falls_and_seed_fixes_weights(dataset):
    bb = _train(dataset, seed=0)
    curve = bb.val_loss_curve
    assert len(curve) == 3
    assert all(later < earlier for earlier, later in zip(curve, curve[1:]))
    assert checksum(_train(dataset, seed=0).params) == checksum(bb.params)
    assert checksum(_train(dataset, seed=1).params) != checksum(bb.params)


class _RecordingOptimizer:
    """Stands in for Adam: keeps the gradients train_step hands it and moves
    no weight."""

    def step(self, params, grads, lr):
        self.grads = {name: g.copy() for name, g in grads.items()}


def test_train_step_gradients_match_central_differences(dataset, hand_model):
    # On a float64 twin, so central differences resolve the gradients well
    # below float32 rounding. The loss is piecewise smooth: a ReLU or a
    # max-pool argmax switches at kinks, dense for the first-level biases,
    # which shift every grouped row. Each entry takes the largest step h
    # whose forward and backward quotients agree, so no kink that matters
    # lies within +-h.
    config = BackboneConfig(feature_dim=16, n_surface=64)
    weights = FeatureBackbone(config).params
    bb = FeatureBackbone(config, params={k: v.astype(float) for k, v in weights.items()})
    x_l, x_r = dataset.pair(np.arange(3))
    clouds = sample_surface_points(*pair_segments(x_l, x_r, hand_model), config.n_surface, 0)
    targets = regression_target(x_l, x_r)
    opt = _RecordingOptimizer()
    loss = bb.train_step(clouds, targets, opt, config.lr)

    def loss_at(w, i, value):
        saved, w[i] = w[i], value
        out = float(((bb.predict(clouds) - targets) ** 2).mean())
        w[i] = saved
        return out

    def central_difference(w, i):
        base = loss_at(w, i, w[i])
        for h in (1e-6, 1e-7, 1e-8, 1e-9):
            up, down = loss_at(w, i, w[i] + h), loss_at(w, i, w[i] - h)
            forward, backward = (up - base) / h, (base - down) / h
            if abs(forward - backward) <= 1e-5 * max(abs(forward), abs(backward)) + 1e-8:
                return (up - down) / (2 * h)
        raise AssertionError(f"no step h without a kink at entry {i}")

    assert loss_at(bb.params["bb_reg.b"], 0, bb.params["bb_reg.b"][0]) == \
        pytest.approx(loss, rel=1e-12)
    rng = np.random.default_rng(0)
    nonzero = 0
    for name in ("bb_reg.W", "bb_reg.b", "bb.head.W", "bb.head.b", "bb.sa1.mlp0.W",
                 "bb.sa1.mlp0.b", "bb.sa1.mlp1.W", "bb.sa1.mlp1.b", "bb.sa2.mlp0.W",
                 "bb.sa2.mlp0.b", "bb.sa2.mlp1.W", "bb.sa2.mlp1.b"):
        w, grad = bb.params[name], opt.grads[name]
        assert grad.shape == w.shape and grad.dtype == np.float64
        for flat in rng.choice(w.size, size=4, replace=False):
            i = np.unravel_index(flat, w.shape)
            fd = central_difference(w, i)
            assert abs(grad[i] - fd) <= 1e-8 + 1e-5 * abs(fd), (name, i, grad[i], fd)
            nonzero += grad[i] != 0.0
    assert nonzero >= 24     # most sampled entries carry a gradient


# Before the checks, batch_size 0 and feature_dim 0 raised ZeroDivisionError
# inside train_backbone and a NaN lr trained to NaN weights; val_fraction 1.0
# split 8 records [0, 8, 0], so every step trained on 0 rows to a NaN loss
# and the weights never moved; and n_surface 8 raised TooFewPoints only
# after every cloud had been drawn.
@pytest.mark.parametrize("field, value", [
    ("batch_size", 0), ("feature_dim", 0), ("epochs", -1),
    ("lr", 0.0), ("lr", -1e-3), ("lr", np.nan), ("lr", np.inf),
    ("val_fraction", 1.0), ("val_fraction", -0.1), ("val_fraction", np.nan),
    ("n_surface", MIN_POINTS - 1),
])
def test_config_rejects_a_value_training_cannot_use(field, value):
    with pytest.raises(ValueError, match=field):
        BackboneConfig(**{field: value})


def test_every_val_fraction_below_one_trains_on_some_rows(dataset):
    # The split's leftover rows go to training first, so any fraction below
    # 1 leaves a training row, and training moves the validation loss.
    BackboneConfig(val_fraction=0.0, n_surface=MIN_POINTS)
    for n in range(1, 40):
        for f in (0.15, 0.5, 0.9, 0.99, np.nextafter(1.0, 0.0)):
            train_idx, val_idx, _ = split_indices(n, (1.0 - f, f, 0.0))
            assert len(train_idx) >= 1 and len(train_idx) + len(val_idx) == n, (n, f)
    config = BackboneConfig(feature_dim=16, n_surface=64, epochs=2, batch_size=4,
                            val_fraction=0.99)
    curve = train_backbone(dataset.subset(np.arange(8)), config).val_loss_curve
    assert np.isfinite(curve).all() and curve[0] != curve[-1]
