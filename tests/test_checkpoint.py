"""Round trips of the serialized denoiser and feature backbone."""

import numpy as np

from handpair.backbone import BackboneConfig, FeatureBackbone, load_backbone, save_backbone
from handpair.checkpoint import load_denoiser, save_denoiser
from handpair.denoiser import Denoiser, DenoiserConfig
from handpair.diffusion import make_schedule


def test_denoiser_round_trip_is_float32_exact(tmp_path):
    den = Denoiser(DenoiserConfig("small"), seed=3)
    sched = make_schedule(128, 2e-4, 0.02)
    save_denoiser(tmp_path / "a", den, sched)
    loaded, loaded_sched, manifest = load_denoiser(tmp_path / "a")
    assert manifest["kind"] == "denoiser"
    assert loaded.config == den.config
    assert sorted(loaded.params) == sorted(den.params)
    # Weights are stored as float32, so the reload is the float32 rounding.
    for name, value in den.params.items():
        np.testing.assert_array_equal(loaded.params[name], value.astype("<f4").astype(float))
    np.testing.assert_array_equal(loaded_sched.alpha_bar, sched.alpha_bar)
    save_denoiser(tmp_path / "b", loaded, loaded_sched)
    assert (tmp_path / "b" / "weights.f32").read_bytes() == \
        (tmp_path / "a" / "weights.f32").read_bytes()


def test_backbone_round_trip_keeps_config_curve_and_checksum(tmp_path):
    config = BackboneConfig(feature_dim=32, n_surface=64, epochs=3, batch_size=8, lr=5e-4,
                            val_fraction=0.2, seed=7)
    bb = FeatureBackbone(config)
    bb.val_loss_curve = [0.75, 0.3125, 0.1]
    save_backbone(tmp_path, bb)
    loaded = load_backbone(tmp_path)
    assert loaded.config == config
    assert loaded.val_loss_curve == bb.val_loss_curve
    assert loaded.checksum() == bb.checksum()
