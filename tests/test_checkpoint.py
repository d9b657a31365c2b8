"""Round trips and damage checks of the one on-disk artifact format."""

import json
import math

import numpy as np
import pytest

from handpair.backbone import BackboneConfig, FeatureBackbone
from handpair.checkpoint import (
    checksum,
    load_backbone,
    load_dataset,
    load_denoiser,
    save_backbone,
    save_dataset,
    save_denoiser,
)
from handpair.data import generate_synthetic, two_mode_spec
from handpair.denoiser import Denoiser, DenoiserConfig
from handpair.diffusion import make_schedule
from handpair.errors import ChecksumMismatch, LayoutMismatch
from handpair.metrics import dataset_features


def test_denoiser_round_trip_is_float32_exact(tmp_path):
    den = Denoiser(DenoiserConfig("small"), seed=3)
    sched = make_schedule(128, 2e-4, 0.02)
    save_denoiser(tmp_path / "a", den, sched)
    loaded, loaded_sched, manifest = load_denoiser(tmp_path / "a")
    assert manifest["kind"] == "denoiser"
    assert loaded.config == den.config
    assert sorted(loaded.params) == sorted(den.params)
    # The network holds float32 weights and the blob stores them as they are.
    for name, value in den.params.items():
        assert value.dtype == loaded.params[name].dtype == np.float32
        np.testing.assert_array_equal(loaded.params[name], value)
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
    assert checksum(loaded.params) == checksum(bb.params)


def test_backbone_round_trip_is_float32_exact(tmp_path, hand_model):
    bb = FeatureBackbone(BackboneConfig(feature_dim=32, n_surface=64))
    save_backbone(tmp_path, bb)
    loaded = load_backbone(tmp_path)
    assert sorted(loaded.params) == sorted(bb.params)
    for name, value in bb.params.items():
        assert value.dtype == loaded.params[name].dtype == np.float32
        np.testing.assert_array_equal(loaded.params[name], value)
    clouds = generate_synthetic(two_mode_spec(count=3, seed=4))
    assert dataset_features(clouds, loaded, hand_model, 0).tobytes() == \
        dataset_features(clouds, bb, hand_model, 0).tobytes()


# One writer and one reader per artifact kind, and another kind to swap in.
ARTIFACTS = {
    "denoiser": (lambda path: save_denoiser(path, Denoiser(DenoiserConfig("small")),
                                            make_schedule(16, 2e-4, 0.02)),
                 load_denoiser, "backbone"),
    "backbone": (lambda path: save_backbone(path, FeatureBackbone(BackboneConfig(32))),
                 load_backbone, "denoiser"),
    "dataset": (lambda path: save_dataset(path, generate_synthetic(
                    two_mode_spec(count=8, seed=1, with_objects=True))),
                load_dataset, "denoiser"),
}


@pytest.fixture(params=sorted(ARTIFACTS))
def artifact(request, tmp_path):
    """(directory, loader, other kind) of a saved artifact that loads cleanly."""
    save, load, other = ARTIFACTS[request.param]
    save(tmp_path)
    load(tmp_path)
    return tmp_path, load, other


def _edit_manifest(path, edit):
    manifest = json.loads((path / "manifest.json").read_text())
    edit(manifest)
    (path / "manifest.json").write_text(json.dumps(manifest))


def test_truncated_blob_rejected(artifact):
    path, load, _ = artifact
    blob = (path / "weights.f32").read_bytes()
    (path / "weights.f32").write_bytes(blob[:-16])
    with pytest.raises(LayoutMismatch):
        load(path)


def test_corrupted_blob_rejected(artifact):
    path, load, _ = artifact
    blob = bytearray((path / "weights.f32").read_bytes())
    blob[4] ^= 0xFF
    (path / "weights.f32").write_bytes(bytes(blob))
    with pytest.raises(ChecksumMismatch):
        load(path)


def test_swapped_kind_rejected(artifact):
    path, load, other = artifact
    _edit_manifest(path, lambda m: m.update(kind=other))
    with pytest.raises(LayoutMismatch):
        load(path)


def test_manifest_without_tensors_rejected(artifact):
    path, load, _ = artifact
    _edit_manifest(path, lambda m: m.pop("tensors"))
    with pytest.raises(LayoutMismatch):
        load(path)


def _tiling_negative_shape(manifest):
    """The first tensor's shape becomes [-1] and the second starts 4 bytes
    early and grows to end where it did, so the entries still tile the blob."""
    first, second = (manifest["tensors"][name] for name in sorted(manifest["tensors"])[:2])
    second["shape"] = [math.prod(first["shape"]) + math.prod(second["shape"]) + 1]
    first["shape"], second["offset"] = [-1], -4


# The cause is the error the loader mapped to LayoutMismatch; None when it
# raised LayoutMismatch itself.
@pytest.mark.parametrize("damage, cause", [
    (lambda path: _edit_manifest(path, lambda m: m["tensors"][min(m["tensors"])].pop("shape")),
     KeyError),
    (lambda path: _edit_manifest(path, lambda m: m["tensors"].update(
        {min(m["tensors"]): [1, 2]})), AttributeError),
    (lambda path: (path / "manifest.json").write_text('{"kind": '), json.JSONDecodeError),
    # Each shape below covers the same bytes as the one it replaces, or tiles
    # the blob, so only the shape check can catch it.
    (lambda path: _edit_manifest(path, lambda m: m["tensors"][min(m["tensors"])].update(
        shape=[float(n) for n in m["tensors"][min(m["tensors"])]["shape"]])), None),
    (lambda path: _edit_manifest(path, lambda m: m["tensors"][min(m["tensors"])].update(
        shape=[str(math.prod(m["tensors"][min(m["tensors"])]["shape"]))])), None),
    (lambda path: _edit_manifest(path, _tiling_negative_shape), None),
], ids=["entry_without_shape", "entry_not_a_mapping", "manifest_not_json",
        "shape_of_floats", "shape_of_a_string", "negative_shape"])
def test_malformed_manifest_rejected(artifact, damage, cause):
    path, load, _ = artifact
    damage(path)
    with pytest.raises(LayoutMismatch) as caught:
        load(path)
    assert isinstance(caught.value.__cause__, cause or type(None))


# The cause is the error the loader mapped to LayoutMismatch; None when the
# tensors, not the manifest, raised it.
@pytest.mark.parametrize("kind, edit, cause", [
    ("denoiser", lambda m: m.update(profile="paper"), None),
    ("denoiser", lambda m: m.update(object_conditional=True), None),
    ("denoiser", lambda m: m.update(object_conditional="yes"), ValueError),
    ("denoiser", lambda m: m.update(profile="huge"), ValueError),
    ("denoiser", lambda m: m.pop("profile"), KeyError),
    ("denoiser", lambda m: m.pop("schedule"), KeyError),
    ("denoiser", lambda m: m["schedule"].pop("betaT"), KeyError),
    ("denoiser", lambda m: m["schedule"].update(T="256"), TypeError),
    ("backbone", lambda m: m["config"].update(feature_dim=64), None),
    ("backbone", lambda m: m["config"].update(depth=3), TypeError),
    ("backbone", lambda m: m.pop("val_loss_curve"), KeyError),
    ("backbone", lambda m: m["config"].update(batch_size=0), ValueError),
    ("dataset", lambda m: m.update(mode_ids=5), ValueError),
    ("dataset", lambda m: m.update(categories=5), TypeError),
    ("dataset", lambda m: m.update(mode_ids="a" * len(m["mode_ids"])), ValueError),
], ids=["denoiser_profile", "denoiser_object_branch", "denoiser_object_flag_a_string",
        "denoiser_unknown_profile",
        "denoiser_without_profile", "denoiser_without_schedule",
        "denoiser_schedule_without_betaT", "denoiser_schedule_T_string",
        "backbone_feature_dim",
        "backbone_unknown_config_key", "backbone_without_val_loss_curve",
        "backbone_batch_size_zero",
        "dataset_mode_ids_a_number", "dataset_categories_a_number",
        "dataset_mode_ids_a_string"])
def test_manifest_disagreeing_with_its_tensors_rejected(tmp_path, kind, edit, cause):
    save, load, _ = ARTIFACTS[kind]
    save(tmp_path)
    _edit_manifest(tmp_path, edit)
    with pytest.raises(LayoutMismatch) as caught:
        load(tmp_path)
    assert isinstance(caught.value.__cause__, cause or type(None))


@pytest.mark.parametrize("flag", ["yes", 1])
def test_an_object_denoiser_loads_only_with_a_bool_object_flag(tmp_path, flag):
    # The object branch's tensors are all there, so only the config's own
    # check keeps "yes" or 1 out of a loaded (and re-saved) config.
    save_denoiser(tmp_path, Denoiser(DenoiserConfig("small", object_conditional=True)),
                  make_schedule(16, 2e-4, 0.02))
    _edit_manifest(tmp_path, lambda m: m.update(object_conditional=flag))
    with pytest.raises(LayoutMismatch) as caught:
        load_denoiser(tmp_path)
    assert isinstance(caught.value.__cause__, ValueError)
