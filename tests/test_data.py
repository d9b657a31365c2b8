import hashlib
import json

import numpy as np
import pytest

from handpair import sampler
from handpair.checkpoint import load_dataset, save_dataset
from handpair.data import (
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    overlapping_spec,
    split_indices,
    two_mode_spec,
)
from handpair.errors import LayoutMismatch, RejectionStall
from handpair.hand_model import default_hand, pair_meshes
from handpair.sampler import penetration_set


def test_single_mode_zero_jitter_is_constant():
    spec = two_mode_spec(count=6, seed=1)
    spec.modes = spec.modes[:1]
    spec.theta_jitter = 0.0
    spec.beta_sigma = 0.0
    spec.modes[0].rotation_cone = 0.0
    spec.modes[0].rel_translation_sigma = 0.0
    ds = generate_synthetic(spec)
    assert (ds.params == ds.params[0]).all()


def test_zero_threshold_means_empty_penetration_set():
    ds = generate_synthetic(two_mode_spec(count=24, seed=7, max_penetration=0.0))
    model = default_hand()
    for i in range(len(ds)):
        x_l, x_r = ds.pair(i)
        mesh_l, mesh_r = pair_meshes(x_l, x_r, model)
        # Brute-force evaluation of the penetration test on stored values.
        d2 = ((mesh_r.vertices[:, None, :] - mesh_l.vertices[None, :, :]) ** 2).sum(2)
        nearest = d2.argmin(axis=1)
        depth = -np.einsum("ij,ij->i", mesh_l.normals[nearest],
                           mesh_r.vertices - mesh_l.vertices[nearest])
        assert not (depth > 0).any()


def test_generation_is_byte_identical_per_seed(tmp_path):
    for run in ("a", "b"):
        save_dataset(tmp_path / run, generate_synthetic(two_mode_spec(count=16, seed=3)))
    assert (tmp_path / "a/weights.f32").read_bytes() == (tmp_path / "b/weights.f32").read_bytes()
    assert (tmp_path / "a/manifest.json").read_text() == (tmp_path / "b/manifest.json").read_text()


# sha256 of the float32 records, then the int64 mode ids, of
# generate_synthetic(two_mode_spec(count=16, seed=3)) as the per-joint chain
# and three-gather normals generated them. Posing and contact decide every
# accept, so a change there that flips one decision, or moves one stored bit,
# changes the digest.
GOLDEN_16_SEED_3 = "e981e4deb8c44fa35133dfefcdb9da742ee894c4be9c5309c681c47ef7b8a2a9"


def test_generation_matches_the_golden_digest():
    ds = generate_synthetic(two_mode_spec(count=16, seed=3))
    assert ds.params.dtype == "<f4" and ds.mode_ids.dtype == "<i8"
    digest = hashlib.sha256(ds.params.tobytes())
    digest.update(ds.mode_ids.tobytes())
    assert digest.hexdigest() == GOLDEN_16_SEED_3


def test_infinite_threshold_accepts_every_draw_untested(monkeypatch):
    calls = []
    original = sampler.penetration_loss

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(sampler, "penetration_loss", counting)
    outputs = []
    for threshold in (np.inf, 1e300):  # 1e300 runs the test and passes every finite loss
        calls.clear()
        ds = generate_synthetic(two_mode_spec(count=8, seed=3, max_penetration=threshold,
                                              with_objects=True))
        outputs.append((ds.params.tobytes(), ds.objects_.tobytes(), ds.categories,
                        ds.mode_ids.tobytes()))
        assert len(calls) == (0 if threshold == np.inf else 8)
    assert outputs[0] == outputs[1]


def test_subset_of_no_index_is_an_empty_dataset_with_every_field():
    ds = generate_synthetic(two_mode_spec(count=4, seed=1, with_objects=True))
    empty = ds.subset([])
    assert len(empty) == 0 and empty.params.shape == (0, 128)
    assert empty.objects_.shape == (0, 512, 3)
    assert empty.categories == []
    assert empty.mode_ids.shape == (0,)
    assert ds.objects([]).shape == (0, 512, 3)


def test_subset_by_boolean_mask_equals_subset_by_index():
    ds = generate_synthetic(two_mode_spec(count=6, seed=1, with_objects=True))
    mask = np.array([True, False, False, True, True, False])
    by_mask, by_index = ds.subset(mask), ds.subset(np.flatnonzero(mask))
    assert by_mask.params.tobytes() == by_index.params.tobytes()
    assert by_mask.objects_.tobytes() == by_index.objects_.tobytes()
    assert by_mask.categories == by_index.categories == [ds.categories[i] for i in (0, 3, 4)]
    assert (by_mask.mode_ids == by_index.mode_ids).all()


@pytest.mark.parametrize("labels", [
    {"categories": ["box"], "mode_ids": [0]},
    {"categories": ["box"] * 4},
    {"mode_ids": [0, 1]},
    {"mode_ids": 0},
], ids=["both", "categories", "mode_ids", "scalar_mode_id"])
def test_dataset_needs_one_label_per_record(labels):
    with pytest.raises(ValueError, match="one entry per record"):
        Dataset(np.zeros((3, 128)), **labels)


def test_rejection_stall():
    spec = two_mode_spec(count=1, seed=0)
    spec.modes = spec.modes[:1]
    spec.modes[0].rel_translation_mean = np.zeros(3)  # hands coincide
    spec.modes[0].rel_translation_sigma = 0.0
    spec.theta_jitter = 0.0
    with pytest.raises(RejectionStall):
        generate_synthetic(spec)


def test_round_trip_exact(tmp_path):
    ds = generate_synthetic(two_mode_spec(count=32, seed=5))
    save_dataset(tmp_path / "ds", ds)
    back = load_dataset(tmp_path / "ds")
    np.testing.assert_array_equal(back.params, ds.params)
    np.testing.assert_array_equal(back.mode_ids, ds.mode_ids)


def test_object_dataset_round_trip(tmp_path):
    ds = generate_synthetic(two_mode_spec(count=8, seed=2, with_objects=True))
    assert ds.has_objects and len(ds.categories) == 8
    assert set(ds.categories) <= {"box", "ball"}
    save_dataset(tmp_path / "ds", ds)
    back = load_dataset(tmp_path / "ds")
    np.testing.assert_array_equal(back.objects_, ds.objects_)
    assert back.categories == ds.categories


def test_wrong_units_rejected(tmp_path):
    save_dataset(tmp_path / "ds", generate_synthetic(two_mode_spec(count=4, seed=1)))
    manifest = json.loads((tmp_path / "ds/manifest.json").read_text())
    manifest["units"] = "mm"
    (tmp_path / "ds/manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(LayoutMismatch):
        load_dataset(tmp_path / "ds")


@pytest.mark.parametrize("field, count", [("mode_ids", 8), ("categories", 4)])
def test_label_count_must_match_records(tmp_path, field, count):
    save_dataset(tmp_path / "ds", generate_synthetic(
        two_mode_spec(count=count, seed=1, with_objects=field == "categories")))
    manifest = json.loads((tmp_path / "ds/manifest.json").read_text())
    manifest[field] = manifest[field][:count // 2]
    (tmp_path / "ds/manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(LayoutMismatch):
        load_dataset(tmp_path / "ds")


def test_split_sizes_and_union():
    ds = generate_synthetic(two_mode_spec(count=100, seed=9))
    train, val, test = (ds.subset(idx) for idx in split_indices(len(ds), (0.7, 0.15, 0.15), 3))
    assert (len(train), len(val), len(test)) == (70, 15, 15)
    rows = np.concatenate([train.params, val.params, test.params])
    assert {tuple(r) for r in rows} == {tuple(r) for r in ds.params}
    again = ds.subset(split_indices(len(ds), (0.7, 0.15, 0.15), 3)[0])
    np.testing.assert_array_equal(again.params, train.params)


def test_split_fracs_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        split_indices(4, (0.5, 0.2, 0.2), seed=0)


@pytest.mark.parametrize("fractions", [(1.2, -0.2, 0.0), (-0.5, 1.5, 0.0), (np.nan, 1.0, 0.0)])
def test_split_fractions_must_lie_in_the_unit_interval(fractions):
    # Each sums to 1 (but the nan); on 10 rows the first two split 10/0/0 and
    # 5/5/0 before the check, so BackboneConfig(val_fraction=1.5) trained on half.
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        split_indices(10, fractions)


def test_negative_count_is_rejected_and_zero_is_empty():
    with pytest.raises(ValueError, match="count"):
        two_mode_spec(count=-1)
    empty = generate_synthetic(two_mode_spec(count=0, seed=2))
    assert len(empty) == 0 and empty.params.shape == (0, 128)


@pytest.mark.parametrize("field, value", [("theta_jitter", np.nan), ("beta_sigma", np.nan),
                                          ("max_penetration", -1.0),
                                          ("max_penetration", np.nan)])
def test_spec_rejects_a_nan_sigma_and_a_negative_or_nan_threshold(field, value):
    # min(nan, x) < 0 is False: a NaN jitter stored NaN records without a
    # word, and a NaN or negative threshold, which no loss meets, spent 1,000
    # candidates before a RejectionStall.
    with pytest.raises(ValueError, match=field):
        SyntheticSpec(two_mode_spec().modes, count=3, **{field: value})


def test_overlapping_spec_produces_penetrations():
    ds = generate_synthetic(overlapping_spec(count=16, seed=5))
    model = default_hand()
    hits = 0
    for i in range(len(ds)):
        x_l, x_r = ds.pair(i)
        mesh_l, mesh_r = pair_meshes(x_l, x_r, model)
        hits += int(len(penetration_set(mesh_r.vertices, mesh_l)) > 0)
    assert hits >= 4


def test_mode_classification_matches_sidecar():
    spec = two_mode_spec(count=40, seed=21)
    ds = generate_synthetic(spec)
    np.testing.assert_array_equal(spec.classify(*ds.pair(np.arange(len(ds)))), ds.mode_ids)
    one = spec.classify(*ds.pair(0))
    assert isinstance(one, int) and one == ds.mode_ids[0]
