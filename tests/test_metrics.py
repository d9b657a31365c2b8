import numpy as np
import pytest

from handpair.data import generate_synthetic, overlapping_spec
from handpair.hand_model import CapsuleHand, occupancy, occupancy_left, pair_meshes
from handpair.metrics import fhid, khid, pair_stats, penetration_volume, precision_recall


def _ball(center, r):
    center = np.asarray(center, dtype=float)
    return (lambda pts: np.linalg.norm(pts - center, axis=1) <= r,
            (center - r, center + r))


@pytest.mark.parametrize("d", [0.01, 0.03, 0.05])
def test_penetration_volume_matches_sphere_lens(d):
    r = 0.03
    occ_a, box_a = _ball([0.001, -0.002, 0.0005], r)
    occ_b, box_b = _ball([0.001 + d, -0.002, 0.0005], r)
    got = penetration_volume(occ_a, occ_b, box_a, box_b, grid=1e-3)
    r_mm, d_mm = r * 1e3, d * 1e3
    lens = np.pi * (4 * r_mm + d_mm) * (2 * r_mm - d_mm) ** 2 / 12.0
    assert got == pytest.approx(lens, rel=0.01)


def test_penetration_volume_disjoint_boxes_is_zero():
    occ_a, box_a = _ball([0.0, 0.0, 0.0], 0.01)
    occ_b, box_b = _ball([0.05, 0.0, 0.0], 0.01)
    assert penetration_volume(occ_a, occ_b, box_a, box_b) == 0.0


def _zplane_volume(occ_a, occ_b, bounds_a, bounds_b, grid):
    """Reference: the same grid walked one z-plane at a time."""
    lo = np.maximum(bounds_a[0], bounds_b[0]) - grid
    hi = np.minimum(bounds_a[1], bounds_b[1]) + grid
    if (lo >= hi).any():
        return 0.0
    i0 = np.floor(lo / grid).astype(np.int64)
    i1 = np.ceil(hi / grid).astype(np.int64)
    axes = [(np.arange(i0[k], i1[k]) + 0.5) * grid for k in range(3)]
    X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
    count = 0
    for z in axes[2]:
        pts = np.stack([X.ravel(), Y.ravel(), np.full(X.size, z)], axis=1)
        inside_a = occ_a(pts)
        count += int(occ_b(pts[inside_a]).sum())
    return count * (grid * 1000.0) ** 3


@pytest.fixture(scope="module")
def overlapping_pairs():
    ds = generate_synthetic(overlapping_spec(count=6, seed=2))
    return [ds.pair(i) for i in range(len(ds))]


def test_pair_stats_volume_equals_zplane_reference(hand_model, overlapping_pairs):
    grid = 2e-3
    checked = 0
    for x_l, x_r in overlapping_pairs:
        vol, _, _, penetrating = pair_stats(x_l, x_r, hand_model, grid)
        if not penetrating:
            continue
        mesh_l, mesh_r = pair_meshes(x_l, x_r, hand_model)
        ref = _zplane_volume(
            lambda pts: occupancy_left(hand_model, x_l, pts),
            lambda pts: occupancy(hand_model, x_r, pts),
            (mesh_l.vertices.min(axis=0), mesh_l.vertices.max(axis=0)),
            (mesh_r.vertices.min(axis=0), mesh_r.vertices.max(axis=0)),
            grid,
        )
        assert vol == ref
        checked += 1
    assert checked >= 2


def test_pair_stats_poses_each_hand_once(hand_model, overlapping_pairs, monkeypatch):
    calls = []
    original = CapsuleHand.posed_segments

    def counting(self, params):
        calls.append(1)
        return original(self, params)

    monkeypatch.setattr(CapsuleHand, "posed_segments", counting)
    penetrating = 0
    for x_l, x_r in overlapping_pairs:
        calls.clear()
        pen = pair_stats(x_l, x_r, hand_model, 2e-3)[3]
        penetrating += pen
        assert len(calls) <= 2
    assert penetrating >= 2


@pytest.fixture(scope="module")
def gaussian_features():
    rng = np.random.default_rng(4)
    return rng.normal(size=(400, 8)), rng.normal(size=8)


def test_fhid_zero_on_identical_and_mean_shift_on_shifted(gaussian_features):
    a, s = gaussian_features
    assert fhid(a, a) == pytest.approx(0.0, abs=1e-9)
    assert fhid(a, a + s) == pytest.approx(float(s @ s), abs=1e-9)


def test_khid_zero_on_identical_and_grows_with_shift(gaussian_features):
    a, s = gaussian_features
    assert khid(a, a, subset_size=100) == 0.0
    values = [khid(a, a + k * s, subset_size=100) for k in (0.5, 1.0, 2.0)]
    assert 0.0 < values[0] < values[1] < values[2]


def test_precision_recall_identical_and_disjoint(gaussian_features):
    a, _ = gaussian_features
    assert precision_recall(a, a) == (1.0, 1.0)
    assert precision_recall(a, a + 100.0) == (0.0, 0.0)


def test_penetration_volume_calls_each_occupancy_once():
    calls = []

    def occ(pts):
        calls.append(len(pts))
        return np.ones(len(pts), dtype=bool)

    box = (np.zeros(3), np.full(3, 0.01))
    assert penetration_volume(occ, occ, box, box, grid=1e-3) == calls[0]
    assert len(calls) == 2 and calls[0] == calls[1] >= 10**3
