import warnings

import numpy as np
import pytest
import scipy.linalg

from handpair import pointset
from handpair.backbone import FeatureBackbone
from handpair.data import generate_synthetic, overlapping_spec, two_mode_spec
from handpair.hand_model import CapsuleHand, occupancy_left, pair_meshes
from handpair.metrics import (
    DegenerateCovariance,
    MetricReport,
    evaluate,
    fhid,
    khid,
    pair_stats,
    penetration_volume,
    precision_recall,
)
from handpair.pointset import PointSetEncoder


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
            lambda pts: hand_model.occupancy(x_r, pts),
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


@pytest.mark.parametrize("gen_shift, k, expected", [
    ((5.0, 0.0), 1, (0.6, 0.6)),    # generated 5..9 sit on real points, 10 in 9's ball
    ((5.0, 0.0), 3, (0.8, 0.8)),    # real 9's 3-NN radius is 3: generated 10..12 join
    ((0.0, 5.0), 3, (0.0, 0.0)),    # parallel lines 5 apart, every radius below 5
])
def test_precision_recall_counts_on_overlapping_lines(gen_shift, k, expected):
    real = np.stack([np.arange(10.0), np.zeros(10)], axis=1)
    assert precision_recall(real, real + np.array(gen_shift), k=k) == expected


def test_penetration_volume_calls_each_occupancy_once():
    calls = []

    def occ(pts):
        calls.append(len(pts))
        return np.ones(len(pts), dtype=bool)

    box = (np.zeros(3), np.full(3, 0.01))
    assert penetration_volume(occ, occ, box, box, grid=1e-3) == calls[0]
    assert len(calls) == 2 and calls[0] == calls[1] >= 10**3


def _frechet_closed_form(mu_a, cov_a, mu_b, cov_b):
    """Heusel et al. 2017: |mu_a - mu_b|^2 + Tr(Sa + Sb - 2 (Sa Sb)^(1/2))."""
    root = scipy.linalg.sqrtm(cov_a @ cov_b).real
    return float(((mu_a - mu_b) ** 2).sum() + np.trace(cov_a + cov_b - 2.0 * root))


def test_fhid_matches_gaussian_closed_form():
    rng = np.random.default_rng(12)
    A = rng.normal(size=(4, 4))
    cov_a = A @ A.T + 0.2 * np.eye(4)
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    cov_b = Q @ np.diag([0.3, 1.0, 2.0, 4.0]) @ Q.T
    mu_a, mu_b = np.zeros(4), np.array([0.5, -0.2, 0.1, 0.3])
    a = rng.multivariate_normal(mu_a, cov_a, 200_000)
    b = rng.multivariate_normal(mu_b, cov_b, 200_000)
    got = fhid(a, b)
    # Exact on the samples' own moments, through an independent matrix root.
    sample = _frechet_closed_form(a.mean(axis=0), np.cov(a, rowvar=False),
                                  b.mean(axis=0), np.cov(b, rowvar=False))
    assert got == pytest.approx(sample, rel=1e-12)
    # Near the population value: at 2e5 samples per set the estimate spread
    # 0.6% over six seeds, so 2% leaves room for sampling error only.
    assert got == pytest.approx(_frechet_closed_form(mu_a, cov_a, mu_b, cov_b), rel=0.02)


def test_metric_report_json_round_trips_exactly():
    report = MetricReport(
        fhid=0.1 + 0.2, khid=-1e-300, diversity=np.pi, precision=1.0 / 3.0, recall=0.0,
        pen_vol_mm3=1234.5678901234567, pen_vol_cm3=1.2345678901234567,
        pen_dist_cm=5e-324, prox_ratio=0.75, n_reference=16, n_generated=4,
        backbone_checksum="ab" * 32,
        per_category={"cup": {"fhid": 2.0 / 7.0, "recall": 1e308}},
    )
    back = MetricReport.from_json(report.to_json())
    assert back == report
    assert back.to_json() == report.to_json()


@pytest.fixture(scope="module")
def traced_evaluate(hand_model):
    """metrics.evaluate on 4-pair sets, counting calls of the traced hot spots."""
    calls = {"occupancy": 0, "forward_one": 0, "farthest_point_indices": 0}
    originals = (CapsuleHand.occupancy, PointSetEncoder.forward_one,
                 pointset.farthest_point_indices)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    reference = generate_synthetic(two_mode_spec(count=4, seed=1))
    generated = generate_synthetic(overlapping_spec(count=4, seed=2))
    with pytest.MonkeyPatch.context() as mp:
        # The lookup sites the benchmark's tracer wraps (bench/spans.py).
        mp.setattr(CapsuleHand, "occupancy", counted("occupancy", originals[0]))
        mp.setattr(PointSetEncoder, "forward_one", counted("forward_one", originals[1]))
        mp.setattr(pointset, "farthest_point_indices",
                   counted("farthest_point_indices", originals[2]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateCovariance)
            report = evaluate(reference, generated, FeatureBackbone(), hand_model, grid=2e-3)
    return report, calls


def test_evaluate_calls_the_traced_hot_spots(traced_evaluate):
    report, calls = traced_evaluate
    assert report.pen_vol_mm3 > 0.0
    assert calls["forward_one"] == 8                       # one cloud per pair, both sets
    assert calls["farthest_point_indices"] == 16           # two levels per cloud
    assert calls["occupancy"] >= 2


def test_evaluate_report_round_trips_exactly(traced_evaluate):
    report, _ = traced_evaluate
    assert MetricReport.from_json(report.to_json()) == report
