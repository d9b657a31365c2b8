import dataclasses
import gc
import hashlib
import json
import math
import tracemalloc
import warnings
import weakref
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg

from handpair import mesh, metrics, pointset, sampler
from handpair.backbone import BackboneConfig, FeatureBackbone
from handpair.checkpoint import checksum, load_backbone, save_backbone
from handpair.data import Dataset, generate_synthetic, overlapping_spec, two_mode_spec
from handpair.hand_model import CapsuleHand, capsule_boxes, mirror, pair_meshes, pair_segments
from handpair.metrics import (
    PR_K,
    DegenerateCovariance,
    MetricReport,
    dataset_features,
    evaluate,
    fhid,
    khid,
    pair_stats,
    penetration_volume,
    precision_recall,
)
from handpair.pointset import PointSetEncoder

# The reflection across x = 0, as a matrix: the reference's left-hand test.
MIRROR_MAT = np.diag([-1.0, 1.0, 1.0])


def _balls(centers, r):
    """A union of balls as capsule segments (e0, e1, radii): a capsule of
    zero length, e0 == e1, is a ball, and occupancy tests it as one."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    return centers, centers.copy(), np.full(len(centers), r)


@pytest.mark.parametrize("d", [0.01, 0.03, 0.05])
def test_penetration_volume_matches_sphere_lens(hand_model, d):
    r = 0.03
    a = _balls([0.001, -0.002, 0.0005], r)
    b = _balls([0.001 + d, -0.002, 0.0005], r)
    got = penetration_volume(a, b, hand_model, grid=1e-3)
    r_mm, d_mm = r * 1e3, d * 1e3
    lens = np.pi * (4 * r_mm + d_mm) * (2 * r_mm - d_mm) ** 2 / 12.0
    assert got == pytest.approx(lens, rel=0.01)


def test_penetration_volume_disjoint_boxes_is_zero(hand_model, monkeypatch):
    monkeypatch.setattr(CapsuleHand, "occupancy", lambda *args: pytest.fail("tested a cell"))
    a, b = _balls([0.0, 0.0, 0.0], 0.01), _balls([0.05, 0.0, 0.0], 0.01)
    assert penetration_volume(a, b, hand_model) == 0.0


@pytest.mark.parametrize("grid", [0.0, -2e-3, np.nan, np.inf])
def test_penetration_volume_rejects_a_grid_that_is_not_finite_and_positive(hand_model, grid):
    # Before the check, pair 0 of overlapping_spec(count=6, seed=2), 3,488 mm^3
    # at 2 mm, read 0.0 at grid 0, -0.0 at -2 mm and nan at nan.
    a, b = _balls([0.0, 0.0, 0.0], 0.03), _balls([0.03, 0.0, 0.0], 0.03)
    assert penetration_volume(a, b, hand_model, grid=2e-3) > 0.0
    with pytest.raises(ValueError, match="grid"):
        penetration_volume(a, b, hand_model, grid=grid)
    pair = generate_synthetic(overlapping_spec(count=6, seed=2)).pair(0)
    assert pair_stats(*pair, hand_model, 2e-3)[0] > 0.0
    with pytest.raises(ValueError, match="grid"):
        pair_stats(*pair, hand_model, grid)


@pytest.mark.parametrize("grid", [np.nan, 0.0, -2e-3, np.inf])
def test_pair_stats_and_evaluate_reject_a_bad_grid_before_any_work(hand_model, grid,
                                                                   monkeypatch):
    # Pairs 0 and 1 of two_mode_spec(count=4, seed=1) do not penetrate, so
    # pair_stats never reached penetration_volume's check and returned
    # (0.0, 0.0, d, False) at grid nan, 0 and -2 mm alike.
    ds = generate_synthetic(two_mode_spec(count=4, seed=1))
    assert not any(pair_stats(*ds.pair(i), hand_model)[3] for i in (0, 1))
    work = []
    monkeypatch.setattr(CapsuleHand, "posed_vertices", lambda *args: work.append(args))
    monkeypatch.setattr(metrics, "dataset_features", lambda *args: work.append(args))
    for i in (0, 1):
        with pytest.raises(ValueError, match="grid"):
            pair_stats(*ds.pair(i), hand_model, grid)
    with pytest.raises(ValueError, match="grid"):
        evaluate(ds, ds, FeatureBackbone(BackboneConfig(feature_dim=16, n_surface=64)),
                 hand_model, grid=grid)
    assert not work


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


def _capsule_hulls(x_l, x_r, model):
    """The (lo, hi) hull of each hand's capsule boxes, left hand first, from
    the world segments: endpoints +- radius, with no margin."""
    e0, e1, rads = pair_segments(x_l, x_r, model)
    lo, hi = np.minimum(e0, e1) - rads[:, None], np.maximum(e0, e1) + rads[:, None]
    return [(lo[half].min(axis=0), hi[half].max(axis=0))
            for half in (slice(None, model.n_bones), slice(model.n_bones, None))]


def test_pair_stats_volume_equals_zplane_reference(hand_model, overlapping_pairs):
    # The reference walks every cell of the padded intersection of the two
    # capsule hulls, with no box-pair cull.
    checked = 0
    for x_l, x_r in overlapping_pairs:
        for grid in (1e-3, 2e-3):
            vol, _, _, penetrating = pair_stats(x_l, x_r, hand_model, grid)
            if not penetrating:
                continue
            left, right = hand_model.posed_segments(mirror(x_l)), hand_model.posed_segments(x_r)
            ref = _zplane_volume(
                lambda pts: hand_model.occupancy(left, pts @ MIRROR_MAT.T),
                lambda pts: hand_model.occupancy(right, pts),
                *_capsule_hulls(x_l, x_r, hand_model),
                grid,
            )
            assert vol == ref > 0.0
            checked += 1
    assert checked >= 4


def test_penetration_volume_of_two_ball_unions_equals_a_dense_count(hand_model):
    # Each shape is two balls (K = 2), and each ball of A meets one ball of B
    # in its own region, so a cull that drops either box pair loses a lens.
    # The dense count walks the whole hull of each shape's boxes.
    a = _balls([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]], 0.02)
    b = _balls([[0.025, 0.003, 0.0], [0.1, 0.03, 0.001]], 0.02)
    hulls = [(lo.min(axis=0), hi.max(axis=0)) for lo, hi in (capsule_boxes(*a),
                                                             capsule_boxes(*b))]
    for grid in (1e-3, 2e-3):
        got = penetration_volume(a, b, hand_model, grid)
        dense = _zplane_volume(lambda pts: hand_model.occupancy(a, pts),
                               lambda pts: hand_model.occupancy(b, pts), *hulls, grid)
        first_lens = penetration_volume(tuple(x[:1] for x in a), tuple(x[:1] for x in b),
                                        hand_model, grid)
        assert got == dense and 0.0 < first_lens < got


def test_penetration_volume_tests_a_tenth_of_the_vertex_box_grid(hand_model, overlapping_pairs,
                                                                monkeypatch):
    # Counts, not times: the cells handed to the first occupancy call of each
    # block (the left hand's) at 1 mm, against the padded grid of the two
    # hands' vertex boxes, which every cell used to be tested on. Only
    # penetration_volume tests occupancy, and it calls A then B per block.
    tested = []
    original = CapsuleHand.occupancy

    def counting(self, segments, points):
        tested.append(len(points))
        return original(self, segments, points)

    monkeypatch.setattr(CapsuleHand, "occupancy", counting)
    grid, padded = 1e-3, 0
    for pair in overlapping_pairs:
        if not pair_stats(*pair, hand_model, grid)[3]:
            continue
        mesh_l, mesh_r = pair_meshes(*pair, hand_model)
        lo = np.maximum(mesh_l.vertices.min(axis=0), mesh_r.vertices.min(axis=0)) - grid
        hi = np.minimum(mesh_l.vertices.max(axis=0), mesh_r.vertices.max(axis=0)) + grid
        padded += np.prod(np.ceil(hi / grid).astype(int) - np.floor(lo / grid).astype(int))
    assert padded > 10**6 and len(tested) % 2 == 0
    assert sum(tested[::2]) <= 0.1 * padded, sum(tested[::2]) / padded


def test_pair_stats_volume_memory_is_bounded_by_a_block(hand_model, overlapping_pairs):
    # The largest padded grid of these pairs at the default 1 mm has 928,200
    # cells: 49 MB of NumPy allocations at its peak when the whole grid is
    # built at once, 13.5 MB when it is counted in blocks, 12.8 MB when only
    # the 92,151 cells near meeting capsule boxes are tested (tracemalloc).
    def cells(pair):
        mesh_l, mesh_r = pair_meshes(*pair, hand_model)
        lo = np.maximum(mesh_l.vertices.min(axis=0), mesh_r.vertices.min(axis=0))
        hi = np.minimum(mesh_l.vertices.max(axis=0), mesh_r.vertices.max(axis=0))
        return np.prod(np.maximum(hi - lo, 0.0))

    pair = max(overlapping_pairs, key=cells)
    tracemalloc.start()
    try:
        vol, _, _, penetrating = pair_stats(*pair, hand_model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert penetrating and vol > 0.0
    assert peak < 20e6, peak


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


def test_pair_stats_makes_one_nearest_vertex_query(hand_model, overlapping_pairs,
                                                  monkeypatch):
    queries = []

    class CountingTree(mesh.cKDTree):
        def query(self, *args, **kwargs):
            queries.append(1)
            return super().query(*args, **kwargs)

    monkeypatch.setattr(mesh, "cKDTree", CountingTree)
    for x_l, x_r in overlapping_pairs:
        queries.clear()
        pair_stats(x_l, x_r, hand_model, 2e-3)
        assert len(queries) == 1


@pytest.fixture(scope="module")
def gaussian_features():
    rng = np.random.default_rng(4)
    return rng.normal(size=(400, 8)), rng.normal(size=8)


def test_fhid_zero_on_identical_and_mean_shift_on_shifted(gaussian_features):
    a, s = gaussian_features
    assert fhid(a, a) == pytest.approx(0.0, abs=1e-9)
    assert fhid(a, a + s) == pytest.approx(float(s @ s), abs=1e-9)


def test_khid_grows_with_shift(gaussian_features):
    a, s = gaussian_features
    values = [khid(a, a + k * s) for k in (0.5, 1.0, 2.0)]
    assert 0.0 < values[0] < values[1] < values[2]


@pytest.mark.parametrize("n, m", [(7, 7), (7, 11)])
def test_khid_equals_the_lemma_6_sums(n, m):
    # Gretton et al. (JMLR 2012), Lemma 6, term by term in exact-rounded sums.
    rng = np.random.default_rng(n + m)
    a, b = rng.normal(size=(n, 5)), rng.normal(0.3, 1.2, size=(m, 5))

    def k(x, y):
        return (math.fsum(x * y) / 5 + 1.0) ** 3

    within_a = math.fsum(k(a[i], a[j]) for i in range(n) for j in range(n) if i != j)
    within_b = math.fsum(k(b[i], b[j]) for i in range(m) for j in range(m) if i != j)
    cross = math.fsum(k(x, y) for x in a for y in b)
    expected = within_a / (n * (n - 1)) + within_b / (m * (m - 1)) - 2.0 * cross / (n * m)
    assert khid(a, b) == pytest.approx(expected, rel=1e-12)


def test_khid_is_unbiased_on_two_draws_of_one_gaussian():
    # Lemma 6 has expectation 0 when both sets come from one distribution.
    # Means over seeds 0-19, 20-39, 40-59, 60-79, 80-99, 1000-1019 and
    # 5000-5019 read -0.039 to 0.036, with a standard error of 0.017-0.027;
    # keeping each set's diagonal would add about +0.5, and shifting b by
    # 0.25 per coordinate reads +0.27.
    def value(seed):
        rng = np.random.default_rng(seed)
        return khid(rng.normal(size=(32, 8)), rng.normal(size=(48, 8)))

    assert abs(np.mean([value(seed) for seed in range(20)])) < 0.1


def test_precision_recall_identical_and_disjoint(gaussian_features):
    a, _ = gaussian_features
    assert precision_recall(a, a) == (1.0, 1.0)
    assert precision_recall(a, a + 100.0) == (0.0, 0.0)


@pytest.mark.parametrize("gen_shift, expected", [
    ((5.0, 0.0), (0.8, 0.8)),    # real 9's 3-NN radius is 3: generated 5..12 are covered
    ((0.0, 5.0), (0.0, 0.0)),    # parallel lines 5 apart, every radius below 5
])
def test_precision_recall_counts_on_overlapping_lines(gen_shift, expected):
    assert PR_K == 3
    real = np.stack([np.arange(10.0), np.zeros(10)], axis=1)
    assert precision_recall(real, real + np.array(gen_shift)) == expected


def test_penetration_volume_calls_each_occupancy_once(hand_model, monkeypatch):
    # Two occupancy calls per block: A's on the block's cells, then B's on
    # A's hits alone. A 1 mm cell is 1 mm^3, so the volume is B's hit count.
    calls = []
    original = CapsuleHand.occupancy

    def counting(self, segments, points):
        inside = original(self, segments, points)
        calls.append((segments, points, inside))
        return inside

    monkeypatch.setattr(CapsuleHand, "occupancy", counting)
    monkeypatch.setattr(metrics, "VOLUME_BLOCK", 1000)
    a, b = _balls([0.0, 0.0, 0.0], 0.01), _balls([0.01, 0.0, 0.0], 0.01)
    volume = penetration_volume(a, b, hand_model, grid=1e-3)
    firsts, seconds = calls[::2], calls[1::2]
    assert len(firsts) == len(seconds) >= 4
    assert all(seg is a and len(pts) <= 1000 for seg, pts, _ in firsts)
    assert all(seg is b for seg, _, _ in seconds)
    for (_, pts_a, inside_a), (_, pts_b, _) in zip(firsts, seconds):
        np.testing.assert_array_equal(pts_b, pts_a[inside_a])
    assert volume == sum(int(inside.sum()) for _, _, inside in seconds) > 0


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


def _planted_sets(eps):
    """Two 16-pair sets in 128-d with covariances V diag(s^2) V^T of rank
    12, s_b = s_a (1 + eps), and their exact FHID |mu_a - mu_b|^2 +
    sum (s_a - s_b)^2. Each set is mu + sqrt(n - 1) P diag(s) V^T with P's
    columns orthonormal and orthogonal to the ones vector, so its mean is mu
    and its covariance the one planted."""
    rng = np.random.default_rng(7)
    n, d, k = 16, 128, 12
    V, _ = np.linalg.qr(rng.normal(size=(d, k)))
    s_a = rng.uniform(0.005, 0.02, k)
    s_b = s_a * (1.0 + eps)
    mu_a = rng.normal(0.1, 0.05, d)
    mu_b = mu_a + rng.normal(0.0, 3e-4, d)

    def planted(mu, s):
        P, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.normal(size=(n, k))]))
        return mu + np.sqrt(n - 1) * (P[:, 1:] * s) @ V.T

    exact = math.fsum((mu_a - mu_b) ** 2) + math.fsum((s_a - s_b) ** 2)
    return planted(mu_a, s_a), planted(mu_b, s_b), exact, math.fsum(s_a ** 2)


def test_fhid_matches_a_planted_spectrum_with_fewer_pairs_than_features():
    # FHID is about 1/100 of Tr Sa, a small difference of large terms, as
    # on the evaluate workload (16 pairs in 128-d features).
    a, b, exact, trace_a = _planted_sets(0.1)
    assert exact < 0.02 * trace_a
    with pytest.warns(DegenerateCovariance):
        got = fhid(a, b)
    assert got == pytest.approx(exact, rel=1e-12)


def test_fhid_moves_by_rounding_only_when_the_features_do():
    a, b, _, _ = _planted_sets(0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateCovariance)
        base = fhid(a, b)
        for nudged in (fhid(a * (1.0 + 4e-16), b), fhid(a, b * (1.0 - 4e-16))):
            assert nudged == pytest.approx(base, rel=1e-12)


def test_metric_report_json_round_trips_exactly():
    report = MetricReport(
        fhid=0.1 + 0.2, khid=-1e-300, diversity=np.pi, precision=1.0 / 3.0, recall=0.0,
        pen_vol_mm3=1234.5678901234567, pen_dist_cm=5e-324, prox_ratio=0.75,
        n_reference=16, n_generated=4, backbone_checksum="ab" * 32,
        per_category={"cup": {"fhid": 2.0 / 7.0, "recall": 1e308}},
    )
    back = MetricReport.from_json(report.to_json())
    assert back == report
    assert back.to_json() == report.to_json()


@contextmanager
def counting_hot_spots():
    """Count the calls of the traced hot spots at the lookup sites the
    benchmark's tracer wraps (bench/spans.py); yields the counts."""
    calls = {"occupancy": 0, "posed_mesh": 0, "left_hand_mesh": 0, "forward_one": 0,
             "farthest_point_indices": 0, "penetration_set": 0, "dataset_features": 0,
             "pair_stats": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CapsuleHand, "occupancy", counted("occupancy", CapsuleHand.occupancy))
        mp.setattr(CapsuleHand, "posed_mesh", counted("posed_mesh", CapsuleHand.posed_mesh))
        mp.setattr(metrics.hand_model, "left_hand_mesh",
                   counted("left_hand_mesh", metrics.hand_model.left_hand_mesh))
        mp.setattr(PointSetEncoder, "forward_one",
                   counted("forward_one", PointSetEncoder.forward_one))
        mp.setattr(pointset, "farthest_point_indices",
                   counted("farthest_point_indices", pointset.farthest_point_indices))
        mp.setattr(sampler, "penetration_set",
                   counted("penetration_set", sampler.penetration_set))
        mp.setattr(metrics, "dataset_features",
                   counted("dataset_features", metrics.dataset_features))
        mp.setattr(metrics, "pair_stats", counted("pair_stats", metrics.pair_stats))
        yield calls


@pytest.fixture(scope="module")
def four_pair_sets():
    return (generate_synthetic(two_mode_spec(count=4, seed=1)),
            generate_synthetic(overlapping_spec(count=4, seed=2)))


@pytest.fixture(scope="module")
def traced_evaluate(hand_model, four_pair_sets):
    """metrics.evaluate on 4-pair sets, counting calls of the traced hot spots."""
    reference, generated = four_pair_sets
    with counting_hot_spots() as calls, warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateCovariance)
        report = evaluate(reference, generated, FeatureBackbone(), hand_model, grid=2e-3)
    return report, calls


def test_evaluate_calls_the_traced_hot_spots(traced_evaluate):
    report, calls = traced_evaluate
    assert report.pen_vol_mm3 > 0.0
    assert calls["forward_one"] == 2                       # one stack per set
    assert calls["farthest_point_indices"] == 16           # two levels per cloud
    assert calls["penetration_set"] == 4                   # one per generated pair
    # Contact alone poses a mesh, the left anchor's, once per generated pair;
    # the right hand reaches contact as points.
    assert calls["posed_mesh"] == calls["left_hand_mesh"] == 4
    assert calls["occupancy"] >= 2


def test_evaluate_report_round_trips_exactly(traced_evaluate):
    report, _ = traced_evaluate
    assert MetricReport.from_json(report.to_json()) == report


# sha256 of to_json() of the traced_evaluate report, recorded before evaluate
# became one pass over row groups; it holds bit for bit on an uncategorized
# run. The features go through BLAS matmuls, so the digest is that of one
# BLAS build (numpy 2.4 with scipy-openblas 0.3.31 on x86-64).
EVALUATE_GOLDEN = "0cd63878a6cda271c251b01c06c1dad0330ff49ec89c7fa6d913ae49b9581737"


def test_evaluate_report_matches_the_golden_digest(traced_evaluate):
    report, _ = traced_evaluate
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == EVALUATE_GOLDEN


@pytest.fixture(scope="module")
def category_sets():
    # Seeds 1 and 2 give 8/4 and 5/7 box/ball pairs: at least k+1 = 4 per set.
    return (generate_synthetic(two_mode_spec(count=12, seed=1, with_objects=True)),
            generate_synthetic(two_mode_spec(count=12, seed=2, with_objects=True)))


def test_evaluate_averages_the_per_category_reports(hand_model, category_sets):
    reference, generated = category_sets
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateCovariance)
        report = evaluate(reference, generated, FeatureBackbone(), hand_model)
    assert list(report.per_category) == sorted(set(generated.categories)) == ["ball", "box"]
    for key in report.per_category["box"]:
        expected = float(np.mean([v[key] for v in report.per_category.values()]))
        assert getattr(report, key) == expected, key


def test_report_names_its_backbone_by_the_saved_manifest_checksum(hand_model, tmp_path):
    reference = generate_synthetic(two_mode_spec(count=4, seed=1))
    generated = generate_synthetic(two_mode_spec(count=4, seed=2))
    backbone = FeatureBackbone(BackboneConfig(feature_dim=32, n_surface=64))
    save_backbone(tmp_path, backbone)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateCovariance)
        for scored_with in (backbone, load_backbone(tmp_path)):
            report = evaluate(reference, generated, scored_with, hand_model)
            assert report.backbone_checksum == manifest["checksum"]


def _evaluate(reference, generated, backbone, model, seed=0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateCovariance)
        return evaluate(reference, generated, backbone, model, seed=seed, grid=4e-3)


def test_warm_evaluate_equals_cold_and_featurizes_only_the_generated_set(
        hand_model, four_pair_sets):
    reference, generated = four_pair_sets
    backbone = FeatureBackbone()
    cold = _evaluate(reference, generated, backbone, hand_model)
    with counting_hot_spots() as calls:
        warm = _evaluate(reference, generated, backbone, hand_model)
    assert warm == cold and warm.to_json() == cold.to_json()
    assert calls["forward_one"] == 1
    assert calls["farthest_point_indices"] == 8
    assert calls["penetration_set"] == 4
    assert calls["posed_mesh"] == calls["left_hand_mesh"] == 4     # each pair's left anchor


@pytest.mark.parametrize("change", ["weight", "float64_weight", "reference_row", "seed",
                                    "hand"])
def test_evaluate_recomputes_the_reference_when_an_input_changes(
        hand_model, four_pair_sets, change):
    reference, generated = four_pair_sets
    reference = Dataset(reference.params.copy())
    backbone = FeatureBackbone()
    model, seed = hand_model, 0
    _evaluate(reference, generated, backbone, model, seed)
    before = checksum(backbone.params)
    if change == "weight":
        w = backbone.params["bb.head.W"]
        i = np.argmax(np.abs(w))
        w.flat[i] = np.nextafter(w.flat[i], np.float32(np.inf))     # one ulp
        assert checksum(backbone.params) != before
    elif change == "float64_weight":
        backbone.params["bb.head.W"] = backbone.params["bb.head.W"].astype(float)
        assert checksum(backbone.params) == before  # the float32 rounding is unchanged
    elif change == "reference_row":
        reference.params[0, 0] += 0.01
    elif change == "seed":
        seed = 1
    else:
        model = CapsuleHand()
    with counting_hot_spots() as calls:
        report = _evaluate(reference, generated, backbone, model, seed)
    assert calls["forward_one"] == 2
    twin = FeatureBackbone(backbone.config,
                           params={k: v.copy() for k, v in backbone.params.items()})
    assert report == _evaluate(reference, generated, twin, model, seed)


def test_per_category_evaluate_reuses_every_category(hand_model, category_sets):
    reference, generated = category_sets
    backbone = FeatureBackbone()
    with counting_hot_spots() as cold_calls:
        cold = _evaluate(reference, generated, backbone, hand_model)
    with counting_hot_spots() as calls:
        warm = _evaluate(reference, generated, backbone, hand_model)
    assert warm == cold and warm.to_json() == cold.to_json()
    # Each set is featurized once, in one call, and each generated pair is
    # measured once, however many categories read them; a warm call
    # featurizes only the generated set.
    assert (cold_calls["dataset_features"], calls["dataset_features"]) == (2, 1)
    assert cold_calls["pair_stats"] == calls["pair_stats"] == len(generated)
    assert (cold_calls["forward_one"], calls["forward_one"]) == (2, 1)
    _, features = metrics._REFERENCE_MEMO[backbone]
    assert features.shape == (len(reference), backbone.config.feature_dim)


def test_per_category_reports_read_the_category_rows_of_the_whole_sets(
        hand_model, category_sets):
    # The oracle featurizes and measures each whole set itself, at the
    # documented cloud seeds, and scores each category on its own rows.
    reference, generated = category_sets
    backbone, seed, grid = FeatureBackbone(), 3, 4e-3
    report = _evaluate(reference, generated, backbone, hand_model, seed)
    f_ref = dataset_features(reference, backbone, hand_model, seed)
    f_gen = dataset_features(generated, backbone, hand_model, seed + len(reference))
    stats = [pair_stats(*generated.pair(i), hand_model, grid) for i in range(len(generated))]
    assert list(report.per_category) == ["ball", "box"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateCovariance)
        for cat, got in report.per_category.items():
            assert type(cat) is str
            r = np.array(reference.categories) == cat
            g = np.array(generated.categories) == cat
            vols, dists, mins, pens = zip(*(s for s, keep in zip(stats, g) if keep))
            precision, recall = precision_recall(f_ref[r], f_gen[g])
            assert got == {
                "fhid": fhid(f_ref[r], f_gen[g]), "khid": khid(f_ref[r], f_gen[g]),
                "diversity": metrics.diversity(f_gen[g], seed=seed),
                "precision": precision, "recall": recall,
                "pen_vol_mm3": float(np.mean(vols)), "pen_dist_cm": float(np.mean(dists)),
                "prox_ratio": metrics.proximity_ratio(mins, pens),
            }, cat
    assert MetricReport.from_json(report.to_json()) == report


def test_evaluate_rejects_a_category_missing_from_the_reference(hand_model, category_sets):
    reference, generated = category_sets
    boxes = reference.subset([c == "box" for c in reference.categories])
    with pytest.raises(ValueError, match="ball"):
        _evaluate(boxes, generated, FeatureBackbone(), hand_model)


def test_reference_memo_is_read_only_and_goes_with_its_backbone(hand_model, four_pair_sets):
    reference, generated = four_pair_sets
    backbone = FeatureBackbone()
    _evaluate(reference, generated, backbone, hand_model)
    key, features = metrics._REFERENCE_MEMO[backbone]
    assert not features.flags.writeable
    assert features.shape == (len(reference), backbone.config.feature_dim)
    # A call on another reference replaces the one entry ...
    first = weakref.ref(features)
    del key, features
    _evaluate(generated, reference, backbone, hand_model)
    gc.collect()
    assert first() is None
    # ... and the entry goes with its backbone.
    second = weakref.ref(metrics._REFERENCE_MEMO[backbone][1])
    del backbone
    gc.collect()
    assert second() is None


def test_suite_ranks_known_bad_sets_below_a_held_out_set(hand_model):
    # 64 pairs per set on the untrained backbone, against two_mode_spec(seed=11).
    # Over held-out seeds 12-16 these read: held-out FHID 3.9-4.4e-4, precision
    # 0.83-0.91, recall 0.69-0.78; mode 0 only FHID 2.8-3.0e-3 (6.4x or more),
    # recall 0.30-0.39; another record's partner precision 0.47-0.53; a
    # partner moved by sigma 3 cm precision 0.62-0.69. KHID is left out: at 64
    # pairs it is noise. The bounds below keep a margin on every one of them.
    n = 64
    backbone = FeatureBackbone()
    spec = two_mode_spec(count=n, seed=12)
    held = generate_synthetic(spec)
    swapped = held.params.copy()
    swapped[:, 64:] = np.roll(swapped[:, 64:], 1, axis=0)
    moved = held.params.astype(float)
    moved[:, 125:] += np.random.default_rng(12).normal(0.0, 0.03, (n, 3))
    sets = {"held": held,
            "mode0": generate_synthetic(dataclasses.replace(spec, modes=spec.modes[:1])),
            "swapped": Dataset(swapped), "moved": Dataset(moved)}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateCovariance)
        ref = dataset_features(generate_synthetic(two_mode_spec(count=n, seed=11)),
                               backbone, hand_model, 0)
        scores = {}
        for name, ds in sets.items():
            features = dataset_features(ds, backbone, hand_model, n)
            scores[name] = (fhid(ref, features), *precision_recall(ref, features))
    (f_held, p_held, r_held), (f_mode0, _, r_mode0) = scores["held"], scores["mode0"]
    assert p_held > 0.6 and r_held > 0.6, scores
    assert f_mode0 > 3 * f_held and r_mode0 < r_held - 0.2, scores
    assert scores["swapped"][1] < p_held - 0.2, scores
    assert scores["moved"][1] < p_held - 0.1, scores
