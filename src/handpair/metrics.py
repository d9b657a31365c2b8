"""Generative metric suite for two-hand sets.

Distribution metrics (fhid, khid, precision/recall, diversity) operate on
feature arrays from the regression backbone; geometry metrics (penetration
volume/distance, proximity ratio) operate on posed pairs. All metrics are
pure functions of their inputs and seeds, so reports regenerate bit-for-bit.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .hand_model import HandParam, default_hand, occupancy_left, pair_meshes
from .mesh import min_vertex_distance, sample_surface_points
from .nn import TAG_METRIC, rng_stream
from .sampler import penetration_report


class DegenerateCovariance(UserWarning):
    """Covariance is rank deficient; the value is still returned."""


# ---------------------------------------------------------------------------
# Distribution metrics


def _clamped_cov(features: np.ndarray):
    cov = np.cov(features, rowvar=False)
    cov = np.atleast_2d(0.5 * (cov + cov.T))
    vals, vecs = np.linalg.eigh(cov)
    if vals.min() < -1e-10 * max(vals.max(), 1.0) or \
            np.sum(vals > 1e-10 * max(vals.max(), 1.0)) < cov.shape[0]:
        warnings.warn("rank-deficient covariance", DegenerateCovariance)
    vals = np.clip(vals, 0.0, None)
    return (vecs * vals) @ vecs.T, vals, vecs


def fhid(features_a: np.ndarray, features_b: np.ndarray) -> float:
    """Frechet distance between Gaussian fits of the two feature sets.

    ||mu_a - mu_b||^2 + Tr(Sa + Sb - 2 (Sa Sb)^(1/2)), with the square root
    evaluated as (Sa^(1/2) Sb Sa^(1/2))^(1/2) after eigenvalue clamping.

    With no more samples than feature dimensions the covariances are rank
    deficient, and the value moves by ~1e8 times the relative change of the
    features; compare such values only within a loose tolerance.
    """
    a = np.atleast_2d(np.asarray(features_a, dtype=float))
    b = np.atleast_2d(np.asarray(features_b, dtype=float))
    if len(a) < 2 or len(b) < 2:
        raise ValueError("need at least 2 samples per set for a covariance")
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    Sa, va, Va = _clamped_cov(a)
    Sb, _, _ = _clamped_cov(b)
    sqrt_a = (Va * np.sqrt(va)) @ Va.T
    M = sqrt_a @ Sb @ sqrt_a
    mvals = np.linalg.eigvalsh(0.5 * (M + M.T))
    trace_sqrt = np.sqrt(np.clip(mvals, 0.0, None)).sum()
    value = float(((mu_a - mu_b) ** 2).sum() + np.trace(Sa) + np.trace(Sb)
                  - 2.0 * trace_sqrt)
    return value


def khid(features_a: np.ndarray, features_b: np.ndarray,
         subset_size: int | None = None, n_subsets: int = 10,
         seed: int = 0) -> float:
    """Mean unbiased squared MMD with the cubic kernel (x.y/d + 1)^3.

    Each round draws a subset without replacement from each set; equally
    sized sets share the round's index draw (paired subsets), which makes
    the diagonal-excluded estimator exactly zero for identical inputs.
    """
    a = np.atleast_2d(np.asarray(features_a, dtype=float))
    b = np.atleast_2d(np.asarray(features_b, dtype=float))
    n, m_b = len(a), len(b)
    d = a.shape[1]
    m = subset_size if subset_size is not None else min(n, m_b, 1000)
    if not 2 <= m <= min(n, m_b):
        raise ValueError(f"subset_size must be in [2, min(N,M)], got {m}")
    rng = rng_stream(seed, TAG_METRIC)

    def kernel(x, y):
        return (x @ y.T / d + 1.0) ** 3

    def sum_off_diagonal(K):
        return K.sum() - np.trace(K)

    vals = []
    for _ in range(n_subsets):
        ia = rng.choice(n, size=m, replace=False)
        ib = ia if m_b == n else rng.choice(m_b, size=m, replace=False)
        x, y = a[ia], b[ib]
        Kxy = kernel(x, y)
        mmd = (sum_off_diagonal(kernel(x, x)) + sum_off_diagonal(kernel(y, y))
               - sum_off_diagonal(Kxy) - sum_off_diagonal(Kxy.T)) / (m * (m - 1))
        vals.append(mmd)
    return float(np.mean(vals))


def _covered(points: np.ndarray, manifold: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """point inside union of balls(manifold_i, radii_i), chunked."""
    out = np.zeros(len(points), dtype=bool)
    for lo in range(0, len(points), 512):
        chunk = points[lo:lo + 512]
        d = np.sqrt(((chunk[:, None, :] - manifold[None, :, :]) ** 2).sum(axis=2))
        out[lo:lo + 512] = (d <= radii[None, :]).any(axis=1)
    return out


def precision_recall(features_real: np.ndarray, features_gen: np.ndarray,
                     k: int = 3):
    """k-NN manifold coverage: precision of generated, recall of real."""
    real = np.atleast_2d(np.asarray(features_real, dtype=float))
    gen = np.atleast_2d(np.asarray(features_gen, dtype=float))
    if len(real) < k + 1 or len(gen) < k + 1:
        raise ValueError(f"both sets need at least k+1={k + 1} points")

    def knn_radii(X):
        d, _ = cKDTree(X).query(X, k=k + 1)
        return d[:, k]

    precision = float(_covered(gen, real, knn_radii(real)).mean())
    recall = float(_covered(real, gen, knn_radii(gen)).mean())
    return precision, recall


def diversity(features: np.ndarray, n_pairs: int = 300, seed: int = 0) -> float:
    """Mean distance over random disjoint index pairs."""
    f = np.atleast_2d(np.asarray(features, dtype=float))
    n = len(f)
    if n < 2:
        raise ValueError("diversity needs at least 2 features")
    rng = rng_stream(seed, TAG_METRIC + 1)
    i = rng.integers(0, n, size=n_pairs)
    j = rng.integers(0, n - 1, size=n_pairs)
    j = np.where(j >= i, j + 1, j)
    return float(np.linalg.norm(f[i] - f[j], axis=1).mean())


# ---------------------------------------------------------------------------
# Geometry metrics


def penetration_volume(occ_a, occ_b, bounds_a, bounds_b, grid: float = 1e-3) -> float:
    """Shared volume in mm^3 on a world-origin-aligned grid of cell centers.

    occ_a/occ_b: callables (N,3)->bool; bounds: (lo (3,), hi (3,)) AABBs.
    The grid covers the AABB intersection padded by one cell; disjoint
    boxes short-circuit to 0. occ_a is called once on every cell and occ_b
    once on the cells inside A, so each must bound its own memory.
    """
    lo = np.maximum(np.asarray(bounds_a[0]), np.asarray(bounds_b[0])) - grid
    hi = np.minimum(np.asarray(bounds_a[1]), np.asarray(bounds_b[1])) + grid
    if (lo >= hi).any():
        return 0.0
    i0 = np.floor(lo / grid).astype(np.int64)
    i1 = np.ceil(hi / grid).astype(np.int64)
    axes = [(np.arange(i0[k], i1[k]) + 0.5) * grid for k in range(3)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    count = int(occ_b(pts[occ_a(pts)]).sum())
    return count * (grid * 1000.0) ** 3


def penetration_distance(mesh_a, mesh_b) -> float:
    """Mean projected penetration depth of A's vertices into B, in cm; every
    depth is > 0, so the result is 0 exactly when no vertex penetrates."""
    depths = penetration_report(mesh_a, mesh_b).depths
    return float(depths.mean() * 100.0) if len(depths) else 0.0


def pair_stats(x_l: HandParam, x_r: HandParam, model=None, grid: float = 1e-3):
    """(pen_vol mm^3, pen_dist cm, min vertex distance m, penetrating?)."""
    model = model or default_hand()
    mesh_l, mesh_r = pair_meshes(x_l, x_r, model)
    pen_dist = penetration_distance(mesh_r, mesh_l)
    penetrating = pen_dist > 0.0
    vol = 0.0
    if penetrating:
        vol = penetration_volume(
            lambda pts: occupancy_left(model, x_l, pts),
            lambda pts: model.occupancy(x_r, pts),
            (mesh_l.vertices.min(axis=0), mesh_l.vertices.max(axis=0)),
            (mesh_r.vertices.min(axis=0), mesh_r.vertices.max(axis=0)),
            grid,
        )
    return vol, pen_dist, min_vertex_distance(mesh_r, mesh_l), penetrating


def proximity_ratio(min_distances, penetrating, tau: float = 0.02) -> float:
    """Fraction of samples closer than tau (meters) or interpenetrating."""
    min_distances = np.asarray(min_distances, dtype=float)
    penetrating = np.asarray(penetrating, dtype=bool)
    return float(((min_distances < tau) | penetrating).mean())


# ---------------------------------------------------------------------------
# Report assembly


@dataclass
class MetricReport:
    fhid: float
    khid: float
    diversity: float
    precision: float
    recall: float
    pen_vol_mm3: float
    pen_vol_cm3: float
    pen_dist_cm: float
    prox_ratio: float
    n_reference: int
    n_generated: int
    backbone_checksum: str
    per_category: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "MetricReport":
        return cls(**json.loads(text))


def dataset_features(dataset, backbone, model=None, seed: int = 0) -> np.ndarray:
    """Backbone features for every record; surface clouds keyed per index."""
    model = model or default_hand()
    feats = np.empty((len(dataset), backbone.config.feature_dim))
    for i in range(len(dataset)):
        x_l, x_r = dataset.pair(i)
        cloud = sample_surface_points(pair_meshes(x_l, x_r, model),
                                      backbone.config.n_surface, seed=seed + i)
        feats[i] = backbone.features(cloud[None, :, :])[0]
    return feats


def _geometry_stats(dataset, model, grid):
    vols, dists, mins, pens = zip(*(pair_stats(*dataset.pair(i), model, grid)
                                    for i in range(len(dataset))))
    return (float(np.mean(vols)), float(np.mean(dists)),
            proximity_ratio(mins, pens))


def evaluate(reference, generated, backbone, model=None, seed: int = 0,
             grid: float = 1e-3) -> MetricReport:
    """Full metric report of a generated set against a reference set.

    When both sets carry object category labels, metrics are computed per
    category and the top-level fields are the category means.
    """
    model = model or default_hand()
    categories = None
    if getattr(reference, "categories", None) and getattr(generated, "categories", None):
        categories = sorted(set(generated.categories))

    def compute(ref, gen):
        f_ref = dataset_features(ref, backbone, model, seed)
        f_gen = dataset_features(gen, backbone, model, seed + len(ref))
        p, r = precision_recall(f_ref, f_gen)
        vol, dist, prox = _geometry_stats(gen, model, grid)
        return {
            "fhid": fhid(f_ref, f_gen),
            "khid": khid(f_ref, f_gen, seed=seed),
            "diversity": diversity(f_gen, seed=seed),
            "precision": p,
            "recall": r,
            "pen_vol_mm3": vol,
            "pen_vol_cm3": vol * 1e-3,
            "pen_dist_cm": dist,
            "prox_ratio": prox,
        }

    per_category = {}
    if categories:
        for cat in categories:
            ref_idx = [i for i, c in enumerate(reference.categories) if c == cat]
            gen_idx = [i for i, c in enumerate(generated.categories) if c == cat]
            per_category[cat] = compute(reference.subset(ref_idx),
                                        generated.subset(gen_idx))
        agg = {key: float(np.mean([v[key] for v in per_category.values()]))
               for key in next(iter(per_category.values()))}
    else:
        agg = compute(reference, generated)

    return MetricReport(
        **agg,
        n_reference=len(reference),
        n_generated=len(generated),
        backbone_checksum=backbone.checksum(),
        per_category=per_category,
    )
