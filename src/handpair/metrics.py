"""Generative metric suite for two-hand sets.

Distribution metrics (fhid, khid, precision/recall, diversity) operate on
backbone features of a whole set's capsule surface clouds; geometry metrics
(penetration volume/distance, proximity ratio) on posed pairs. All metrics
are pure functions of their inputs and seeds, so reports regenerate bit for
bit. Only pair_stats poses a mesh, the anchor of its one contact query per pair.

evaluate scores a generated set in one pass: each set is featurized once,
reference record i drawing its cloud at seed + i and generated record i at
seed + len(reference) + i, pair_stats runs once per generated pair, and each
object category is a row group of those arrays. It keeps the reference
features of its latest call for each live backbone and reuses them, bit for
bit, when every input they depend on is unchanged (see evaluate).
"""

from __future__ import annotations

import json
import warnings
import weakref
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import hand_model, sampler
from .checkpoint import checksum
from .hand_model import HandParam, capsule_boxes, default_hand, pair_segments
from .mesh import sample_surface_points
from .nn import TAG_METRIC, rng_stream


DIVERSITY_PAIRS = 300   # random index pairs averaged into one diversity value
PROXIMITY_TAU_M = 0.02  # metres: a pair closer than this counts as in proximity
PR_K = 3                # precision_recall's k: a point's k-th neighbour sets its ball
# Most grid cells per penetration_volume block: 3 MB of points. The cells
# tested on 56 interpenetrating overlapping_spec pairs (median 70,040, at most
# 201,017 at 1 mm; at most 26,963 at 2 mm) fit one or two blocks.
VOLUME_BLOCK = 1 << 17


class DegenerateCovariance(UserWarning):
    """Covariance is rank deficient; the value is still returned."""


# ---------------------------------------------------------------------------
# Distribution metrics


def _mean_and_factor(features):
    """Mean and triangular factor R of a feature set, with R^T R its
    covariance: the QR factor of the centred features over sqrt(n - 1).
    Warns DegenerateCovariance when fewer than d of R's squared singular
    values (the covariance's eigenvalues) exceed 1e-10 * max(largest, 1)."""
    x = np.atleast_2d(np.asarray(features, dtype=float))
    if len(x) < 2:
        raise ValueError("need at least 2 samples per set for a covariance")
    mu = x.mean(axis=0)
    R = np.linalg.qr((x - mu) / np.sqrt(len(x) - 1), mode="r")
    eig = np.linalg.svd(R, compute_uv=False) ** 2
    if np.sum(eig > 1e-10 * max(eig.max(), 1.0)) < x.shape[1]:
        warnings.warn("rank-deficient covariance", DegenerateCovariance)
    return mu, R


def fhid(features_a: np.ndarray, features_b: np.ndarray) -> float:
    """Frechet distance between Gaussian fits of the two feature sets.

    ||mu_a - mu_b||^2 + Tr(Sa + Sb - 2 (Sa^(1/2) Sb Sa^(1/2))^(1/2)) with
    Sa = Ra^T Ra and Sb = Rb^T Rb (see _mean_and_factor): Tr Sa = ||Ra||_F^2,
    and the trace of the root is the sum of the singular values of Ra Rb^T.
    No covariance is formed or clamped, so the value is exact to rounding at
    any set size, rank deficient or not; it costs O(n d^2) per set.
    """
    mu_a, Ra = _mean_and_factor(features_a)
    mu_b, Rb = _mean_and_factor(features_b)
    trace_sqrt = np.linalg.svd(Ra @ Rb.T, compute_uv=False).sum()
    return float(((mu_a - mu_b) ** 2).sum() + (Ra * Ra).sum() + (Rb * Rb).sum()
                 - 2.0 * trace_sqrt)


def khid(features_a: np.ndarray, features_b: np.ndarray) -> float:
    """Unbiased squared MMD with the cubic kernel k(x, y) = (x.y/d + 1)^3.

    Gretton et al. (JMLR 2012), Lemma 6, over the full sets: the mean of
    k over distinct pairs within A, plus the same within B, minus twice the
    mean of k over every (A, B) pair. The sets may differ in size.
    """
    a = np.atleast_2d(np.asarray(features_a, dtype=float))
    b = np.atleast_2d(np.asarray(features_b, dtype=float))
    n, m = len(a), len(b)
    if n < 2 or m < 2:
        raise ValueError("need at least 2 samples per set")
    d = a.shape[1]

    def kernel(x, y):
        return (x @ y.T / d + 1.0) ** 3

    Kaa, Kbb = kernel(a, a), kernel(b, b)
    return float((Kaa.sum() - np.trace(Kaa)) / (n * (n - 1))
                 + (Kbb.sum() - np.trace(Kbb)) / (m * (m - 1))
                 - 2.0 * kernel(a, b).mean())


def _covered(points: np.ndarray, manifold: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """point inside union of balls(manifold_i, radii_i), chunked."""
    out = np.zeros(len(points), dtype=bool)
    for lo in range(0, len(points), 512):
        chunk = points[lo:lo + 512]
        d = np.sqrt(((chunk[:, None, :] - manifold[None, :, :]) ** 2).sum(axis=2))
        out[lo:lo + 512] = (d <= radii[None, :]).any(axis=1)
    return out


def precision_recall(features_real: np.ndarray, features_gen: np.ndarray):
    """k-NN manifold coverage at k = PR_K: precision of generated, recall of real."""
    real = np.atleast_2d(np.asarray(features_real, dtype=float))
    gen = np.atleast_2d(np.asarray(features_gen, dtype=float))
    if len(real) < PR_K + 1 or len(gen) < PR_K + 1:
        raise ValueError(f"both sets need at least k+1={PR_K + 1} points")

    def knn_radii(X):
        d, _ = cKDTree(X).query(X, k=PR_K + 1)
        return d[:, PR_K]

    precision = float(_covered(gen, real, knn_radii(real)).mean())
    recall = float(_covered(real, gen, knn_radii(gen)).mean())
    return precision, recall


def diversity(features: np.ndarray, seed: int = 0) -> float:
    """Mean distance over random disjoint index pairs."""
    f = np.atleast_2d(np.asarray(features, dtype=float))
    n = len(f)
    if n < 2:
        raise ValueError("diversity needs at least 2 features")
    rng = rng_stream(seed, TAG_METRIC + 1)
    i = rng.integers(0, n, size=DIVERSITY_PAIRS)
    j = rng.integers(0, n - 1, size=DIVERSITY_PAIRS)
    j = np.where(j >= i, j + 1, j)
    return float(np.linalg.norm(f[i] - f[j], axis=1).mean())


# ---------------------------------------------------------------------------
# Geometry metrics


def _check_grid(grid: float) -> None:
    """The one rule on a volume grid: its cell edge, in meters, is finite and > 0."""
    if not (np.isfinite(grid) and grid > 0):
        raise ValueError(f"grid must be finite and > 0, got {grid}")


def penetration_volume(segments_a, segments_b, model, grid: float = 1e-3) -> float:
    """Shared volume in mm^3 of two world capsule sets (e0, e1, radii), as
    posed_segments returns them, on a world-origin-aligned grid of cell
    centers. model.occupancy tests the cells, and every point it accepts
    lies in its capsule's capsule_boxes box. So a cell counts only where an
    A box meets a B box, and only the cells whose centers lie within half a
    cell of such an intersection are tested, once each however many
    intersections hold them; the half cell absorbs the rounding of the
    centers. Boxes that do not meet short-circuit to 0. The cells are
    counted in blocks of at most VOLUME_BLOCK: each block is tested against
    A, then A's hits against B. Memory is bounded by a block and one byte
    per cell of the tested cells' bounding box. Raises ValueError unless
    grid is finite and > 0.
    """
    _check_grid(grid)
    (lo_a, hi_a), (lo_b, hi_b) = capsule_boxes(*segments_a), capsule_boxes(*segments_b)
    lo = np.maximum(lo_a[:, None], lo_b[None])      # (Ka, Kb, 3) intersections
    hi = np.minimum(hi_a[:, None], hi_b[None])
    meet = (lo <= hi).all(axis=-1)
    if not meet.any():
        return 0.0
    # Cell i has its center at (i + 0.5) * grid: [i0, i1) are the cells with
    # centers in [lo - grid / 2, hi + grid / 2].
    i0 = np.ceil(lo[meet] / grid - 1.0).astype(np.int64)
    i1 = np.floor(hi[meet] / grid).astype(np.int64) + 1
    base = i0.min(axis=0)
    tested = np.zeros(i1.max(axis=0) - base, dtype=bool)
    for (x0, y0, z0), (x1, y1, z1) in zip(i0 - base, i1 - base):
        tested[x0:x1, y0:y1, z0:z1] = True
    cells = np.flatnonzero(tested)
    count = 0
    for start in range(0, len(cells), VOLUME_BLOCK):
        ijk = np.unravel_index(cells[start:start + VOLUME_BLOCK], tested.shape)
        block = (np.stack(ijk, axis=1) + base + 0.5) * grid
        inside_a = block[model.occupancy(segments_a, block)]
        count += int(model.occupancy(segments_b, inside_a).sum())
    return count * (grid * 1000.0) ** 3


def _mean_depth_cm(report) -> float:
    """Mean projected depth of a contact in cm; every depth is > 0, so the
    result is 0 exactly when no vertex penetrates."""
    return float(report.depths.mean() * 100.0) if len(report) else 0.0


def penetration_distance(mesh_a, mesh_b) -> float:
    """Mean projected penetration depth of A's vertices into B, in cm."""
    return _mean_depth_cm(sampler.penetration_set(mesh_a.vertices, mesh_b))


def pair_stats(x_l: HandParam, x_r: HandParam, model=None, grid: float = 1e-3):
    """(pen_vol mm^3, pen_dist cm, min vertex distance m, penetrating?).

    The distance is exact below mesh.CONTACT_RADIUS and inf beyond it,
    which proximity_ratio reads alike, as PROXIMITY_TAU_M is smaller.
    Raises ValueError unless grid is finite and > 0 and both hands are
    finite, before posing either hand, whether or not the pair penetrates."""
    _check_grid(grid)
    if not (np.isfinite(x_l.vector).all() and np.isfinite(x_r.vector).all()):
        raise ValueError("non-finite hand parameters")
    model = model or default_hand()
    contact = sampler.penetration_set(model.posed_vertices(x_r),
                                      hand_model.left_hand_mesh(x_l, model))
    pen_dist = _mean_depth_cm(contact)
    penetrating = pen_dist > 0.0
    vol = 0.0
    if penetrating:
        vol = penetration_volume(hand_model.left_segments(x_l, model),
                                 model.posed_segments(x_r), model, grid)
    return vol, pen_dist, contact.min_distance, penetrating


def proximity_ratio(min_distances, penetrating) -> float:
    """Fraction of samples closer than PROXIMITY_TAU_M or interpenetrating."""
    min_distances = np.asarray(min_distances, dtype=float)
    penetrating = np.asarray(penetrating, dtype=bool)
    return float(((min_distances < PROXIMITY_TAU_M) | penetrating).mean())


# ---------------------------------------------------------------------------
# Report assembly


@dataclass
class MetricReport:
    """The metrics of one evaluate call; per_category holds each category's
    own metrics when the sets carry labels. backbone_checksum is
    checkpoint.checksum of the backbone's weights, as a saved backbone's
    manifest records it.
    """

    fhid: float
    khid: float
    diversity: float
    precision: float
    recall: float
    pen_vol_mm3: float
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


def dataset_features(dataset, backbone, model, seed: int) -> np.ndarray:
    """Backbone features (N, feature_dim) of every record's capsule surface
    cloud, in one features call; record i draws its cloud at seed + i."""
    clouds = sample_surface_points(*pair_segments(*dataset.pair(np.arange(len(dataset))), model),
                                   backbone.config.n_surface, seed)
    return backbone.features(clouds)


_REFERENCE_MEMO = weakref.WeakKeyDictionary()  # backbone -> (key, reference features)


def evaluate(reference, generated, backbone, model=None, seed: int = 0,
             grid: float = 1e-3) -> MetricReport:
    """Full metric report of a generated set against a reference set.

    The whole reference and the whole generated set are featurized once
    each (dataset_features, at seed and at seed + len(reference)), and
    pair_stats runs once per generated pair. Each report reads a row group
    of those arrays. When both sets carry object category labels, each
    category is a group (its rows in each set), per_category holds its
    report, and the top-level fields are the category means; a generated
    category with no reference records raises ValueError. Otherwise the one
    group is every row, and per_category is empty.

    FHID fits a covariance to each set's backbone features. More than
    ``backbone.config.feature_dim`` (128) pairs per set (or per category)
    are needed for it to be full rank, but they are not enough: dead
    features keep the untrained backbone's rank at 78 even at 512 pairs.
    A rank-deficient set warns DegenerateCovariance, and the value is still
    exact to rounding (see fhid).

    Each call stores one memo entry per backbone, (key, read-only reference
    features), in place of the last; it goes away with the backbone. A call
    reuses it only if every weight is float32 (so checkpoint.checksum names
    the weights exactly) and the key is equal: the same ``model`` object
    (hands are immutable), ``seed``, ``backbone.config``, weight checksum
    and reference row bytes. So a warm report is bit for bit a cold one.

    Raises ValueError unless grid is finite and > 0, before any features.
    """
    _check_grid(grid)
    model = model or default_hand()
    groups = {None: (slice(None), slice(None))}
    if reference.categories and generated.categories:
        ref_labels, gen_labels = np.array(reference.categories), np.array(generated.categories)
        groups = {cat: (ref_labels == cat, gen_labels == cat)
                  for cat in sorted(set(generated.categories))}
        missing = [cat for cat, (in_ref, _) in groups.items() if not in_ref.any()]
        if missing:
            raise ValueError(f"no reference records of categories {missing}")

    weight_checksum = checksum(backbone.params)
    key = (model, seed, backbone.config, weight_checksum, reference.params.tobytes())
    memo = _REFERENCE_MEMO.get(backbone)
    if memo is not None and memo[0] == key and \
            all(w.dtype == np.float32 for w in backbone.params.values()):
        f_ref = memo[1]
    else:
        f_ref = dataset_features(reference, backbone, model, seed)
        f_ref.flags.writeable = False
        _REFERENCE_MEMO[backbone] = (key, f_ref)
    f_gen = dataset_features(generated, backbone, model, seed + len(reference))
    vols, dists, mins, pens = np.array([pair_stats(*generated.pair(i), model, grid)
                                        for i in range(len(generated))]).reshape(-1, 4).T

    reports = {}
    for cat, (r, g) in groups.items():
        f_r, f_g = f_ref[r], f_gen[g]
        precision, recall = precision_recall(f_r, f_g)
        reports[cat] = {"fhid": fhid(f_r, f_g), "khid": khid(f_r, f_g),
                        "diversity": diversity(f_g, seed=seed),
                        "precision": precision, "recall": recall,
                        "pen_vol_mm3": float(np.mean(vols[g])),
                        "pen_dist_cm": float(np.mean(dists[g])),
                        "prox_ratio": proximity_ratio(mins[g], pens[g])}
    return MetricReport(
        **{k: float(np.mean([v[k] for v in reports.values()])) for k in reports[cat]},
        n_reference=len(reference),
        n_generated=len(generated),
        backbone_checksum=weight_checksum,
        per_category={} if None in reports else reports,
    )
