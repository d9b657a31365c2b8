"""Dataset records, the synthetic pair generator, and the record split.

A record is 2 * DIM = 128 little-endian float32 values [x_l | x_r] in meters
(plus an optional 512x3 object cloud and a category label). Datasets hold
float32 natively, so the values the generator accepts are the values stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sampler
from .errors import EmptyDataset, RejectionStall
from .hand_model import DIM, HandParam, default_hand
from .nn import TAG_DATA, TAG_SPLIT, rng_stream
from .rotations import axis_angle_to_matrix, geodesic_angle, matrix_to_rot6d, rot6d_to_matrix

OBJECT_POINTS = 512


class Dataset:
    """Fixed-size float32 record table with optional object clouds."""

    def __init__(self, params: np.ndarray, objects: np.ndarray | None = None,
                 categories: list[str] | None = None,
                 mode_ids: np.ndarray | None = None):
        self.params = np.ascontiguousarray(params, dtype="<f4").reshape(-1, 2 * DIM)
        self.objects_ = None
        if objects is not None:
            self.objects_ = np.ascontiguousarray(objects, dtype="<f4").reshape(
                len(self.params), OBJECT_POINTS, 3)
        self.categories = list(categories) if categories is not None else None
        self.mode_ids = np.asarray(mode_ids, dtype=np.int64) if mode_ids is not None else None
        for name in ("categories", "mode_ids"):
            labels = getattr(self, name)
            if labels is not None and np.shape(labels) != (len(self.params),):
                raise ValueError(f"{name} needs one entry per record, {len(self.params)}, "
                                 f"got shape {np.shape(labels)}")

    def __len__(self) -> int:
        return len(self.params)

    @property
    def has_objects(self) -> bool:
        return self.objects_ is not None

    def pair(self, idx):
        """(x_l, x_r) of record ``idx``, or stacked over an index array."""
        rows = self.params[idx].astype(float)
        return HandParam(rows[..., :DIM]), HandParam(rows[..., DIM:])

    def objects(self, idx) -> np.ndarray:
        return self.objects_[_rows(idx)].astype(float)

    def subset(self, idx) -> "Dataset":
        """Records at an index list or array, or where a boolean mask is true."""
        idx = _rows(idx)
        return Dataset(
            self.params[idx],
            self.objects_[idx] if self.has_objects else None,
            [self.categories[i] for i in idx] if self.categories is not None else None,
            self.mode_ids[idx] if self.mode_ids is not None else None,
        )


def _rows(idx) -> np.ndarray:
    """Integer rows of an index list or array, or of a boolean mask."""
    idx = np.asarray(idx, dtype=np.intp if np.size(idx) == 0 else None)  # [] is float64
    return np.flatnonzero(idx) if idx.dtype == bool else idx


# ---------------------------------------------------------------------------
# Synthetic generator


@dataclass
class ModeSpec:
    """One interaction mode: anchor/partner articulation plus the relative
    root transform distribution (rotation cone + translation Gaussian)."""

    anchor_theta: np.ndarray
    partner_theta: np.ndarray
    rel_rotation: np.ndarray            # (3,3) mode-mean rotation
    rel_translation_mean: np.ndarray    # (3,), meters
    rotation_cone: float = 0.1          # radians
    rel_translation_sigma: float = 0.008
    object_shape: str | None = None     # "box" | "ball" when objects are on


@dataclass
class SyntheticSpec:
    modes: list[ModeSpec]
    count: int = 1000
    seed: int = 0
    theta_jitter: float = 0.04
    beta_sigma: float = 0.04
    max_penetration: float = 0.0        # reject pairs with loss above this
    with_objects: bool = False

    def __post_init__(self):
        if len(self.modes) < 1:
            raise ValueError("need at least one mode")
        if self.count < 0:
            raise ValueError("count must be >= 0")
        if not (self.theta_jitter >= 0 and self.beta_sigma >= 0):
            raise ValueError(f"jitter sigmas must be >= 0, got theta_jitter "
                             f"{self.theta_jitter} and beta_sigma {self.beta_sigma}")
        if not self.max_penetration >= 0:
            raise ValueError(f"max_penetration must be >= 0, got {self.max_penetration}")

    def classify(self, x_l: HandParam, x_r: HandParam):
        """Nearest mode by normalized root-transform + articulation distance;
        an int for one pair, an int array for a stack."""
        scores = []
        R = rot6d_to_matrix(x_r.omega)
        for m in self.modes:
            dt = np.linalg.norm(x_r.tau - m.rel_translation_mean, axis=-1)
            da = geodesic_angle(m.rel_rotation, R)
            dth = np.linalg.norm(x_l.theta - m.anchor_theta, axis=-1)
            scores.append(dt / 0.05 + da / np.pi + dth / max(np.linalg.norm(m.anchor_theta), 1e-6))
        mode = np.argmin(scores, axis=0)
        return int(mode) if mode.ndim == 0 else mode


def _curl_pose(rng: np.random.Generator, lo: float, hi: float) -> np.ndarray:
    """Finger curl about local x with slight out-of-plane noise."""
    theta = np.zeros((15, 3))
    theta[:, 0] = rng.uniform(lo, hi, 15)
    theta[:, 1:] = rng.normal(0.0, 0.03, (15, 2))
    return theta.reshape(45)


def two_mode_spec(count: int = 4000, seed: int = 0, max_penetration: float = 0.0,
                  with_objects: bool = False) -> SyntheticSpec:
    """Default desk-scale dataset: two well-separated interaction modes."""
    rng = np.random.default_rng(1234)
    mode0 = ModeSpec(
        anchor_theta=_curl_pose(rng, 0.10, 0.30),
        partner_theta=_curl_pose(rng, 0.10, 0.30),
        rel_rotation=np.eye(3),
        rel_translation_mean=np.array([0.13, 0.00, 0.00]),
        object_shape="box",
    )
    mode1 = ModeSpec(
        anchor_theta=_curl_pose(rng, 0.55, 0.85),
        partner_theta=_curl_pose(rng, 0.55, 0.85),
        rel_rotation=axis_angle_to_matrix(np.array([0.0, 0.0, np.pi])),
        rel_translation_mean=np.array([0.10, 0.17, 0.02]),
        object_shape="ball",
    )
    return SyntheticSpec([mode0, mode1], count=count, seed=seed,
                         max_penetration=max_penetration, with_objects=with_objects)


def overlapping_spec(count: int = 600, seed: int = 0) -> SyntheticSpec:
    """Close-contact variant whose raw draws frequently interpenetrate;
    pair with max_penetration=inf to study anti-penetration guidance."""
    spec = two_mode_spec(count=count, seed=seed, max_penetration=np.inf)
    for m in spec.modes:
        m.rel_translation_mean = m.rel_translation_mean * np.array([0.52, 0.7, 1.0])
        m.rel_translation_sigma = 0.012
    return spec


def _object_cloud(shape: str, rng: np.random.Generator) -> np.ndarray:
    """Surface cloud of a small conditioning object centered at the origin."""
    n = OBJECT_POINTS
    if shape == "box":
        half = np.array([0.035, 0.025, 0.03])
        face = rng.integers(0, 6, n)
        pts = rng.uniform(-1.0, 1.0, (n, 3))
        axis = face // 2
        pts[np.arange(n), axis] = np.where(face % 2 == 0, -1.0, 1.0)
        return pts * half
    if shape == "ball":
        v = rng.standard_normal((n, 3))
        return 0.032 * v / np.linalg.norm(v, axis=1, keepdims=True)
    raise ValueError(f"unknown object shape {shape!r}")


def generate_synthetic(spec: SyntheticSpec, model=None) -> Dataset:
    """Draw pairs mode-by-mode, rejecting penetrating candidates.

    Every sample owns generator (seed, TAG_DATA + index), so generation is
    order-independent and byte-stable. The acceptance test for the rejection
    rule checks the stored float32 values, so the candidate is cast to f32
    before the penetration test. With max_penetration = inf every draw is
    accepted untested, as the test would accept every finite loss.
    """
    model = model or default_hand()
    K = len(spec.modes)
    params = np.empty((spec.count, 2 * DIM), dtype="<f4")
    mode_ids = np.empty(spec.count, dtype=np.int64)
    objects = np.empty((spec.count, OBJECT_POINTS, 3), dtype="<f4") if spec.with_objects else None
    categories = [] if spec.with_objects else None

    for i in range(spec.count):
        rng = rng_stream(spec.seed, TAG_DATA + i)
        k = int(rng.integers(0, K))
        mode = spec.modes[k]
        rejects = 0
        while True:
            beta = rng.normal(0.0, spec.beta_sigma, 10)
            theta_l = mode.anchor_theta + rng.normal(0.0, spec.theta_jitter, 45)
            theta_r = mode.partner_theta + rng.normal(0.0, spec.theta_jitter, 45)
            cone = rng.normal(0.0, mode.rotation_cone / np.sqrt(3.0), 3)
            R = mode.rel_rotation @ axis_angle_to_matrix(cone)
            tau = mode.rel_translation_mean + rng.normal(
                0.0, mode.rel_translation_sigma, 3)
            x_l = HandParam.from_parts(theta=theta_l, beta=beta)
            x_r = HandParam.from_parts(theta=theta_r, beta=beta,
                                       omega=matrix_to_rot6d(R), tau=tau)
            row = np.concatenate([x_l.vector, x_r.vector]).astype("<f4")
            if spec.max_penetration == np.inf:
                break
            stored = row.astype(float)
            stored_l, stored_r = HandParam(stored[:DIM]), HandParam(stored[DIM:])
            if sampler.penetration_loss(stored_r, stored_l, model) <= spec.max_penetration:
                break
            rejects += 1
            if rejects >= 1000:
                raise RejectionStall(f"sample {i}: 1000 consecutive rejections")
        params[i] = row
        mode_ids[i] = k
        if spec.with_objects:
            shape = mode.object_shape or "box"
            objects[i] = _object_cloud(shape, rng).astype("<f4")
            categories.append(shape)
    return Dataset(params, objects, categories, mode_ids)


def split_indices(n: int, fractions=(0.7, 0.15, 0.15), seed: int = 0):
    """Sorted row indices, one array per fraction, of a disjoint, exhaustive,
    seed-deterministic split: floor(f * n) rows each, leftovers one per part.
    Every fraction must lie in [0, 1] and together they must sum to 1."""
    if not all(0.0 <= f <= 1.0 for f in fractions):
        raise ValueError(f"fractions must lie in [0, 1], got {tuple(fractions)}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    if n == 0:
        raise EmptyDataset("cannot split an empty dataset")
    perm = rng_stream(seed, TAG_SPLIT).permutation(n)
    sizes = [int(np.floor(f * n)) for f in fractions]
    for i in range(n - sum(sizes)):
        sizes[i % len(sizes)] += 1
    bounds = np.cumsum([0, *sizes])
    return tuple(np.sort(perm[a:b]) for a, b in zip(bounds[:-1], bounds[1:]))
