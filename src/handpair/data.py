"""Dataset records, the synthetic pair generator, and serialization.

A record is 128 little-endian float32 values [x_l | x_r] (plus an optional
512x3 object cloud and a category label). Datasets hold float32 natively so
save/load round trips preserve bit patterns exactly. Units are meters and
the manifest says so; anything else is rejected rather than converted.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ChecksumMismatch, EmptyDataset, LayoutMismatch, RejectionStall
from .hand_model import HandParam, default_hand
from .nn import TAG_DATA, TAG_SPLIT, rng_stream
from .rotations import axis_angle_to_matrix, geodesic_angle, matrix_to_rot6d, rot6d_to_matrix

OBJECT_POINTS = 512


class Dataset:
    """Fixed-size float32 record table with optional object clouds."""

    def __init__(self, params: np.ndarray, objects: np.ndarray | None = None,
                 categories: list[str] | None = None,
                 mode_ids: np.ndarray | None = None):
        self.params = np.ascontiguousarray(params, dtype="<f4").reshape(-1, 128)
        self.objects_ = None
        if objects is not None:
            self.objects_ = np.ascontiguousarray(objects, dtype="<f4").reshape(
                len(self.params), OBJECT_POINTS, 3)
        self.categories = list(categories) if categories is not None else None
        self.mode_ids = np.asarray(mode_ids, dtype=np.int64) if mode_ids is not None else None

    def __len__(self) -> int:
        return len(self.params)

    @property
    def has_objects(self) -> bool:
        return self.objects_ is not None

    def pair(self, idx):
        """(x_l, x_r) of record ``idx``, or stacked over an index array."""
        rows = self.params[idx].astype(float)
        return HandParam(rows[..., :64]), HandParam(rows[..., 64:])

    def objects(self, idx) -> np.ndarray:
        return self.objects_[np.asarray(idx)].astype(float)

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(
            self.params[idx],
            self.objects_[idx] if self.has_objects else None,
            [self.categories[i] for i in idx] if self.categories else None,
            self.mode_ids[idx] if self.mode_ids is not None else None,
        )


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
        if min(self.theta_jitter, self.beta_sigma) < 0:
            raise ValueError("jitter sigmas must be >= 0")

    def classify(self, x_l: HandParam, x_r: HandParam) -> int:
        """Nearest mode by normalized root-transform + articulation distance."""
        scores = []
        R = rot6d_to_matrix(x_r.omega)
        for m in self.modes:
            dt = np.linalg.norm(x_r.tau - m.rel_translation_mean)
            da = geodesic_angle(m.rel_rotation, R)
            dth = np.linalg.norm(x_l.theta - m.anchor_theta)
            scores.append(dt / 0.05 + da / np.pi + dth / max(np.linalg.norm(m.anchor_theta), 1e-6))
        return int(np.argmin(scores))


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
    before the penetration test.
    """
    # Imported here, not at the top: the name is then read from the sampler
    # module on each call, so a wrapper installed on sampler.penetration_loss
    # (bench/spans.py's tracer) also sees the rejection loop's calls.
    from .sampler import penetration_loss

    model = model or default_hand()
    K = len(spec.modes)
    params = np.empty((spec.count, 128), dtype="<f4")
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
            stored_l, stored_r = Dataset(row).pair(0)
            if penetration_loss(stored_r, stored_l, model) <= spec.max_penetration:
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


# ---------------------------------------------------------------------------
# Serialization: manifest.json + params.f32 [+ objects.f32 + categories.json]


def save_dataset(path, dataset: Dataset) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    raw = dataset.params.astype("<f4").tobytes()
    (path / "params.f32").write_bytes(raw)
    manifest = {
        "kind": "two-hand-dataset",
        "count": len(dataset),
        "layout": "xl64,xr64",
        "units": "m",
        "object": dataset.has_objects,
        "checksum": hashlib.sha256(raw).hexdigest(),
    }
    if dataset.has_objects:
        obj_raw = dataset.objects_.astype("<f4").tobytes()
        (path / "objects.f32").write_bytes(obj_raw)
        manifest["object_points"] = OBJECT_POINTS
        manifest["objects_checksum"] = hashlib.sha256(obj_raw).hexdigest()
        (path / "categories.json").write_text(
            json.dumps(dataset.categories, sort_keys=True))
    if dataset.mode_ids is not None:
        (path / "modes.json").write_text(json.dumps(dataset.mode_ids.tolist()))
    (path / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))


def load_dataset(path) -> Dataset:
    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text())
    if manifest.get("units") != "m":
        raise LayoutMismatch(
            f"dataset units must be 'm', got {manifest.get('units')!r}; refusing to convert")
    if manifest.get("layout") != "xl64,xr64":
        raise LayoutMismatch(f"unsupported layout {manifest.get('layout')!r}")
    count = int(manifest["count"])
    raw = (path / "params.f32").read_bytes()
    if len(raw) != count * 128 * 4:
        raise LayoutMismatch(f"params.f32 is {len(raw)} bytes, expected {count * 128 * 4}")
    if hashlib.sha256(raw).hexdigest() != manifest["checksum"]:
        raise ChecksumMismatch("params.f32 checksum does not match the manifest")
    params = np.frombuffer(raw, dtype="<f4").reshape(count, 128)
    objects = categories = None
    if manifest.get("object"):
        obj_raw = (path / "objects.f32").read_bytes()
        expected = count * OBJECT_POINTS * 3 * 4
        if len(obj_raw) != expected:
            raise LayoutMismatch(f"objects.f32 is {len(obj_raw)} bytes, expected {expected}")
        if hashlib.sha256(obj_raw).hexdigest() != manifest.get("objects_checksum"):
            raise ChecksumMismatch("objects.f32 checksum does not match the manifest")
        objects = np.frombuffer(obj_raw, dtype="<f4").reshape(count, OBJECT_POINTS, 3)
        categories = json.loads((path / "categories.json").read_text())
    mode_ids = None
    if (path / "modes.json").exists():
        mode_ids = np.array(json.loads((path / "modes.json").read_text()), dtype=np.int64)
    return Dataset(params, objects, categories, mode_ids)


def split(dataset: Dataset, fractions=(0.7, 0.15, 0.15), seed: int = 0):
    """Disjoint, exhaustive, seed-deterministic (train, val, test) split."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fractions)}")
    n = len(dataset)
    if n == 0:
        raise EmptyDataset("cannot split an empty dataset")
    perm = rng_stream(seed, TAG_SPLIT).permutation(n)
    sizes = [int(np.floor(f * n)) for f in fractions]
    for i in range(n - sum(sizes)):
        sizes[i % len(sizes)] += 1
    out = []
    start = 0
    for size in sizes:
        out.append(dataset.subset(np.sort(perm[start:start + size])))
        start += size
    return tuple(out)
