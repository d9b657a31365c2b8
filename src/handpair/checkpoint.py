"""The one on-disk format of every artifact: datasets and the denoiser and
backbone networks.

An artifact is a directory holding two files:
  weights.f32    its tensors as little-endian float32, concatenated in
                 sorted-name order, so identical tensors serialize to
                 identical bytes.
  manifest.json  "kind" (denoiser, backbone or two-hand-dataset);
                 "tensors", which maps each name to its
                 {"shape", "dtype": "<f4", "offset"} in the blob;
                 "checksum", the sha256 of the blob; "tool_version"; and
                 the fields of the kind (its config, units, labels, ...).

load_checkpoint(path, kind) checks, in this order, the kind, then the
layout (every entry is "<f4", and the entries in sorted-name order tile the
blob exactly, with no gap), then the checksum. So a truncated blob raises
LayoutMismatch and a blob with a changed byte raises ChecksumMismatch. A
manifest that is not a JSON object, a tensor entry that is not a mapping
with a shape, or a shape that is not a list of non-negative ints raises
LayoutMismatch too, chained from the original error where there is one.
Tensors load as stored, float32, and every loader keeps them, so a reload
is the saved artifact bit for bit.
The network loaders also raise LayoutMismatch, chained from the original
error, when the manifest lacks the denoiser's schedule or the backbone's
loss curve, when its config or schedule cannot be built, or when it builds
other tensors than the blob holds. The save_*/load_* pairs below are the
only code that reads or writes artifacts.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .backbone import BackboneConfig, FeatureBackbone
from .data import OBJECT_POINTS, Dataset
from .denoiser import Denoiser, DenoiserConfig
from .diffusion import DiffusionSchedule, make_schedule
from .errors import ChecksumMismatch, LayoutMismatch
from .hand_model import DIM


def checksum(tensors: dict) -> str:
    """sha256 of ``tensors`` as weights.f32 stores them: the name of a set of weights."""
    h = hashlib.sha256()
    for name in sorted(tensors):
        h.update(np.ascontiguousarray(tensors[name], dtype="<f4"))
    return h.hexdigest()


def save_checkpoint(path, tensors: dict, manifest_extra: dict) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    arrays = {name: np.ascontiguousarray(tensors[name], dtype="<f4") for name in sorted(tensors)}
    entries, offset = {}, 0
    for name, arr in arrays.items():
        entries[name] = {"shape": list(arr.shape), "dtype": "<f4", "offset": offset}
        offset += arr.nbytes
    (path / "weights.f32").write_bytes(b"".join(arr.tobytes() for arr in arrays.values()))
    manifest = {
        "tensors": entries,
        "checksum": checksum(arrays),
        "tool_version": __version__,
        **manifest_extra,
    }
    (path / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))


def load_checkpoint(path, kind: str):
    """Returns (tensors as stored, float32, manifest dict) of a ``kind`` artifact."""
    path = Path(path)
    try:
        manifest = json.loads((path / "manifest.json").read_text())
    except json.JSONDecodeError as err:
        raise LayoutMismatch(f"manifest.json is not JSON: {err}") from err
    if not isinstance(manifest, dict):
        raise LayoutMismatch("manifest.json does not hold a JSON object")
    if manifest.get("kind") != kind:
        raise LayoutMismatch(f"expected a {kind} artifact, got {manifest.get('kind')!r}")
    entries = manifest.get("tensors")
    if not isinstance(entries, dict) or "checksum" not in manifest:
        raise LayoutMismatch("manifest lacks its 'tensors' or 'checksum' field")
    blob = (path / "weights.f32").read_bytes()
    offset = 0
    for name in sorted(entries):
        entry = entries[name]
        try:
            placed = entry.get("dtype") == "<f4" and entry.get("offset") == offset
            shape = entry["shape"]
        except (AttributeError, KeyError) as err:
            raise LayoutMismatch(f"{name}: malformed tensor entry: {err!r}") from err
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise LayoutMismatch(f"{name}: shape {shape!r} is not a list of non-negative ints")
        if not placed:
            raise LayoutMismatch(f"{name}: expected a '<f4' tensor at byte {offset}")
        offset += 4 * math.prod(shape)
    if offset != len(blob):
        raise LayoutMismatch(f"tensors cover {offset} bytes of a {len(blob)}-byte blob")
    tensors = {
        name: np.frombuffer(blob, "<f4", math.prod(entry["shape"]), entry["offset"])
        .astype(np.float32).reshape(entry["shape"])
        for name, entry in entries.items()
    }
    if checksum(tensors) != manifest["checksum"]:
        raise ChecksumMismatch("weights.f32 checksum does not match the manifest")
    return tensors, manifest


def save_denoiser(path, denoiser: Denoiser, sched: DiffusionSchedule,
                  config_echo: dict | None = None) -> None:
    save_checkpoint(path, denoiser.params, {
        "kind": "denoiser",
        "profile": denoiser.config.profile,
        "object_conditional": denoiser.config.object_conditional,
        "schedule": {"T": sched.T, "beta1": float(sched.beta[0]),
                     "betaT": float(sched.beta[-1])},
        "config": config_echo or {},
    })


def load_denoiser(path):
    """Returns (denoiser, schedule, manifest)."""
    tensors, manifest = load_checkpoint(path, "denoiser")
    try:
        config = DenoiserConfig(profile=manifest["profile"],
                                object_conditional=manifest["object_conditional"])
        config.widths()
        s = manifest["schedule"]
        sched = make_schedule(s["T"], s["beta1"], s["betaT"])
    except (KeyError, TypeError, ValueError) as err:
        raise LayoutMismatch(f"manifest names no denoiser config or schedule: {err!r}") from err
    den = Denoiser(config, params=tensors)
    return den, sched, manifest


def save_backbone(path, backbone: FeatureBackbone) -> None:
    save_checkpoint(path, backbone.params, {
        "kind": "backbone",
        "config": asdict(backbone.config),
        "val_loss_curve": [float(v) for v in backbone.val_loss_curve],
    })


def load_backbone(path) -> FeatureBackbone:
    tensors, manifest = load_checkpoint(path, "backbone")
    try:
        config = BackboneConfig(**manifest["config"])
        curve = list(manifest["val_loss_curve"])
    except (KeyError, TypeError, ValueError) as err:
        raise LayoutMismatch(f"manifest names no backbone config or loss curve: {err!r}") from err
    bb = FeatureBackbone(config, params=tensors)
    bb.val_loss_curve = curve
    return bb


def save_dataset(path, dataset: Dataset) -> None:
    tensors = {"params": dataset.params}
    if dataset.objects is not None:
        tensors["objects"] = dataset.objects
    save_checkpoint(path, tensors, {
        "kind": "two-hand-dataset",
        "layout": "xl64,xr64",
        "units": "m",
        "categories": dataset.categories,
        "mode_ids": None if dataset.mode_ids is None else dataset.mode_ids.tolist(),
    })


def load_dataset(path) -> Dataset:
    """Units are meters; anything else is rejected rather than converted."""
    tensors, manifest = load_checkpoint(path, "two-hand-dataset")
    if manifest.get("units") != "m":
        raise LayoutMismatch(
            f"dataset units must be 'm', got {manifest.get('units')!r}; refusing to convert")
    if manifest.get("layout") != "xl64,xr64":
        raise LayoutMismatch(f"unsupported layout {manifest.get('layout')!r}")
    params = tensors.get("params")
    n = len(params) if np.ndim(params) else 0
    shapes = {"params": (n, 2 * DIM), "objects": (n, OBJECT_POINTS, 3)}
    if params is None or any(t.shape != shapes.get(k) for k, t in tensors.items()):
        raise LayoutMismatch(f"dataset tensors disagree on the {n}-record count")
    try:
        return Dataset(params, tensors.get("objects"),
                       manifest.get("categories"), manifest.get("mode_ids"))
    except (TypeError, ValueError) as err:
        raise LayoutMismatch(f"dataset labels do not fit its {n} records: {err!r}") from err

