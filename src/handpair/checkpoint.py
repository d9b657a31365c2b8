"""Shared checkpoint format: JSON manifest + one little-endian float32 blob.

The manifest maps tensor names to (shape, dtype, byte offset) into
weights.f32, echoes the schedule and run config, and carries a blob
checksum. Tensors are laid out in sorted-name order, so identical weights
serialize to identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import __version__
from .denoiser import Denoiser, DenoiserConfig
from .diffusion import DiffusionSchedule, make_schedule
from .errors import ChecksumMismatch, LayoutMismatch


def save_checkpoint(path, tensors: dict, manifest_extra: dict) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    entries = {}
    parts = []
    offset = 0
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f4")
        raw = arr.tobytes()
        entries[name] = {"shape": list(arr.shape), "dtype": "<f4", "offset": offset}
        parts.append(raw)
        offset += len(raw)
    blob = b"".join(parts)
    (path / "weights.f32").write_bytes(blob)
    manifest = {
        "tensors": entries,
        "checksum": hashlib.sha256(blob).hexdigest(),
        "tool_version": __version__,
        **manifest_extra,
    }
    (path / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))


def load_checkpoint(path):
    """Returns (tensors as float64, manifest dict)."""
    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text())
    blob = (path / "weights.f32").read_bytes()
    if hashlib.sha256(blob).hexdigest() != manifest["checksum"]:
        raise ChecksumMismatch("weights.f32 checksum does not match the manifest")
    tensors = {}
    for name, entry in manifest["tensors"].items():
        count = int(np.prod(entry["shape"])) if entry["shape"] else 1
        start = entry["offset"]
        end = start + count * 4
        if end > len(blob):
            raise LayoutMismatch(f"{name}: blob too short for declared shape")
        tensors[name] = np.frombuffer(blob[start:end], dtype="<f4").astype(float)
        tensors[name] = tensors[name].reshape(entry["shape"])
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
    tensors, manifest = load_checkpoint(path)
    if manifest.get("kind") != "denoiser":
        raise LayoutMismatch(f"expected a denoiser checkpoint, got {manifest.get('kind')!r}")
    config = DenoiserConfig(profile=manifest["profile"],
                            object_conditional=manifest["object_conditional"])
    den = Denoiser(config, params=tensors)
    s = manifest["schedule"]
    return den, make_schedule(s["T"], s["beta1"], s["betaT"]), manifest
