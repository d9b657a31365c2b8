"""Triangle-mesh container and the geometry ops shared across modules.

Vertices are meters; faces are counter-clockwise when viewed from outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .errors import ZeroAreaStar
from .nn import TAG_SURFACE, rng_stream
from .rotations import MIRROR_MAT


@dataclass
class HandMesh:
    """Vertices and faces; normals and a k-d tree are derived on first use
    and cached, so the vertices must not change after either is read."""

    vertices: np.ndarray          # (V, 3) float
    faces: np.ndarray             # (F, 3) int, CCW outward

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.faces = np.asarray(self.faces, dtype=np.int64)

    @cached_property
    def normals(self) -> np.ndarray:
        """(V, 3) unit, area-weighted vertex normals."""
        return vertex_normals(self.vertices, self.faces)

    @cached_property
    def tree(self) -> cKDTree:
        """k-d tree over the vertices, for nearest-vertex queries."""
        return cKDTree(self.vertices)


def vertex_normals(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Area-weighted vertex normals, normalized to unit length.

    The unnormalized face cross products already carry the area weighting;
    each vertex accumulates the cross products of its incident faces, in
    the order of faces[:, 0], then faces[:, 1], then faces[:, 2].
    Raises ZeroAreaStar if any accumulated normal has norm < 1e-12.
    """
    v0, v1, v2 = vertices[faces[:, 0]], vertices[faces[:, 1]], vertices[faces[:, 2]]
    cross = np.tile(np.cross(v1 - v0, v2 - v0), (3, 1))
    acc = np.stack([np.bincount(faces.T.ravel(), cross[:, c], minlength=len(vertices))
                    for c in range(3)], axis=1)
    norms = np.linalg.norm(acc, axis=1)
    bad = np.flatnonzero(norms < 1e-12)
    if bad.size:
        raise ZeroAreaStar(f"degenerate vertex star(s) at indices {bad[:8].tolist()}")
    return acc / norms[:, None]


def mirror_mesh(mesh: HandMesh) -> HandMesh:
    """x-negated copy with face orientation flipped (stays outward-CCW)."""
    verts = mesh.vertices @ MIRROR_MAT.T
    faces = mesh.faces[:, ::-1].copy()
    return HandMesh(verts, faces)


def sample_surface_points(meshes, n: int, seed: int) -> np.ndarray:
    """Area-weighted uniform surface samples over the union of ``meshes``,
    a sequence of HandMesh.

    Deterministic for a given seed: triangle choice is multinomial in the
    concatenated area table, positions use the sqrt barycentric trick.
    """
    tris = np.concatenate([m.vertices[m.faces] for m in meshes], axis=0)   # (F, 3, 3)
    areas = 0.5 * np.linalg.norm(np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]),
                                 axis=1)
    probs = areas / areas.sum()
    rng = rng_stream(seed, TAG_SURFACE)
    idx = rng.choice(len(tris), size=n, p=probs)
    r1 = np.sqrt(rng.random(n))
    r2 = rng.random(n)
    a = 1.0 - r1
    b = r1 * (1.0 - r2)
    c = r1 * r2
    chosen = tris[idx]
    return a[:, None] * chosen[:, 0] + b[:, None] * chosen[:, 1] + c[:, None] * chosen[:, 2]

