"""Triangle meshes, which serve only as contact's anchors, and surface clouds of capsules.

An anchor owns everything contact reads of it: its normals, its k-d tree and
its reach box, each derived once per mesh. The moving hand reaches contact as
points. Vertices are meters; faces are counter-clockwise when viewed from outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .errors import ZeroAreaStar
from .nn import TAG_SURFACE, rng_stream
from .rotations import cross

# Contact radius, meters: contact looks for a moving point's nearest anchor
# vertex only this close. Every point inside a capsule of length L and radius
# r lies within sqrt((L/4)^2 + r^2) of one of its vertices (its rings sit at
# axial fractions 0, 1/2 and 1), which for default_hand() is at most 2.65 cm
# at beta = 0 and 4.33 cm at |beta_i| <= 2. So every point inside the anchor
# still finds its exact nearest vertex and its verdict; the radius drops only
# points outside the anchor and this far from all of its vertices, whose sign
# test reads a distant normal. It exceeds metrics.PROXIMITY_TAU_M, so proximity
# verdicts are unchanged too. HandMesh.reach widens the vertex box by this
# radius (and BOX_MARGIN): a point outside it is farther than the radius from
# every vertex, so contact skips its query rather than cutting it short.
CONTACT_RADIUS = 0.05
# Meters added to every box that must hold a set of points, so that rounding
# at a tangent point cannot drop a point from the exact test behind the box.
BOX_MARGIN = 1e-9


@dataclass
class HandMesh:
    """Vertices and faces; normals, a k-d tree and the reach box are derived
    on first use and cached, so the vertices must not change after any of
    them is read."""

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

    @cached_property
    def reach(self) -> np.ndarray:
        """(2, 3) corners lo, hi of the vertex box (the k-d tree's mins and
        maxes, bit for bit, without building the tree), widened by
        CONTACT_RADIUS + BOX_MARGIN: a point outside it is, along one axis
        alone, more than CONTACT_RADIUS from every vertex."""
        pad = CONTACT_RADIUS + BOX_MARGIN
        return np.stack([self.vertices.min(axis=0) - pad, self.vertices.max(axis=0) + pad])


def vertex_normals(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Area-weighted vertex normals, normalized to unit length.

    The unnormalized face cross products already carry the area weighting;
    each vertex accumulates the cross products of its incident faces, in
    the order of faces[:, 0], then faces[:, 1], then faces[:, 2]; a norm is
    sqrt((x^2 + y^2) + z^2), np.linalg.norm's sum. Raises ZeroAreaStar if
    any accumulated normal has norm < 1e-12.
    """
    v0, v1, v2 = vertices.take(faces.T, axis=0)
    # Row c holds component c of every face's cross product, once per corner.
    weights = np.tile(cross(v1 - v0, v2 - v0).T, 3)
    corners = faces.T.ravel()
    acc = np.stack([np.bincount(corners, w, minlength=len(vertices)) for w in weights], axis=1)
    x, y, z = acc.T
    norms = np.sqrt((x * x + y * y) + z * z)
    bad = np.flatnonzero(norms < 1e-12)
    if bad.size:
        raise ZeroAreaStar(f"degenerate vertex star(s) at indices {bad[:8].tolist()}")
    return acc / norms[:, None]


def sample_surface_points(e0, e1, radii, n: int, seed: int) -> np.ndarray:
    """n area-uniform points on each capsule set of a stack, endpoints (..., K, 3)
    twice and radii (..., K) -> (..., n, 3); cloud c draws from rng_stream(seed + c,
    TAG_SURFACE). A capsule of radius r = |radius|, as a caller may pass signed radii,
    is a side of area 2 pi r L and a sphere of area 4 pi r^2 split over its ends; a
    point picks a part by area, then a uniform axial fraction and angle on the side,
    or a uniform direction u from the end u faces."""
    *lead, k = np.shape(radii)
    radii, e0 = np.abs(np.reshape(radii, (-1, k))), np.reshape(e0, (-1, k, 3))
    w = np.reshape(e1, (-1, k, 3)) - e0
    length = np.linalg.norm(w, axis=-1)
    areas = np.stack([2 * np.pi * radii * length, 4 * np.pi * radii ** 2], axis=-1)
    p = areas.reshape(-1, 2 * k) / areas.sum(axis=(1, 2))[:, None]
    d = np.where(length[..., None] > 0, w, [0.0, 0.0, 1.0])     # unit axis, +z at length 0
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    x, y, s = d[..., 0], d[..., 1], np.where(d[..., 2] >= 0, 1.0, -1.0)
    h = -1.0 / (s + d[..., 2])
    f1 = np.stack([1 + s * x * x * h, s * x * y * h, -s * x], axis=-1)  # Duff et al., JCGT 2017
    f2 = np.stack([x * y * h, s + y * y * h, -y], axis=-1)
    out = np.empty((len(radii), n, 3))    # filled cloud by cloud, in one cloud's memory
    for c in range(len(radii)):
        rng = rng_stream(seed + c, TAG_SURFACE)
        part, (a, b) = rng.choice(2 * k, n, p=p[c]), rng.random((2, n))
        cap, on_sphere = part // 2, part % 2 == 1
        z, phi = np.where(on_sphere, 2 * a - 1, 0.0)[:, None], 2 * np.pi * b[:, None]
        ring = np.cos(phi) * f1[c, cap] + np.sin(phi) * f2[c, cap]
        centre = e0[c, cap] + np.where(on_sphere, z[:, 0] >= 0, a)[:, None] * w[c, cap]
        out[c] = centre + radii[c, cap, None] * (z * d[c, cap] + np.sqrt(1 - z ** 2) * ring)
    return out.reshape(*lead, n, 3)
