"""Hierarchical point-set encoder: FPS + radius grouping + pooled MLPs.

Two set-abstraction levels followed by a global max pool. Grouping keeps
every point inside the radius (no per-group cap), so the embedding is
exactly invariant to input permutation up to floating ties. Groups are
ragged, as in PointNet++ (Qi et al. 2017): the member rows of all groups
are stacked one group after another, with no padding, the shared MLP runs
on those rows only, and each group is max-pooled over its own rows.
Gradients flow through features and weights only; point coordinates are
treated as data.
"""

from __future__ import annotations

import numpy as np

from .errors import TooFewPoints
from .nn import Linear, relu_backward, relu_forward


def _sq_dist(xyz: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances from (N,3) points to (..., 3) centers -> (..., N).

    Summed by coordinate, ((dx^2 + dy^2) + dz^2), as np.sum over a length-3
    axis sums them, without the slow small-axis reduction.
    """
    x, y, z = xyz.T
    cx, cy, cz = (centers[..., k, None] for k in range(3))
    return (x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2


def farthest_point_indices(xyz: np.ndarray, m: int) -> np.ndarray:
    """Deterministic FPS seeded at the point farthest from the centroid."""
    n = len(xyz)
    m = min(m, n)
    d0 = _sq_dist(xyz, xyz.mean(axis=0))
    idx = np.empty(m, dtype=np.int64)
    idx[0] = int(np.argmax(d0))
    dist = _sq_dist(xyz, xyz[idx[0]])
    for k in range(1, m):
        idx[k] = int(np.argmax(dist))
        dist = np.minimum(dist, _sq_dist(xyz, xyz[idx[k]]))
    return idx


class SetAbstraction:
    """One grouping level: centroids gather neighbors, shared MLP, max pool."""

    def __init__(self, name: str, n_centroid: int, radius: float, dims: list[int]):
        self.name = name
        self.n_centroid = n_centroid
        self.radius = radius
        self.dims = dims
        self.linears = [
            Linear(f"{name}.mlp{i}", dims[i], dims[i + 1]) for i in range(len(dims) - 1)
        ]

    def init(self, params, rng) -> None:
        # Nonzero biases keep a centroid's all-zero relative row off the
        # ReLU/max-pool tie manifold, where pooling argmaxes are ill-defined.
        for lin in self.linears:
            lin.init(params, rng, bias_scale=0.02)

    def forward(self, params, xyz, feats, cache=None):
        """xyz: (N,3); feats: (N,C) or None -> (centroid xyz (M,3), (M,dims[-1]))."""
        cidx = farthest_point_indices(xyz, self.n_centroid)
        centroids = xyz[cidx]
        # Ragged groups, centroid-major, members in index order; every group
        # holds at least its own centroid, so no group is empty.
        rows, cols = np.nonzero(_sq_dist(xyz, centroids) <= self.radius**2)
        bounds = np.searchsorted(rows, np.arange(len(centroids) + 1))
        rel = xyz[cols] - centroids[rows]
        h = rel if feats is None else np.concatenate([rel, feats[cols]], axis=1)
        local_cache = {} if cache is not None else None
        for k, lin in enumerate(self.linears):
            h = lin.forward(params, h, local_cache)
            h = relu_forward(h, f"{self.name}.relu{k}", local_cache)
        # Max pool: per group and channel, the first member row that reaches
        # the max (a loop over groups beats np.maximum.reduceat here).
        arg = np.stack([h[lo:hi].argmax(axis=0) + lo
                        for lo, hi in zip(bounds[:-1], bounds[1:])])
        if cache is not None:
            cache[self.name] = (local_cache, cols, arg, feats is not None)
        return centroids, h[arg, np.arange(h.shape[1])]

    def backward(self, params, grads, dpooled, cache, n_points):
        """Returns gradient w.r.t. the input feats (None when feats was None)."""
        local_cache, cols, arg, had_feats = cache[self.name]
        dh = np.zeros((len(cols), dpooled.shape[1]))
        dh[arg, np.arange(dpooled.shape[1])] = dpooled
        for k in range(len(self.linears) - 1, -1, -1):
            dh = relu_backward(dh, f"{self.name}.relu{k}", local_cache)
            dh = self.linears[k].backward(params, grads, dh, local_cache)
        if not had_feats:
            return None
        dfeats = np.zeros((n_points, dh.shape[1] - 3))
        np.add.at(dfeats, cols, dh[:, 3:])
        return dfeats


# Per level: centroid count and MLP widths. Clouds need MIN_POINTS points.
N_CENTROIDS = (128, 32)
WIDTHS = ((32, 64), (64, 128))
MIN_POINTS = 16


class PointSetEncoder:
    """Two set-abstraction levels -> global max pool -> linear projection."""

    def __init__(self, name: str, out_dim: int, radii=(0.03, 0.09)):
        self.name = name
        self.sa1 = SetAbstraction(name + ".sa1", N_CENTROIDS[0], radii[0],
                                  [3, *WIDTHS[0]])
        self.sa2 = SetAbstraction(name + ".sa2", N_CENTROIDS[1], radii[1],
                                  [WIDTHS[0][-1] + 3, *WIDTHS[1]])
        self.head = Linear(name + ".head", WIDTHS[1][-1], out_dim)
        self.out_dim = out_dim

    def init(self, params, rng) -> None:
        self.sa1.init(params, rng)
        self.sa2.init(params, rng)
        self.head.init(params, rng)

    def forward_one(self, params, cloud, cache=None):
        cloud = np.asarray(cloud, dtype=float)
        if cloud.ndim != 2 or cloud.shape[1] != 3:
            raise TooFewPoints(f"expected (N,3) cloud, got {cloud.shape}")
        if len(cloud) < MIN_POINTS:
            raise TooFewPoints(f"need at least {MIN_POINTS} points, got {len(cloud)}")
        xyz1, f1 = self.sa1.forward(params, cloud, None, cache)
        xyz2, f2 = self.sa2.forward(params, xyz1, f1, cache)
        arg = f2.argmax(axis=0)
        pooled = f2[arg, np.arange(f2.shape[1])]
        if cache is not None:
            cache[self.name + ".gpool"] = (arg, f2.shape, len(xyz1), len(cloud))
        return self.head.forward(params, pooled[None, :], cache)[0]

    def backward_one(self, params, grads, dout, cache) -> None:
        dpooled = self.head.backward(params, grads, dout[None, :], cache)[0]
        arg, f2_shape, n1, n0 = cache[self.name + ".gpool"]
        df2 = np.zeros(f2_shape)
        df2[arg, np.arange(f2_shape[1])] = dpooled
        df1 = self.sa2.backward(params, grads, df2, cache, n1)
        self.sa1.backward(params, grads, df1, cache, n0)

    def forward_batch(self, params, clouds, cache=None):
        """(B, out_dim) embeddings; per-cloud caches go under cache[self.name]."""
        per_cloud = [{} if cache is not None else None for _ in clouds]
        out = np.empty((len(clouds), self.out_dim))
        for i, (cloud, one) in enumerate(zip(clouds, per_cloud)):
            out[i] = self.forward_one(params, cloud, one)
        if cache is not None:
            cache[self.name] = per_cloud
        return out

    def backward_batch(self, params, grads, dout, cache) -> None:
        """Accumulates grads cloud by cloud for a forward_batch made with cache."""
        for i, one in enumerate(cache[self.name]):
            self.backward_one(params, grads, dout[i], one)
