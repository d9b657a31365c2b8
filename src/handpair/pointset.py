"""Hierarchical point-set encoder: FPS + radius grouping + pooled MLPs.

Two set-abstraction levels followed by a global max pool. Grouping keeps
every point inside the radius (no per-group cap), so the embedding is
exactly invariant to input permutation up to floating ties. Gradients flow
through features and weights only; point coordinates are treated as data.
"""

from __future__ import annotations

import numpy as np

from .errors import TooFewPoints
from .nn import Linear, relu_backward, relu_forward


def farthest_point_indices(xyz: np.ndarray, m: int) -> np.ndarray:
    """Deterministic FPS seeded at the point farthest from the centroid."""
    n = len(xyz)
    m = min(m, n)
    d0 = np.sum((xyz - xyz.mean(axis=0)) ** 2, axis=1)
    idx = np.empty(m, dtype=np.int64)
    idx[0] = int(np.argmax(d0))
    dist = np.sum((xyz - xyz[idx[0]]) ** 2, axis=1)
    for k in range(1, m):
        idx[k] = int(np.argmax(dist))
        dist = np.minimum(dist, np.sum((xyz - xyz[idx[k]]) ** 2, axis=1))
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
        d2 = np.sum((xyz[None, :, :] - centroids[:, None, :]) ** 2, axis=2)
        inside = d2 <= self.radius**2           # (M,N); includes the centroid
        kmax = int(inside.sum(axis=1).max())
        M = len(cidx)
        member = np.zeros((M, kmax), dtype=np.int64)
        valid = np.zeros((M, kmax), dtype=bool)
        for i in range(M):
            members = np.flatnonzero(inside[i])
            member[i, : len(members)] = members
            valid[i, : len(members)] = True
        rel = xyz[member] - centroids[:, None, :]
        if feats is None:
            h = rel
        else:
            h = np.concatenate([rel, feats[member]], axis=2)
        local_cache = {} if cache is not None else None
        for k, lin in enumerate(self.linears):
            h = lin.forward(params, h, local_cache)
            h = relu_forward(h, f"{self.name}.relu{k}", local_cache)
        h = np.where(valid[:, :, None], h, -np.inf)
        arg = h.argmax(axis=1)                  # (M, C_out)
        pooled = np.take_along_axis(h, arg[:, None, :], axis=1)[:, 0, :]
        if cache is not None:
            cache[self.name] = (local_cache, member, valid, arg, h.shape,
                                feats is not None)
        return centroids, pooled

    def backward(self, params, grads, dpooled, cache, n_points):
        """Returns gradient w.r.t. the input feats (None when feats was None)."""
        local_cache, member, valid, arg, h_shape, had_feats = cache[self.name]
        dh = np.zeros(h_shape)
        np.put_along_axis(dh, arg[:, None, :], dpooled[:, None, :], axis=1)
        for k in range(len(self.linears) - 1, -1, -1):
            dh = relu_backward(dh, f"{self.name}.relu{k}", local_cache)
            dh = self.linears[k].backward(params, grads, dh, local_cache)
        if not had_feats:
            return None
        dfeats_members = dh[:, :, 3:]
        dfeats = np.zeros((n_points, dfeats_members.shape[2]))
        flat_idx = member[valid]
        np.add.at(dfeats, flat_idx, dfeats_members[valid])
        return dfeats


class PointSetEncoder:
    """Two set-abstraction levels -> global max pool -> linear projection."""

    def __init__(self, name: str, out_dim: int,
                 n_centroids=(128, 32), radii=(0.03, 0.09),
                 widths=((32, 64), (64, 128)), min_points: int = 16):
        self.name = name
        self.min_points = min_points
        self.sa1 = SetAbstraction(name + ".sa1", n_centroids[0], radii[0],
                                  [3, *widths[0]])
        self.sa2 = SetAbstraction(name + ".sa2", n_centroids[1], radii[1],
                                  [widths[0][-1] + 3, *widths[1]])
        self.head = Linear(name + ".head", widths[1][-1], out_dim)
        self.out_dim = out_dim

    def init(self, params, rng) -> None:
        self.sa1.init(params, rng)
        self.sa2.init(params, rng)
        self.head.init(params, rng)

    def forward_one(self, params, cloud, cache=None):
        cloud = np.asarray(cloud, dtype=float)
        if cloud.ndim != 2 or cloud.shape[1] != 3:
            raise TooFewPoints(f"expected (N,3) cloud, got {cloud.shape}")
        if len(cloud) < self.min_points:
            raise TooFewPoints(f"need at least {self.min_points} points, got {len(cloud)}")
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

    def forward_batch(self, params, clouds, caches=None):
        out = np.empty((len(clouds), self.out_dim))
        for i, cloud in enumerate(clouds):
            cache = {} if caches is not None else None
            out[i] = self.forward_one(params, cloud, cache)
            if caches is not None:
                caches.append(cache)
        return out

    def backward_batch(self, params, grads, dout, caches) -> None:
        for i, cache in enumerate(caches):
            self.backward_one(params, grads, dout[i], cache)
