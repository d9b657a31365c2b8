"""Hierarchical point-set encoder: FPS + radius grouping + pooled MLPs.

Two set-abstraction levels followed by a global max pool. Grouping keeps
every point inside the radius (no per-group cap), so the embedding is
exactly invariant to input permutation up to floating ties. Groups are
ragged, as in PointNet++ (Qi et al. 2017): the member rows of all groups
are stacked one group after another, with no padding, the shared MLP runs
on those rows only, and each group is max-pooled over its own rows.
Gradients flow through features and weights only; point coordinates are
treated as data. Coordinates, sampling and grouping are float64; the MLPs
run in the dtype of their weights.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch, TooFewPoints
from .nn import Linear, relu_backward


def _sq_dist(xyz: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances from (N,3) points to (..., 3) centers -> (..., N).

    Summed by coordinate, ((dx^2 + dy^2) + dz^2), as np.sum over a length-3
    axis sums them, without the slow small-axis reduction.
    """
    x, y, z = xyz.T
    cx, cy, cz = (centers[..., k, None] for k in range(3))
    return (x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2


def farthest_point_indices(xyz: np.ndarray, m: int):
    """Deterministic FPS seeded at the point farthest from the centroid.

    Returns (idx (m,), d2 (m, N)): d2[k] is _sq_dist(xyz, xyz[idx[k]]) bit
    for bit, the distance row the sampling computes for each pick, kept for
    grouping. The rows are summed in _sq_dist's order from contiguous x, y
    and z, straight into d2.
    """
    n = len(xyz)
    m = min(m, n)
    coords = np.ascontiguousarray(xyz.T)                # (3, N)
    diff = np.empty_like(coords)
    d2 = np.empty((m, n), coords.dtype)
    idx = np.empty(m, dtype=np.int64)

    def row(k):
        np.subtract(coords, xyz[idx[k], :, None], out=diff)
        np.square(diff, out=diff)
        np.add(diff[0], diff[1], out=d2[k])
        d2[k] += diff[2]
        return d2[k]

    idx[0] = int(np.argmax(_sq_dist(xyz, xyz.mean(axis=0))))
    dist = row(0).copy()
    for k in range(1, m):
        idx[k] = int(np.argmax(dist))
        np.minimum(dist, row(k), out=dist)
    return idx, d2


def _first_max_rows(h: np.ndarray, pooled: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per group and channel, the first row of h that reaches the group's
    max in pooled, as argmax picks it: a group whose max is NaN routes to
    its first NaN row. Groups are the row runs that begin at starts."""
    hit = h == np.repeat(pooled, np.diff(starts, append=len(h)), axis=0)
    hit |= np.isnan(h)
    rows = np.where(hit, np.arange(len(h))[:, None], len(h))
    return np.minimum.reduceat(rows, starts, axis=0)


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

    def _group(self, xyz, feats, dtype):
        """Centroids (M,3), member indices, group starts and the MLP input
        rows [member - centroid | member feats] in dtype. Groups are ragged,
        centroid-major, members in index order; every group holds at least
        its own centroid, so no group is empty. A method of its own so that
        the (M, N) distances are freed before the MLP runs."""
        cidx, d2 = farthest_point_indices(xyz, self.n_centroid)
        centroids = xyz[cidx]
        rows, cols = np.nonzero(d2 <= self.radius**2)
        starts = np.searchsorted(rows, np.arange(len(centroids)))
        h = np.empty((len(cols), self.dims[0]), dtype)
        h[:, :3] = xyz[cols] - centroids[rows]
        if feats is not None:
            h[:, 3:] = feats[cols]
        return centroids, cols, starts, h

    def forward(self, params, xyz, feats, cache=None):
        """xyz: (N,3); feats: (N,C) or None -> (centroid xyz (M,3), (M,dims[-1]))."""
        centroids, cols, starts, h = self._group(
            xyz, feats, params[self.linears[0].name + ".W"].dtype)
        local_cache = {} if cache is not None else None
        for k, lin in enumerate(self.linears):
            # The ReLU runs in place on Linear's fresh output (Linear caches
            # its input, the ReLU only its mask): one array per layer, so the
            # per-cloud temporaries stay small enough for glibc to serve from
            # its heap instead of mapping them anew.
            h = lin.forward(params, h, local_cache)
            if local_cache is not None:
                local_cache[f"{self.name}.relu{k}"] = h > 0
            np.maximum(h, 0.0, out=h)
        pooled = np.maximum.reduceat(h, starts, axis=0)
        if cache is not None:
            cache[self.name] = (local_cache, cols, _first_max_rows(h, pooled, starts),
                                feats is not None)
        return centroids, pooled

    def backward(self, params, grads, dpooled, cache, n_points):
        """Returns gradient w.r.t. the input feats (None when feats was None)."""
        local_cache, cols, arg, had_feats = cache[self.name]
        dh = np.zeros((len(cols), dpooled.shape[1]), dpooled.dtype)
        dh[arg, np.arange(dpooled.shape[1])] = dpooled
        for k in range(len(self.linears) - 1, -1, -1):
            dh = relu_backward(dh, f"{self.name}.relu{k}", local_cache)
            dh = self.linears[k].backward(params, grads, dh, local_cache)
        if not had_feats:
            return None
        dfeats = np.zeros((n_points, dh.shape[1] - 3), dh.dtype)
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

    def forward_one(self, params, clouds, cache=None):
        """Embeddings (..., out_dim) of clouds (..., N, 3), one cloud at a time:
        each cloud's levels and head run on that cloud alone, so a stack
        embeds bit for bit as its clouds one by one. With cache,
        cache[self.name] holds one dict per cloud, in stack order."""
        clouds = np.asarray(clouds, dtype=float)
        if clouds.ndim < 2 or clouds.shape[-1] != 3:
            raise ShapeMismatch(f"expected (..., N, 3) clouds, got {clouds.shape}")
        if clouds.shape[-2] < MIN_POINTS:
            raise TooFewPoints(f"need at least {MIN_POINTS} points, got {clouds.shape[-2]}")
        if not np.isfinite(clouds).all():
            raise ValueError("non-finite points in cloud")
        flat = clouds.reshape(-1, *clouds.shape[-2:])
        per_cloud = [{} if cache is not None else None for _ in flat]
        out = np.empty((len(flat), self.out_dim), params[self.head.name + ".W"].dtype)
        for i, (cloud, one) in enumerate(zip(flat, per_cloud)):
            xyz1, f1 = self.sa1.forward(params, cloud, None, one)
            _, f2 = self.sa2.forward(params, xyz1, f1, one)
            arg = f2.argmax(axis=0)
            if one is not None:
                one[self.name + ".gpool"] = (arg, f2.shape, len(xyz1), len(cloud))
            out[i] = self.head.forward(params, f2[arg, np.arange(f2.shape[1])][None, :], one)[0]
        if cache is not None:
            cache[self.name] = per_cloud
        return out.reshape(*clouds.shape[:-2], self.out_dim)

    def backward_one(self, params, grads, dout, cache) -> None:
        """Accumulates grads, cloud by cloud in stack order, for a forward_one
        made with cache; dout is (..., out_dim), the shape it returned."""
        per_cloud = cache[self.name]
        for d, one in zip(np.reshape(dout, (len(per_cloud), self.out_dim)), per_cloud):
            dpooled = self.head.backward(params, grads, d[None, :], one)[0]
            arg, f2_shape, n1, n0 = one[self.name + ".gpool"]
            df2 = np.zeros(f2_shape, dpooled.dtype)
            df2[arg, np.arange(f2_shape[1])] = dpooled
            df1 = self.sa2.backward(params, grads, df2, one, n1)
            self.sa1.backward(params, grads, df1, one, n0)
