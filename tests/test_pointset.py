import numpy as np
import pytest

from handpair.data import generate_synthetic, two_mode_spec
from handpair.hand_model import pair_segments
from handpair.mesh import sample_surface_points
from handpair.nn import relu_backward, relu_forward
from handpair.pointset import (PointSetEncoder, SetAbstraction, _first_max_rows, _sq_dist,
                               farthest_point_indices)


def test_grouping_matches_per_centroid_loop():
    rng = np.random.default_rng(4)
    xyz = rng.normal(0.0, 0.05, (300, 3))
    sa = SetAbstraction("sa", 40, 0.04, [3, 8])
    params = {}
    sa.init(params, rng)
    cache = {}
    sa.forward(params, xyz, None, cache)
    _, cols, arg, _ = cache["sa"]
    # Reference: each centroid's members in index order, one group after another.
    centroids = xyz[farthest_point_indices(xyz, sa.n_centroid)[0]]
    inside = np.sum((xyz[None, :, :] - centroids[:, None, :]) ** 2, axis=2) <= sa.radius**2
    groups = [np.flatnonzero(inside[i]) for i in range(len(inside))]
    sizes = np.array([len(g) for g in groups])
    assert len(set(sizes)) > 1      # groups of different sizes, so the layout is ragged
    np.testing.assert_array_equal(cols, np.concatenate(groups))
    # Each group's pooling rows lie inside that group's segment.
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    assert ((arg >= starts[:, None]) & (arg < (starts + sizes)[:, None])).all()


def test_fps_distance_rows_equal_sq_dist_bit_for_bit(hand_clouds):
    rng = np.random.default_rng(6)
    for xyz, m in [(hand_clouds[0], 128), (rng.normal(0.0, 0.05, (300, 3)), 40),
                   (rng.normal(size=(20, 3)), 64), (hand_clouds[1].astype(np.float32), 128)]:
        idx, d2 = farthest_point_indices(xyz, m)
        assert d2.shape == (min(m, len(xyz)), len(xyz))
        assert d2.dtype == xyz.dtype
        assert len(set(idx.tolist())) == len(idx)
        np.testing.assert_array_equal(d2, _sq_dist(xyz, xyz[idx]))


def _argmax_loop(h, starts):
    """Reference: per group and channel, the first row that reaches the max."""
    bounds = [*starts, len(h)]
    return np.stack([h[lo:hi].argmax(axis=0) + lo for lo, hi in zip(bounds[:-1], bounds[1:])])


def test_pooling_equals_the_per_group_argmax_loop(hand_clouds):
    rng = np.random.default_rng(7)
    enc = PointSetEncoder("enc", 16)
    params = {}
    enc.init(params, rng)
    params = {k: v.astype(np.float32) for k, v in params.items()}   # as the backbone holds them
    xyz, feats = hand_clouds[1], None
    for sa in (enc.sa1, enc.sa2):
        centroids, pooled = sa.forward(params, xyz, feats)
        # Reference: group on fresh distances, run the MLP as h @ W + b and
        # relu_forward, pool with the argmax loop.
        rows, cols = np.nonzero(_sq_dist(xyz, centroids) <= sa.radius**2)
        starts = np.searchsorted(rows, np.arange(len(centroids)))
        rel = xyz[cols] - centroids[rows]
        h = (rel if feats is None else np.concatenate([rel, feats[cols]], axis=1)).astype(
            np.float32)
        for k, lin in enumerate(sa.linears):
            h = relu_forward(h @ params[lin.name + ".W"] + params[lin.name + ".b"], f"relu{k}")
        arg = _argmax_loop(h, starts)
        np.testing.assert_array_equal(pooled, h[arg, np.arange(h.shape[1])])
        cache = {}
        sa.forward(params, xyz, feats, cache)
        np.testing.assert_array_equal(cache[sa.name][2], arg)
        xyz, feats = centroids, pooled


def test_first_max_rows_follow_argmax_on_ties_zeros_and_nans():
    h = np.array([[1.0, 0.0, 0.0, np.nan],
                  [3.0, 0.0, -0.0, 2.0],
                  [3.0, 0.0, 0.0, np.nan],
                  [2.0, 5.0, 0.0, 1.0],
                  [2.0, 0.0, 0.0, 1.0],
                  [-0.0, 5.0, np.nan, 1.0]], dtype=np.float32)
    starts = np.array([0, 3, 5])
    pooled = np.maximum.reduceat(h, starts, axis=0)
    # A NaN max stays NaN, as indexing with argmax would give.
    np.testing.assert_array_equal(np.isnan(pooled), np.isnan(h[_argmax_loop(h, starts),
                                                                np.arange(4)]))
    first = _first_max_rows(h, pooled, starts)
    np.testing.assert_array_equal(first, _argmax_loop(h, starts))
    np.testing.assert_array_equal(first, [[1, 0, 0, 0], [3, 3, 3, 3], [5, 5, 5, 5]])


def test_backward_routes_a_tied_group_to_its_first_row(hand_clouds):
    # Zero weights make every row of a group equal: channel 0 passes the ReLU
    # (bias 0.5), channel 1 is all zero after it (bias -0.5).
    sa = SetAbstraction("sa", 16, 0.04, [3, 2])
    params = {"sa.mlp0.W": np.zeros((3, 2)), "sa.mlp0.b": np.array([0.5, -0.5])}
    xyz = hand_clouds[2][:200]
    cache = {}
    _, pooled = sa.forward(params, xyz, None, cache)
    np.testing.assert_array_equal(pooled, np.tile([0.5, 0.0], (16, 1)))
    _, cols, arg, _ = cache["sa"]
    cidx, d2 = farthest_point_indices(xyz, 16)
    rows, _ = np.nonzero(d2 <= sa.radius**2)
    first = np.searchsorted(rows, np.arange(16))
    np.testing.assert_array_equal(arg, np.stack([first, first], axis=1))
    # Only each group's first row gets its group's gradient.
    dpooled = np.random.default_rng(10).normal(size=pooled.shape)
    grads = {}
    sa.backward(params, grads, dpooled, cache, len(xyz))
    rel = xyz[cols[first]] - xyz[cidx]
    np.testing.assert_allclose(grads["sa.mlp0.W"][:, 0], rel.T @ dpooled[:, 0], rtol=1e-12)
    np.testing.assert_array_equal(grads["sa.mlp0.W"][:, 1], 0.0)
    np.testing.assert_allclose(grads["sa.mlp0.b"], [dpooled[:, 0].sum(), 0.0], rtol=1e-12)


class PaddedSetAbstraction(SetAbstraction):
    """Reference: every group padded to the largest one, pooled with -inf fill."""

    def forward(self, params, xyz, feats, cache=None):
        cidx, _ = farthest_point_indices(xyz, self.n_centroid)
        centroids = xyz[cidx]
        d2 = np.sum((xyz[None, :, :] - centroids[:, None, :]) ** 2, axis=2)
        inside = d2 <= self.radius**2
        kmax = int(inside.sum(axis=1).max())
        order = np.argsort(~inside, axis=1, kind="stable")[:, :kmax]
        valid = np.take_along_axis(inside, order, axis=1)
        member = np.where(valid, order, 0)
        rel = xyz[member] - centroids[:, None, :]
        h = rel if feats is None else np.concatenate([rel, feats[member]], axis=2)
        local_cache = {} if cache is not None else None
        for k, lin in enumerate(self.linears):
            h = lin.forward(params, h, local_cache)
            h = relu_forward(h, f"{self.name}.relu{k}", local_cache)
        h = np.where(valid[:, :, None], h, -np.inf)
        arg = h.argmax(axis=1)
        pooled = np.take_along_axis(h, arg[:, None, :], axis=1)[:, 0, :]
        if cache is not None:
            cache[self.name] = (local_cache, member, valid, arg, h.shape,
                                feats is not None)
        return centroids, pooled

    def backward(self, params, grads, dpooled, cache, n_points):
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
        np.add.at(dfeats, member[valid], dfeats_members[valid])
        return dfeats


def _padded(enc: PointSetEncoder) -> PointSetEncoder:
    ref = PointSetEncoder(enc.name, enc.out_dim)
    for level in ("sa1", "sa2"):
        sa = getattr(enc, level)
        setattr(ref, level, PaddedSetAbstraction(sa.name, sa.n_centroid, sa.radius, sa.dims))
    return ref


@pytest.fixture(scope="module")
def hand_clouds(hand_model):
    ds = generate_synthetic(two_mode_spec(count=3, seed=5))
    return list(sample_surface_points(*pair_segments(*ds.pair(np.arange(len(ds))), hand_model),
                                      512, seed=0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("point", [0, 100, 511])
def test_a_non_finite_cloud_point_raises(hand_clouds, point, bad):
    # Without the check, a NaN at point 0 (or an inf anywhere) raised IndexError
    # from the pooling's reduceat, and a NaN at point 100 or 511 gave finite
    # features silently, ~0.1 off the clean cloud's.
    enc = PointSetEncoder("enc", 16)
    params = {}
    enc.init(params, np.random.default_rng(3))
    cloud = hand_clouds[0].copy()
    assert np.isfinite(enc.forward_one(params, cloud)).all()
    cloud[point, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        enc.forward_one(params, cloud)


def test_ragged_encoder_matches_padded_reference(hand_clouds):
    enc = PointSetEncoder("enc", 16)
    params = {}
    enc.init(params, np.random.default_rng(3))
    ref = _padded(enc)
    rng = np.random.default_rng(8)
    for cloud in hand_clouds:
        cache, ref_cache = {}, {}
        out = enc.forward_one(params, cloud, cache)
        np.testing.assert_array_equal(out, ref.forward_one(params, cloud, ref_cache))
        np.testing.assert_array_equal(out, enc.forward_one(params, cloud))
        # Both levels must group unevenly for the comparison to mean anything.
        for sa in (ref.sa1, ref.sa2):
            assert not ref_cache[ref.name][0][sa.name][2].all()
        dout = rng.normal(size=enc.out_dim)
        grads, ref_grads = {}, {}
        enc.backward_one(params, grads, dout, cache)
        ref.backward_one(params, ref_grads, dout, ref_cache)
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            np.testing.assert_allclose(grads[name], ref_grads[name], rtol=1e-12,
                                       atol=1e-12 * np.abs(ref_grads[name]).max())


@pytest.fixture(scope="module")
def six_clouds(hand_model):
    ds = generate_synthetic(two_mode_spec(count=6, seed=9))
    return sample_surface_points(*pair_segments(*ds.pair(np.arange(6)), hand_model), 512, seed=0)


def _float32_encoder():
    enc = PointSetEncoder("enc", 16)
    params = {}
    enc.init(params, np.random.default_rng(3))
    return enc, {name: w.astype(np.float32) for name, w in params.items()}


def _embed_cloud(enc, params, cloud):
    """One cloud through both levels, the global max pool and a one-row head."""
    xyz1, f1 = enc.sa1.forward(params, cloud, None)
    _, f2 = enc.sa2.forward(params, xyz1, f1)
    return enc.head.forward(params, f2.max(axis=0)[None, :])[0]


@pytest.mark.parametrize("stack", [(), (1,), (5,), (2, 3)])
def test_a_stack_embeds_as_its_clouds_one_by_one(six_clouds, stack):
    enc, params = _float32_encoder()
    clouds = six_clouds[:int(np.prod(stack))].reshape(*stack, *six_clouds.shape[1:])
    got = enc.forward_one(params, clouds)
    assert got.shape == (*stack, enc.out_dim) and got.dtype == np.float32
    cache = {}
    assert enc.forward_one(params, clouds, cache).tobytes() == got.tobytes()
    assert len(cache[enc.name]) == clouds[..., 0, 0].size
    for i in np.ndindex(stack):
        assert got[i].tobytes() == _embed_cloud(enc, params, clouds[i]).tobytes(), i


def test_a_stack_backward_accumulates_as_its_clouds_one_by_one(six_clouds):
    enc, params = _float32_encoder()
    clouds = six_clouds[:5]
    dout = np.random.default_rng(2).normal(size=(5, enc.out_dim)).astype(np.float32)
    cache, grads, per_cloud = {}, {}, {}
    enc.forward_one(params, clouds, cache)
    enc.backward_one(params, grads, dout, cache)
    for cloud, d in zip(clouds, dout):
        one = {}
        enc.forward_one(params, cloud, one)
        enc.backward_one(params, per_cloud, d, one)
    assert grads.keys() == per_cloud.keys()
    for name in grads:
        assert grads[name].tobytes() == per_cloud[name].tobytes(), name


def test_ragged_feature_gradient_matches_padded_reference(hand_clouds):
    sa = SetAbstraction("sa", 32, 0.09, [19, 24, 20])
    ref = PaddedSetAbstraction(sa.name, sa.n_centroid, sa.radius, sa.dims)
    rng = np.random.default_rng(9)
    params = {}
    sa.init(params, rng)
    xyz = hand_clouds[0][:128]
    feats = rng.normal(size=(len(xyz), 16))
    cache, ref_cache = {}, {}
    _, pooled = sa.forward(params, xyz, feats, cache)
    _, ref_pooled = ref.forward(params, xyz, feats, ref_cache)
    # The padded stack runs as one (groups * kmax, d) gemm and the ragged
    # rows as another, so the two round differently, by about one ulp.
    np.testing.assert_allclose(pooled, ref_pooled, rtol=1e-12,
                               atol=1e-12 * np.abs(ref_pooled).max())
    dpooled = rng.normal(size=pooled.shape)
    dfeats = sa.backward(params, {}, dpooled, cache, len(xyz))
    ref_dfeats = ref.backward(params, {}, dpooled, ref_cache, len(xyz))
    np.testing.assert_allclose(dfeats, ref_dfeats, rtol=1e-12,
                               atol=1e-12 * np.abs(ref_dfeats).max())
