import numpy as np

from handpair.pointset import SetAbstraction, farthest_point_indices


def test_grouping_matches_per_centroid_loop():
    rng = np.random.default_rng(4)
    xyz = rng.normal(0.0, 0.05, (300, 3))
    sa = SetAbstraction("sa", 40, 0.04, [3, 8])
    params = {}
    sa.init(params, rng)
    cache = {}
    sa.forward(params, xyz, None, cache)
    _, member, valid, *_ = cache["sa"]
    # Reference: each centroid's members in index order, padded with point 0.
    centroids = xyz[farthest_point_indices(xyz, sa.n_centroid)]
    inside = np.sum((xyz[None, :, :] - centroids[:, None, :]) ** 2, axis=2) <= sa.radius**2
    ref_member = np.zeros_like(member)
    ref_valid = np.zeros_like(valid)
    for i in range(len(inside)):
        members = np.flatnonzero(inside[i])
        ref_member[i, :len(members)] = members
        ref_valid[i, :len(members)] = True
    assert not valid.all()          # groups of different sizes, so padding is exercised
    np.testing.assert_array_equal(member, ref_member)
    np.testing.assert_array_equal(valid, ref_valid)
