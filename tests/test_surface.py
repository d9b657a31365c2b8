"""Surface clouds drawn from capsules: mesh.sample_surface_points against the
capsule surface itself, the area ratios, its per-cloud streams, and the
triangle sampler it replaced."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import random_params
from handpair.data import generate_synthetic, two_mode_spec
from handpair.hand_model import HandParam, pair_meshes, pair_segments
from handpair.mesh import sample_surface_points


def _gaps(points, e0, e1, rads, chunk=10_000):
    """(N, K) distance of each point to each capsule's surface, and its
    axial fraction along each axis (below 0 or above 1 past an end)."""
    w = e1 - e0
    ww = np.einsum("ki,ki->k", w, w)
    gaps, fracs = [], []
    for lo in range(0, len(points), chunk):
        rel = points[lo:lo + chunk, None, :] - e0
        t = np.einsum("nki,ki->nk", rel, w) / np.where(ww > 0, ww, 1.0)
        foot = np.clip(t, 0.0, 1.0)[..., None] * w
        gaps.append(np.abs(np.linalg.norm(rel - foot, axis=-1) - np.abs(rads)))
        fracs.append(t)
    return np.concatenate(gaps), np.concatenate(fracs)


@pytest.fixture(scope="module")
def pairs():
    ds = generate_synthetic(two_mode_spec(count=16, seed=3, max_penetration=np.inf))
    return ds.pair(np.arange(len(ds)))


def test_every_point_lies_on_a_capsule_surface(hand_model, pairs):
    rng = np.random.default_rng(5)
    x_l, x_r = random_params(rng, theta_scale=1.0), random_params(rng, theta_scale=1.0)
    folded = [s[None] for s in pair_segments(x_l, x_r, hand_model)]
    x_l.vector[46] = x_r.vector[46] = -15.0      # every signed radius negative
    thin = [s[None] for s in pair_segments(x_l, x_r, hand_model)]
    for e0, e1, rads in [pair_segments(*pairs, hand_model), folded, thin]:
        clouds = sample_surface_points(e0, e1, rads, 512, seed=7)
        for c in range(len(clouds)):
            assert _gaps(clouds[c], e0[c], e1[c], rads[c])[0].min(axis=1).max() < 1e-12


def test_parts_are_chosen_in_proportion_to_their_areas(hand_model, pairs):
    e0, e1, rads = (s[0] for s in pair_segments(*pairs, hand_model))
    # Moved 0.2 m apart, the capsules share no surface, so each point has one
    # capsule; palm capsules of equal radius share their sphere at the wrist.
    apart = np.arange(len(rads))[:, None] * np.array([0.2, 0.0, 0.0])
    e0, e1 = e0 + apart, e1 + apart
    n = 10**5
    gaps, fracs = _gaps(sample_surface_points(e0, e1, rads, n, seed=11), e0, e1, rads)
    cap = gaps.argmin(axis=1)
    assert gaps[np.arange(n), cap].max() < 1e-12
    on_side = (fracs[np.arange(n), cap] >= 0.0) & (fracs[np.arange(n), cap] <= 1.0)
    side = 2 * np.pi * rads * np.linalg.norm(e1 - e0, axis=1)
    sphere = 4 * np.pi * rads**2
    total = (side + sphere).sum()

    def within_4_sigma(count, p):
        return abs(count - n * p) <= 4.0 * np.sqrt(n * p * (1.0 - p))

    counts = np.bincount(cap, minlength=len(rads))
    assert all(within_4_sigma(k, p) for k, p in zip(counts, (side + sphere) / total))
    assert within_4_sigma(on_side.sum(), side.sum() / total)


def test_cloud_c_of_a_stack_is_the_one_pair_call_at_seed_plus_c(hand_model, pairs):
    x_l, x_r = pairs
    stack = sample_surface_points(*pair_segments(x_l, x_r, hand_model), 256, seed=40)
    assert stack.shape == (16, 256, 3)
    for c in range(16):
        one = pair_segments(*(HandParam(h.vector[c]) for h in (x_l, x_r)), hand_model)
        np.testing.assert_array_equal(stack[c], sample_surface_points(*one, 256, seed=40 + c))
    grid = pair_segments(*(HandParam(h.vector.reshape(4, 4, 64)) for h in (x_l, x_r)),
                         hand_model)
    np.testing.assert_array_equal(sample_surface_points(*grid, 256, seed=40),
                                  stack.reshape(4, 4, 256, 3))


def test_a_zero_length_capsule_is_its_sphere():
    centre, r = np.array([0.1, -0.2, 0.3]), 0.01
    points = sample_surface_points(centre[None], centre[None], np.array([r]), 4096, seed=2)
    assert np.isfinite(points).all()
    unit = (points - centre) / r
    assert np.abs(np.linalg.norm(unit, axis=1) - 1.0).max() < 1e-10
    # Uniform on the whole sphere: each mean coordinate is 0 with std 1/sqrt(3 n).
    assert np.abs(unit.mean(axis=0)).max() < 4.0 / np.sqrt(3 * 4096)


def _triangle_cloud(meshes, n, rng):
    """Reference: the area-weighted triangle sampler that drew the clouds
    from the posed meshes before they came from the capsules."""
    tris = np.concatenate([m.vertices[m.faces] for m in meshes], axis=0)
    areas = 0.5 * np.linalg.norm(np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]),
                                 axis=1)
    idx = rng.choice(len(tris), size=n, p=areas / areas.sum())
    r1 = np.sqrt(rng.random(n))
    r2 = rng.random(n)
    chosen = tris[idx]
    return (1.0 - r1)[:, None] * chosen[:, 0] + (r1 * (1.0 - r2))[:, None] * chosen[:, 1] \
        + (r1 * r2)[:, None] * chosen[:, 2]


def _chamfer(a, b):
    return 0.5 * (cKDTree(b).query(a)[0].mean() + cKDTree(a).query(b)[0].mean())


def test_capsule_clouds_match_triangle_clouds_as_two_triangle_draws_do(hand_model, pairs):
    x_l, x_r = pairs
    capsule = sample_surface_points(*pair_segments(x_l, x_r, hand_model), 512, seed=0)
    to_triangles, triangles_apart = [], []
    for c in range(len(capsule)):
        meshes = pair_meshes(*(HandParam(h.vector[c]) for h in (x_l, x_r)), hand_model)
        tri = _triangle_cloud(meshes, 512, np.random.default_rng(c))
        to_triangles.append(_chamfer(capsule[c], tri))
        triangles_apart.append(_chamfer(_triangle_cloud(meshes, 512,
                                                        np.random.default_rng(1000 + c)), tri))
    assert np.mean(to_triangles) == pytest.approx(np.mean(triangles_apart), rel=0.05)
