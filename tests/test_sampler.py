import itertools
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import (
    NearestModeDenoiser,
    PointMassDenoiser,
    float64_twin,
    icosphere,
    random_params,
    uncut_apg_gradient,
)
from handpair.checkpoint import load_denoiser
from handpair.denoiser import Denoiser, DenoiserConfig
from handpair.diffusion import ddim_step, forward_diffuse, make_schedule
from handpair.hand_model import (
    BETA,
    OMEGA,
    TAU,
    THETA,
    CapsuleHand,
    HandParam,
    default_hand,
    left_hand_mesh,
    mirror,
    pin_root,
)
from handpair.mesh import BOX_MARGIN, CONTACT_RADIUS, HandMesh
from handpair.metrics import PROXIMITY_TAU_M, pair_stats
from handpair.nn import TAG_SAMPLE, rng_stream
from handpair.rotations import IDENTITY_6D
from handpair.sampler import (
    SampleConfig,
    apg_gradient,
    apg_step,
    cfg_mix,
    penetration_loss,
    penetration_set,
    sample_pairs,
    w_pen_at,
)


FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture" / "denoiser_small"


def brute_force_contact(points, mesh_b, radius=CONTACT_RADIUS):
    """O(n^2) evaluation of the nearest-vertex projection test: the pairs,
    their offsets and depths, the loss and the minimum vertex distance.
    A vertex counts only when its nearest distance is strictly below radius,
    and min_distance is inf when none is; radius=inf is the uncut test."""
    pairs, delta, depths, min_d = [], [], [], np.inf
    for i, v in enumerate(points):
        d2 = ((mesh_b.vertices - v) ** 2).sum(axis=1)
        j = int(d2.argmin())
        d = float(np.sqrt(d2[j]))
        if not d < radius:
            continue
        min_d = min(min_d, d)
        depth = -float(mesh_b.normals[j] @ (v - mesh_b.vertices[j]))
        if depth > 0.0:
            pairs.append((i, j))
            delta.append(v - mesh_b.vertices[j])
            depths.append(depth)
    delta = np.array(delta, dtype=float).reshape(-1, 3)
    return {"pairs": np.array(pairs, dtype=np.int64).reshape(-1, 2),
            "delta": delta,
            "depths": np.array(depths, dtype=float),
            "loss": float(np.sum(np.linalg.norm(delta, axis=1) ** 2)),
            "min_distance": min_d}


def assert_same_contact(got, expected):
    """The report's pairs, delta, depths and loss are the oracle's."""
    np.testing.assert_array_equal(got.pairs, expected["pairs"])
    np.testing.assert_array_equal(got.delta, expected["delta"])
    assert got.loss == expected["loss"]
    assert len(got) == len(expected["pairs"])
    np.testing.assert_allclose(got.depths, expected["depths"], rtol=0, atol=1e-12)


def assert_matches_brute_force(points, mesh_b):
    got, expected = penetration_set(points, mesh_b), brute_force_contact(points, mesh_b)
    assert_same_contact(got, expected)
    if np.isinf(expected["min_distance"]):
        assert got.min_distance == np.inf
    else:
        assert abs(got.min_distance - expected["min_distance"]) <= 1e-12
    return got


# -- penetration set -----------------------------------------------------------


def test_distant_hands_have_empty_set(hand_model):
    rng = np.random.default_rng(0)
    a = hand_model.posed_mesh(random_params(rng))
    b_params = random_params(rng)
    b_params.vector[61] += 1.0  # one meter apart
    b = hand_model.posed_mesh(b_params)
    report = penetration_set(a.vertices, b)
    assert len(report) == 0 and report.loss == 0.0
    assert report.min_distance == np.inf     # no vertex within CONTACT_RADIUS


def test_sphere_inside_sphere_matches_brute_force():
    big_v, big_f = icosphere(2, 0.05)
    small_v, _ = icosphere(1, 0.02)
    # Slight rotation breaks the shared-tessellation symmetry (no exact ties).
    ang = 0.3
    R = np.array([[np.cos(ang), -np.sin(ang), 0],
                  [np.sin(ang), np.cos(ang), 0], [0, 0, 1]])
    big = HandMesh(big_v, big_f)
    got = assert_matches_brute_force(small_v @ R.T, big)
    assert set(got.pairs[:, 0].tolist()) == set(range(len(small_v)))  # all inside


def test_random_posed_pairs_match_brute_force(hand_model):
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = hand_model.posed_mesh(random_params(rng, tau_scale=0.04))
        b = hand_model.posed_mesh(random_params(rng, tau_scale=0.04))
        got = assert_matches_brute_force(a.vertices, b)
        # At hand scale the radius drops no pair of the uncut test.
        assert_same_contact(got, brute_force_contact(a.vertices, b, radius=np.inf))


def _plane_cm():
    """A 1 cm square in z = 0 whose vertex normals are all +z."""
    verts = np.array([[0, 0, 0], [0.01, 0, 0], [0, 0.01, 0], [0.01, 0.01, 0]], dtype=float)
    return HandMesh(verts, np.array([[0, 1, 2], [1, 3, 2]]))


def test_surface_point_excluded():
    # Vertex exactly on the plane of its nearest vertex: projection == 0.
    b = _plane_cm()
    a = np.array([[0.001, 0.001, 0.0], [0.002, 0.001, 0.003], [0.003, 0.003, -0.002]])
    pairs = penetration_set(a, b).pairs
    assert 0 not in pairs[:, 0]      # on-surface: excluded by strict inequality
    assert 1 not in pairs[:, 0]      # above: outside
    assert 2 in pairs[:, 0]          # below: inside


def test_vertex_beyond_contact_radius_never_pairs():
    # Both vertices sit behind the plane; only the one in range pairs.
    b = _plane_cm()
    a = np.array([[0.001, 0.001, -0.049], [0.001, 0.001, -0.051]])
    assert len(brute_force_contact(a, b, radius=np.inf)["pairs"]) == 2
    report = assert_matches_brute_force(a, b)
    np.testing.assert_array_equal(report.pairs, [[0, 0]])
    assert report.min_distance == pytest.approx(np.sqrt(2e-6 + 0.049**2), abs=1e-15)

    report = assert_matches_brute_force(a[1:], b)
    assert len(report) == 0 and report.loss == 0.0
    assert report.depths.shape == (0,) and report.delta.shape == (0, 3)
    assert report.min_distance == np.inf


def test_contact_radius_covers_every_capsule():
    # Every point inside a capsule lies within sqrt((L/4)^2 + r^2) of one of
    # its vertices; a radius above that bound keeps every inside verdict.
    assert PROXIMITY_TAU_M < CONTACT_RADIUS
    model = default_hand()
    betas = np.vstack([np.zeros(10), np.array(list(itertools.product((-2.0, 2.0), repeat=10)))])
    bound = np.hypot(model.bone_lengths(betas) / 4, model.bone_radii(betas))
    assert bound[0].max() == pytest.approx(0.0265, abs=1e-4)
    assert bound.max() == pytest.approx(0.0433, abs=1e-4)
    assert bound.max() < CONTACT_RADIUS

    rng = np.random.default_rng(17)
    worst = betas[1:][bound[1:].max(axis=1).argmax()]
    for beta in (np.zeros(10), worst):
        params = random_params(rng)
        params.vector[BETA] = beta
        e0, e1, radii = model.posed_segments(params)
        verts = model.posed_vertices(params).reshape(model.n_bones, -1, 3)
        u = rng.standard_normal((model.n_bones, 500, 3))
        u *= (rng.uniform(size=(model.n_bones, 500, 1)) ** (1 / 3)
              / np.linalg.norm(u, axis=-1, keepdims=True))
        inside = e0[:, None] + rng.uniform(size=(model.n_bones, 500, 1)) * (e1 - e0)[:, None] \
            + radii[:, None, None] * u
        nearest = np.sqrt(((inside[:, :, None] - verts[:, None]) ** 2).sum(-1)).min(-1)
        cover = np.hypot(model.bone_lengths(beta) / 4, model.bone_radii(beta))
        assert (nearest.max(axis=1) <= cover).all()


def test_no_nonpositive_depths_ever(hand_model):
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = hand_model.posed_mesh(random_params(rng, tau_scale=0.03))
        b = hand_model.posed_mesh(random_params(rng, tau_scale=0.03))
        report = penetration_set(a.vertices, b)
        if len(report) == 0:
            assert report.loss == 0.0
        else:
            assert report.depths.min() > 0


def _planted_at_reach_faces(mesh_b):
    """A vertices on, just inside and just outside each face of B's reach
    box, each offset along that face's axis from B's extreme vertex there:
    at CONTACT_RADIUS and the margin, and a few rounding steps either side."""
    verts = mesh_b.vertices
    gap = CONTACT_RADIUS + BOX_MARGIN
    steps = np.array([CONTACT_RADIUS - 1e-9, CONTACT_RADIUS - 1e-12, CONTACT_RADIUS,
                      CONTACT_RADIUS + 1e-12, gap - 1e-12, gap, gap + 1e-12,
                      CONTACT_RADIUS + 2 * BOX_MARGIN])
    planted = []
    for k in range(3):
        for side in (-1.0, 1.0):
            v = verts[np.argmax(side * verts[:, k])]
            offsets = np.zeros((len(steps), 3))
            offsets[:, k] = side * steps
            planted.append(v + offsets)
    return np.concatenate(planted)


@pytest.mark.parametrize("tau", [0.0, 1.0, 1e2, 1e3])
def test_reach_box_faces_match_brute_force(hand_model, tau):
    # Two hands in contact, moved together by tau meters, with A's vertices
    # joined by vertices planted at B's reach box: the bounded contact is the
    # bounded brute force's, and its pairs are the uncut test's.
    rng = np.random.default_rng(3)
    a_params, b_params = random_params(rng), random_params(rng)
    b_params.vector[TAU] += tau
    a_params.vector[TAU] = b_params.vector[TAU] + [0.01, 0.0, 0.0]
    a, b = hand_model.posed_mesh(a_params), hand_model.posed_mesh(b_params)
    planted = _planted_at_reach_faces(b)
    lo, hi = b.reach
    pad = CONTACT_RADIUS + BOX_MARGIN
    np.testing.assert_array_equal(b.reach, [b.vertices.min(axis=0) - pad,
                                            b.vertices.max(axis=0) + pad])
    outside = ~((planted >= lo) & (planted <= hi)).all(axis=1)
    assert 0 < outside.sum() < len(planted)
    mixed = np.concatenate([a.vertices, planted])
    got = assert_matches_brute_force(mixed, b)
    assert len(got) > 0
    assert got.min_distance < CONTACT_RADIUS
    assert_same_contact(got, brute_force_contact(mixed, b, radius=np.inf))
    # One at a time, each planted vertex is in range just when the brute
    # force finds a B vertex closer than CONTACT_RADIUS.
    in_range = [assert_matches_brute_force(v[None], b).min_distance
                < CONTACT_RADIUS for v in planted]
    assert 0 < sum(in_range) < len(planted)


def test_tree_fixes_each_query_points_answer_under_exact_ties():
    # The cull queries a subset of A's vertices. A tree built on B alone
    # answers each point the same whatever is queried with it, even at
    # exact ties, which it does not break toward the lowest index.
    lattice = np.stack(np.meshgrid(*[np.arange(6.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
    tree = cKDTree(lattice)
    centres = lattice[(lattice < 5).all(axis=1)] + 0.5       # 8 nearest at sqrt(3)/2 each
    dist, nearest = tree.query(centres, k=1, distance_upper_bound=1.0)
    lowest = np.argmin(((centres[:, None] - lattice) ** 2).sum(-1), axis=1)
    assert (dist == np.sqrt(0.75)).all() and (nearest != lowest).any()
    rng = np.random.default_rng(23)
    for subset in [rng.permutation(len(centres))[:k] for k in (1, 7, 60)]:
        np.testing.assert_array_equal(tree.query(centres[subset], k=1,
                                                 distance_upper_bound=1.0)[1],
                                      nearest[subset])


def test_nothing_in_reach_gives_the_empty_report(hand_model):
    # The box comes from the vertices, so a contact with nothing in reach
    # never builds B's k-d tree.
    b = hand_model.posed_mesh(HandParam.from_parts())
    lo, hi = b.reach
    a = np.array([hi + 1e-6, lo - 1e-6, [hi[0] + 1e-6, 0.0, 0.0]])
    report = penetration_set(a, b)
    assert "tree" not in vars(b)
    assert report.pairs.shape == (0, 2) and report.pairs.dtype == np.int64
    assert report.delta.shape == (0, 3) and report.delta.dtype == np.float64
    assert report.depths.shape == (0,) and report.depths.dtype == np.float64
    assert report.loss == 0.0 and report.min_distance == np.inf


def test_a_mesh_derives_its_reach_once(hand_model):
    # Each anchor's box is built on first read and then shared by every
    # contact query against it; a left hand's box is that of its final,
    # x-negated vertices.
    m = left_hand_mesh(random_params(np.random.default_rng(29)), hand_model)
    assert m.reach is m.reach
    pad = CONTACT_RADIUS + BOX_MARGIN
    np.testing.assert_array_equal(m.reach, [m.vertices.min(axis=0) - pad,
                                            m.vertices.max(axis=0) + pad])
    # The vertex box is the k-d tree's, bit for bit, read without building it.
    assert "tree" not in vars(m)
    assert m.reach.tobytes() == np.stack([m.tree.mins - pad, m.tree.maxes + pad]).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_a_vertices_raise(hand_model, bad):
    # However far the hands are apart, so the cull would otherwise skip them.
    a = hand_model.posed_mesh(HandParam.from_parts(tau=[5.0, 0.0, 0.0]))
    b = hand_model.posed_mesh(HandParam.from_parts())
    a.vertices[7, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        penetration_set(a.vertices, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_anchor_raises(hand_model, bad):
    # Without the check a NaN anchor reach culled every point: no contact.
    a = hand_model.posed_mesh(HandParam.from_parts())
    b = hand_model.posed_mesh(HandParam.from_parts())
    b.vertices[7, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        penetration_set(a.vertices, b)
    x_l, x_r = _overlapping_pair()
    x_l.vector[TAU.start] = bad
    with pytest.raises(ValueError, match="non-finite"):
        penetration_loss(x_r, x_l, hand_model)
    with pytest.raises(ValueError, match="non-finite"):
        pair_stats(x_l, x_r, hand_model)


class NoPosing:
    """A hand model that fails any use: proof that nothing was posed."""

    def __getattr__(self, name):
        raise AssertionError(f"posed a hand through model.{name}")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("block", [THETA, BETA, OMEGA, TAU], ids=["theta", "beta", "omega", "tau"])
@pytest.mark.parametrize("hand", ["left", "right"])
@pytest.mark.parametrize("contact", [
    lambda x_l, x_r, model: penetration_loss(x_r, x_l, model),
    lambda x_l, x_r, model: pair_stats(x_l, x_r, model),
], ids=["penetration_loss", "pair_stats"])
def test_a_non_finite_hand_raises_before_posing(contact, hand, block, bad, hand_model):
    # Under the tests' error::RuntimeWarning filter, so posing an inf would
    # surface as a warning, and posing a NaN would reach the model.
    x_l, x_r = _overlapping_pair()
    (x_l if hand == "left" else x_r).vector[block.start] = bad
    with pytest.raises(ValueError, match="non-finite hand parameters"):
        contact(x_l, x_r, NoPosing())
    with pytest.raises(ValueError, match="non-finite hand parameters"):
        contact(x_l, x_r, hand_model)


# -- penetration loss ----------------------------------------------------------


def _overlapping_pair(seed=0):
    rng = np.random.default_rng(seed)
    x_l = HandParam.from_parts(theta=rng.uniform(0.1, 0.4, 45) * 0)
    x_r = HandParam.from_parts(tau=[0.045, 0.0, 0.0])
    return x_l, x_r


def test_penetration_loss_disjoint_is_zero(hand_model):
    x_l = HandParam.from_parts()
    x_r = HandParam.from_parts(tau=[0.5, 0, 0])
    assert penetration_loss(x_r, x_l, hand_model) == 0.0


def test_penetration_loss_matches_manual_sum(hand_model):
    x_l, x_r = _overlapping_pair()
    mesh_r = hand_model.posed_mesh(x_r)
    mesh_l = left_hand_mesh(x_l, hand_model)
    pairs = brute_force_contact(mesh_r.vertices, mesh_l)["pairs"]
    assert len(pairs) > 0
    manual = sum(float(((mesh_r.vertices[i] - mesh_l.vertices[j]) ** 2).sum())
                 for i, j in pairs)
    got = penetration_loss(x_r, x_l, hand_model)
    assert abs(got - manual) < 1e-10


def test_penetration_loss_monotone_under_deeper_overlap(hand_model):
    # Shallow-contact regime: first touch is at tau_x ~ 0.074 for rest poses.
    x_l = HandParam.from_parts()
    losses = []
    for k in range(6):
        p = HandParam.from_parts(tau=[0.074 - 0.001 * k, 0.0, 0.0])
        losses.append(penetration_loss(p, x_l, hand_model))
    assert all(b >= a for a, b in zip(losses, losses[1:]))
    assert losses[-1] > losses[0] > 0


# -- CFG ------------------------------------------------------------------------


def test_cfg_identities():
    rng = np.random.default_rng(2)
    e_c, e_u = rng.normal(size=64), rng.normal(size=64)
    np.testing.assert_array_equal(cfg_mix(e_c, e_u, 0.0), e_c)
    for w in (-0.5, 0.0, 0.3, 1.0, 7.0):
        np.testing.assert_allclose(cfg_mix(e_c, e_c, w), e_c, atol=1e-12)
    np.testing.assert_allclose(
        cfg_mix(np.ones(4), np.zeros(4), 1.0), 2.0 * np.ones(4))


def test_negative_count_is_rejected():
    with pytest.raises(ValueError, match="count"):
        SampleConfig(count=-1)
    SampleConfig(count=0)


@pytest.mark.parametrize("w", [np.nan, np.inf, -np.inf])
def test_non_finite_cfg_weight_is_rejected(w):
    with pytest.raises(ValueError, match="w_cfg"):
        SampleConfig(w_cfg=w)


def test_w_pen_schedule():
    assert w_pen_at(0) == pytest.approx(4.0)
    assert w_pen_at(1) == pytest.approx(3.6)
    assert w_pen_at(2) == pytest.approx(3.24)


# -- anti-penetration guidance ---------------------------------------------------


def test_apg_zero_weight_is_identity(hand_model):
    # The clean estimate penetrates its anchor, so the gradient is nonzero.
    sched = make_schedule(256)
    x = np.random.default_rng(3).normal(size=64)
    x_l, x_r = _overlapping_pair()
    anchor_mesh = left_hand_mesh(x_l, hand_model)
    assert np.abs(apg_gradient(x_r.vector[None], 8, [anchor_mesh], sched, hand_model)).max() > 0
    out = apg_step(x[None], x_r.vector[None], 8, [anchor_mesh], 0.0, sched, hand_model)[0]
    np.testing.assert_array_equal(out, x)


def test_apg_noop_when_disjoint(hand_model):
    sched = make_schedule(256)
    x_l = HandParam.from_parts()
    x_r = HandParam.from_parts(tau=[0.5, 0, 0])
    t_prev = 8
    x_prev = forward_diffuse(x_r.vector, t_prev, np.zeros(64), sched)
    out = apg_step(x_prev[None], x_r.vector[None], t_prev, [left_hand_mesh(x_l, hand_model)],
                   1.0, sched, hand_model)[0]
    np.testing.assert_array_equal(out, x_prev)


def test_apg_reduces_loss_and_matches_fd(hand_model):
    sched = make_schedule(256)
    x_l, x_r = _overlapping_pair()
    rng = np.random.default_rng(7)
    eps_hat = rng.normal(size=64)
    t_prev = 8
    sqrt_ab = np.sqrt(sched.alpha_bar[t_prev])
    sqrt_1mab = np.sqrt(1.0 - sched.alpha_bar[t_prev])
    x_prev = sqrt_ab * x_r.vector + sqrt_1mab * eps_hat
    x0_hat = (x_prev - sqrt_1mab * eps_hat) / sqrt_ab

    anchor_mesh = left_hand_mesh(x_l, hand_model)
    grad = apg_gradient(x0_hat[None], t_prev, [anchor_mesh], sched, hand_model)[0]
    pairs = penetration_set(hand_model.posed_vertices(HandParam(x0_hat)), anchor_mesh).pairs
    assert len(pairs) > 0

    def frozen_loss(xp):
        x0 = HandParam((xp - sqrt_1mab * eps_hat) / sqrt_ab)
        mesh = hand_model.posed_mesh(x0)
        delta = mesh.vertices[pairs[:, 0]] - anchor_mesh.vertices[pairs[:, 1]]
        return float((delta**2).sum())

    h = 1e-5
    fd = np.empty(64)
    for i in range(64):
        e = np.zeros(64)
        e[i] = h
        fd[i] = (frozen_loss(x_prev + e) - frozen_loss(x_prev - e)) / (2 * h)
    denom = np.maximum(np.abs(fd), 1e-4 * np.abs(fd).max())
    assert (np.abs(grad - fd) / denom).max() < 1e-3

    before = penetration_loss(HandParam((x_prev - sqrt_1mab * eps_hat) / sqrt_ab),
                              x_l, hand_model)
    stepped = apg_step(x_prev[None], x0_hat[None], t_prev, [anchor_mesh], 1e-3, sched,
                       hand_model)[0]
    after = penetration_loss(HandParam((stepped - sqrt_1mab * eps_hat) / sqrt_ab),
                             x_l, hand_model)
    assert after < before


def test_batched_apg_gradient_matches_one_row_calls(hand_model):
    sched = make_schedule(256)
    rng = np.random.default_rng(13)
    t_prev = 8
    anchors = [HandParam.from_parts(theta=rng.normal(0.0, 0.1, 45)) for _ in range(4)]
    anchor_meshes = [left_hand_mesh(a, hand_model) for a in anchors]
    clean = np.stack([HandParam.from_parts(tau=[x, 0.0, 0.0]).vector
                      for x in (0.045, 0.05, 0.5, 0.04)])   # row 2 stays clear
    grads = apg_gradient(clean, t_prev, anchor_meshes, sched, hand_model)
    for i in range(4):
        np.testing.assert_array_equal(
            grads[i], apg_gradient(clean[i:i + 1], t_prev, [anchor_meshes[i]], sched,
                                   hand_model)[0])
    assert np.abs(grads[[0, 1, 3]]).max(axis=1).min() > 0
    np.testing.assert_array_equal(grads[2], np.zeros(64))

    # A clean estimate with a zero root column: that row gets a zero gradient,
    # the others are unchanged.
    bad = clean.copy()
    bad[1, 55:61] = 0.0
    masked = apg_gradient(bad, t_prev, anchor_meshes, sched, hand_model)
    np.testing.assert_array_equal(masked[1], np.zeros(64))
    np.testing.assert_array_equal(masked[[0, 2, 3]], grads[[0, 2, 3]])


def test_non_finite_clean_rows_get_a_zero_gradient(hand_model):
    sched = make_schedule(256)
    anchor_meshes = [left_hand_mesh(HandParam.from_parts(), hand_model)] * 4
    clean = np.stack([HandParam.from_parts(tau=[x, 0.0, 0.0]).vector
                      for x in (0.045, 0.05, 0.04, 0.048)])
    grads = apg_gradient(clean, 8, anchor_meshes, sched, hand_model)
    assert np.abs(grads).max(axis=1).min() > 0
    bad = clean.copy()
    bad[1, 3] = np.nan          # theta, with a valid root
    bad[2, 56] = np.inf         # the root itself
    masked = apg_gradient(bad, 8, anchor_meshes, sched, hand_model)
    np.testing.assert_array_equal(masked[[1, 2]], np.zeros((2, 64)))
    np.testing.assert_array_equal(masked[[0, 3]], grads[[0, 3]])


def test_rows_with_a_non_finite_anchor_get_a_zero_gradient(hand_model):
    sched = make_schedule(256)
    anchor_meshes = [left_hand_mesh(HandParam.from_parts(), hand_model) for _ in range(4)]
    clean = np.stack([HandParam.from_parts(tau=[x, 0.0, 0.0]).vector
                      for x in (0.045, 0.05, 0.04, 0.048)])
    grads = apg_gradient(clean, 8, anchor_meshes, sched, hand_model)
    assert np.abs(grads).max(axis=1).min() > 0
    for i, bad in ((1, np.nan), (2, np.inf)):
        anchor_meshes[i] = left_hand_mesh(HandParam.from_parts(), hand_model)
        anchor_meshes[i].vertices[7, 1] = bad
    masked = apg_gradient(clean, 8, anchor_meshes, sched, hand_model)
    np.testing.assert_array_equal(masked[[1, 2]], np.zeros((2, 64)))
    np.testing.assert_array_equal(masked[[0, 3]], grads[[0, 3]])


@pytest.mark.parametrize("tau", [0.0, 1e3])
def test_apg_row_cull_matches_the_uncut_gradient(hand_model, tau, monkeypatch):
    # Partners placed so that their nearest vertex in x sits just inside or
    # just outside their anchor's reach box, or in contact, at hand scale
    # and 1 km out: every row with a vertex in reach is queried, and the
    # gradient is the one from posing and querying every row, bit for bit.
    from handpair import sampler

    sched = make_schedule(256)
    rng = np.random.default_rng(19)
    edge = [-1e-3, -1e-6, -1e-9, 1e-9, 1e-6, 1e-3, 0.02, -1e-9, 1e-9]  # inside an x face by
    # Both hands of a pair face the same way, so the partner's nearest
    # vertex in x lies inside the anchor's reach in y and z.
    anchors = np.stack([random_params(rng, tau_scale=0.0).vector
                        for _ in range(len(edge) + 2)])
    anchors[:, OMEGA], anchors[:, TAU] = IDENTITY_6D, tau
    anchor_meshes = [hand_model.posed_mesh(HandParam(p)) for p in anchors]
    clean = np.stack([random_params(rng, tau_scale=0.0).vector for _ in anchors])
    clean[:, OMEGA], clean[:, TAU] = IDENTITY_6D, tau
    clean[-2:, 61] += 0.03                                    # two rows in contact
    # Partners alternate between the anchor's +x face and its -x face.
    side = np.resize([1.0, -1.0], len(edge))
    x = hand_model.posed_vertices(HandParam(clean[:-2]))[..., 0]
    nearest = np.where(side > 0, x.min(axis=1), x.max(axis=1))
    face = np.array([m.reach[int(s > 0), 0] for m, s in zip(anchor_meshes, side)])
    clean[:-2, 61] += face - nearest - side * edge

    queried, contact = [], sampler.penetration_set

    def recording(points, mesh_b):
        queried.append(next(i for i, m in enumerate(anchor_meshes) if m is mesh_b))
        return contact(points, mesh_b)

    monkeypatch.setattr(sampler, "penetration_set", recording)
    got = apg_gradient(clean, 8, anchor_meshes, sched, hand_model)
    verts = hand_model.posed_vertices(HandParam(clean))
    boxes = np.array([m.reach for m in anchor_meshes])
    pad = CONTACT_RADIUS + BOX_MARGIN
    np.testing.assert_array_equal(boxes, [[m.vertices.min(axis=0) - pad,
                                           m.vertices.max(axis=0) + pad] for m in anchor_meshes])
    in_reach = ((verts >= boxes[:, None, 0]) & (verts <= boxes[:, None, 1])).all(-1).any(-1)
    np.testing.assert_array_equal(in_reach[:len(edge)], np.array(edge) > 0)
    assert set(np.flatnonzero(in_reach)) <= set(queried) != set(range(len(clean)))
    assert np.abs(got[-2:]).max(axis=1).min() > 0
    monkeypatch.undo()
    np.testing.assert_array_equal(got, uncut_apg_gradient(clean, 8, anchor_meshes, sched,
                                                          hand_model))


def test_apg_contact_on_fixture_matches_uncut_brute_force(monkeypatch):
    # Every (row, step) APG meets while sampling from the committed trained
    # denoiser is accounted for: a row it queried gets the contact of the
    # unbounded nearest-vertex test, and a row it skipped has none there.
    from handpair import sampler

    denoiser, sched, _ = load_denoiser(FIXTURE)
    model = CapsuleHand()
    steps, contact, gradient = [], sampler.penetration_set, sampler.apg_gradient

    def recording_gradient(x0_hat, t_prev, anchor_meshes, sched, model):
        steps.append((np.array(x0_hat), anchor_meshes, []))
        return gradient(x0_hat, t_prev, anchor_meshes, sched, model)

    def recording_contact(points, mesh_b):
        report = contact(points, mesh_b)
        steps[-1][2].append((points, mesh_b, report))
        return report

    monkeypatch.setattr(sampler, "apg_gradient", recording_gradient)
    monkeypatch.setattr(sampler, "penetration_set", recording_contact)
    sample_pairs(denoiser, SampleConfig(seed=1, count=4, steps=8, apg=True), sched, model)
    assert len(steps) == 8
    queried, skipped, touching = 0, 0, 0
    for x0_hat, anchor_meshes, calls in steps:
        rows = [next(i for i, m in enumerate(anchor_meshes) if m is mesh_b)
                for _, mesh_b, _ in calls]
        assert rows == sorted(set(rows))
        for points, mesh_b, report in calls:
            assert_same_contact(report, brute_force_contact(points, mesh_b, radius=np.inf))
            touching += len(report) > 0
        for i in sorted(set(range(4)) - set(rows)):
            points = model.posed_vertices(HandParam(x0_hat[i]))
            assert len(brute_force_contact(points, anchor_meshes[i], radius=np.inf)["pairs"]) == 0
            skipped += 1
        queried += len(rows)
    assert queried + skipped == 4 * 8
    assert touching > 0 and skipped > 0


def noise_space_reverse_pass(denoiser, x, cond, drop, w_cfg, grid, sched, model,
                             object_embedding, anchor_meshes=None):
    """The reverse pass written in noise space, as an independent reference.

    Each clean estimate becomes its implied noise, guidance mixes the noises,
    the DDIM step goes back to x0 through sqrt(alpha_bar_t), and APG takes
    its clean estimate back from x_prev and the mixed noise. Like the
    sampler, a guided step predicts the conditional rows and their fully
    dropped copies in one stacked call.
    """
    B, guided = len(x), w_cfg != 0.0
    if guided:
        cond = np.concatenate([cond, np.zeros_like(cond)])
        drop = np.concatenate([drop, np.ones(B, dtype=bool)])
    for k, (t, t_prev) in enumerate(grid):
        ab, ab_prev = sched.alpha_bar[t], sched.alpha_bar[t_prev]
        xs = np.concatenate([x, x]) if guided else x
        x0 = denoiser.predict(xs, cond, drop, np.full(len(xs), t),
                              object_embedding=object_embedding)
        eps = (xs - np.sqrt(ab) * x0) / np.sqrt(1.0 - ab)
        if guided:
            eps = (1.0 + w_cfg) * eps[:B] - w_cfg * eps[B:]
        x0 = (x - np.sqrt(1.0 - ab) * eps) / np.sqrt(ab)
        x = np.sqrt(ab_prev) * x0 + np.sqrt(1.0 - ab_prev) * eps
        if anchor_meshes is not None:
            x0_prev = (x - np.sqrt(1.0 - ab_prev) * eps) / np.sqrt(ab_prev)
            x = x - w_pen_at(len(grid) - 1 - k) * apg_gradient(
                x0_prev, t_prev, anchor_meshes, sched, model)
    return x


def two_call_reverse_pass(denoiser, x, cond, drop, w_cfg, grid, sched, model,
                          object_embedding, anchor_meshes=None):
    """The reverse pass with the conditional and unconditional estimates from
    two separate B-row predict calls, as a reference for the stacked call."""
    for k, (t, t_prev) in enumerate(grid):
        tt = np.full(len(x), t)
        x0 = denoiser.predict(x, cond, drop, tt, object_embedding=object_embedding)
        if w_cfg != 0.0:
            x0_u = denoiser.predict(x, np.zeros_like(x), np.ones(len(x), dtype=bool), tt,
                                    object_embedding=object_embedding)
            x0 = cfg_mix(x0, x0_u, w_cfg)
        x = ddim_step(x, x0, t, t_prev, sched)
        if anchor_meshes is not None:
            x = apg_step(x, x0, t_prev, anchor_meshes, w_pen_at(len(grid) - 1 - k),
                         sched, model)
    return x


class RowwiseDenoiser:
    """Fake whose clean estimate for a row reads that row's x, condition,
    drop flag, t and object token, and nothing else, through exactly rounded
    arithmetic: a row gets the same bits however the rows are stacked."""

    def __init__(self, object_conditional=False):
        self.config = SimpleNamespace(object_conditional=object_conditional)

    def embed_object(self, points):
        return np.asarray(points, dtype=float).ravel()[:8]

    def predict(self, x_t, cond, drop_mask, t, object_embedding=None):
        drop = np.asarray(drop_mask, dtype=bool)[:, None]
        x0 = (0.5 * x_t + 0.25 * np.roll(x_t, 1, axis=1) + np.where(drop, -0.2, 0.6 * cond)
              + 1e-3 * np.asarray(t, dtype=float)[:, None])
        if self.config.object_conditional:
            assert object_embedding.shape == (8,)       # the one token of the cloud
            x0 = x0 + 0.1 * object_embedding[3]
        return x0


def test_clean_estimate_steps_match_noise_space_reference(monkeypatch):
    # Mixing and stepping from x0 is the noise-space algebra rearranged, so on
    # the committed fixture, with APG on and in contact, both give the same
    # pairs to rounding.
    from handpair import sampler

    denoiser, sched, _ = load_denoiser(FIXTURE)
    for w in denoiser.params.values():
        w.flags.writeable = False
    config, model = SampleConfig(seed=1, count=8), CapsuleHand()
    pairs_found, contact = [], sampler.penetration_set

    def counting(points, mesh_b):
        report = contact(points, mesh_b)
        pairs_found.append(len(report))
        return report

    with monkeypatch.context() as patch:
        patch.setattr(sampler, "penetration_set", counting)
        got = sample_pairs(denoiser, config, sched, model)
    assert config.apg and max(pairs_found) > 0
    monkeypatch.setattr(sampler, "_reverse_pass", noise_space_reverse_pass)
    expected = sample_pairs(denoiser, config, sched, model)
    np.testing.assert_allclose(got.x_l, expected.x_l, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.x_r, expected.x_r, rtol=0, atol=1e-12)


def test_stacked_halves_match_separate_calls_on_fixture():
    # One 2B-row call against two B-row calls of the committed float32
    # fixture: BLAS rounds the two batch shapes differently, within 1e-5.
    denoiser, sched, _ = load_denoiser(FIXTURE)
    rng = np.random.default_rng(4)
    B = 16
    x, cond = rng.standard_normal((B, 64)), rng.standard_normal((B, 64))
    for t in (1, sched.T // 2, sched.T):
        tt = np.full(B, t)
        stacked = denoiser.predict(np.concatenate([x, x]), np.concatenate([cond, 0 * cond]),
                                   np.repeat([False, True], B), np.full(2 * B, t))
        x0_c = denoiser.predict(x, cond, np.zeros(B, dtype=bool), tt)
        x0_u = denoiser.predict(x, np.zeros_like(x), np.ones(B, dtype=bool), tt)
        np.testing.assert_allclose(stacked[:B], x0_c, rtol=0, atol=1e-5)
        np.testing.assert_allclose(stacked[B:], x0_u, rtol=0, atol=1e-5)


@pytest.mark.parametrize("seed", range(1, 7))
def test_stacked_guidance_matches_two_calls_on_fixture(seed, monkeypatch):
    # With APG off the stacked call moves the partners by float32 rounding
    # alone; the unguided anchors keep every bit.
    from handpair import sampler

    denoiser, sched, _ = load_denoiser(FIXTURE)
    config, model = SampleConfig(seed=seed, count=16, apg=False), CapsuleHand()
    got = sample_pairs(denoiser, config, sched, model)
    monkeypatch.setattr(sampler, "_reverse_pass", two_call_reverse_pass)
    expected = sample_pairs(denoiser, config, sched, model)
    np.testing.assert_array_equal(got.x_l, expected.x_l)
    np.testing.assert_allclose(got.x_r, expected.x_r, rtol=0, atol=1e-5)


@pytest.mark.parametrize("object_conditional", [False, True])
def test_stacked_guidance_equals_two_calls_exactly(object_conditional, monkeypatch):
    # A row-wise fake rounds every row alike in any stack, so the stacked
    # pass must give the two-call pass's bits: the halves in order, the
    # dropped rows routed to the null token, the object token on every row.
    from handpair import sampler

    denoiser = RowwiseDenoiser(object_conditional)
    points = np.random.default_rng(6).standard_normal((16, 3)) if object_conditional else None
    config = SampleConfig(seed=3, count=5, steps=8, w_cfg=0.7, apg=False,
                          object_points=points)
    sched, model = make_schedule(256), CapsuleHand()
    got = sample_pairs(denoiser, config, sched, model)
    monkeypatch.setattr(sampler, "_reverse_pass", two_call_reverse_pass)
    expected = sample_pairs(denoiser, config, sched, model)
    assert np.isfinite(got.x_r).all()
    np.testing.assert_array_equal(got.x_l, expected.x_l)
    np.testing.assert_array_equal(got.x_r, expected.x_r)
    unguided = sample_pairs(denoiser, replace(config, w_cfg=0.0), sched, model)
    assert np.abs(got.x_r - unguided.x_r).max(axis=1).min() > 1e-3


@pytest.mark.parametrize("w_cfg, rows", [(0.1, [4] * 4 + [8] * 4), (0.0, [4] * 8)])
def test_each_reverse_step_predicts_once(w_cfg, rows, monkeypatch):
    # Phase 1 predicts the B anchor rows per step; a guided phase 2 predicts
    # its B conditional rows and their B dropped copies in one call.
    mode = HandParam.from_parts(tau=[0.045, 0.0, 0.0])   # partner overlaps its anchor
    oracle = PointMassDenoiser(mode.vector)
    calls, predict = [], oracle.predict

    def counting(x_t, *args, **kw):
        calls.append(len(x_t))
        return predict(x_t, *args, **kw)

    monkeypatch.setattr(oracle, "predict", counting)
    sample_pairs(oracle, SampleConfig(seed=2, count=4, steps=4, w_cfg=w_cfg),
                 make_schedule(256), CapsuleHand())
    assert calls == rows


def test_apg_poses_all_rows_in_one_call_per_step(monkeypatch):
    from handpair import sampler

    model = CapsuleHand()
    posed, vjps = [], []
    pose, vjp = model.posed_vertices, sampler.kinematics_vjp

    def counting_pose(params):
        posed.append(params.vector.shape)
        return pose(params)

    def counting_vjp(params, *args):
        vjps.append(params.vector.shape)
        return vjp(params, *args)

    monkeypatch.setattr(model, "posed_vertices", counting_pose)
    monkeypatch.setattr(sampler, "kinematics_vjp", counting_vjp)
    mode = HandParam.from_parts(tau=[0.045, 0.0, 0.0])   # partner overlaps its anchor
    sample_pairs(PointMassDenoiser(mode.vector), SampleConfig(seed=2, count=4, steps=4),
                 make_schedule(256), model)
    anchors = [s for s in posed if len(s) == 1]
    steps = [s for s in posed if len(s) == 2]
    assert anchors == [(64,)] * 4
    assert steps == [(4, 64)] * 4
    assert 0 < len(vjps) <= 4


# -- cascaded sampling -----------------------------------------------------------


def test_sampling_is_deterministic(hand_model):
    den = Denoiser(DenoiserConfig("small"), seed=0)
    sched = make_schedule(256)
    cfg = SampleConfig(seed=7, count=2, apg=True)
    a = sample_pairs(den, cfg, sched, hand_model)
    b = sample_pairs(den, cfg, sched, hand_model)
    assert np.abs(a.x_l - b.x_l).max() < 1e-12
    assert np.abs(a.x_r - b.x_r).max() < 1e-12
    # Untrained weights must still terminate with finite parameters.
    assert np.isfinite(a.x_l).all() and np.isfinite(a.x_r).all()


def test_object_points_without_object_branch_raise(hand_model):
    cfg = SampleConfig(count=1, object_points=np.zeros((16, 3)))
    with pytest.raises(ValueError, match="object branch"):
        sample_pairs(Denoiser(DenoiserConfig("small")), cfg, make_schedule(256), hand_model)


def test_zero_cfg_no_apg_equals_conditional_only_path(hand_model):
    # In float64, so that batch-B and batch-1 BLAS rounding agree to 1e-12.
    den = float64_twin(Denoiser(DenoiserConfig("small"), seed=1))
    sched = make_schedule(256)
    cfg = SampleConfig(seed=3, count=2, w_cfg=0.0, apg=False)
    result = sample_pairs(den, cfg, sched, hand_model)

    from handpair.diffusion import ddim_time_grid

    for i in range(cfg.count):
        rng = rng_stream(cfg.seed, TAG_SAMPLE + i)
        rng.standard_normal(64)           # phase-1 draw, consumed by anchors
        x = rng.standard_normal(64)[None, :]
        cond = result.x_l[i][None, :]
        for t, t_prev in ddim_time_grid(sched.T, cfg.steps):
            x0 = den.predict(x, cond, np.zeros(1, dtype=bool), np.array([t]))
            x = ddim_step(x, x0, t, t_prev, sched)
        np.testing.assert_allclose(result.x_r[i], x[0], atol=1e-12)


def test_point_mass_oracle_through_cascade(hand_model):
    mode = HandParam.from_parts(theta=np.full(45, 0.2), tau=[0.13, 0.0, 0.0])
    oracle = PointMassDenoiser(mode.vector)
    sched = make_schedule(256)
    result = sample_pairs(oracle, SampleConfig(seed=5, count=3), sched, hand_model)
    expected_l = mirror(pin_root(mode)).vector
    for i in range(3):
        assert np.abs(result.x_l[i] - expected_l).max() < 1e-5
        assert np.abs(result.x_r[i] - mode.vector).max() < 1e-5


def test_object_conditional_anchor_is_pinned_whatever_its_root(hand_model):
    # No training step supervises a phase-1 root, with an object or without,
    # so every path pins the anchor: a degenerate root raises nothing.
    mode = HandParam.from_parts(theta=np.full(45, 0.2), omega=np.zeros(6), tau=[0.13, 0.0, 0.0])
    oracle = PointMassDenoiser(mode.vector)
    oracle.config = SimpleNamespace(object_conditional=True)
    oracle.embed_object = lambda points: np.zeros(8)
    config = SampleConfig(seed=5, count=3, object_points=np.zeros((16, 3)))
    result = sample_pairs(oracle, config, make_schedule(256), hand_model)
    assert (result.x_l[:, OMEGA] == IDENTITY_6D).all()
    assert (result.x_l[:, TAU] == 0.0).all()
    np.testing.assert_array_equal(result.x_l[:, :OMEGA.start],
                                  np.tile(mode.vector[:OMEGA.start], (3, 1)))


def test_cascade_reproduces_factored_mode_table(hand_model):
    # Factored oracle: two anchor modes, two partner modes given each anchor,
    # all boundaries through the Gaussian origin, so each joint cell has
    # probability 1/4. Sampling realizes the product of the factors.
    shared = HandParam.from_parts().vector
    u = np.zeros(64)
    u[:3] = 0.4
    anchors = np.stack([shared + u, shared - u])
    c = np.zeros(64)
    c[6:9] = 0.3
    d = np.zeros(64)
    d[9:12] = 0.35
    partners = np.stack([
        np.stack([shared + c + d, shared + c - d]),
        np.stack([shared - c + d, shared - c - d]),
    ])
    oracle = NearestModeDenoiser(anchors, partners)
    sched = make_schedule(256)
    n = 2000
    result = sample_pairs(oracle, SampleConfig(seed=29, count=n, w_cfg=0.0, apg=False),
                          sched, hand_model)
    anchor_id = np.argmin(
        ((result.x_l[:, None, :3] - anchors[None, :, :3]) ** 2).sum(2), axis=1)
    cells = np.zeros((2, 2))
    for i in range(n):
        pm = partners[anchor_id[i]]
        pid = int(((result.x_r[i][None, :] - pm) ** 2).sum(1).argmin())
        cells[anchor_id[i], pid] += 1
    freqs = cells / n
    sigma = np.sqrt(0.25 * 0.75 / n)
    assert np.abs(freqs - 0.25).max() <= 3 * sigma


def test_nearest_mode_oracle_answers_a_mixed_mask_row_by_row():
    rng = np.random.default_rng(8)
    anchors = rng.standard_normal((2, 64))
    oracle = NearestModeDenoiser(anchors, rng.standard_normal((2, 3, 64)))
    x = rng.standard_normal((6, 64))
    cond = anchors[[0, 1, 0, 1, 1, 0]] + 0.01 * rng.standard_normal((6, 64))
    drop = np.array([False, True, True, False, False, True])
    rows = [oracle.predict(x[i:i + 1], cond[i:i + 1], drop[i:i + 1]) for i in range(6)]
    np.testing.assert_array_equal(oracle.predict(x, cond, drop), np.concatenate(rows))
    np.testing.assert_array_equal(oracle.predict(x[drop], cond[drop], drop[drop]),
                                  anchors[oracle._nearest(x[drop], anchors)])


def test_apg_only_touches_penetrating_steps(hand_model):
    # A far-apart point-mass mode: APG on and off give identical results.
    mode = HandParam.from_parts(tau=[0.4, 0.0, 0.0])
    oracle = PointMassDenoiser(mode.vector)
    sched = make_schedule(256)
    on = sample_pairs(oracle, SampleConfig(seed=1, count=1, apg=True), sched, hand_model)
    off = sample_pairs(oracle, SampleConfig(seed=1, count=1, apg=False), sched, hand_model)
    np.testing.assert_array_equal(on.x_r, off.x_r)
