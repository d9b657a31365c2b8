import numpy as np
import pytest

from conftest import NearestModeDenoiser, PointMassDenoiser, icosphere, random_params
from handpair.data import generate_synthetic, overlapping_spec, two_mode_spec
from handpair.denoiser import Denoiser, DenoiserConfig
from handpair.diffusion import forward_diffuse, make_schedule, x0_from_eps
from handpair.hand_model import (
    CapsuleHand,
    HandParam,
    default_hand,
    left_hand_mesh,
    mirror,
    pin_root,
)
from handpair.mesh import HandMesh
from handpair.nn import TAG_SAMPLE, rng_stream
from handpair.sampler import (
    SampleConfig,
    apg_gradient,
    apg_step,
    cfg_mix,
    penetration_loss,
    penetration_report,
    penetration_set,
    sample_pairs,
    w_pen_at,
)


def brute_force_penetration_set(mesh_a, mesh_b):
    """O(n^2) evaluation of the nearest-vertex projection test."""
    pairs = []
    for i, v in enumerate(mesh_a.vertices):
        d2 = ((mesh_b.vertices - v) ** 2).sum(axis=1)
        j = int(d2.argmin())
        if -float(mesh_b.normals[j] @ (v - mesh_b.vertices[j])) > 0.0:
            pairs.append((i, j))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


# -- penetration set -----------------------------------------------------------


def test_distant_hands_have_empty_set(hand_model):
    rng = np.random.default_rng(0)
    a = hand_model.posed_mesh(random_params(rng))
    b_params = random_params(rng)
    b_params.vector[61] += 1.0  # one meter apart
    b = hand_model.posed_mesh(b_params)
    assert len(penetration_set(a, b)) == 0
    assert penetration_report(a, b).loss == 0.0


def test_sphere_inside_sphere_matches_brute_force():
    big_v, big_f = icosphere(2, 0.05)
    small_v, small_f = icosphere(1, 0.02)
    # Slight rotation breaks the shared-tessellation symmetry (no exact ties).
    ang = 0.3
    R = np.array([[np.cos(ang), -np.sin(ang), 0],
                  [np.sin(ang), np.cos(ang), 0], [0, 0, 1]])
    small = HandMesh(small_v @ R.T, small_f)
    big = HandMesh(big_v, big_f)
    got = penetration_set(small, big)
    expected = brute_force_penetration_set(small, big)
    np.testing.assert_array_equal(got, expected)
    assert set(got[:, 0].tolist()) == set(range(len(small_v)))  # all inside


def test_random_posed_pairs_match_brute_force(hand_model):
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = hand_model.posed_mesh(random_params(rng, tau_scale=0.04))
        b = hand_model.posed_mesh(random_params(rng, tau_scale=0.04))
        np.testing.assert_array_equal(
            penetration_set(a, b), brute_force_penetration_set(a, b))


def test_surface_point_excluded():
    # Vertex exactly on the plane of its nearest vertex: projection == 0.
    verts_b = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    faces_b = np.array([[0, 1, 2], [1, 3, 2]])
    b = HandMesh(verts_b, faces_b)  # normals all +z
    a = HandMesh(np.array([[0.1, 0.1, 0.0], [0.2, 0.1, 0.3], [0.3, 0.3, -0.2]]),
                 np.array([[0, 1, 2]]))
    pairs = penetration_set(a, b)
    assert 0 not in pairs[:, 0]      # on-surface: excluded by strict inequality
    assert 1 not in pairs[:, 0]      # above: outside
    assert 2 in pairs[:, 0]          # below: inside


def test_no_nonpositive_depths_ever(hand_model):
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = hand_model.posed_mesh(random_params(rng, tau_scale=0.03))
        b = hand_model.posed_mesh(random_params(rng, tau_scale=0.03))
        report = penetration_report(a, b)
        report.validate()
        if len(report.depths):
            assert report.depths.min() > 0


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
    pairs = brute_force_penetration_set(mesh_r, mesh_l)
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


def test_w_pen_schedule():
    assert w_pen_at(0) == pytest.approx(4.0)
    assert w_pen_at(1) == pytest.approx(3.6)
    assert w_pen_at(2) == pytest.approx(3.24)


# -- anti-penetration guidance ---------------------------------------------------


def test_apg_zero_weight_is_identity(hand_model):
    sched = make_schedule(256)
    rng = np.random.default_rng(3)
    x = rng.normal(size=64)
    anchor_mesh = left_hand_mesh(HandParam.from_parts(), hand_model)
    out = apg_step(x[None], rng.normal(size=64)[None], 8, [anchor_mesh], 0.0, sched,
                   hand_model)[0]
    np.testing.assert_array_equal(out, x)


def test_apg_noop_when_disjoint(hand_model):
    sched = make_schedule(256)
    x_l = HandParam.from_parts()
    x_r = HandParam.from_parts(tau=[0.5, 0, 0])
    eps = np.zeros(64)
    t_prev = 8
    x_prev = forward_diffuse(x_r.vector, t_prev, eps, sched)
    out = apg_step(x_prev[None], eps[None], t_prev, [left_hand_mesh(x_l, hand_model)], 1.0,
                   sched, hand_model)[0]
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

    anchor_mesh = left_hand_mesh(x_l, hand_model)
    grad = apg_gradient(x_prev[None], eps_hat[None], t_prev, [anchor_mesh], sched,
                        hand_model)[0]
    pairs = penetration_set(
        hand_model.posed_mesh(HandParam(x0_from_eps(x_prev, eps_hat, t_prev, sched))),
        anchor_mesh)
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
    stepped = apg_step(x_prev[None], eps_hat[None], t_prev, [anchor_mesh], 1e-3, sched,
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
    eps = rng.normal(0.0, 0.01, (4, 64))
    x_prev = forward_diffuse(clean, t_prev, eps, sched)
    grads = apg_gradient(x_prev, eps, t_prev, anchor_meshes, sched, hand_model)
    for i in range(4):
        np.testing.assert_array_equal(
            grads[i], apg_gradient(x_prev[i:i + 1], eps[i:i + 1], t_prev,
                                   [anchor_meshes[i]], sched, hand_model)[0])
    assert np.abs(grads[[0, 1, 3]]).max(axis=1).min() > 0
    np.testing.assert_array_equal(grads[2], np.zeros(64))

    # A clean estimate with a zero root column: that row gets a zero gradient,
    # the others are unchanged.
    x_bad, eps_bad = x_prev.copy(), eps.copy()
    x_bad[1, 55:61] = 0.0
    eps_bad[1, 55:61] = 0.0
    masked = apg_gradient(x_bad, eps_bad, t_prev, anchor_meshes, sched, hand_model)
    np.testing.assert_array_equal(masked[1], np.zeros(64))
    np.testing.assert_array_equal(masked[[0, 2, 3]], grads[[0, 2, 3]])


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


def test_zero_cfg_no_apg_equals_conditional_only_path(hand_model):
    den = Denoiser(DenoiserConfig("small"), seed=1)
    sched = make_schedule(256)
    cfg = SampleConfig(seed=3, count=2, w_cfg=0.0, apg=False)
    result = sample_pairs(den, cfg, sched, hand_model)

    from handpair.diffusion import ddim_step, ddim_time_grid, eps_from_x0

    for i in range(cfg.count):
        rng = rng_stream(cfg.seed, TAG_SAMPLE + i)
        rng.standard_normal(64)           # phase-1 draw, consumed by anchors
        x = rng.standard_normal(64)[None, :]
        cond = result.x_l[i][None, :]
        for t, t_prev in ddim_time_grid(sched.T, cfg.steps):
            x0 = den.predict(x, cond, np.zeros(1, dtype=bool), np.array([t]))
            eps = eps_from_x0(x, x0, t, sched)
            x = ddim_step(x, eps, t, t_prev, sched)
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


def test_apg_only_touches_penetrating_steps(hand_model):
    # A far-apart point-mass mode: APG on and off give identical results.
    mode = HandParam.from_parts(tau=[0.4, 0.0, 0.0])
    oracle = PointMassDenoiser(mode.vector)
    sched = make_schedule(256)
    on = sample_pairs(oracle, SampleConfig(seed=1, count=1, apg=True), sched, hand_model)
    off = sample_pairs(oracle, SampleConfig(seed=1, count=1, apg=False), sched, hand_model)
    np.testing.assert_array_equal(on.x_r, off.x_r)
