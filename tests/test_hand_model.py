import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import icosphere, random_params
from handpair.errors import LayoutMismatch, NonWatertight, ZeroAreaStar
from handpair.hand_model import (
    _OCC_CHUNK,
    OMEGA,
    TAU,
    THETA,
    HandParam,
    TemplateHand,
    compose_root,
    default_hand,
    kinematics_vjp,
    left_hand_mesh,
    load_template,
    mirror,
    occupancy_left,
    pin_root,
    relative_root,
    reroot_pair,
    save_template,
    template_from_capsule,
)
from handpair.mesh import HandMesh, edge_manifold_ok, mirror_mesh, vertex_normals
from handpair.rotations import (
    IDENTITY_6D,
    MIRROR_MAT,
    matrix_to_rot6d,
    random_rotation,
    rot6d_to_matrix,
)


# -- forward kinematics -----------------------------------------------------


def test_rest_pose_is_canonical(hand_model):
    params = HandParam.from_parts()
    mesh = hand_model.posed_mesh(params)
    expected = hand_model.canonical_vertices(np.zeros(45), np.zeros(10))
    np.testing.assert_allclose(mesh.vertices, expected, atol=1e-12)


def test_root_rigid_equivariance(hand_model):
    rng = np.random.default_rng(11)
    theta = rng.normal(0, 0.4, 45)
    R = random_rotation(rng)
    t = np.array([0.05, -0.02, 0.11])
    rest = hand_model.posed_mesh(HandParam.from_parts(theta=theta))
    moved = hand_model.posed_mesh(
        HandParam.from_parts(theta=theta, omega=matrix_to_rot6d(R), tau=t))
    np.testing.assert_allclose(moved.vertices, rest.vertices @ R.T + t, atol=1e-9)


def test_single_bent_joint_matches_rigid_skinning_oracle(hand_model):
    # Bend the index MCP (joint 4) 30 degrees about x; the oracle rotates the
    # rest vertices of every bone distal to that joint rigidly about it.
    theta = np.zeros(45)
    theta[9] = np.pi / 6
    posed = hand_model.posed_mesh(HandParam.from_parts(theta=theta)).vertices
    rest = hand_model.canonical_vertices(np.zeros(45), np.zeros(10))
    _, joints_rest = hand_model.joint_transforms(np.zeros(45), np.zeros(10))
    pivot = joints_rest[4]
    ang = np.pi / 6
    R = np.array([
        [1, 0, 0],
        [0, np.cos(ang), -np.sin(ang)],
        [0, np.sin(ang), np.cos(ang)],
    ])
    expected = rest.copy()
    K = hand_model.verts_per_bone
    for b in range(hand_model.n_bones):
        if hand_model.bone_attach[b] in (4, 5, 6):
            sl = slice(b * K, (b + 1) * K)
            expected[sl] = (rest[sl] - pivot) @ R.T + pivot
    assert np.abs(posed - expected).max() < 1e-6


def test_canonical_vertices_match_per_bone_reference(hand_model):
    # One bone at a time with the same arithmetic as the batched form, so
    # the bits must match exactly.
    p = random_params(np.random.default_rng(29))
    Q, joints = hand_model.joint_transforms(p.theta, p.beta)
    lens, rads = hand_model.bone_lengths(p.beta), hand_model.bone_radii(p.beta)
    K = hand_model.verts_per_bone
    got = hand_model.canonical_vertices(p.theta, p.beta)
    for b in range(hand_model.n_bones):
        a = hand_model.bone_attach[b]
        local = (hand_model._tmpl_a[:, None] * lens[b]) * hand_model.bone_dir[b] \
            + rads[b] * hand_model._bone_n[b]
        np.testing.assert_array_equal(got[b * K:(b + 1) * K], local @ Q[a].T + joints[a])


def test_beta_changes_geometry_differentiably(hand_model):
    base = hand_model.posed_mesh(HandParam.from_parts()).vertices
    beta = np.zeros(10)
    beta[0] = 1.0
    scaled = hand_model.posed_mesh(HandParam.from_parts(beta=beta)).vertices
    assert np.abs(scaled - base).max() > 1e-3


def test_mesh_is_watertight_per_capsule(hand_model):
    K = hand_model.verts_per_bone
    F = len(hand_model._tmpl_faces)
    mesh = hand_model.posed_mesh(HandParam.from_parts())
    for b in range(hand_model.n_bones):
        faces = mesh.faces[b * F:(b + 1) * F] - b * K
        assert edge_manifold_ok(faces)


def test_faces_point_outward(hand_model):
    # Signed volume of each closed capsule component must be positive.
    mesh = hand_model.posed_mesh(HandParam.from_parts())
    F = len(hand_model._tmpl_faces)
    tri = mesh.vertices[mesh.faces]
    signed = np.einsum("fi,fi->f", tri[:, 0], np.cross(tri[:, 1], tri[:, 2])) / 6.0
    for b in range(hand_model.n_bones):
        assert signed[b * F:(b + 1) * F].sum() > 0


# -- mirroring ---------------------------------------------------------------


def test_mirror_identity_root_translation_only():
    p = HandParam.from_parts(tau=[0.1, 0.2, 0.3])
    m = mirror(p)
    np.testing.assert_allclose(m.omega, IDENTITY_6D, atol=1e-15)
    np.testing.assert_allclose(m.tau, [-0.1, 0.2, 0.3], atol=1e-15)
    np.testing.assert_allclose(m.theta, p.theta)
    np.testing.assert_allclose(m.beta, p.beta)


def test_mirror_matches_matrix_oracle():
    ang = np.pi / 2
    R = np.array([
        [np.cos(ang), -np.sin(ang), 0],
        [np.sin(ang), np.cos(ang), 0],
        [0, 0, 1],
    ])
    p = HandParam.from_parts(omega=matrix_to_rot6d(R))
    got = rot6d_to_matrix(mirror(p).omega)
    expected = MIRROR_MAT @ R @ MIRROR_MAT
    assert np.abs(got - expected).max() < 1e-8


def test_mirror_is_involution():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = random_params(rng)
        back = mirror(mirror(p))
        assert np.abs(back.vector - p.vector).max() < 1e-8


def test_stacked_algebra_matches_per_row_calls():
    rng = np.random.default_rng(17)
    a = np.stack([random_params(rng).vector for _ in range(200)])
    b = np.stack([random_params(rng).vector for _ in range(200)])
    rows = [(HandParam(u), HandParam(v)) for u, v in zip(a, b)]
    for op in (mirror, pin_root):
        np.testing.assert_array_equal(op(HandParam(a)).vector,
                                      np.stack([op(p).vector for p, _ in rows]))
    omega, tau = relative_root(HandParam(a), HandParam(b))
    ref = [relative_root(p, q) for p, q in rows]
    np.testing.assert_array_equal(omega, np.stack([o for o, _ in ref]))
    np.testing.assert_array_equal(tau, np.stack([t for _, t in ref]))
    target, cond = reroot_pair(HandParam(a), HandParam(b))
    ref = [reroot_pair(p, q) for p, q in rows]
    np.testing.assert_array_equal(target.vector, np.stack([t.vector for t, _ in ref]))
    np.testing.assert_array_equal(cond.vector, np.stack([c.vector for _, c in ref]))
    np.testing.assert_array_equal(compose_root(HandParam(a), HandParam(b)).vector,
                                  np.stack([compose_root(p, q).vector for p, q in rows]))


@pytest.mark.parametrize("backend", ["capsule", "template"])
def test_stacked_kinematics_match_per_row_calls(hand_model, backend):
    model = hand_model if backend == "capsule" else template_from_capsule(hand_model)
    rng = np.random.default_rng(31)
    stack = np.stack([random_params(rng).vector for _ in range(6)]).reshape(2, 3, 64)
    stack[0, 1, 3:6] = 0.0          # a straight joint takes the Rodrigues series branch
    cots = rng.normal(size=(2, 3, model.n_vertices, 3))
    verts = model.posed_vertices(HandParam(stack))
    grads = model.vjp(HandParam(stack), cots)
    assert verts.shape == (2, 3, model.n_vertices, 3) and grads.shape == (2, 3, 64)
    for i in np.ndindex(2, 3):
        np.testing.assert_array_equal(verts[i], model.posed_vertices(HandParam(stack[i])))
        np.testing.assert_array_equal(verts[i], model.posed_mesh(HandParam(stack[i])).vertices)
        np.testing.assert_array_equal(grads[i], model.vjp(HandParam(stack[i]), cots[i]))
    empty = HandParam(np.zeros((0, 64)))
    assert model.posed_vertices(empty).shape == (0, model.n_vertices, 3)
    assert model.vjp(empty, np.zeros((0, model.n_vertices, 3))).shape == (0, 64)


def test_hand_param_rejects_wrong_last_axis():
    with pytest.raises(ValueError):
        HandParam(np.zeros(63))
    with pytest.raises(ValueError):
        HandParam(np.zeros((4, 65)))


def test_mirror_mesh_commutation(hand_model):
    rng = np.random.default_rng(9)
    for _ in range(5):
        p = random_params(rng)
        negated = hand_model.posed_mesh(p).vertices @ MIRROR_MAT.T
        mirrored = left_hand_mesh(mirror(p), hand_model).vertices
        assert np.abs(negated - mirrored).max() < 1e-6


# -- vertex normals -----------------------------------------------------------


def _unit_cube():
    verts = np.array([[x, y, z] for z in (0, 1) for y in (0, 1) for x in (0, 1)],
                     dtype=float)
    # verts: 0..3 bottom (z=0), 4..7 top, x fastest.
    faces = np.array([
        [0, 2, 3], [0, 3, 1],      # z=0, -z
        [4, 5, 7], [4, 7, 6],      # z=1, +z
        [0, 1, 5], [0, 5, 4],      # y=0, -y
        [2, 6, 7], [2, 7, 3],      # y=1, +y
        [0, 4, 6], [0, 6, 2],      # x=0, -x
        [1, 3, 7], [1, 7, 5],      # x=1, +x
    ])
    return verts, faces


def test_cube_corner_normal():
    verts, faces = _unit_cube()
    normals = vertex_normals(verts, faces)
    np.testing.assert_allclose(normals[0], -np.ones(3) / np.sqrt(3), atol=1e-12)
    np.testing.assert_allclose(normals[7], np.ones(3) / np.sqrt(3), atol=1e-12)


def test_cube_normals_match_accumulation_oracle():
    verts, faces = _unit_cube()
    got = vertex_normals(verts, faces)
    expected = np.zeros_like(verts)
    for f in faces:
        n = np.cross(verts[f[1]] - verts[f[0]], verts[f[2]] - verts[f[0]])
        for v in f:
            expected[v] += n
    expected /= np.linalg.norm(expected, axis=1, keepdims=True)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_vertex_normals_match_three_pass_add_at(hand_model):
    # The same add order as the reference, so the bits must match exactly.
    mesh = hand_model.posed_mesh(random_params(np.random.default_rng(41)))
    v, f = mesh.vertices, mesh.faces
    cross = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    acc = np.zeros_like(v)
    for k in range(3):
        np.add.at(acc, f[:, k], cross)
    np.testing.assert_array_equal(vertex_normals(v, f),
                                  acc / np.linalg.norm(acc, axis=1)[:, None])


def test_icosphere_normals_are_radial():
    verts, faces = icosphere(2)
    normals = vertex_normals(verts, faces)
    radial = verts / np.linalg.norm(verts, axis=1, keepdims=True)
    cosines = np.einsum("ij,ij->i", normals, radial)
    assert np.degrees(np.arccos(np.clip(cosines, -1, 1))).max() < 5.0


def test_normals_unit_norm(hand_model):
    mesh = hand_model.posed_mesh(HandParam.from_parts())
    np.testing.assert_allclose(np.linalg.norm(mesh.normals, axis=1), 1.0, atol=1e-6)


def test_zero_area_star_raises():
    verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    faces = np.array([[0, 1, 2], [0, 2, 1], [0, 3, 4]])  # vertex 1's star cancels
    with pytest.raises(ZeroAreaStar):
        vertex_normals(verts, faces)


def test_hand_mesh_derives_normals_and_tree_on_first_use():
    verts = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    faces = np.array([[0, 1, 2], [0, 2, 1], [0, 3, 4]])
    mesh = HandMesh(verts, faces)  # a zero-area star is fine until normals are read
    with pytest.raises(ZeroAreaStar):
        mesh.normals
    verts, faces = icosphere(1)
    mesh = HandMesh(verts, faces)
    np.testing.assert_array_equal(mesh.normals, vertex_normals(verts, faces))
    probes = np.random.default_rng(4).normal(size=(50, 3))
    for got, expected in zip(mesh.tree.query(probes, k=1), cKDTree(verts).query(probes, k=1)):
        np.testing.assert_array_equal(got, expected)


# -- occupancy ----------------------------------------------------------------


def test_occupancy_trivial_points(hand_model):
    rng = np.random.default_rng(21)
    p = random_params(rng)
    _, joints = hand_model.joint_transforms(p.theta, p.beta)
    R = rot6d_to_matrix(p.omega)
    posed_joints = joints @ R.T + p.tau
    assert hand_model.occupancy(p, posed_joints).all()
    far = posed_joints[0] + np.array([1.0, 0.0, 0.0])
    assert not hand_model.occupancy(p, far[None])[0]


def _segment_distance_oracle(point, e0, e1):
    # Independent formulation: parametric minimization along the segment.
    d = e1 - e0
    denom = float(d @ d)
    s = 0.0 if denom == 0 else float(np.clip((point - e0) @ d / denom, 0.0, 1.0))
    return float(np.linalg.norm(point - (e0 + s * d)))


def test_occupancy_matches_brute_force(hand_model):
    rng = np.random.default_rng(33)
    p = random_params(rng)
    e0, e1, rads = hand_model.posed_segments(p)
    lo = e0.min(axis=0) - 0.05
    hi = e1.max(axis=0) + 0.05
    pts = rng.uniform(lo, hi, size=(10_000, 3))
    got = hand_model.occupancy(p, pts)
    margin = np.empty(len(pts))
    expected = np.zeros(len(pts), dtype=bool)
    for i, pt in enumerate(pts):
        dists = np.array([_segment_distance_oracle(pt, e0[b], e1[b])
                          for b in range(hand_model.n_bones)])
        expected[i] = bool((dists <= rads).any())
        margin[i] = np.abs(dists - rads).min()
    keep = margin > 1e-6  # exclude surface-grazing points
    assert (got[keep] == expected[keep]).all()


def test_occupancy_left_is_mirrored_volume(hand_model):
    rng = np.random.default_rng(4)
    p = random_params(rng)
    pts = rng.uniform(-0.2, 0.2, size=(500, 3))
    right = hand_model.occupancy(mirror(p), pts @ MIRROR_MAT.T)
    np.testing.assert_array_equal(occupancy_left(hand_model, p, pts), right)


def _dense_occupancy(model, params, points):
    """Reference: every point against every capsule, 4096 rows at a time."""
    points = np.asarray(points, dtype=float)
    e0, e1, rads = model.posed_segments(params)
    w = e1 - e0
    ww = np.maximum(np.einsum("bi,bi->b", w, w), 1e-30)
    out = np.empty(len(points), dtype=bool)
    for lo in range(0, len(points), 4096):
        pts = points[lo:lo + 4096, None, :]
        t = np.clip(np.einsum("nbi,bi->nb", pts - e0, w) / ww, 0.0, 1.0)
        d2 = np.sum((pts - (e0 + t[..., None] * w)) ** 2, axis=2)
        out[lo:lo + 4096] = (d2 <= rads**2).any(axis=1)
    return out


@pytest.fixture(scope="module")
def posed_hands():
    rng = np.random.default_rng(40)
    return [random_params(rng, theta_scale=s) for s in (0.0, 0.3, 0.6, 1.0, 1.5)]


def _occupancy_checked_against_dense(model, p, pts):
    got = model.occupancy(p, pts)
    assert got.dtype == bool and got.shape == (len(pts),)
    np.testing.assert_array_equal(got, _dense_occupancy(model, p, pts))
    return got


def test_occupancy_sweep_matches_dense_on_random_points(hand_model, posed_hands):
    rng = np.random.default_rng(41)
    inside = 0
    for p in posed_hands:
        e0, e1, _ = hand_model.posed_segments(p)
        lo = np.minimum(e0, e1).min(axis=0) - 0.03
        hi = np.maximum(e0, e1).max(axis=0) + 0.03
        pts = rng.uniform(lo, hi, size=(50_000, 3))
        inside += _occupancy_checked_against_dense(hand_model, p, pts).sum()
    assert inside > 5_000


def test_occupancy_sweep_matches_dense_on_box_faces_and_surfaces(hand_model, posed_hands):
    rng = np.random.default_rng(42)
    for p in posed_hands:
        e0, e1, rads = hand_model.posed_segments(p)
        box_lo = np.minimum(e0, e1) - rads[:, None]
        box_hi = np.maximum(e0, e1) + rads[:, None]
        pts = []
        for b in range(len(rads)):
            # Random points on the six faces of the capsule's box.
            face = rng.uniform(box_lo[b], box_hi[b], size=(60, 3))
            axis = rng.integers(0, 3, 60)
            face[np.arange(60), axis] = np.where(rng.random(60) < 0.5, box_lo[b, axis],
                                                 box_hi[b, axis])
            # The tangent points where the capsule touches its box.
            tangent = np.concatenate([e0[b] + rads[b] * np.eye(3), e0[b] - rads[b] * np.eye(3),
                                      e1[b] + rads[b] * np.eye(3), e1[b] - rads[b] * np.eye(3)])
            # Points on the capsule surface: axis point plus a radial offset.
            u = rng.normal(size=(60, 3))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            t = rng.uniform(0.0, 1.0, (60, 1))
            surface = e0[b] + t * (e1[b] - e0[b]) + rads[b] * u
            pts += [face, tangent, surface]
        _occupancy_checked_against_dense(hand_model, p, np.concatenate(pts))


def test_occupancy_sweep_handles_nan_empty_and_chunk_edges(hand_model, posed_hands):
    p = posed_hands[1]
    e0, _, _ = hand_model.posed_segments(p)
    rng = np.random.default_rng(43)
    pts = e0[rng.integers(0, len(e0), 20)] + rng.normal(0.0, 0.01, (20, 3))
    pts[3] = np.nan
    pts[7, 1] = np.nan
    got = _occupancy_checked_against_dense(hand_model, p, pts)
    assert not got[3] and not got[7] and got.any()
    assert hand_model.occupancy(p, np.empty((0, 3))).shape == (0,)
    # Two chunks, the second short; both ends of the straddle hit the hand.
    n = _OCC_CHUNK + 1000
    pts = e0[rng.integers(0, len(e0), n)] + rng.normal(0.0, 0.02, (n, 3))
    got = _occupancy_checked_against_dense(hand_model, p, pts)
    assert got[:_OCC_CHUNK].any() and got[_OCC_CHUNK:].any()


def test_occupancy_memory_stays_bounded(hand_model, posed_hands):
    p = posed_hands[1]
    e0, e1, _ = hand_model.posed_segments(p)
    pts = np.random.default_rng(44).uniform(np.minimum(e0, e1).min(axis=0),
                                            np.maximum(e0, e1).max(axis=0), (10**6, 3))
    tracemalloc.start()
    try:
        hand_model.occupancy(p, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6   # the points alone are 24 MB; an unchunked sort is ~40 MB


# -- kinematics VJP -----------------------------------------------------------


def test_vjp_zero_cotangent(hand_model):
    p = random_params(np.random.default_rng(1))
    g = kinematics_vjp(p, hand_model, np.zeros((hand_model.n_vertices, 3)))
    np.testing.assert_array_equal(g, np.zeros(64))


def test_vjp_translation_block_is_column_sum(hand_model):
    p = random_params(np.random.default_rng(2))
    cot = np.ones((hand_model.n_vertices, 3))
    g = kinematics_vjp(p, hand_model, cot)
    np.testing.assert_allclose(g[61:64], hand_model.n_vertices * np.ones(3), atol=1e-9)


def _fd_vjp(params, model, cot, h=1e-5):
    def value(vec):
        mesh = model.posed_mesh(HandParam(vec))
        return float(np.sum(cot * mesh.vertices))

    fd = np.empty(64)
    for i in range(64):
        e = np.zeros(64)
        e[i] = h
        fd[i] = (value(params.vector + e) - value(params.vector - e)) / (2 * h)
    return fd


def test_vjp_matches_finite_differences(hand_model):
    rng = np.random.default_rng(17)
    for _ in range(3):
        p = random_params(rng)
        cot = rng.normal(size=(hand_model.n_vertices, 3))
        got = kinematics_vjp(p, hand_model, cot)
        fd = _fd_vjp(p, hand_model, cot)
        denom = np.maximum(np.abs(fd), 1e-4 * np.abs(fd).max())
        assert (np.abs(got - fd) / denom).max() < 1e-3


def test_chain_builds_local_rotations_in_one_call(hand_model, monkeypatch):
    from handpair import hand_model as hm

    calls = []
    original = hm.axis_angle_to_matrix

    def counting(vec):
        calls.append(np.shape(vec))
        return original(vec)

    monkeypatch.setattr(hm, "axis_angle_to_matrix", counting)
    p = random_params(np.random.default_rng(9))
    hand_model.posed_mesh(p)
    assert calls == [(15, 3)]
    calls.clear()
    hand_model.vjp(p, np.ones((hand_model.n_vertices, 3)))
    assert len(calls) <= 2


# -- template backend ---------------------------------------------------------


def test_template_matches_capsule_at_zero_beta(hand_model):
    tmpl = template_from_capsule(hand_model)
    rng = np.random.default_rng(8)
    p = random_params(rng, beta_scale=0.0)
    np.testing.assert_allclose(
        tmpl.posed_mesh(p).vertices,
        hand_model.posed_mesh(p).vertices,
        atol=1e-9,
    )


def test_template_round_trip(tmp_path, hand_model):
    tmpl = template_from_capsule(hand_model)
    save_template(tmp_path / "tmpl", tmpl)
    loaded = load_template(tmp_path / "tmpl")
    p = random_params(np.random.default_rng(3), beta_scale=0.0)
    np.testing.assert_allclose(
        loaded.posed_mesh(p).vertices, tmpl.posed_mesh(p).vertices, atol=1e-6)


def test_template_occupancy_parity(hand_model):
    # The baked template is a union of closed capsules, so ray parity counts
    # coverage multiplicity mod 2; compare against that analytic oracle,
    # excluding a tessellation-error skin around each capsule surface.
    tmpl = template_from_capsule(hand_model)
    p = HandParam.from_parts()
    rng = np.random.default_rng(12)
    pts = rng.uniform([-0.08, -0.03, -0.05], [0.08, 0.2, 0.05], size=(300, 3))
    got = tmpl.occupancy(p, pts)
    e0, e1, rads = hand_model.posed_segments(p)
    margin = np.empty(len(pts))
    expected = np.zeros(len(pts), dtype=bool)
    for i, pt in enumerate(pts):
        dists = np.array([_segment_distance_oracle(pt, e0[b], e1[b])
                          for b in range(hand_model.n_bones)])
        expected[i] = bool((dists <= rads).sum() % 2 == 1)
        margin[i] = np.abs(dists - rads).min()
    keep = margin > 2e-3
    assert (got[keep] == expected[keep]).all()


def test_template_vjp_matches_finite_differences(hand_model):
    tmpl = template_from_capsule(hand_model)
    rng = np.random.default_rng(19)
    p = random_params(rng, beta_scale=0.0)
    cot = rng.normal(size=(tmpl.n_vertices, 3))
    got = tmpl.vjp(p, cot)
    fd = _fd_vjp(p, tmpl, cot)
    fd[45:55] = 0.0  # template has no shape response
    denom = np.maximum(np.abs(fd), 1e-4 * np.abs(fd).max())
    assert (np.abs(got - fd) / denom).max() < 1e-3


def test_template_vjp_matches_capsule_vjp_at_zero_beta(hand_model):
    # The baked template poses like the capsule hand at beta = 0, so the two
    # backward passes must agree on every block the template drives.
    tmpl = template_from_capsule(hand_model)
    rng = np.random.default_rng(23)
    blocks = np.r_[THETA, OMEGA, TAU]
    for _ in range(3):
        p = random_params(rng, beta_scale=0.0)
        cot = rng.normal(size=(hand_model.n_vertices, 3))
        np.testing.assert_allclose(tmpl.vjp(p, cot)[blocks], hand_model.vjp(p, cot)[blocks],
                                   rtol=0.0, atol=1e-9)


def _break_fifteen_joints(parts):
    parts["parents"] = parts["parents"][:15]
    parts["weights"] = parts["weights"][:, :15]
    parts["regressor"] = parts["regressor"][:15]


def _break_root_parent(parts):
    parts["parents"][0] = 0


def _break_parent_after_child(parts):
    parts["parents"][4] = 5


def _break_weight_rows(parts):
    parts["weights"][0] *= 0.5


@pytest.mark.parametrize("breaker, message", [
    (_break_fifteen_joints, "16 joints"),
    (_break_root_parent, "root"),
    (_break_parent_after_child, "tree"),
    (_break_weight_rows, "sum to 1"),
])
def test_template_rejects_bad_layout(hand_model, breaker, message):
    tmpl = template_from_capsule(hand_model)
    parts = {"parents": tmpl.parents.copy(), "rest_vertices": tmpl.rest_vertices,
             "faces": tmpl.faces, "weights": tmpl.weights.copy(),
             "regressor": tmpl.regressor.copy()}
    TemplateHand(**parts)
    breaker(parts)
    with pytest.raises(LayoutMismatch, match=message):
        TemplateHand(**parts)


def test_template_non_watertight_detected(hand_model):
    tmpl = template_from_capsule(hand_model)
    F = len(hand_model._tmpl_faces)
    tmpl.faces = tmpl.faces[F // 2:]  # tear half the first capsule open
    e0, e1, _ = hand_model.posed_segments(HandParam.from_parts())
    probes = (e0 + e1) / 2.0
    with pytest.raises(NonWatertight):
        tmpl.occupancy(HandParam.from_parts(), probes)


# -- mesh helpers -------------------------------------------------------------


def test_mirror_mesh_flips_x_and_orientation(hand_model):
    mesh = hand_model.posed_mesh(HandParam.from_parts())
    m = mirror_mesh(mesh)
    np.testing.assert_allclose(m.vertices[:, 0], -mesh.vertices[:, 0])
    np.testing.assert_allclose(m.normals, mesh.normals @ MIRROR_MAT.T, atol=1e-9)


def test_obj_round_trip(tmp_path, hand_model):
    from handpair.mesh import read_obj, write_obj

    mesh = hand_model.posed_mesh(HandParam.from_parts())
    write_obj(tmp_path / "hand.obj", mesh)
    back = read_obj(tmp_path / "hand.obj")
    assert np.abs(back.vertices - mesh.vertices).max() < 1e-7
    np.testing.assert_array_equal(back.faces, mesh.faces)


@pytest.mark.parametrize("body", [
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n",            # 0 is no OBJ index
    "v nan 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3 4\n",  # a quad
    "v 0 0\nv 1 0\nv 0 1\nf 1 2 3\n",                  # 2-d vertices
], ids=["zero_index", "nan_vertex", "quad", "short_vertex"])
def test_read_obj_rejects_corrupt_input(tmp_path, body):
    from handpair.mesh import read_obj

    (tmp_path / "bad.obj").write_text(body)
    with pytest.raises(ValueError):
        read_obj(tmp_path / "bad.obj")
