import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import icosphere, random_params, random_rotation
from handpair.errors import ZeroAreaStar
from handpair.hand_model import (
    _OCC_CHUNK,
    OMEGA,
    TAU,
    HandParam,
    capsule_boxes,
    compose_root,
    kinematics_vjp,
    left_hand_mesh,
    left_segments,
    mirror,
    pair_segments,
    pin_root,
    relative_root,
    reroot_pair,
)
from handpair.mesh import HandMesh, vertex_normals
from handpair.rotations import (
    IDENTITY_6D,
    axis_angle_to_matrix,
    axis_angle_vjp,
    matrix_to_rot6d,
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


def edge_manifold_ok(faces: np.ndarray) -> bool:
    """True when every directed edge has exactly one opposite twin."""
    edges = {}
    for f in faces:
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            edges[(a, b)] = edges.get((a, b), 0) + 1
    for (a, b), count in edges.items():
        if count != 1 or edges.get((b, a), 0) != 1:
            return False
    return True


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

# The reflection across x = 0, as a matrix: the oracle that mirror's sign
# flips and negate_x's x-negation must reproduce.
MIRROR_MAT = np.diag([-1.0, 1.0, 1.0])


def test_mirror_identity_root_translation_only():
    p = HandParam.from_parts(tau=[0.1, 0.2, 0.3])
    m = mirror(p)
    np.testing.assert_allclose(m.omega, IDENTITY_6D, atol=1e-15)
    np.testing.assert_allclose(m.tau, [-0.1, 0.2, 0.3], atol=1e-15)
    np.testing.assert_allclose(m.theta, p.theta)
    np.testing.assert_allclose(m.beta, p.beta)


def test_mirror_matches_matrix_oracle():
    # Orthonormal roots and rescaled, non-orthonormal 6D draws alike: the
    # flipped encoding decodes to T R T, each Gram-Schmidt step a sign change.
    rng = np.random.default_rng(5)
    ang = np.pi / 2
    R = np.array([
        [np.cos(ang), -np.sin(ang), 0],
        [np.sin(ang), np.cos(ang), 0],
        [0, 0, 1],
    ])
    roots = [matrix_to_rot6d(R)] + [random_params(rng).omega for _ in range(100)]
    roots += list(rng.standard_normal((100, 6)) * rng.uniform(1e-3, 1e3, (100, 1)))
    p = HandParam(np.tile(HandParam.from_parts().vector, (len(roots), 1)))
    p.vector[:, OMEGA] = roots
    got = rot6d_to_matrix(mirror(p).omega)
    np.testing.assert_array_equal(got, MIRROR_MAT @ rot6d_to_matrix(p.omega) @ MIRROR_MAT)


def test_mirror_is_involution():
    # Bit for bit, and total: degenerate and NaN roots flip like any other.
    rng = np.random.default_rng(5)
    rows = [random_params(rng).vector for _ in range(100)]
    rows += list(rng.standard_normal((50, 64)) * rng.uniform(1e-3, 1e3, (50, 1)))
    for block in (slice(OMEGA.start, OMEGA.start + 3), slice(OMEGA.start + 3, OMEGA.stop),
                  OMEGA):
        zero = random_params(rng).vector
        zero[block] = 0.0
        rows.append(zero)
    for entry in (*range(OMEGA.start, OMEGA.stop), TAU.start, 0):
        nan = random_params(rng).vector
        nan[entry] = np.nan
        rows.append(nan)
    for p in (HandParam(np.stack(rows)), *map(HandParam, rows)):
        assert mirror(mirror(p)).vector.tobytes() == p.vector.tobytes()
        assert mirror(p).vector.tobytes() != p.vector.tobytes()


def test_a_pinned_hand_is_its_own_mirror():
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = pin_root(random_params(rng))
        assert mirror(p).vector.tobytes() == p.vector.tobytes()


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


def test_stacked_kinematics_match_per_row_calls(hand_model):
    rng = np.random.default_rng(31)
    stack = np.stack([random_params(rng).vector for _ in range(6)]).reshape(2, 3, 64)
    stack[0, 1, 3:6] = 0.0          # a straight joint takes the Rodrigues series branch
    cots = rng.normal(size=(2, 3, hand_model.n_vertices, 3))
    verts = hand_model.posed_vertices(HandParam(stack))
    grads = hand_model.vjp(HandParam(stack), cots)
    segments = hand_model.posed_segments(HandParam(stack))
    assert verts.shape == (2, 3, hand_model.n_vertices, 3) and grads.shape == (2, 3, 64)
    assert [a.shape for a in segments] == [(2, 3, 20, 3), (2, 3, 20, 3), (2, 3, 20)]
    for i in np.ndindex(2, 3):
        np.testing.assert_array_equal(verts[i], hand_model.posed_vertices(HandParam(stack[i])))
        np.testing.assert_array_equal(verts[i], hand_model.posed_mesh(HandParam(stack[i])).vertices)
        np.testing.assert_array_equal(grads[i], hand_model.vjp(HandParam(stack[i]), cots[i]))
        for got, one in zip(segments, hand_model.posed_segments(HandParam(stack[i]))):
            np.testing.assert_array_equal(got[i], one)
    empty = HandParam(np.zeros((0, 64)))
    assert hand_model.posed_vertices(empty).shape == (0, hand_model.n_vertices, 3)
    assert hand_model.vjp(empty, np.zeros((0, hand_model.n_vertices, 3))).shape == (0, 64)


# The finger-major kinematic tree: finger f's joints 1 + 3f, 2 + 3f and 3 + 3f
# hang from the wrist, from 1 + 3f and from 2 + 3f.
PARENTS = [-1] + [0 if j % 3 == 1 else j - 1 for j in range(1, 16)]


def _chain_per_joint(theta, offsets):
    """Reference for _chain: the same forward sweep, one joint at a time."""
    local = axis_angle_to_matrix(theta.reshape(*theta.shape[:-1], 15, 3))
    Q = np.zeros((*theta.shape[:-1], 16, 3, 3))
    p = np.zeros((*theta.shape[:-1], 16, 3))
    Q[..., 0, :, :] = np.eye(3)
    for j in range(1, 16):
        par = PARENTS[j]
        p[..., j, :] = p[..., par, :] + (Q[..., par, :, :] @ offsets[..., j, :, None])[..., 0]
        Q[..., j, :, :] = Q[..., par, :, :] @ local[..., j - 1, :, :]
    return Q, p


def _chain_vjp_per_joint(theta, offsets, Q, Q_bar, p_bar):
    """Reference for _chain_vjp: the same reverse sweep, one joint at a time."""
    axes = theta.reshape(*theta.shape[:-1], 15, 3)
    local_T = np.swapaxes(axis_angle_to_matrix(axes), -1, -2)
    Q_T = np.swapaxes(Q, -1, -2)
    local_bar = np.empty_like(local_T)
    off_bar = np.zeros(p_bar.shape)
    for j in range(15, 0, -1):
        par = PARENTS[j]
        local_bar[..., j - 1, :, :] = Q_T[..., par, :, :] @ Q_bar[..., j, :, :]
        Q_bar[..., par, :, :] += Q_bar[..., j, :, :] @ local_T[..., j - 1, :, :] \
            + p_bar[..., j, :, None] * offsets[..., j, None, :]
        off_bar[..., j, :] = (Q_T[..., par, :, :] @ p_bar[..., j, :, None])[..., 0]
        p_bar[..., par, :] += p_bar[..., j, :]
    return axis_angle_vjp(axes, local_bar).reshape(theta.shape), off_bar


def _kinematic_outputs(model, params, cot):
    Q, p = model.joint_transforms(params.theta, params.beta)
    return [Q, p, model.posed_vertices(params), *model.posed_segments(params),
            model.vjp(params, cot)]


def test_level_sweep_is_the_per_joint_sweep_byte_for_byte(hand_model, monkeypatch):
    from handpair import hand_model as hm

    rng = np.random.default_rng(47)
    rows = np.stack([random_params(rng).vector for _ in range(15)])
    rows[1, 3:6] = 0.0              # a straight joint: the Rodrigues series branch
    rows[2, 20] = np.nan            # a NaN row
    rows[3, [0, 7, 14, 62]] = -0.0  # signed zeros in theta and tau
    rows[3, 9:12] = -0.0            # a straight joint of signed zeros
    rows[4, 46] = -15.0             # every signed radius negative
    assert (hand_model.bone_rad0 * (1.0 + hand_model.rad_basis @ rows[4, 45:55]) < 0).all()
    stacks = {(): rows[3], (1,): rows[4:5], (7,): rows[:7], (3, 5): rows.reshape(3, 5, 64),
              (0,): rows[:0]}
    cases = [(HandParam(v), rng.normal(size=(*shape, hand_model.n_vertices, 3)))
             for shape, v in stacks.items()]
    got = [_kinematic_outputs(hand_model, params, cot) for params, cot in cases]
    monkeypatch.setattr(hm, "_chain", _chain_per_joint)
    monkeypatch.setattr(hm, "_chain_vjp", _chain_vjp_per_joint)
    for shape, params_cot, outputs in zip(stacks, cases, got):
        expected = _kinematic_outputs(hand_model, *params_cot)
        for a, b in zip(outputs, expected):
            assert a.shape == b.shape and a.shape[:len(shape)] == shape
            assert a.tobytes() == b.tobytes(), shape
    vjp_7 = got[2][-1]               # the NaN row's gradient is NaN, and no other row's
    assert np.isnan(vjp_7[2]).any() and np.isfinite(np.delete(vjp_7, 2, axis=0)).all()


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
        np.testing.assert_array_equal(mirrored, negated)
        twice = hand_model.posed_mesh(mirror(mirror(p))).vertices
        assert (mirrored == twice @ MIRROR_MAT.T).all()


def test_left_capsules_carry_the_left_mesh(hand_model):
    rng = np.random.default_rng(10)
    for _ in range(3):
        x_l, x_r = random_params(rng), random_params(rng)
        e0, e1, rads = pair_segments(x_l, x_r, hand_model)
        assert e0.shape == e1.shape == (40, 3) and rads.shape == (40,)
        verts = left_hand_mesh(x_l, hand_model).vertices
        bone = np.arange(len(verts)) // hand_model.verts_per_bone
        gap = [_segment_distance_oracle(v, e0[b], e1[b]) - rads[b] for v, b in zip(verts, bone)]
        assert np.abs(gap).max() < 1e-12
        for got, right in zip((e0, e1, rads), hand_model.posed_segments(x_r)):
            np.testing.assert_array_equal(got[20:], right)


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


def test_normals_point_away_from_their_capsule_axes_at_negative_radii(hand_model):
    # beta[1] = -15 makes every signed radius negative; each vertex still sits
    # |radius| out from its capsule's axis, and its normal points away from it.
    rng = np.random.default_rng(13)
    for theta_scale in (0.0, 0.3):
        p = random_params(rng, theta_scale=theta_scale)
        p.vector[46] = -15.0
        mesh = hand_model.posed_mesh(p)
        e0, e1, rads = hand_model.posed_segments(p)
        bone = np.arange(hand_model.n_vertices) // hand_model.verts_per_bone
        w = e1[bone] - e0[bone]
        t = np.clip(np.einsum("vi,vi->v", mesh.vertices - e0[bone], w)
                    / np.einsum("vi,vi->v", w, w), 0.0, 1.0)
        out = mesh.vertices - (e0[bone] + t[:, None] * w)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), rads[bone], rtol=0, atol=1e-12)
        assert (np.einsum("vi,vi->v", mesh.normals, out) > 0).all()


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
    segments = hand_model.posed_segments(p)
    assert hand_model.occupancy(segments, posed_joints).all()
    far = posed_joints[0] + np.array([1.0, 0.0, 0.0])
    assert not hand_model.occupancy(segments, far[None])[0]


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
    got = hand_model.occupancy((e0, e1, rads), pts)
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
    right = hand_model.occupancy(hand_model.posed_segments(mirror(p)), pts @ MIRROR_MAT.T)
    np.testing.assert_array_equal(hand_model.occupancy(left_segments(p, hand_model), pts), right)


def test_left_occupancy_negates_x_with_the_matmul_verdicts(hand_model):
    # left_segments negates x of the capsules instead of multiplying the
    # points by MIRROR_MAT. The two may disagree on the sign of a zero
    # coordinate, never on a verdict.
    rng = np.random.default_rng(5)
    p = random_params(rng, tau_scale=0.0)       # the wrist sits at the origin
    pts = rng.uniform(-0.06, 0.06, size=(20_000, 3))
    zero = rng.random(pts.shape) < 0.3
    pts[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
    expected = hand_model.occupancy(hand_model.posed_segments(mirror(p)), pts @ MIRROR_MAT.T)
    assert expected[zero.any(axis=1)].sum() > 100
    left = left_segments(p, hand_model)
    lo, hi = capsule_boxes(*left)
    np.testing.assert_array_equal(hand_model.occupancy(left, pts), expected)
    # Every accepted point lies in a world box of the left hand's capsules.
    inside = pts[expected]
    assert ((inside[:, None] >= lo) & (inside[:, None] <= hi)).all(axis=2).any(axis=1).all()


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
    got = model.occupancy(model.posed_segments(p), pts)
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
    assert hand_model.occupancy(hand_model.posed_segments(p), np.empty((0, 3))).shape == (0,)
    # Two chunks, the second short; both ends of the straddle hit the hand.
    n = _OCC_CHUNK + 1000
    pts = e0[rng.integers(0, len(e0), n)] + rng.normal(0.0, 0.02, (n, 3))
    got = _occupancy_checked_against_dense(hand_model, p, pts)
    assert got[:_OCC_CHUNK].any() and got[_OCC_CHUNK:].any()


def test_occupancy_matches_dense_with_negative_radii(hand_model):
    # beta[1] = -15 makes every signed capsule radius negative, and
    # posed_segments gives its magnitude, so the sweep still finds every
    # point the segment test holds.
    beta = np.zeros(10)
    beta[1] = -15.0
    p = HandParam.from_parts(beta=beta, tau=[0.02, -0.01, 0.03])
    e0, e1, rads = hand_model.posed_segments(p)
    signed = hand_model.bone_rad0 * (1.0 + hand_model.rad_basis @ beta)
    assert (signed < 0).all()
    np.testing.assert_array_equal(rads, -signed)
    pts = np.random.default_rng(45).uniform(np.minimum(e0, e1).min(axis=0) - 0.03,
                                            np.maximum(e0, e1).max(axis=0) + 0.03,
                                            (50_000, 3))
    assert _occupancy_checked_against_dense(hand_model, p, pts).sum() > 500


def test_occupancy_memory_stays_bounded(hand_model, posed_hands):
    segments = hand_model.posed_segments(posed_hands[1])
    e0, e1, _ = segments
    pts = np.random.default_rng(44).uniform(np.minimum(e0, e1).min(axis=0),
                                            np.maximum(e0, e1).max(axis=0), (10**6, 3))
    tracemalloc.start()
    try:
        hand_model.occupancy(segments, pts)
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


def _fd_vjp(params, model, cot, h=1e-3):
    """Five-point central differences, (-f(2h) + 8f(h) - 8f(-h) + f(-2h)) / 12h."""
    def value(vec):
        mesh = model.posed_mesh(HandParam(vec))
        return float(np.sum(cot * mesh.vertices))

    fd = np.empty(64)
    for i in range(64):
        e = np.zeros(64)
        e[i] = h
        v = params.vector
        fd[i] = (-value(v + 2 * e) + 8 * value(v + e) - 8 * value(v - e) + value(v - 2 * e)) \
            / (12 * h)
    return fd


def test_vjp_matches_finite_differences(hand_model):
    # Every block, beta included, to 1e-9 absolute; |grad| reaches ~70.
    rng = np.random.default_rng(17)
    for _ in range(3):
        p = random_params(rng)
        cot = rng.normal(size=(hand_model.n_vertices, 3))
        got = kinematics_vjp(p, hand_model, cot)
        np.testing.assert_allclose(got, _fd_vjp(p, hand_model, cot), rtol=0.0, atol=1e-9)


def test_vjp_matches_finite_differences_at_negative_radii(hand_model):
    # Radii are the magnitude of a signed radius that beta[1] = -15 makes
    # negative everywhere, so their cotangent reaches beta with a sign flip.
    # Along the vertex normals the radii carry most of beta[1]'s gradient.
    p = random_params(np.random.default_rng(18))
    p.vector[46] = -15.0
    assert (hand_model.bone_rad0 * (1.0 + hand_model.rad_basis @ p.beta) < 0).all()
    cot = hand_model.posed_mesh(p).normals
    got = kinematics_vjp(p, hand_model, cot)
    np.testing.assert_allclose(got, _fd_vjp(p, hand_model, cot), rtol=0.0, atol=1e-9)
    assert got[46] < -0.5


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


# -- mesh helpers -------------------------------------------------------------


def test_mirror_mesh_flips_x_and_orientation(hand_model):
    # left_hand_mesh negates x of its mirror image's posed mesh: the matmul
    # by MIRROR_MAT to the bit, with the faces reversed to stay outward-CCW.
    rng = np.random.default_rng(12)
    for _ in range(64):
        x = random_params(rng)
        right = hand_model.posed_mesh(mirror(x))
        left = left_hand_mesh(x, hand_model)
        assert (left.vertices == right.vertices @ MIRROR_MAT.T).all()
        np.testing.assert_array_equal(left.faces, hand_model.faces[:, ::-1])
    np.testing.assert_allclose(left.normals, right.normals @ MIRROR_MAT.T, atol=1e-9)

