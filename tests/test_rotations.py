import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handpair.errors import DegenerateRotation
from handpair.rotations import (
    axis_angle_to_matrix,
    axis_angle_vjp,
    matrix_to_rot6d,
    random_rotation,
    rot6d_degenerate,
    rot6d_to_matrix,
    rot6d_vjp,
)


def test_identity_case():
    np.testing.assert_allclose(rot6d_to_matrix([1, 0, 0, 0, 1, 0]), np.eye(3))


def test_gram_schmidt_matches_independent_oracle():
    omega = np.array([1.0, 0.1, 0.0, 0.0, 1.0, 0.0])
    got = rot6d_to_matrix(omega)
    # Independent orthonormalization oracle via QR on the two columns.
    cols = np.stack([omega[:3], omega[3:]], axis=1)
    q, r = np.linalg.qr(cols)
    q = q * np.sign(np.diag(r))
    expected = np.column_stack([q[:, 0], q[:, 1], np.cross(q[:, 0], q[:, 1])])
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_collinear_columns_raise():
    with pytest.raises(DegenerateRotation):
        rot6d_to_matrix([1, 0, 0, 2, 0, 0])
    with pytest.raises(DegenerateRotation):
        rot6d_to_matrix([0, 0, 0, 0, 1, 0])


def test_stacked_decode_matches_rows_and_rejects_one_collinear_row():
    rng = np.random.default_rng(12)
    omegas = np.stack([matrix_to_rot6d(random_rotation(rng)) for _ in range(8)]).reshape(2, 4, 6)
    got = rot6d_to_matrix(omegas)
    assert got.shape == (2, 4, 3, 3)
    np.testing.assert_array_equal(got, [[rot6d_to_matrix(o) for o in row] for row in omegas])
    np.testing.assert_array_equal(matrix_to_rot6d(got), [[matrix_to_rot6d(m) for m in row]
                                                         for row in got])
    omegas[1, 2] = [1, 0, 0, 2, 0, 0]
    with pytest.raises(DegenerateRotation):
        rot6d_to_matrix(omegas)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_decode_is_orthonormal_and_roundtrips(seed):
    rng = np.random.default_rng(seed)
    omega = rng.normal(size=6)
    if np.linalg.norm(np.cross(omega[:3], omega[3:])) < 1e-3:
        return
    R = rot6d_to_matrix(omega)
    np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-6)
    assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-6)
    # Orthonormal encodings are fixed points of the round trip.
    np.testing.assert_allclose(rot6d_to_matrix(matrix_to_rot6d(R)), R, atol=1e-12)


def test_rot6d_vjp_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(5):
        omega = rng.normal(size=6)
        cot = rng.normal(size=(3, 3))
        got = rot6d_vjp(omega, cot)
        h = 1e-6
        fd = np.empty(6)
        for i in range(6):
            e = np.zeros(6)
            e[i] = h
            fd[i] = (np.tensordot(rot6d_to_matrix(omega + e), cot)
                     - np.tensordot(rot6d_to_matrix(omega - e), cot)) / (2 * h)
        np.testing.assert_allclose(got, fd, rtol=1e-5, atol=1e-7)


def test_axis_angle_known_values():
    np.testing.assert_allclose(axis_angle_to_matrix([0, 0, 0]), np.eye(3))
    R = axis_angle_to_matrix([0, 0, np.pi / 2])
    np.testing.assert_allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)


def test_axis_angle_vjp_matches_finite_differences():
    rng = np.random.default_rng(7)
    for vec in [rng.normal(size=3), np.array([1e-9, 0, 0]), rng.normal(size=3) * 2]:
        cot = rng.normal(size=(3, 3))
        got = axis_angle_vjp(vec, cot)
        h = 1e-6
        fd = np.empty(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd[i] = (np.tensordot(axis_angle_to_matrix(vec + e), cot)
                     - np.tensordot(axis_angle_to_matrix(vec - e), cot)) / (2 * h)
        np.testing.assert_allclose(got, fd, rtol=1e-4, atol=1e-6)


def test_random_rotation_is_rotation():
    R = random_rotation(np.random.default_rng(0))
    np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)
    assert np.linalg.det(R) == pytest.approx(1.0)


def test_stacked_axis_angle_matches_per_row_calls():
    rng = np.random.default_rng(21)
    vecs = rng.normal(size=(4, 5, 3)) * np.logspace(-6, 0.5, 20).reshape(4, 5, 1)
    vecs[1, 2] = 0.0
    vecs[3, 4] = [1e-10, 0.0, 0.0]
    cots = rng.normal(size=(4, 5, 3, 3))
    mats = axis_angle_to_matrix(vecs)
    grads = axis_angle_vjp(vecs, cots)
    assert mats.shape == (4, 5, 3, 3) and grads.shape == (4, 5, 3)
    for i in np.ndindex(4, 5):
        np.testing.assert_array_equal(mats[i], axis_angle_to_matrix(vecs[i]))
        np.testing.assert_array_equal(grads[i], axis_angle_vjp(vecs[i], cots[i]))


def test_stacked_rot6d_vjp_matches_per_row_calls():
    rng = np.random.default_rng(23)
    omegas = rng.normal(size=(2, 3, 6))
    cots = rng.normal(size=(2, 3, 3, 3))
    grads = rot6d_vjp(omegas, cots)
    assert grads.shape == (2, 3, 6)
    for i in np.ndindex(2, 3):
        np.testing.assert_array_equal(grads[i], rot6d_vjp(omegas[i], cots[i]))


def test_rot6d_degenerate_is_where_the_decode_raises():
    rows = np.array([
        [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],     # zero first column
        [1.0, 0.0, 0.0, 2.0, 0.0, 0.0],     # collinear
        [1.0, 0.0, 0.0, 2.0, 1e-9, 0.0],    # collinear plus 1e-9
        [1.0, 0.1, 0.0, 0.0, 1.0, 0.0],     # valid
    ])
    raises = []
    for row in rows:
        try:
            rot6d_to_matrix(row)
            raises.append(False)
        except DegenerateRotation:
            raises.append(True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mask = rot6d_degenerate(rows.reshape(2, 2, 6))
    assert mask.shape == (2, 2)
    assert mask.ravel().tolist() == raises == [True, True, True, False]


def test_axis_angle_vjp_takes_skew_limit_near_zero():
    G = np.random.default_rng(5).normal(size=(3, 3))
    limit = [G[2, 1] - G[1, 2], G[0, 2] - G[2, 0], G[1, 0] - G[0, 1]]
    np.testing.assert_array_equal(axis_angle_vjp(np.array([1e-10, 0.0, 0.0]), G), limit)
