"""Rotation parameterizations: 6D encoding, axis-angle, and their VJPs.

The 6D encoding stores the first two columns of a rotation matrix as
[c1x, c1y, c1z, c2x, c2y, c2z]; decoding runs Gram-Schmidt on the two
columns and completes the triad with a cross product.

Every function here broadcasts over leading axes: rot6d_to_matrix and
matrix_to_rot6d map (..., 6) to (..., 3, 3) and back, rot6d_vjp takes
(..., 6) encodings with (..., 3, 3) cotangents, axis_angle_to_matrix and
axis_angle_vjp take (..., 3) vectors, and geodesic_angle maps (..., 3, 3)
pairs to (...) angles. One Gram-Schmidt, _gram_schmidt, serves the decode
and says which encodings it rejects; rot6d_degenerate returns that mask.
cross is np.cross bit for bit, and mesh forms face normals with it too.
The left-hand reflection needs no matrix: it is hand_model's four sign flips
in parameter space (mirror) and one x-negation in world space (negate_x).
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateRotation

IDENTITY_6D = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])

_EPS = 1e-8


def _gram_schmidt(omega: np.ndarray):
    """(b1, u2, |u2| (..., 1), rot6d_degenerate's mask) of (..., 6) encodings;
    b1 is a1 itself where |a1| <= 1e-8, so a zero column warns of nothing."""
    a1, a2 = omega[..., :3], omega[..., 3:]
    n1 = _norm(a1)
    b1 = a1 / np.where(n1 <= _EPS, 1.0, n1)
    u2 = a2 - np.sum(b1 * a2, axis=-1, keepdims=True) * b1
    n2 = _norm(u2)
    return b1, u2, n2, (n1[..., 0] <= _EPS) | (n2[..., 0] <= _EPS)


def rot6d_degenerate(omega: np.ndarray) -> np.ndarray:
    """(...) bool: True where rot6d_to_matrix rejects the (..., 6) encoding.

    Rejected are a near-zero first column (|a1| <= 1e-8) and a second column
    with almost no part orthogonal to the first (|u2| <= 1e-8, with
    u2 = a2 - (b1.a2) b1 and b1 = a1/|a1|). A zero column gives a True
    entry, not a floating-point warning.
    """
    return _gram_schmidt(np.asarray(omega, dtype=float))[3]


def rot6d_to_matrix(omega: np.ndarray) -> np.ndarray:
    """Decode 6D rotations (..., 6) to orthonormal (..., 3, 3) matrices (det +1).

    Raises DegenerateRotation when any entry is rot6d_degenerate.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape[-1:] != (6,):
        raise DegenerateRotation(f"expected 6 entries on the last axis, got shape {omega.shape}")
    b1, u2, n2, degenerate = _gram_schmidt(omega)
    if np.any(degenerate):
        raise DegenerateRotation("first column near zero or columns (near-)collinear")
    b2 = u2 / n2
    return np.stack([b1, b2, cross(b1, b2)], axis=-1)


def matrix_to_rot6d(mat: np.ndarray) -> np.ndarray:
    """First two columns of each (..., 3, 3) matrix flattened into the 6D layout."""
    mat = np.asarray(mat, dtype=float)
    return np.concatenate([mat[..., :, 0], mat[..., :, 1]], axis=-1)


def rot6d_vjp(omega: np.ndarray, mat_cotangent: np.ndarray) -> np.ndarray:
    """VJP of rot6d_to_matrix: (..., 3, 3) cotangents to (..., 6) gradients."""
    omega = np.asarray(omega, dtype=float)
    G = np.asarray(mat_cotangent, dtype=float)
    a1, a2 = omega[..., :3], omega[..., 3:]
    n1 = np.sqrt(_dot(a1, a1))[..., None]
    b1 = a1 / n1
    d = _dot(b1, a2)[..., None]
    u2 = a2 - d * b1
    n2 = np.sqrt(_dot(u2, u2))[..., None]
    b2 = u2 / n2
    # b3 = b1 x b2: triple-product identities route the cross backward.
    b1_bar = G[..., :, 0] + cross(b2, G[..., :, 2])
    b2_bar = G[..., :, 1] + cross(G[..., :, 2], b1)
    # b2 = u2/|u2|
    u2_bar = (b2_bar - _dot(b2, b2_bar)[..., None] * b2) / n2
    # u2 = a2 - (b1.a2) b1
    b1_u2_bar = _dot(b1, u2_bar)[..., None]
    a2_bar = u2_bar - b1_u2_bar * b1
    b1_bar += -b1_u2_bar * a2 - d * u2_bar
    # b1 = a1/|a1|
    a1_bar = (b1_bar - _dot(b1, b1_bar)[..., None] * b1) / n1
    return np.concatenate([a1_bar, a2_bar], axis=-1)


def axis_angle_to_matrix(vec: np.ndarray) -> np.ndarray:
    """Rodrigues formula, (..., 3) -> (..., 3, 3); series I + K + K^2/2 below 1e-8 rad."""
    vec = np.asarray(vec, dtype=float)
    angle = np.sqrt(_dot(vec, vec))
    small = angle < _EPS
    K = _skew(vec) / np.where(small, 1.0, angle)[..., None, None]
    s = np.where(small, 1.0, np.sin(angle))[..., None, None]
    c = np.where(small, 0.5, 1.0 - np.cos(angle))[..., None, None]
    return np.eye(3) + s * K + c * (K @ K)


def axis_angle_vjp(vec: np.ndarray, mat_cotangent: np.ndarray) -> np.ndarray:
    """VJP of axis_angle_to_matrix: (..., 3) vectors, (..., 3, 3) cotangents.

    Uses the compact exponential-coordinates derivative
    dR/dv_i = ((v_i [v]x + [v x (I - R) e_i]x) / |v|^2) R, with the
    [e_i]x limit at the origin.
    """
    vec = np.asarray(vec, dtype=float)
    G = np.asarray(mat_cotangent, dtype=float)
    angle_sq = _dot(vec, vec)
    small = angle_sq < _EPS**2
    R = axis_angle_to_matrix(vec)
    # Row i of vxc is v x (I - R) e_i; dR[..., i, :, :] is dR/dv_i.
    vxc = cross(vec[..., None, :], np.swapaxes(np.eye(3) - R, -1, -2))
    dR = ((vec[..., :, None, None] * _skew(vec)[..., None, :, :] + _skew(vxc))
          / np.where(small, 1.0, angle_sq)[..., None, None, None]) @ R[..., None, :, :]
    lead = vec.shape[:-1]
    grad = (dR.reshape(*lead, 3, 1, 9) @ G.reshape(*lead, 1, 9, 1))[..., 0, 0]
    limit = np.stack([G[..., 2, 1] - G[..., 1, 2], G[..., 0, 2] - G[..., 2, 0],
                      G[..., 1, 0] - G[..., 0, 1]], axis=-1)
    return np.where(small[..., None], limit, grad)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a.b over the last axis, summed by BLAS ddot like the one-vector a @ b."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm(v: np.ndarray) -> np.ndarray:
    """|v| (..., 1) of (..., 3) vectors as sqrt((x^2 + y^2) + z^2): np.linalg.norm's
    sum, bit for bit, without its reduction over a three-wide axis."""
    return np.sqrt((v[..., 0] ** 2 + v[..., 1] ** 2) + v[..., 2] ** 2)[..., None]


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis, (..., 3); the products np.cross forms, minus for minus."""
    ax, ay, az = a[..., 0], a[..., 1], a[..., 2]
    bx, by, bz = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx], axis=-1)


def _skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices [v]x, (..., 3) -> (..., 3, 3)."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    zero = np.zeros_like(x)
    return np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1).reshape(*v.shape, 3)


def geodesic_angle(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Rotation angle of r1^T r2 in radians, (...) for (..., 3, 3) matrices."""
    c = (np.trace(np.swapaxes(r1, -1, -2) @ r2, axis1=-2, axis2=-1) - 1.0) / 2.0
    return np.arccos(np.clip(c, -1.0, 1.0))
