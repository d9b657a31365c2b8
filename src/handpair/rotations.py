"""Rotation parameterizations: 6D encoding, axis-angle, and their VJPs.

The 6D encoding stores the first two columns of a rotation matrix as
[c1x, c1y, c1z, c2x, c2y, c2z]; decoding runs Gram-Schmidt on the two
columns and completes the triad with a cross product.

Every function here broadcasts over leading axes: rot6d_to_matrix and
matrix_to_rot6d map (..., 6) to (..., 3, 3) and back, rot6d_vjp takes
(..., 6) encodings with (..., 3, 3) cotangents, and axis_angle_to_matrix and
axis_angle_vjp take (..., 3) vectors. rot6d_degenerate is the one place
that says which encodings the decode rejects.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateRotation

IDENTITY_6D = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])

# Reflection across the x=0 plane; maps between left- and right-hand spaces.
MIRROR_MAT = np.diag([-1.0, 1.0, 1.0])

_EPS = 1e-8


def rot6d_degenerate(omega: np.ndarray) -> np.ndarray:
    """(...) bool: True where rot6d_to_matrix rejects the (..., 6) encoding.

    Rejected are a near-zero first column (|a1| <= 1e-8) and a second column
    with almost no part orthogonal to the first (|u2| <= 1e-8, with
    u2 = a2 - (b1.a2) b1 and b1 = a1/|a1|). A zero column gives a True
    entry, not a floating-point warning.
    """
    omega = np.asarray(omega, dtype=float)
    a1, a2 = omega[..., :3], omega[..., 3:]
    n1 = np.linalg.norm(a1, axis=-1, keepdims=True)
    b1 = a1 / np.where(n1 <= _EPS, 1.0, n1)
    u2 = a2 - np.sum(b1 * a2, axis=-1, keepdims=True) * b1
    return (n1[..., 0] <= _EPS) | (np.linalg.norm(u2, axis=-1) <= _EPS)


def rot6d_to_matrix(omega: np.ndarray) -> np.ndarray:
    """Decode 6D rotations (..., 6) to orthonormal (..., 3, 3) matrices (det +1).

    Raises DegenerateRotation when any entry is rot6d_degenerate.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape[-1:] != (6,):
        raise DegenerateRotation(f"expected 6 entries on the last axis, got shape {omega.shape}")
    if np.any(rot6d_degenerate(omega)):
        raise DegenerateRotation("first column near zero or columns (near-)collinear")
    a1, a2 = omega[..., :3], omega[..., 3:]
    b1 = a1 / np.linalg.norm(a1, axis=-1, keepdims=True)
    u2 = a2 - np.sum(b1 * a2, axis=-1, keepdims=True) * b1
    b2 = u2 / np.linalg.norm(u2, axis=-1, keepdims=True)
    return np.stack([b1, b2, np.cross(b1, b2)], axis=-1)


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
    b1_bar = G[..., :, 0] + np.cross(b2, G[..., :, 2])
    b2_bar = G[..., :, 1] + np.cross(G[..., :, 2], b1)
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
    vxc = np.cross(vec[..., None, :], np.swapaxes(np.eye(3) - R, -1, -2))
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


def _skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices [v]x, (..., 3) -> (..., 3, 3)."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    zero = np.zeros_like(x)
    return np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1).reshape(*v.shape, 3)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation from a QR-orthonormalized Gaussian."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def geodesic_angle(r1: np.ndarray, r2: np.ndarray) -> float:
    """Rotation angle of r1^T r2, in radians."""
    c = (np.trace(r1.T @ r2) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))
