"""Articulated hand representation and its differentiable kinematics.

A hand is a 64-vector [theta | beta | omega | tau]:
  theta: 45 axis-angle radians for 15 articulated joints
  beta:  10 unitless shape coefficients
  omega: 6D root rotation (first two matrix columns, pre-orthonormalization)
  tau:   3 root translation, meters
HandParam holds one hand (64,) or a stack of hands (..., 64). One rule holds
for every function on hands: it broadcasts over the leading axes. That
covers the parameter-space algebra (mirror, pin_root, relative_root,
reroot_pair, compose_root), the chain and its reverse sweep, posed_vertices
(..., V, 3) and the VJPs (..., 64). The exceptions return one object per
hand: posed_mesh (a HandMesh with its own cached k-d tree), and
posed_segments and occupancy, which serve one pair's voxel grid. Occupancy
takes any number of query points and works through them in fixed-size
chunks, so its memory stays bounded. These are model methods; the
module-level operations are kinematics_vjp, through which APG reaches
model.vjp, and the left-hand mirror convention: left_hand_mesh,
occupancy_left and pair_meshes.

Canonical single-hand space is the right hand; a left hand is stored as the
parameter vector whose mirror() image is the equivalent right-hand vector,
and its mesh is the x-negation of that right-hand mesh with flipped faces.

Two backends share one kinematic chain: a forward sweep (_chain) that turns
theta and per-joint rest offsets into joint rotations and positions, and its
reverse sweep (_chain_vjp). They differ in the offsets fed to the chain and
in how vertices hang off the joints:
  CapsuleHand  - built-in: 16 joints, one capsule per bone, analytic
                 occupancy, watertight per component. beta scales the
                 offsets, so the offset cotangents flow back into beta.
  TemplateHand - external skinned template loaded from a JSON manifest plus
                 float32 blobs (rest vertices, skinning weights, joint
                 regressor). Fixed offsets and no shape basis: beta has no
                 effect here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import LayoutMismatch, NonWatertight
from .mesh import HandMesh, mirror_mesh
from .rotations import (
    IDENTITY_6D,
    MIRROR_MAT,
    axis_angle_to_matrix,
    axis_angle_vjp,
    matrix_to_rot6d,
    rot6d_to_matrix,
    rot6d_vjp,
)

DIM = 64
THETA = slice(0, 45)
BETA = slice(45, 55)
OMEGA = slice(55, 61)
TAU = slice(61, 64)

N_JOINTS = 16
N_FINGERS = 5


@dataclass
class HandParam:
    """One hand (64,) or a stack (..., 64), with named views onto its blocks."""

    vector: np.ndarray

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=float)
        if self.vector.shape[-1:] != (DIM,):
            raise ValueError(
                f"hand parameters need a last axis of {DIM}, got shape {self.vector.shape}")

    @classmethod
    def from_parts(cls, theta=None, beta=None, omega=None, tau=None) -> "HandParam":
        v = np.zeros(DIM)
        v[OMEGA] = IDENTITY_6D
        if theta is not None:
            v[THETA] = theta
        if beta is not None:
            v[BETA] = beta
        if omega is not None:
            v[OMEGA] = omega
        if tau is not None:
            v[TAU] = tau
        return cls(v)

    @property
    def theta(self) -> np.ndarray:
        return self.vector[..., THETA]

    @property
    def beta(self) -> np.ndarray:
        return self.vector[..., BETA]

    @property
    def omega(self) -> np.ndarray:
        return self.vector[..., OMEGA]

    @property
    def tau(self) -> np.ndarray:
        return self.vector[..., TAU]

    def validate(self) -> None:
        if not np.isfinite(self.vector).all():
            raise ValueError("non-finite hand parameters")
        rot6d_to_matrix(self.omega)  # raises DegenerateRotation when bad

    def copy(self) -> "HandParam":
        return HandParam(self.vector.copy())


# ---------------------------------------------------------------------------
# Parameter-space algebra


def _apply(R: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Batched matrix-vector product R v over (..., 3, 3) and (..., 3)."""
    return (R @ v[..., None])[..., 0]


def mirror(params: HandParam) -> HandParam:
    """Reflect across x=0: omega' encodes T R T, tau' = T tau; theta/beta kept.

    Applying the reflection to the root alone suffices because local
    deformations mirror along the kinematic chain by convention.
    """
    out = params.copy()
    R = rot6d_to_matrix(params.omega)
    out.vector[..., OMEGA] = matrix_to_rot6d(MIRROR_MAT @ R @ MIRROR_MAT)
    out.vector[..., TAU] = _apply(MIRROR_MAT, params.tau)
    return out


def pin_root(params: HandParam) -> HandParam:
    """Identity root rotation, zero translation; articulation untouched."""
    out = params.copy()
    out.vector[..., OMEGA] = IDENTITY_6D
    out.vector[..., TAU] = 0.0
    return out


def relative_root(base: HandParam, other: HandParam):
    """Root of ``other`` expressed in ``base``'s root frame: (omega6d, tau)."""
    Rb_T = np.swapaxes(rot6d_to_matrix(base.omega), -1, -2)
    Ro = rot6d_to_matrix(other.omega)
    return matrix_to_rot6d(Rb_T @ Ro), _apply(Rb_T, other.tau - base.tau)


def reroot_pair(target: HandParam, cond: HandParam):
    """Re-express (target, cond) in cond's root frame.

    The returned condition has identity root; the returned target's root
    block carries the relative transform between the two hands.
    """
    omega_rel, tau_rel = relative_root(cond, target)
    new_target = target.copy()
    new_target.vector[..., OMEGA] = omega_rel
    new_target.vector[..., TAU] = tau_rel
    return new_target, pin_root(cond)


def compose_root(base: HandParam, rel: HandParam) -> HandParam:
    """Inverse of reroot: map a base-frame-relative param back to world."""
    Rb = rot6d_to_matrix(base.omega)
    Rr = rot6d_to_matrix(rel.omega)
    out = rel.copy()
    out.vector[..., OMEGA] = matrix_to_rot6d(Rb @ Rr)
    out.vector[..., TAU] = _apply(Rb, rel.tau) + base.tau
    return out


# ---------------------------------------------------------------------------
# Kinematic chain shared by both backends


def _chain(parents: np.ndarray, theta: np.ndarray, offsets: np.ndarray, root: np.ndarray):
    """Forward sweep: per-joint rotations Q (..., J, 3, 3) and positions p (..., J, 3).

    Joint j rotates by axis-angle theta[..., 3(j-1):3j] relative to its
    parent and sits at offsets[..., j, :], in the parent's frame, from it.
    Joint 0 has identity rotation and sits at ``root``. Every parent must
    precede its children.
    """
    local = axis_angle_to_matrix(theta.reshape(*theta.shape[:-1], N_JOINTS - 1, 3))
    Q = np.zeros((*theta.shape[:-1], N_JOINTS, 3, 3))
    p = np.zeros((*theta.shape[:-1], N_JOINTS, 3))
    Q[..., 0, :, :] = np.eye(3)
    p[..., 0, :] = root
    for j in range(1, N_JOINTS):
        par = parents[j]
        p[..., j, :] = p[..., par, :] + _apply(Q[..., par, :, :], offsets[..., j, :])
        Q[..., j, :, :] = Q[..., par, :, :] @ local[..., j - 1, :, :]
    return Q, p


def _chain_vjp(parents, theta, offsets, Q, Q_bar, p_bar):
    """Reverse sweep of _chain given the cotangents of its Q and p.

    Accumulates into Q_bar and p_bar in place. Returns the theta gradient
    (..., 45) and the offset cotangents (..., J, 3).
    """
    axes = theta.reshape(*theta.shape[:-1], N_JOINTS - 1, 3)
    local_T = np.swapaxes(axis_angle_to_matrix(axes), -1, -2)
    Q_T = np.swapaxes(Q, -1, -2)
    local_bar = np.empty_like(local_T)
    off_bar = np.zeros(p_bar.shape)
    for j in range(N_JOINTS - 1, 0, -1):
        par = parents[j]
        local_bar[..., j - 1, :, :] = Q_T[..., par, :, :] @ Q_bar[..., j, :, :]
        Q_bar[..., par, :, :] += Q_bar[..., j, :, :] @ local_T[..., j - 1, :, :] \
            + p_bar[..., j, :, None] * offsets[..., j, None, :]
        off_bar[..., j, :] = _apply(Q_T[..., par, :, :], p_bar[..., j, :])
        p_bar[..., par, :] += p_bar[..., j, :]
    return axis_angle_vjp(axes, local_bar).reshape(theta.shape), off_bar


# ---------------------------------------------------------------------------
# Built-in capsule hand

# Rest metacarpal head positions (offsets from the wrist), meters.
_MCP_POS = np.array([
    [0.030, 0.025, -0.005],   # thumb
    [0.027, 0.088, 0.000],    # index
    [0.009, 0.092, 0.000],    # middle
    [-0.008, 0.088, 0.000],   # ring
    [-0.024, 0.080, 0.000],   # pinky
])

# Unit rest directions of the three articulated segments per finger.
_FINGER_DIR = np.array([
    [0.60, 0.78, -0.18],
    [0.05, 1.00, 0.00],
    [0.00, 1.00, 0.00],
    [-0.05, 1.00, 0.00],
    [-0.09, 1.00, 0.00],
])
_FINGER_DIR = _FINGER_DIR / np.linalg.norm(_FINGER_DIR, axis=1, keepdims=True)

# Segment lengths (proximal, middle, distal) per finger, meters.
_SEG_LEN = np.array([
    [0.035, 0.030, 0.026],
    [0.042, 0.026, 0.020],
    [0.046, 0.029, 0.021],
    [0.042, 0.027, 0.020],
    [0.033, 0.021, 0.018],
])

# Capsule radii: palm bone + three segments, per finger, meters.
_RADII = np.array([
    [0.0140, 0.0110, 0.0100, 0.0090],
    [0.0130, 0.0090, 0.0080, 0.0075],
    [0.0130, 0.0092, 0.0082, 0.0076],
    [0.0125, 0.0088, 0.0079, 0.0074],
    [0.0120, 0.0082, 0.0074, 0.0070],
])

# CapsuleHand.occupancy sweeps this many query points at a time, and pads
# each capsule's box by _BOX_MARGIN meters so that rounding at a tangent
# point cannot drop a point from the exact test.
_OCC_CHUNK = 1 << 16
_BOX_MARGIN = 1e-9

# Capsule tessellation: vertices per ring, rings per hemispherical cap, and
# axial bands along the cylinder.
N_SEG = 8
N_CAP = 2
N_SIDE = 2


def _capsule_template():
    """Shared capsule tessellation in (axial fraction, unit offset) form.

    A capsule surface point is c + r*n with c on the axis segment and n a
    unit outward offset, so posed vertices are linear in (length, radius).
    Returns (a: (K,), n_local: (K,3) with axis=+z, faces: (F,3) CCW outward).
    """
    angles = 2.0 * np.pi * np.arange(N_SEG) / N_SEG
    ca, sa = np.cos(angles), np.sin(angles)
    rings = []   # (a, psi) per ring; psi = polar angle from +z of the offset
    for i in range(1, N_CAP + 1):
        rings.append((0.0, np.pi - 0.5 * np.pi * i / N_CAP))
    for j in range(1, N_SIDE):
        rings.append((j / N_SIDE, 0.5 * np.pi))
    for i in range(N_CAP):
        rings.append((1.0, 0.5 * np.pi - 0.5 * np.pi * i / N_CAP))

    a_list = [0.0]
    n_list = [np.array([0.0, 0.0, -1.0])]
    for a, psi in rings:
        sp, cp = np.sin(psi), np.cos(psi)
        ring_n = np.stack([sp * ca, sp * sa, np.full(N_SEG, cp)], axis=1)
        a_list.extend([a] * N_SEG)
        n_list.extend(ring_n)
    a_list.append(1.0)
    n_list.append(np.array([0.0, 0.0, 1.0]))

    a = np.array(a_list)
    n_local = np.stack(n_list)

    faces = []
    n_rings = len(rings)
    ring0 = 1

    def ring_idx(k, s):
        return ring0 + k * N_SEG + (s % N_SEG)

    for s in range(N_SEG):  # bottom fan, outward-down
        faces.append([0, ring_idx(0, s + 1), ring_idx(0, s)])
    for k in range(n_rings - 1):
        for s in range(N_SEG):
            A, B = ring_idx(k, s), ring_idx(k, s + 1)
            C, D = ring_idx(k + 1, s + 1), ring_idx(k + 1, s)
            faces.append([A, B, C])
            faces.append([A, C, D])
    top = len(a) - 1
    for s in range(N_SEG):  # top fan, outward-up
        faces.append([top, ring_idx(n_rings - 1, s), ring_idx(n_rings - 1, s + 1)])
    return a, n_local, np.array(faces, dtype=np.int64)


def _frame_for(direction: np.ndarray) -> np.ndarray:
    """Orthonormal frame [e1 e2 d] with +z of the template mapped to d."""
    d = direction / np.linalg.norm(direction)
    ref = np.array([0.0, 0.0, 1.0]) if abs(d[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(d, ref)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(d, e1)
    return np.stack([e1, e2, d], axis=1)


class CapsuleHand:
    """Built-in differentiable hand: 16 joints, 20 capsules (one per bone).

    Kinematic tree: wrist root plus five 3-segment fingers. beta scales bone
    lengths and capsule radii through fixed linear bases. Immutable after
    construction; safe to share across workers.
    """

    def __init__(self):
        self.n_joints = N_JOINTS
        self.parents = np.full(N_JOINTS, -1, dtype=int)

        a, n_local, faces = _capsule_template()
        self._tmpl_a = a
        self._tmpl_faces = faces

        # Bones: (attach_joint, direction, len0, rad0)
        attach, dirs, len0, rad0 = [], [], [], []
        for f in range(N_FINGERS):
            mcp, pip, dip = 1 + 3 * f, 2 + 3 * f, 3 + 3 * f
            self.parents[mcp] = 0
            self.parents[pip] = mcp
            self.parents[dip] = pip
            palm_len = np.linalg.norm(_MCP_POS[f])
            palm_dir = _MCP_POS[f] / palm_len
            attach += [0, mcp, pip, dip]
            dirs += [palm_dir, _FINGER_DIR[f], _FINGER_DIR[f], _FINGER_DIR[f]]
            len0 += [palm_len, _SEG_LEN[f, 0], _SEG_LEN[f, 1], _SEG_LEN[f, 2]]
            rad0 += list(_RADII[f])
        self.bone_attach = np.array(attach, dtype=int)
        self.bone_dir = np.stack(dirs)
        self.bone_len0 = np.array(len0)
        self.bone_rad0 = np.array(rad0)
        self.n_bones = len(attach)

        # Shape bases: multiplicative length/radius factors (1 + basis @ beta).
        self.len_basis = np.zeros((self.n_bones, 10))
        self.rad_basis = np.zeros((self.n_bones, 10))
        self.len_basis[:, 0] = 0.10
        self.rad_basis[:, 1] = 0.10
        for f in range(N_FINGERS):
            self.len_basis[4 * f: 4 * f + 4, 2 + f] = 0.15
        self.len_basis[0::4, 7] = 0.10          # palm spread
        self.rad_basis[3::4, 8] = -0.10         # distal taper
        self.rad_basis[0::4, 9] = 0.10          # palm thickness
        self.rad_basis[1::4, 9] = 0.05
        # Joint 1 + 3f + s ends bone 4f + s (s < 3): its rest offset is that
        # bone's axis and scales with that bone's length. The root row is 0.
        self.joint_bone = np.flatnonzero(np.arange(self.n_bones) % 4 != 3)
        self.offset_dir = np.vstack([np.zeros(3), self.bone_dir[self.joint_bone]])
        self.offset_len0 = np.concatenate([[0.0], self.bone_len0[self.joint_bone]])
        self.offset_basis = np.vstack([np.zeros(10), self.len_basis[self.joint_bone]])

        # Per-bone unit offsets rotated into the bone frame, fixed at build.
        self._bone_n = np.stack([n_local @ _frame_for(d).T for d in self.bone_dir])
        self.verts_per_bone = len(a)
        self.n_vertices = self.verts_per_bone * self.n_bones
        bone_base = self.verts_per_bone * np.arange(self.n_bones)
        self.faces = (self._tmpl_faces + bone_base[:, None, None]).reshape(-1, 3)
        # (J, bones) one-hot: sums per-bone cotangents onto their attach joints.
        self._joint_of_bone = (np.arange(N_JOINTS)[:, None] == self.bone_attach).astype(float)

    # -- kinematics -------------------------------------------------------

    def bone_lengths(self, beta: np.ndarray) -> np.ndarray:
        return self.bone_len0 * (1.0 + _apply(self.len_basis, beta))

    def bone_radii(self, beta: np.ndarray) -> np.ndarray:
        return self.bone_rad0 * (1.0 + _apply(self.rad_basis, beta))

    def joint_offsets(self, beta: np.ndarray) -> np.ndarray:
        """Per-joint rest offsets from the parent, (..., J, 3); the root row is 0."""
        return (self.offset_len0 * (1.0 + _apply(self.offset_basis, beta)))[..., None] \
            * self.offset_dir

    def joint_transforms(self, theta: np.ndarray, beta: np.ndarray):
        """Canonical-space (rotation, position) per joint; root is identity."""
        return _chain(self.parents, theta, self.joint_offsets(beta), np.zeros(3))

    def _bone_local(self, beta: np.ndarray) -> np.ndarray:
        """Bone-frame capsule vertices (..., bones, K, 3): axial point plus radial offset."""
        lens = self.bone_lengths(beta)
        rads = self.bone_radii(beta)
        return (self._tmpl_a[:, None] * lens[..., None, None]) * self.bone_dir[:, None, :] \
            + rads[..., None, None] * self._bone_n

    def _attach(self, local: np.ndarray, Q: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Carry (..., bones, K, 3) bone-frame points into canonical space by their joints."""
        return local @ np.swapaxes(Q[..., self.bone_attach, :, :], -1, -2) \
            + p[..., self.bone_attach, None, :]

    def canonical_vertices(self, theta: np.ndarray, beta: np.ndarray) -> np.ndarray:
        Q, p = self.joint_transforms(theta, beta)
        return self._attach(self._bone_local(beta), Q, p).reshape(*theta.shape[:-1],
                                                                  self.n_vertices, 3)

    def posed_vertices(self, params: HandParam) -> np.ndarray:
        """World vertices (..., V, 3)."""
        R = rot6d_to_matrix(params.omega)
        return self.canonical_vertices(params.theta, params.beta) @ np.swapaxes(R, -1, -2) \
            + params.tau[..., None, :]

    def posed_mesh(self, params: HandParam) -> HandMesh:
        return HandMesh(self.posed_vertices(params), self.faces)

    def posed_segments(self, params: HandParam):
        """World capsule axis endpoints (B,3),(B,3) and radii (B,) of one hand."""
        Q, p = self.joint_transforms(params.theta, params.beta)
        axis = self.bone_lengths(params.beta)[:, None] * self.bone_dir
        e0 = p[self.bone_attach]
        e1 = e0 + (Q[self.bone_attach] @ axis[:, :, None])[..., 0]
        R = rot6d_to_matrix(params.omega)
        return e0 @ R.T + params.tau, e1 @ R.T + params.tau, self.bone_radii(params.beta)

    def occupancy(self, params: HandParam, points: np.ndarray) -> np.ndarray:
        """Analytic point-in-capsule-union test. points: (N,3) -> (N,) bool.

        A sweep, not a broadcast: the points go through in chunks of
        _OCC_CHUNK (2**16) rows, each sorted by x once. Each capsule
        binary-searches the x-slab of its axis-aligned box (segment endpoints
        +- radius, padded by _BOX_MARGIN), keeps the slab rows inside the box
        in y and z, and runs the exact segment-distance test on those rows
        only. Memory is bounded by the chunk, whatever N is.
        """
        points = np.asarray(points, dtype=float)
        e0, e1, rads = self.posed_segments(params)
        w = e1 - e0                                    # (B,3)
        ww = np.maximum(np.einsum("bi,bi->b", w, w), 1e-30)
        pad = rads[:, None] + _BOX_MARGIN
        box_lo, box_hi = np.minimum(e0, e1) - pad, np.maximum(e0, e1) + pad
        out = np.zeros(len(points), dtype=bool)
        for lo in range(0, len(points), _OCC_CHUNK):
            chunk = points[lo:lo + _OCC_CHUNK]
            order = np.argsort(chunk[:, 0], kind="stable")
            xs, ys, zs = (chunk[:, k][order] for k in range(3))
            for b in range(len(rads)):
                i0, i1 = np.searchsorted(xs, (box_lo[b, 0], box_hi[b, 0]))
                y, z = ys[i0:i1], zs[i0:i1]
                idx = order[i0:i1][(y >= box_lo[b, 1]) & (y <= box_hi[b, 1])
                                   & (z >= box_lo[b, 2]) & (z <= box_hi[b, 2])]
                # The dense test's arithmetic on a one-capsule slice, so the
                # verdicts are bit-identical to testing every capsule at once.
                cand = chunk[idx][:, None, :]
                e0b, wb = e0[b:b + 1], w[b:b + 1]
                t = np.clip(np.einsum("nbi,bi->nb", cand - e0b, wb) / ww[b:b + 1], 0.0, 1.0)
                d2 = np.sum((cand - (e0b + t[..., None] * wb)) ** 2, axis=2)
                out[lo + idx[d2[:, 0] <= rads[b] ** 2]] = True
        return out

    # -- reverse-mode kinematics -------------------------------------------

    def vjp(self, params: HandParam, cotangent: np.ndarray) -> np.ndarray:
        """Gradient (..., 64) of sum_k cotangent_k . vertex_k w.r.t. the parameters."""
        theta, beta = params.theta, params.beta
        lead = theta.shape[:-1]
        cot = np.asarray(cotangent, dtype=float).reshape(*lead, self.n_vertices, 3)
        offsets = self.joint_offsets(beta)
        Q, p = _chain(self.parents, theta, offsets, np.zeros(3))
        local = self._bone_local(beta)
        R = rot6d_to_matrix(params.omega)

        grad = np.zeros((*lead, DIM))
        grad[..., TAU] = cot.sum(axis=-2)
        R_bar = np.swapaxes(cot, -1, -2) @ self._attach(local, Q, p).reshape(cot.shape)
        w_bar = cot.reshape(local.shape) @ R[..., None, :, :]    # rows R^T c_k
        Q_bar = (self._joint_of_bone @ (np.swapaxes(w_bar, -1, -2) @ local).reshape(
            *lead, self.n_bones, 9)).reshape(*lead, N_JOINTS, 3, 3)
        p_bar = self._joint_of_bone @ w_bar.sum(axis=-2)
        local_bar = w_bar @ Q[..., self.bone_attach, :, :]
        len_bar = np.einsum("...bki,bi,k->...b", local_bar, self.bone_dir, self._tmpl_a)
        rad_bar = np.einsum("...bki,bki->...b", local_bar, self._bone_n)

        grad[..., THETA], off_bar = _chain_vjp(self.parents, theta, offsets, Q, Q_bar, p_bar)
        off_len_bar = np.einsum("...ji,ji->...j", off_bar, self.offset_dir)
        grad[..., BETA] = _apply(self.len_basis.T, self.bone_len0 * len_bar) \
            + _apply(self.rad_basis.T, self.bone_rad0 * rad_bar) \
            + _apply(self.offset_basis.T, self.offset_len0 * off_len_bar)
        grad[..., OMEGA] = rot6d_vjp(params.omega, R_bar)
        return grad


@lru_cache(maxsize=1)
def default_hand() -> CapsuleHand:
    return CapsuleHand()


# ---------------------------------------------------------------------------
# External skinned-template backend

_RAY_DIRS = np.array([
    [0.9999993, 0.0009, 0.0007],
    [0.0008, 0.9999991, 0.0011],
    [0.0013, 0.0006, 0.9999989],
])
_RAY_DIRS = _RAY_DIRS / np.linalg.norm(_RAY_DIRS, axis=1, keepdims=True)


class TemplateHand:
    """LBS over a user-supplied rest mesh; 16 joints like the built-in hand.

    beta is ignored (the file format carries no shape basis) and its VJP
    block is zero. Occupancy is a ray-parity test and raises NonWatertight
    when the three ray directions disagree; the mesh must be a single
    watertight non-self-intersecting volume for parity to equal containment.
    """

    def __init__(self, parents, rest_vertices, faces, weights, regressor):
        self.parents = np.asarray(parents, dtype=int)
        self.n_joints = len(self.parents)
        if self.n_joints != N_JOINTS:
            raise LayoutMismatch(f"template must have {N_JOINTS} joints, got {self.n_joints}")
        if self.parents[0] != -1:
            raise LayoutMismatch("joint 0 must be the root (parent -1)")
        for j in range(1, self.n_joints):
            if not 0 <= self.parents[j] < j:
                raise LayoutMismatch("parent indices must form a tree rooted at joint 0")
        self.rest_vertices = np.asarray(rest_vertices, dtype=float)
        self.faces = np.asarray(faces, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=float)
        self.regressor = np.asarray(regressor, dtype=float)
        row_sums = self.weights.sum(axis=1)
        if not np.allclose(row_sums, 1.0, atol=1e-6):
            raise LayoutMismatch("skinning weight rows must sum to 1")
        self.rest_joints = self.regressor @ self.rest_vertices
        self.rest_offsets = self.rest_joints - self.rest_joints[np.maximum(self.parents, 0)]
        self.n_vertices = len(self.rest_vertices)

    def joint_transforms(self, theta: np.ndarray):
        return _chain(self.parents, theta, self.rest_offsets, self.rest_joints[0])

    def _skin(self, Q: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Linear blend skinning: sum_j w_vj (Q_j (v - rest_joint_j) + p_j)."""
        lead = Q.shape[:-3]
        blended = (self.weights @ Q.reshape(*lead, N_JOINTS, 9)).reshape(
            *lead, self.n_vertices, 3, 3)
        t = p - np.einsum("...jab,jb->...ja", Q, self.rest_joints)
        return np.einsum("...vab,vb->...va", blended, self.rest_vertices) + self.weights @ t

    def canonical_vertices(self, theta: np.ndarray, beta=None) -> np.ndarray:
        return self._skin(*self.joint_transforms(theta))

    def posed_vertices(self, params: HandParam) -> np.ndarray:
        """World vertices (..., V, 3)."""
        R = rot6d_to_matrix(params.omega)
        return self.canonical_vertices(params.theta) @ np.swapaxes(R, -1, -2) \
            + params.tau[..., None, :]

    def posed_mesh(self, params: HandParam) -> HandMesh:
        return HandMesh(self.posed_vertices(params), self.faces)

    def occupancy(self, params: HandParam, points: np.ndarray) -> np.ndarray:
        verts = self.posed_vertices(params)
        points = np.asarray(points, dtype=float)
        parities = np.stack([
            _ray_parity(points, verts, self.faces, d) for d in _RAY_DIRS
        ], axis=1)
        if not (parities.min(axis=1) == parities.max(axis=1)).all():
            bad = int(np.flatnonzero(parities.min(axis=1) != parities.max(axis=1))[0])
            raise NonWatertight(f"ray parity disagrees at point {bad}")
        return parities[:, 0].astype(bool)

    def vjp(self, params: HandParam, cotangent: np.ndarray) -> np.ndarray:
        theta = params.theta
        lead = theta.shape[:-1]
        cot = np.asarray(cotangent, dtype=float).reshape(*lead, self.n_vertices, 3)
        Q, p = self.joint_transforms(theta)
        R = rot6d_to_matrix(params.omega)

        grad = np.zeros((*lead, DIM))
        grad[..., TAU] = cot.sum(axis=-2)
        R_bar = np.swapaxes(cot, -1, -2) @ self._skin(Q, p)
        canon_bar = cot @ R

        p_bar = self.weights.T @ canon_bar
        outer = np.einsum("...va,vb->...vab", canon_bar, self.rest_vertices).reshape(
            *lead, self.n_vertices, 9)
        Q_bar = (self.weights.T @ outer).reshape(*lead, N_JOINTS, 3, 3) \
            - np.einsum("...ja,jb->...jab", p_bar, self.rest_joints)
        grad[..., THETA], _ = _chain_vjp(self.parents, theta, self.rest_offsets, Q, Q_bar, p_bar)
        grad[..., OMEGA] = rot6d_vjp(params.omega, R_bar)
        return grad


def _ray_parity(points: np.ndarray, vertices: np.ndarray, faces: np.ndarray,
                direction: np.ndarray) -> np.ndarray:
    """Crossing-count parity per point via Moller-Trumbore, chunked.

    Parity equals containment for a single watertight non-self-intersecting
    volume; for overlapping components it is coverage multiplicity mod 2.
    """
    tri = vertices[faces]                        # (F,3,3)
    v0, e1, e2 = tri[:, 0], tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]
    pvec = np.cross(direction, e2)               # (F,3)
    det = np.einsum("fi,fi->f", e1, pvec)
    ok = np.abs(det) > 1e-14
    inv_det = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    counts = np.zeros(len(points), dtype=np.int64)
    for lo in range(0, len(points), 512):
        pts = points[lo:lo + 512]
        tvec = pts[:, None, :] - v0[None]        # (n,F,3)
        u = np.einsum("nfi,fi->nf", tvec, pvec) * inv_det
        qvec = np.cross(tvec, e1[None])
        v = np.einsum("nfi,i->nf", qvec, direction) * inv_det
        t = np.einsum("nfi,fi->nf", qvec, e2) * inv_det
        hit = ok[None] & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > 1e-12)
        counts[lo:lo + 512] = hit.sum(axis=1)
    return counts % 2


# ---------------------------------------------------------------------------
# Template file format: JSON manifest + little-endian float32 blobs


def save_template(path, model: TemplateHand) -> None:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    blobs = {
        "rest_vertices.f32": model.rest_vertices,
        "skin_weights.f32": model.weights,
        "joint_regressor.f32": model.regressor,
    }
    digests = {}
    for name, arr in blobs.items():
        raw = arr.astype("<f4").tobytes()
        (path / name).write_bytes(raw)
        digests[name] = hashlib.sha256(raw).hexdigest()
    manifest = {
        "kind": "hand-template",
        "units": "m",
        "joints": int(model.n_joints),
        "parents": model.parents.tolist(),
        "vertex_count": int(model.n_vertices),
        "face_count": int(len(model.faces)),
        "faces": model.faces.tolist(),
        "checksums": digests,
    }
    (path / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))


def load_template(path) -> TemplateHand:
    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text())
    if manifest.get("units") != "m":
        raise LayoutMismatch(f"template units must be 'm', got {manifest.get('units')!r}")
    J = int(manifest["joints"])
    V = int(manifest["vertex_count"])

    def blob(name, shape):
        raw = (path / name).read_bytes()
        expected = int(np.prod(shape)) * 4
        if len(raw) != expected:
            raise LayoutMismatch(f"{name}: {len(raw)} bytes, expected {expected}")
        return np.frombuffer(raw, dtype="<f4").astype(float).reshape(shape)

    return TemplateHand(
        parents=manifest["parents"],
        rest_vertices=blob("rest_vertices.f32", (V, 3)),
        faces=np.array(manifest["faces"], dtype=np.int64),
        weights=blob("skin_weights.f32", (V, J)),
        regressor=blob("joint_regressor.f32", (J, V)),
    )


def template_from_capsule(model: CapsuleHand) -> TemplateHand:
    """Bake the capsule hand into a rigid-weight template (testing/demos).

    Weights are one-hot on each bone's attach joint, so LBS reproduces the
    capsule kinematics exactly at beta = 0. The regressor averages the
    axis-centered equator ring nearest each joint.
    """
    rest = model.canonical_vertices(np.zeros(45), np.zeros(10))
    V = model.n_vertices
    weights = np.zeros((V, N_JOINTS))
    K = model.verts_per_bone
    weights[np.arange(V), np.repeat(model.bone_attach, K)] = 1.0

    bottom_eq = 1 + (N_CAP - 1) * N_SEG           # first index of a=0 equator
    top_eq = K - 1 - N_CAP * N_SEG                # first index of a=1 equator
    regressor = np.zeros((N_JOINTS, V))
    regressor[0, 0 * K + bottom_eq: 0 * K + bottom_eq + N_SEG] = 1.0 / N_SEG
    for joint, b in enumerate(model.joint_bone, start=1):
        regressor[joint, b * K + top_eq: b * K + top_eq + N_SEG] = 1.0 / N_SEG
    return TemplateHand(model.parents, rest, model.faces, weights, regressor)


# ---------------------------------------------------------------------------
# Module-level operation surface


def kinematics_vjp(params: HandParam, model, vertex_cotangent: np.ndarray) -> np.ndarray:
    return model.vjp(params, vertex_cotangent)


def left_hand_mesh(params_left: HandParam, model) -> HandMesh:
    """Mesh of a left hand: x-negated right mesh of its mirror image."""
    return mirror_mesh(model.posed_mesh(mirror(params_left)))


def occupancy_left(model, params_left: HandParam, points: np.ndarray) -> np.ndarray:
    return model.occupancy(mirror(params_left), np.asarray(points) @ MIRROR_MAT.T)


def pair_meshes(x_l: HandParam, x_r: HandParam, model):
    """(left mesh, right mesh) for a stored pair."""
    return left_hand_mesh(x_l, model), model.posed_mesh(x_r)
