"""Articulated hand representation and its differentiable kinematics.

A hand is a 64-vector [theta | beta | omega | tau]:
  theta: 45 axis-angle radians for 15 articulated joints
  beta:  10 unitless shape coefficients
  omega: 6D root rotation (first two matrix columns, pre-orthonormalization)
  tau:   3 root translation, meters
DIM = 64 is the one owner of this width: every other module spells a hand
vector as DIM and a two-hand record as 2 * DIM.
HandParam holds one hand (64,) or a stack of hands (..., 64). One rule holds
for every function on hands: it broadcasts over the leading axes. That
covers the parameter-space algebra (mirror, pin_root, relative_root,
reroot_pair, compose_root), the chain and its reverse sweep, posed_vertices
(..., V, 3), posed_segments (..., bones, 3) and the VJPs (..., 64). The
exceptions return one object per hand: posed_mesh (a HandMesh with its own
cached k-d tree, the anchor of contact; this module builds every HandMesh)
and occupancy, which tests one penetration_volume block's points. These
are model methods; the module-level ones are kinematics_vjp, through which
APG reaches model.vjp, and the left-hand mirror convention, hand first and
model second: left_hand_mesh(x_l, model), left_segments (for volumes),
pair_meshes and pair_segments (for clouds).

Canonical single-hand space is the right hand; a left hand is stored as the
parameter vector whose mirror() image is the equivalent right-hand vector:
the reflection is four sign flips in parameter space, and one x-negation,
negate_x, in world space (left_hand_mesh, left_segments; faces flip too).

The hand is CapsuleHand: 16 joints, one capsule per bone, analytic
occupancy, watertight per component. Its joints are in finger-major order:
the wrist, then joint 1 + 3f + s for segment s of finger f, at depth s + 1.
So its kinematic chain sweeps three depth levels, each one strided view of
five joints, not 15 joints one by one: a forward sweep (_chain) that turns
theta and the per-joint rest offsets into joint rotations and positions, and
its reverse sweep (_chain_vjp), deepest level first. beta scales the offsets
and the capsule radii, so the offset cotangents flow back into beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .mesh import BOX_MARGIN, HandMesh
from .rotations import (
    IDENTITY_6D,
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
# The entries mirror negates: c1y, c1z and c2x of T R T, and x of T tau.
_MIRRORED = np.zeros(DIM, dtype=bool)
_MIRRORED[[*range(OMEGA.start + 1, OMEGA.start + 4), TAU.start]] = True

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

    Four sign flips, no decode: T R T has the columns (c1x, -c1y, -c1z) and
    (-c2x, c2y, c2z), and every Gram-Schmidt step of the flipped encoding is
    a sign change of the original's. So it never raises and undoes itself
    bit for bit, but for a -0 at a flipped entry: 0.0 - v keeps zeros at
    +0, so a pinned hand is its own mirror. Local deformations mirror along
    the chain by convention.
    """
    return HandParam(np.where(_MIRRORED, 0.0 - params.vector, params.vector))


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
# Kinematic chain


# Joint 1 + 3f + s sits at depth s + 1: level s + 1 is _LEVELS[s], and its
# parents are the level before it, or the wrist as 0:1, which broadcasts.
_LEVELS = [slice(1 + s, N_JOINTS, 3) for s in range(3)]
_LEVEL_PARENTS = [slice(0, 1), *_LEVELS[:-1]]


def _chain(theta: np.ndarray, offsets: np.ndarray):
    """Forward sweep: per-joint rotations Q (..., J, 3, 3) and positions p (..., J, 3).

    Joint j rotates by axis-angle theta[..., 3(j-1):3j] relative to its
    parent and sits at offsets[..., j, :], in the parent's frame, from it.
    Joint 0, the wrist, has identity rotation and sits at the origin of the
    canonical frame. The sweep relies on the finger-major joint order: it
    steps through the three depth levels (_LEVELS), posing a level's five
    joints with the products that a joint-by-joint sweep forms for each.
    """
    local = axis_angle_to_matrix(theta.reshape(*theta.shape[:-1], N_JOINTS - 1, 3))
    Q = np.zeros((*theta.shape[:-1], N_JOINTS, 3, 3))
    p = np.zeros((*theta.shape[:-1], N_JOINTS, 3))
    Q[..., 0, :, :] = np.eye(3)
    for s in (0, 1, 2):
        lvl, par = _LEVELS[s], _LEVEL_PARENTS[s]
        p[..., lvl, :] = p[..., par, :] + _apply(Q[..., par, :, :], offsets[..., lvl, :])
        Q[..., lvl, :, :] = Q[..., par, :, :] @ local[..., s::3, :, :]
    return Q, p


def _chain_vjp(theta, offsets, Q, Q_bar, p_bar):
    """Reverse sweep of _chain given the cotangents of its Q and p, deepest level first.

    Accumulates into Q_bar and p_bar in place, except at the wrist, whose
    cotangents nothing reads. Returns the theta gradient (..., 45) and the
    offset cotangents (..., J, 3).
    """
    axes = theta.reshape(*theta.shape[:-1], N_JOINTS - 1, 3)
    local_T = np.swapaxes(axis_angle_to_matrix(axes), -1, -2)
    Q_T = np.swapaxes(Q, -1, -2)
    local_bar = np.empty_like(local_T)
    off_bar = np.zeros(p_bar.shape)
    for s in (2, 1, 0):
        lvl, par = _LEVELS[s], _LEVEL_PARENTS[s]
        local_bar[..., s::3, :, :] = Q_T[..., par, :, :] @ Q_bar[..., lvl, :, :]
        off_bar[..., lvl, :] = _apply(Q_T[..., par, :, :], p_bar[..., lvl, :])
        if s:
            Q_bar[..., par, :, :] += Q_bar[..., lvl, :, :] @ local_T[..., s::3, :, :] \
                + p_bar[..., lvl, :, None] * offsets[..., lvl, None, :]
            p_bar[..., par, :] += p_bar[..., lvl, :]
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

# Capsule tessellation: vertices per ring, rings per hemispherical cap, and
# axial bands along the cylinder.
N_SEG = 8
N_CAP = 2
N_SIDE = 2


def capsule_boxes(e0: np.ndarray, e1: np.ndarray, rads: np.ndarray):
    """Axis-aligned boxes (lo, hi), each (..., bones, 3), of capsules with axis
    endpoints e0, e1 (..., bones, 3) and radii (..., bones): the endpoints
    +- (|radius| + BOX_MARGIN), as a caller may pass signed radii. Every
    point that CapsuleHand.occupancy accepts, and every posed vertex, lies in
    the box of its capsule."""
    pad = np.abs(rads)[..., None] + BOX_MARGIN
    return np.minimum(e0, e1) - pad, np.maximum(e0, e1) + pad


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
        a, n_local, faces = _capsule_template()
        self._tmpl_a = a
        self._tmpl_faces = faces

        # Bones: (attach_joint, direction, len0, rad0)
        attach, dirs, len0, rad0 = [], [], [], []
        for f in range(N_FINGERS):
            mcp, pip, dip = 1 + 3 * f, 2 + 3 * f, 3 + 3 * f
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
        """Capsule radii (..., bones): the magnitude of the signed radius
        bone_rad0 * (1 + rad_basis @ beta), which a beta can make negative."""
        return np.abs(self.bone_rad0 * (1.0 + _apply(self.rad_basis, beta)))

    def joint_offsets(self, beta: np.ndarray) -> np.ndarray:
        """Per-joint rest offsets from the parent, (..., J, 3); the root row is 0."""
        return (self.offset_len0 * (1.0 + _apply(self.offset_basis, beta)))[..., None] \
            * self.offset_dir

    def joint_transforms(self, theta: np.ndarray, beta: np.ndarray):
        """Canonical-space (rotation, position) per joint; root is identity."""
        return _chain(theta, self.joint_offsets(beta))

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
        """World capsule axis endpoints (..., bones, 3) twice and radii (..., bones)."""
        Q, p = self.joint_transforms(params.theta, params.beta)
        axis = self.bone_lengths(params.beta)[..., None] * self.bone_dir
        e0 = p[..., self.bone_attach, :]
        e1 = e0 + _apply(Q[..., self.bone_attach, :, :], axis)
        R_T, tau = np.swapaxes(rot6d_to_matrix(params.omega), -1, -2), params.tau[..., None, :]
        return e0 @ R_T + tau, e1 @ R_T + tau, self.bone_radii(params.beta)

    def occupancy(self, segments, points: np.ndarray) -> np.ndarray:
        """Analytic point-in-capsule-union test of one hand's posed_segments: (N,3) -> (N,) bool.

        A sweep, not a broadcast: the points are sorted by x once. Each
        capsule binary-searches the x-slab of its capsule_boxes box, keeps the
        slab rows inside the box in y and z, and runs the exact segment-distance
        test on those rows only, so a point it accepts lies in that box. The
        caller bounds memory by the points it passes (metrics.VOLUME_BLOCK).
        """
        points = np.asarray(points, dtype=float)
        e0, e1, rads = segments
        w = e1 - e0                                    # (B,3)
        ww = np.maximum(np.einsum("bi,bi->b", w, w), 1e-30)
        box_lo, box_hi = capsule_boxes(e0, e1, rads)
        out = np.zeros(len(points), dtype=bool)
        order = np.argsort(points[:, 0], kind="stable")
        xs, ys, zs = (points[:, k][order] for k in range(3))
        for b in range(len(rads)):
            i0, i1 = np.searchsorted(xs, (box_lo[b, 0], box_hi[b, 0]))
            y, z = ys[i0:i1], zs[i0:i1]
            idx = order[i0:i1][(y >= box_lo[b, 1]) & (y <= box_hi[b, 1])
                               & (z >= box_lo[b, 2]) & (z <= box_hi[b, 2])]
            # The dense test's arithmetic on a one-capsule slice, so the
            # verdicts are bit-identical to testing every capsule at once.
            cand = points[idx][:, None, :]
            e0b, wb = e0[b:b + 1], w[b:b + 1]
            t = np.clip(np.einsum("nbi,bi->nb", cand - e0b, wb) / ww[b:b + 1], 0.0, 1.0)
            d2 = np.sum((cand - (e0b + t[..., None] * wb)) ** 2, axis=2)
            out[idx[d2[:, 0] <= rads[b] ** 2]] = True
        return out

    # -- reverse-mode kinematics -------------------------------------------

    def vjp(self, params: HandParam, cotangent: np.ndarray) -> np.ndarray:
        """Gradient (..., 64) of sum_k cotangent_k . vertex_k w.r.t. the parameters."""
        theta, beta = params.theta, params.beta
        lead = theta.shape[:-1]
        cot = np.asarray(cotangent, dtype=float).reshape(*lead, self.n_vertices, 3)
        offsets = self.joint_offsets(beta)
        Q, p = _chain(theta, offsets)
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
        # bone_rad0 > 0, so the signed radius has the sign of its factor.
        rad_bar = np.einsum("...bki,bki->...b", local_bar, self._bone_n) \
            * np.sign(1.0 + _apply(self.rad_basis, beta))

        grad[..., THETA], off_bar = _chain_vjp(theta, offsets, Q, Q_bar, p_bar)
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
# Module-level operation surface


def kinematics_vjp(params: HandParam, model, vertex_cotangent: np.ndarray) -> np.ndarray:
    return model.vjp(params, vertex_cotangent)


def negate_x(points: np.ndarray) -> np.ndarray:
    """Negate x of (..., 3) points in place and return them: the reflection
    T = diag(-1, 1, 1) in world space, without a matmul, which would wake
    the BLAS thread pool; a zero coordinate may keep a sign that the matmul
    would flip."""
    np.negative(points[..., 0], out=points[..., 0])
    return points


def left_hand_mesh(params_left: HandParam, model) -> HandMesh:
    """Mesh of a left hand: its mirror image's posed mesh with x negated,
    before any cached property is read, and faces reversed to stay CCW."""
    mesh = model.posed_mesh(mirror(params_left))
    negate_x(mesh.vertices)
    mesh.faces = mesh.faces[:, ::-1]
    return mesh


def left_segments(params_left: HandParam, model):
    """World capsule segments of a left hand: its mirror image's
    posed_segments with x negated."""
    e0, e1, rads = model.posed_segments(mirror(params_left))
    return negate_x(e0), negate_x(e1), rads


def pair_meshes(x_l: HandParam, x_r: HandParam, model):
    """(left mesh, right mesh) for a stored pair."""
    return left_hand_mesh(x_l, model), model.posed_mesh(x_r)


def pair_segments(x_l: HandParam, x_r: HandParam, model):
    """Capsule endpoints (..., 2 * bones, 3) twice and radii (..., 2 * bones) of a
    pair or stack of pairs: the left hand's first, mirrored as in left_hand_mesh."""
    (l0, l1, l_rad), (r0, r1, r_rad) = left_segments(x_l, model), model.posed_segments(x_r)
    return (np.concatenate([l0, r0], axis=-2), np.concatenate([l1, r1], axis=-2),
            np.concatenate([l_rad, r_rad], -1))
