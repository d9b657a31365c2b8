import numpy as np
import pytest

from handpair.denoiser import DenoiserConfig
from handpair.hand_model import HandParam
from handpair.rotations import matrix_to_rot6d


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation from a QR-orthonormalized Gaussian."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def random_params(rng, theta_scale=0.3, tau_scale=0.1, beta_scale=0.15) -> HandParam:
    """Valid random hand parameters with an orthonormal 6D root encoding."""
    return HandParam.from_parts(
        theta=rng.normal(0.0, theta_scale, 45),
        beta=rng.normal(0.0, beta_scale, 10),
        omega=matrix_to_rot6d(random_rotation(rng)),
        tau=rng.normal(0.0, tau_scale, 3),
    )


def icosphere(subdivisions=2, radius=1.0):
    """Subdivided icosahedron; returns (vertices, faces), CCW outward."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ]
    verts = list(verts)
    for _ in range(subdivisions):
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = (verts[i] + verts[j]) / 2.0
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
        faces = new_faces
    return np.array(verts) * radius, np.array(faces, dtype=np.int64)


def float64_twin(denoiser):
    """The same network with its float32 weights held as float64, so it
    computes in float64: for checks whose tolerance is below float32's."""
    from handpair.denoiser import Denoiser

    params = {name: value.astype(float) for name, value in denoiser.params.items()}
    return Denoiser(denoiser.config, params=params)


def uncut_penetration_set(points, mesh_b):
    """sampler.penetration_set before its reach-box cull: every A point is
    queried. A reference for checks that the cull changes no output bit."""
    from handpair.sampler import CONTACT_RADIUS, PenetrationReport

    dist, nearest = mesh_b.tree.query(points, k=1, distance_upper_bound=CONTACT_RADIUS)
    near = np.flatnonzero(dist < CONTACT_RADIUS)
    j = nearest[near]
    delta = points[near] - mesh_b.vertices[j]
    depth = -np.einsum("ij,ij->i", mesh_b.normals[j], delta)
    inside = depth > 0.0
    idx = near[inside]
    delta = delta[inside]
    loss = float(np.sum(np.linalg.norm(delta, axis=1) ** 2))
    return PenetrationReport(np.stack([idx, nearest[idx]], axis=1), delta, depth[inside],
                             loss, float(dist.min()))


def uncut_apg_gradient(x0_hat, t_prev, anchor_meshes, sched, model):
    """sampler.apg_gradient before its row cull: every row with a usable root
    rotation is posed and queried with uncut_penetration_set."""
    from handpair.hand_model import OMEGA, kinematics_vjp
    from handpair.rotations import rot6d_degenerate

    x0_hat = np.asarray(x0_hat, dtype=float)
    grad = np.zeros_like(x0_hat)
    ok = np.flatnonzero(~rot6d_degenerate(x0_hat[:, OMEGA]))
    verts = model.posed_vertices(HandParam(x0_hat[ok]))
    cot = np.zeros_like(verts)
    for r, i in enumerate(ok):
        report = uncut_penetration_set(verts[r], anchor_meshes[i])
        cot[r, report.pairs[:, 0]] = 2.0 * report.delta
    active = cot.any(axis=(1, 2))
    if active.any():
        grad[ok[active]] = kinematics_vjp(HandParam(x0_hat[ok[active]]), model,
                                          cot[active]) / sched.sqrt_ab(t_prev)
    return grad


@pytest.fixture(scope="session")
def hand_model():
    from handpair.hand_model import default_hand

    return default_hand()


class FixedDenoiser:
    """What train and sample_pairs read of a denoiser besides predict, for a
    fake with no weights: a config without an object branch, an optimizer
    and a backward that hands no part to step."""

    config = DenoiserConfig()

    def new_optimizer(self):
        return None

    def backward(self, dout, cache, sink) -> None:
        pass


class PointMassDenoiser(FixedDenoiser):
    """Oracle that always predicts one fixed clean vector."""

    def __init__(self, x0):
        self.x0 = np.asarray(x0, dtype=float)

    def predict(self, x_t, cond, drop_mask=None, t=None, **kw):
        return np.tile(self.x0, (len(np.atleast_2d(x_t)), 1))


class NearestModeDenoiser(FixedDenoiser):
    """Oracle encoding a factored two-mode distribution.

    Row by row: a dropped row snaps to the nearest anchor mode; a
    conditional row identifies its anchor from its condition and snaps to
    the nearest of that anchor's partner modes. A mixed drop mask, as a
    guided step's stacked call sends, answers each row as its own call would.
    """

    def __init__(self, anchor_modes, partner_modes):
        self.anchor_modes = np.asarray(anchor_modes, dtype=float)   # (A, 64)
        self.partner_modes = np.asarray(partner_modes, dtype=float)  # (A, P, 64)

    @staticmethod
    def _nearest(x, modes):
        d = ((x[:, None, :] - modes[None, :, :]) ** 2).sum(axis=2)
        return d.argmin(axis=1)

    def predict(self, x_t, cond, drop_mask=None, t=None, **kw):
        x_t = np.atleast_2d(x_t)
        cond = np.atleast_2d(cond)
        drop = np.zeros(len(x_t), dtype=bool) if drop_mask is None else drop_mask
        drop = np.asarray(drop, dtype=bool)
        out = np.empty_like(x_t)
        out[drop] = self.anchor_modes[self._nearest(x_t[drop], self.anchor_modes)]
        which = self._nearest(cond[:, :45], self.anchor_modes[:, :45])
        for i in np.flatnonzero(~drop):
            modes = self.partner_modes[which[i]]
            out[i] = modes[self._nearest(x_t[i:i + 1], modes)[0]]
        return out
