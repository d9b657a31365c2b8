import numpy as np
import pytest

from conftest import PointMassDenoiser, float64_twin, random_params
from handpair.data import generate_synthetic, two_mode_spec
from handpair.denoiser import Denoiser, DenoiserConfig
from handpair.diffusion import TrainConfig, make_schedule, train
from handpair.errors import ShapeMismatch
from handpair.hand_model import HandParam, mirror
from handpair.regularizer import descend, forward_reverse_step, reg_loss_and_grad


class IdentityDenoiser:
    config = None

    def predict(self, x_t, cond, drop_mask=None, t=None, **kw):
        return np.atleast_2d(np.asarray(x_t, dtype=float)).copy()


def _toy_pair(seed=0):
    rng = np.random.default_rng(seed)
    x_l = HandParam.from_parts(theta=rng.normal(0, 0.2, 45))
    x_r = HandParam.from_parts(theta=rng.normal(0, 0.2, 45), tau=[0.12, 0.01, 0.0])
    return x_l, x_r


def test_near_identity_diffusion_with_identity_oracle():
    sched = make_schedule(4, 1e-15, 1e-15)
    x_l, x_r = _toy_pair()
    noise = np.random.default_rng(1).standard_normal((2, 64))
    xl_hat, xr_hat = forward_reverse_step(IdentityDenoiser(), sched, x_l, x_r, 1, noise)
    assert np.abs(xl_hat.vector - x_l.vector).max() < 1e-6
    assert np.abs(xr_hat.vector - x_r.vector).max() < 1e-6


def test_point_mass_oracle_dominates():
    sched = make_schedule(256)
    mode = HandParam.from_parts(theta=np.full(45, 0.3), tau=[0.1, 0, 0])
    oracle = PointMassDenoiser(mode.vector)
    rng = np.random.default_rng(3)
    # Canonical-root conditions make the frame mapping a no-op, so the
    # output must be the mode itself (with mirror bookkeeping on the left).
    x_l = HandParam.from_parts(theta=rng.normal(0, 0.2, 45))
    x_r = HandParam.from_parts(theta=rng.normal(0, 0.2, 45))
    noise = np.random.default_rng(2).standard_normal((2, 64))
    xl_hat, xr_hat = forward_reverse_step(oracle, sched, x_l, x_r, 32, noise)
    np.testing.assert_allclose(xr_hat.vector, mode.vector, atol=1e-9)
    np.testing.assert_allclose(xl_hat.vector, mirror(mode).vector, atol=1e-9)


def _noise(seed, *lead):
    return np.random.default_rng(seed).standard_normal((*lead, 2, 64))


def test_fixed_noise_is_deterministic():
    sched = make_schedule(256)
    den = Denoiser(DenoiserConfig("small"), seed=0)
    x_l, x_r = _toy_pair(5)
    a = reg_loss_and_grad(den, sched, x_l, x_r, _noise(9))[0]
    b = reg_loss_and_grad(den, sched, x_l, x_r, _noise(9))[0]
    assert a == b


def test_fixed_point_has_zero_loss():
    # A critic that reproduces the pair exactly: loss 0, gradients 0.
    sched = make_schedule(4, 1e-15, 1e-15)
    x_l, x_r = _toy_pair(7)
    loss, g_l, g_r = reg_loss_and_grad(
        IdentityDenoiser(), sched, x_l, x_r, np.zeros((2, 64)), t_reg=1)
    assert loss < 1e-12
    np.testing.assert_array_equal(g_l, np.zeros(64))
    np.testing.assert_array_equal(g_r, np.zeros(64))


def test_zero_loss_guard_is_per_pair():
    # Zero noise leaves pair 0 at the identity critic's fixed point; pair 1's
    # noise moves it, so only pair 0's gradients are zeroed.
    sched = make_schedule(4, 1e-15, 1e-15)
    pairs = [_toy_pair(7), _toy_pair(8)]
    x_l = HandParam(np.stack([p[0].vector for p in pairs]))
    x_r = HandParam(np.stack([p[1].vector for p in pairs]))
    noise = np.stack([np.zeros((2, 64)), _noise(1)])
    loss, g_l, g_r = reg_loss_and_grad(IdentityDenoiser(), sched, x_l, x_r, noise, t_reg=1)
    assert loss[0] < 1e-12 < loss[1]
    np.testing.assert_array_equal(np.concatenate([g_l[0], g_r[0]]), np.zeros(128))
    np.testing.assert_allclose(np.linalg.norm(np.concatenate([g_l[1], g_r[1]])), 1.0)


def test_t_reg_outside_the_schedule_is_rejected():
    x_l, x_r = _toy_pair(7)
    for t_reg in (0, 5):
        with pytest.raises(ValueError, match="t_reg"):
            reg_loss_and_grad(IdentityDenoiser(), make_schedule(4), x_l, x_r, _noise(1),
                              t_reg=t_reg)


def test_noise_of_the_wrong_shape_is_rejected():
    # Three pairs need (3, 2, 64) noise; a (2, 3, 64) array holds the same
    # number of values but would pair the rows up wrongly.
    rng = np.random.default_rng(2)
    x_l = HandParam(np.stack([random_params(rng).vector for _ in range(3)]))
    x_r = HandParam(np.stack([random_params(rng).vector for _ in range(3)]))
    for shape in [(2, 3, 64), (3, 128), (2, 64), (3, 2, 63)]:
        with pytest.raises(ShapeMismatch):
            reg_loss_and_grad(IdentityDenoiser(), make_schedule(256), x_l, x_r,
                              np.zeros(shape))


@pytest.mark.parametrize("twin", [False, True])
def test_stacked_rows_match_single_pair_calls(twin):
    # One predict of 2B rows against B two-row calls: only BLAS row counts
    # differ, so float32 weights agree to 1e-6 relative and float64 to 1e-12.
    sched = make_schedule(256)
    den = Denoiser(DenoiserConfig("small"), seed=3)
    den, tol = (float64_twin(den), 1e-12) if twin else (den, 1e-6)
    rng = np.random.default_rng(6)
    x_l = HandParam(np.stack([random_params(rng).vector for _ in range(16)]).reshape(4, 4, 64))
    x_r = HandParam(np.stack([random_params(rng).vector for _ in range(16)]).reshape(4, 4, 64))
    noise = _noise(7, 4, 4)
    loss, g_l, g_r = reg_loss_and_grad(den, sched, x_l, x_r, noise)
    assert loss.shape == (4, 4) and g_l.shape == g_r.shape == (4, 4, 64)
    for i in np.ndindex(4, 4):
        one = reg_loss_and_grad(den, sched, HandParam(x_l.vector[i]), HandParam(x_r.vector[i]),
                                noise[i])
        np.testing.assert_allclose(loss[i], one[0], rtol=tol, atol=0)
        # Each gradient has unit norm over the pair, so tol is relative to it.
        np.testing.assert_allclose(g_l[i], one[1], rtol=0, atol=tol)
        np.testing.assert_allclose(g_r[i], one[2], rtol=0, atol=tol)


def test_no_gradient_reaches_weights():
    sched = make_schedule(256)
    den = Denoiser(DenoiserConfig("small"), seed=4)
    before = {k: v.copy() for k, v in den.params.items()}
    x_l, x_r = _toy_pair(11)
    loss, g_l, g_r = reg_loss_and_grad(den, sched, x_l, x_r, _noise(0))
    assert loss > 0 and (np.abs(g_l).max() > 0 or np.abs(g_r).max() > 0)
    # Host optimizer step over the pair leaves every weight tensor unchanged.
    x_l.vector[:] -= 0.05 * g_l
    x_r.vector[:] -= 0.05 * g_r
    for k, v in den.params.items():
        np.testing.assert_array_equal(v, before[k])


def test_symmetry_under_role_swap():
    sched = make_schedule(256)
    den = Denoiser(DenoiserConfig("small"), seed=8)
    x_l, x_r = _toy_pair(13)
    noise = np.random.default_rng(3).standard_normal((2, 64))
    a = reg_loss_and_grad(den, sched, x_l, x_r, noise)[0]
    swapped = reg_loss_and_grad(den, sched, mirror(x_r), mirror(x_l), noise[::-1].copy())[0]
    assert abs(a - swapped) < 1e-6


@pytest.fixture(scope="module")
def toy_trained():
    ds = generate_synthetic(two_mode_spec(count=192, seed=31))
    den = Denoiser(DenoiserConfig("small"), seed=1)
    train(ds, den, TrainConfig(epochs=20, batch_size=32, lr=4e-4, seed=2))
    return den, ds


def _perturbed(ds, idx, seed):
    x_l, x_r = ds.pair(idx)
    rng = np.random.default_rng(seed)
    x_l.vector[..., :45] += rng.normal(0, 0.25, x_l.theta.shape)
    x_r.vector[..., :45] += rng.normal(0, 0.25, x_r.theta.shape)
    x_r.vector[..., 61:] += rng.normal(0, 0.05, x_r.tau.shape)
    return x_l, x_r


def test_descent_reduces_loss(toy_trained):
    den, ds = toy_trained
    sched = make_schedule(256)
    x_l, x_r = _perturbed(ds, 0, 17)
    _, _, losses = descend(den, sched, x_l, x_r, steps=10, lr=0.05, noise=_noise(5))
    drops = sum(b < a for a, b in zip(losses, losses[1:]))
    assert drops >= 9


def test_stacked_descent_lowers_every_pair_loss(toy_trained):
    den, ds = toy_trained
    sched = make_schedule(256)
    x_l, x_r = _perturbed(ds, np.arange(8), 18)
    out_l, out_r, losses = descend(den, sched, x_l, x_r, steps=10, lr=0.05,
                                   noise=_noise(6, 8))
    assert losses.shape == (11, 8)
    assert np.all(losses[-1] < losses[0])
    np.testing.assert_array_equal(losses[-1], reg_loss_and_grad(den, sched, out_l, out_r,
                                                                _noise(6, 8))[0])
