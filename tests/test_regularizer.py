import numpy as np
import pytest

from conftest import PointMassDenoiser, random_params
from handpair.data import generate_synthetic, two_mode_spec
from handpair.denoiser import Denoiser, DenoiserConfig
from handpair.diffusion import TrainConfig, make_schedule, train
from handpair.hand_model import HandParam, mirror
from handpair.regularizer import (
    RegularizerConfig,
    descend,
    forward_reverse_step,
    reg_loss_and_grad,
)


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


def test_fixed_noise_is_deterministic():
    sched = make_schedule(256)
    den = Denoiser(DenoiserConfig("small"), seed=0)
    x_l, x_r = _toy_pair(5)
    cfg = RegularizerConfig(noise_mode="fixed", seed=9)
    a = reg_loss_and_grad(den, sched, x_l, x_r, cfg)[0]
    b = reg_loss_and_grad(den, sched, x_l, x_r, cfg)[0]
    assert a == b
    fresh = RegularizerConfig(noise_mode="fresh", seed=9)
    c = reg_loss_and_grad(den, sched, x_l, x_r, fresh, call_index=0)[0]
    d = reg_loss_and_grad(den, sched, x_l, x_r, fresh, call_index=1)[0]
    assert c != d


def test_unknown_noise_mode_is_rejected():
    with pytest.raises(ValueError, match="noise_mode"):
        RegularizerConfig(noise_mode="fixd")


def test_fixed_point_has_zero_loss():
    # A critic that reproduces the pair exactly: loss 0, gradients 0.
    sched = make_schedule(4, 1e-15, 1e-15)
    x_l, x_r = _toy_pair(7)
    loss, g_l, g_r = reg_loss_and_grad(
        IdentityDenoiser(), sched, x_l, x_r,
        RegularizerConfig(t_reg=1, noise_mode="fixed"),
        noise=np.zeros((2, 64)))
    assert loss < 1e-12
    np.testing.assert_array_equal(g_l, np.zeros(64))
    np.testing.assert_array_equal(g_r, np.zeros(64))


def test_no_gradient_reaches_weights():
    sched = make_schedule(256)
    den = Denoiser(DenoiserConfig("small"), seed=4)
    before = {k: v.copy() for k, v in den.params.items()}
    x_l, x_r = _toy_pair(11)
    loss, g_l, g_r = reg_loss_and_grad(den, sched, x_l, x_r,
                                       RegularizerConfig(noise_mode="fixed"))
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
    cfg = RegularizerConfig()
    a = reg_loss_and_grad(den, sched, x_l, x_r, cfg, noise=noise)[0]
    swapped = reg_loss_and_grad(den, sched, mirror(x_r), mirror(x_l), cfg,
                                noise=noise[::-1].copy())[0]
    assert abs(a - swapped) < 1e-6


@pytest.fixture(scope="module")
def toy_trained():
    ds = generate_synthetic(two_mode_spec(count=192, seed=31))
    den = Denoiser(DenoiserConfig("small"), seed=1)
    train(ds, den, TrainConfig(epochs=20, batch_size=32, lr=4e-4, seed=2))
    return den, ds


def test_descent_reduces_loss(toy_trained):
    den, ds = toy_trained
    sched = make_schedule(256)
    x_l, x_r = ds.pair(0)
    rng = np.random.default_rng(17)
    x_l.vector[:45] += rng.normal(0, 0.25, 45)
    x_r.vector[:45] += rng.normal(0, 0.25, 45)
    x_r.vector[61:] += rng.normal(0, 0.05, 3)
    cfg = RegularizerConfig(noise_mode="fixed", seed=5)
    _, _, losses = descend(den, sched, x_l, x_r, steps=10, lr=0.05, config=cfg)
    drops = sum(b < a for a, b in zip(losses, losses[1:]))
    assert drops >= 9
