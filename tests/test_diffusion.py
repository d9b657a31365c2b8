import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FixedDenoiser, PointMassDenoiser, random_params
from handpair.data import Dataset, generate_synthetic, two_mode_spec
from handpair.denoiser import Denoiser, DenoiserConfig
from handpair.diffusion import (
    DiffusionSchedule,
    TrainConfig,
    assemble_batch,
    assemble_objects,
    ddim_step,
    ddim_time_grid,
    eps_from_x0,
    forward_diffuse,
    make_schedule,
    train,
)
from handpair.errors import (
    EmptyDataset,
    InvalidSchedule,
    MissingObject,
    NonFiniteLoss,
    ScheduleSingularity,
)
from handpair.hand_model import HandParam, left_hand_mesh, mirror, reroot_pair


# -- schedule -----------------------------------------------------------------


def test_default_schedule_values():
    sched = make_schedule(256, 1e-4, 0.01)
    assert sched.T == 256
    assert sched.beta[0] == pytest.approx(1e-4)
    assert sched.beta[-1] == pytest.approx(0.01)
    assert sched.alpha_bar[0] == 1.0
    assert sched.alpha_bar[1] == pytest.approx(1.0 - 1e-4, abs=1e-15)


def test_alpha_bar_matches_cumprod_oracle():
    sched = make_schedule(256, 1e-4, 0.01)
    acc = 1.0
    for s in range(256):  # independent scalar accumulation
        acc *= 1.0 - (1e-4 + (0.01 - 1e-4) * s / 255)
    assert abs(sched.alpha_bar[256] - acc) < 1e-12


def test_alpha_bar_strictly_decreasing():
    sched = make_schedule(64, 5e-4, 0.02)
    assert (np.diff(sched.alpha_bar) < 0).all()
    assert (sched.alpha_bar > 0).all() and (sched.alpha_bar <= 1).all()


@pytest.mark.parametrize("args", [(0, 1e-4, 0.01), (10, 0.0, 0.01),
                                  (10, 0.02, 0.01), (10, 1e-4, 1.0)])
def test_invalid_schedules_raise(args):
    with pytest.raises(InvalidSchedule):
        make_schedule(*args)


# -- diffusion algebra ---------------------------------------------------------


def test_forward_diffuse_limits():
    sched = make_schedule(256)
    x0 = np.arange(64, dtype=float)
    t = 100
    np.testing.assert_allclose(
        forward_diffuse(x0, t, np.zeros(64), sched), np.sqrt(sched.alpha_bar[t]) * x0)
    eps = np.ones(64)
    np.testing.assert_allclose(
        forward_diffuse(np.zeros(64), t, eps, sched),
        np.sqrt(1 - sched.alpha_bar[t]) * eps)


def test_forward_diffuse_broadcasts_over_leading_time_axes():
    # Times (B, 2) scale hands (B, 2, 64): each column equals its own call.
    sched = make_schedule(256)
    rng = np.random.default_rng(4)
    x0, eps = rng.normal(size=(5, 2, 64)), rng.normal(size=(5, 2, 64))
    t = rng.integers(1, 257, size=(5, 2))
    x_t = forward_diffuse(x0, t, eps, sched)
    assert x_t.shape == (5, 2, 64)
    for k in range(2):
        np.testing.assert_array_equal(
            x_t[:, k], forward_diffuse(x0[:, k], t[:, k], eps[:, k], sched))
    np.testing.assert_array_equal(  # one time per row, a scalar time
        forward_diffuse(x0[:, 0], t[0, 0], eps[:, 0], sched),
        np.sqrt(sched.alpha_bar[t[0, 0]]) * x0[:, 0]
        + np.sqrt(1.0 - sched.alpha_bar[t[0, 0]]) * eps[:, 0])


@given(st.integers(1, 256), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_inversion_identity(t, seed):
    sched = make_schedule(256)
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=64)
    eps = rng.normal(size=64)
    x_t = forward_diffuse(x0, t, eps, sched)
    assert np.abs(eps_from_x0(x_t, x0, t, sched) - eps).max() < 1e-10


def test_eps_from_x0_worked_example():
    # alpha_bar = 0.64: eps = (x - 0.8 x)/0.6 = x/3 when x0_hat = x_t = x.
    sched = make_schedule(1, 0.36, 0.36)
    x = np.full(64, 1.5)
    np.testing.assert_allclose(eps_from_x0(x, x, 1, sched), x / 3, atol=1e-12)


def test_singularity_guard():
    sched = make_schedule(256)
    with pytest.raises(ScheduleSingularity):
        eps_from_x0(np.zeros(64), np.zeros(64), 0, sched)


def test_ddim_step_to_zero_returns_clean_estimate():
    sched = make_schedule(256)
    rng = np.random.default_rng(0)
    x_t, x0_hat = rng.normal(size=64), rng.normal(size=64)
    np.testing.assert_allclose(ddim_step(x_t, x0_hat, 5, 0, sched), x0_hat, atol=1e-12)


def test_ddim_step_consistent_with_forward():
    sched = make_schedule(256)
    rng = np.random.default_rng(1)
    x0, eps = rng.normal(size=64), rng.normal(size=64)
    x_t = forward_diffuse(x0, 200, eps, sched)
    np.testing.assert_allclose(
        ddim_step(x_t, x0, 200, 120, sched),
        forward_diffuse(x0, 120, eps, sched), atol=1e-12)


def test_ddim_step_from_zero_terminal_snr_stays_finite():
    # Zero terminal SNR (Lin et al., WACV 2024): alpha_bar_T = 0, so x_T holds
    # no signal and the implied noise at T is x_T itself. A step from T must
    # not divide by sqrt(alpha_bar_T).
    base = make_schedule(16)
    beta, alpha_bar = base.beta.copy(), base.alpha_bar.copy()
    beta[-1], alpha_bar[-1] = 1.0, 0.0
    sched = DiffusionSchedule(16, beta, alpha_bar)
    rng = np.random.default_rng(4)
    x_T, x0 = rng.normal(size=(2, 3, 64))
    for t_prev in (0, 8, 15):
        out = ddim_step(x_T, x0, 16, t_prev, sched)
        ab = alpha_bar[t_prev]
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * x_T,
                                   rtol=0, atol=1e-15)


def test_ddim_point_mass_trajectory_converges():
    sched = make_schedule(256)
    x0_star = np.linspace(-1, 1, 64)
    oracle = PointMassDenoiser(x0_star)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(1, 64))
    for t, t_prev in ddim_time_grid(256, 32):
        x0_hat = oracle.predict(x, x, np.ones(1, dtype=bool), [t])
        x = ddim_step(x, x0_hat, t, t_prev, sched)
    assert np.abs(x[0] - x0_star).max() < 1e-6


def test_ddim_determinism_is_bitwise():
    sched = make_schedule(256)
    rng = np.random.default_rng(3)
    x_t, x0_hat = rng.normal(size=64), rng.normal(size=64)
    a = ddim_step(x_t, x0_hat, 64, 32, sched)
    b = ddim_step(x_t.copy(), x0_hat.copy(), 64, 32, sched)
    np.testing.assert_array_equal(a, b)


def test_ddim_time_grid_shape():
    grid = ddim_time_grid(256, 32)
    assert len(grid) == 32
    assert grid[0][0] == 256
    assert grid[-1] == (1, 0)
    ts = [t for t, _ in grid]
    assert all(a > b for a, b in zip(ts, ts[1:]))
    for (t, tp), (tn, _) in zip(grid, grid[1:]):
        assert tp == tn


# -- training ------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_dataset():
    return generate_synthetic(two_mode_spec(count=96, seed=11))


class _SpyDenoiser(FixedDenoiser):
    def __init__(self):
        self.drop_masks = []

    def predict(self, x_t, cond, drop_mask=None, t=None, **kw):
        self.drop_masks.append(np.asarray(drop_mask, dtype=bool).copy())
        return np.zeros_like(np.atleast_2d(x_t))


def test_p_uncond_one_drops_every_sample(tiny_dataset):
    spy = _SpyDenoiser()
    train(tiny_dataset, spy, TrainConfig(epochs=2, batch_size=16, p_uncond=1.0, seed=4))
    assert all(mask.all() for mask in spy.drop_masks)


def test_dropout_fraction_statistics():
    ds = generate_synthetic(two_mode_spec(count=1, seed=0))
    spy = _SpyDenoiser()
    result = train(ds, spy, TrainConfig(epochs=10_000, batch_size=1, p_uncond=0.5, seed=9))
    assert result.steps == 10_000
    assert 0.48 <= result.dropped_fraction <= 0.52


def test_assemble_batch_matches_per_row_reference():
    rng = np.random.default_rng(8)
    ds = Dataset(np.stack([np.concatenate([random_params(rng).vector, random_params(rng).vector])
                           for _ in range(32)]))
    idx = rng.integers(0, len(ds), size=64)
    flip = rng.random(64) < 0.5
    assert 0 < flip.sum() < len(flip)
    targets, conds = assemble_batch(ds, idx, flip)
    for row, (i, f) in enumerate(zip(idx, flip)):
        x_l, x_r = ds.pair(i)
        target, cond = reroot_pair(*((mirror(x_l), mirror(x_r)) if f else (x_r, x_l)))
        np.testing.assert_allclose(targets[row], target.vector, rtol=0, atol=1e-14)
        np.testing.assert_allclose(conds[row], cond.vector, rtol=0, atol=1e-14)


def _nearest(cloud, vertices):
    """Distance from the nearest point of a cloud to the nearest vertex."""
    return np.sqrt(((cloud[:, None, :] - vertices[None, :, :]) ** 2).sum(axis=2).min())


def test_object_clouds_ride_into_the_condition_frame(hand_model):
    # The cloud's distance to each hand is the pair's geometry, so orienting
    # and re-rooting must keep it: a flipped row's target is the mirrored
    # x_l and its condition the mirrored x_r. Each pair once per orientation.
    ds = generate_synthetic(two_mode_spec(count=8, seed=1, with_objects=True), hand_model)
    idx, flip = np.tile(np.arange(4), 2), np.repeat([False, True], 4)
    x_l, x_r = ds.pair(idx)
    world = np.array([[_nearest(ds.objects[i], left_hand_mesh(HandParam(l), hand_model).vertices),
                       _nearest(ds.objects[i], hand_model.posed_vertices(HandParam(r)))]
                      for i, l, r in zip(idx, x_l.vector, x_r.vector)])
    assert (world[:, 0] < 5e-3).all() and (world[:, 1] > 5e-2).all()
    targets, conds = assemble_batch(ds, idx, flip)
    clouds = assemble_objects(ds, idx, flip)
    framed = np.array([[_nearest(o, left_hand_mesh(HandParam(c), hand_model).vertices),
                        _nearest(o, hand_model.posed_vertices(HandParam(t)))]
                       for o, t, c in zip(clouds, targets, conds)])
    np.testing.assert_allclose(framed, np.where(flip[:, None], world[:, ::-1], world),
                               rtol=0, atol=1e-12)
    # Every dataset anchor is identity-rooted: an unflipped row keeps its cloud.
    np.testing.assert_array_equal(clouds[~flip], ds.objects[idx[~flip]])
    # A slice of rows is a view of the dataset's clouds; flipping them
    # must not write through it.
    stored = ds.objects.tobytes()
    np.testing.assert_array_equal(assemble_objects(ds, slice(4), flip[4:]), clouds[4:])
    assert ds.objects.tobytes() == stored


class _DatasetOracle(FixedDenoiser):
    """Returns the exact training target implied by the condition vector."""

    def __init__(self, dataset):
        pairs = {}
        for flip in (False, True):
            targets, conds = assemble_batch(dataset, [0], [flip])
            pairs[flip] = (conds[0], targets[0])
        self.table = list(pairs.values())

    def predict(self, x_t, cond, drop_mask=None, t=None, **kw):
        out = np.empty_like(np.atleast_2d(x_t))
        for i, c in enumerate(np.atleast_2d(cond)):
            match = min(self.table, key=lambda ct: np.abs(ct[0] - c).max())
            out[i] = match[1]
        return out


def test_oracle_denoiser_gives_zero_loss():
    spec = two_mode_spec(count=4, seed=2)
    spec.modes = spec.modes[:1]
    spec.theta_jitter = 0.0
    spec.beta_sigma = 0.0
    spec.modes[0].rotation_cone = 0.0
    spec.modes[0].rel_translation_sigma = 0.0
    ds = generate_synthetic(spec)
    oracle = _DatasetOracle(ds)
    result = train(ds, oracle, TrainConfig(epochs=3, batch_size=4, p_uncond=0.0, seed=1))
    assert max(result.epoch_losses) < 1e-18


def test_training_reduces_loss_on_two_mode_data():
    ds = generate_synthetic(two_mode_spec(count=256, seed=13))
    den = Denoiser(DenoiserConfig("small"), seed=0)
    cfg = TrainConfig(epochs=30, batch_size=32, lr=4e-4, seed=0)
    result = train(ds, den, cfg)
    assert result.epoch_losses[-1] < 0.25 * result.epoch_losses[0]
    assert all(np.isfinite(v) for v in result.epoch_losses)


def test_training_is_seed_reproducible(tiny_dataset):
    curves = []
    for _ in range(2):
        den = Denoiser(DenoiserConfig("small"), seed=3)
        result = train(tiny_dataset, den, TrainConfig(epochs=3, batch_size=16, seed=5))
        curves.append(result.epoch_losses)
    np.testing.assert_allclose(curves[0], curves[1], atol=1e-6)


def test_empty_dataset_raises():
    from handpair.data import Dataset

    with pytest.raises(EmptyDataset):
        train(Dataset(np.empty((0, 128))), _SpyDenoiser(), TrainConfig(epochs=1))


@pytest.mark.parametrize("batch_size", [0, -3])
def test_batch_size_below_one_is_rejected(batch_size):
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=batch_size)
    TrainConfig(batch_size=1)


def test_negative_epochs_are_rejected(tiny_dataset):
    # Before the check, epochs=-1 trained 0 steps and returned empty
    # epoch_losses without an error.
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=-1)
    result = train(tiny_dataset, _SpyDenoiser(), TrainConfig(epochs=0))
    assert (result.steps, result.epoch_losses) == (0, [])


@pytest.mark.parametrize("lr", [0.0, -2e-4, np.nan, np.inf])
def test_lr_that_is_not_finite_and_positive_is_rejected(lr):
    with pytest.raises(ValueError, match="lr"):
        TrainConfig(lr=lr)


def test_non_finite_loss_aborts(tiny_dataset):
    class NaNDenoiser(FixedDenoiser):
        def predict(self, x_t, *a, **kw):
            return np.full_like(np.atleast_2d(x_t), np.nan)

    with pytest.raises(NonFiniteLoss):
        train(tiny_dataset, NaNDenoiser(), TrainConfig(epochs=1, batch_size=8))


def test_null_token_moves_during_training(tiny_dataset):
    den = Denoiser(DenoiserConfig("small"), seed=1)
    before = den.params["null_token"].copy()
    train(tiny_dataset, den, TrainConfig(epochs=2, batch_size=16, p_uncond=0.5, seed=2))
    assert np.linalg.norm(den.params["null_token"] - before) > 0


def test_a_plain_model_trained_on_object_data_raises_before_a_step():
    ds = generate_synthetic(two_mode_spec(count=8, seed=1, with_objects=True))
    den = Denoiser(DenoiserConfig("small"), seed=0)
    before = {name: w.tobytes() for name, w in den.params.items()}
    with pytest.raises(ValueError, match="object branch"):
        train(ds, den, TrainConfig(epochs=1, batch_size=8))
    assert {name: w.tobytes() for name, w in den.params.items()} == before


def test_an_object_model_trained_without_clouds_raises(tiny_dataset):
    den = Denoiser(DenoiserConfig("small", object_conditional=True), seed=0)
    with pytest.raises(MissingObject):
        train(tiny_dataset, den, TrainConfig(epochs=1, batch_size=8))
