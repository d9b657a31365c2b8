import tracemalloc

import numpy as np
import pytest

from conftest import float64_twin
from handpair.data import generate_synthetic, two_mode_spec
from handpair.denoiser import N_DECODER_LAYERS, Denoiser, DenoiserConfig
from handpair.diffusion import TrainConfig, train
from handpair.errors import MissingObject, ShapeMismatch, TooFewPoints
from handpair.nn import rng_stream


def _batch(rng, B=3):
    x_t = rng.normal(size=(B, 64))
    cond = rng.normal(size=(B, 64))
    drop = np.array([False, True, False][:B])
    t = np.array([3, 17, 64][:B])
    return x_t, cond, drop, t


def test_forward_shape_and_finiteness():
    den = Denoiser(DenoiserConfig("small"), seed=1)
    rng = np.random.default_rng(0)
    out = den.predict(*_batch(rng))
    assert out.shape == (3, 64)
    assert np.isfinite(out).all()


def test_null_token_changes_output():
    den = Denoiser(DenoiserConfig("small"), seed=2)
    rng = np.random.default_rng(1)
    x_t, cond, _, t = _batch(rng, B=1)
    with_cond = den.predict(x_t, cond, np.array([False]), t)
    with_null = den.predict(x_t, cond, np.array([True]), t)
    assert np.abs(with_cond - with_null).max() > 0


def test_eval_forward_is_deterministic():
    den = Denoiser(DenoiserConfig("small"), seed=3)
    rng = np.random.default_rng(2)
    batch = _batch(rng)
    np.testing.assert_array_equal(den.predict(*batch), den.predict(*batch))


def test_token_count_matches_config():
    assert Denoiser(DenoiserConfig("small"), seed=0).n_tokens == 3
    assert Denoiser(DenoiserConfig("small", object_conditional=True), seed=0).n_tokens == 4


def test_shape_mismatch_raises():
    den = Denoiser(DenoiserConfig("small"), seed=1)
    with pytest.raises(ShapeMismatch):
        den.predict(np.zeros((2, 32)), np.zeros((2, 64)), None, [1, 1])


def test_predict_requires_t():
    den = Denoiser(DenoiserConfig("small"), seed=1)
    with pytest.raises(TypeError):
        den.predict(np.zeros((1, 64)), np.zeros((1, 64)), None)


def test_missing_object_raises():
    den = Denoiser(DenoiserConfig("small", object_conditional=True), seed=1)
    with pytest.raises(MissingObject):
        den.predict(np.zeros((1, 64)), np.zeros((1, 64)), None, [1])


@pytest.mark.parametrize("token", [np.full(7, np.nan), np.zeros((1, 128))])
def test_a_plain_model_given_an_object_token_raises(token):
    # A 7-wide NaN token and a well-shaped one alike: a plain model takes none.
    with pytest.raises(ValueError, match="object branch"):
        Denoiser().predict(np.zeros((1, 64)), np.zeros((1, 64)), None, [1],
                           object_embedding=token)


def test_a_plain_model_embeds_no_cloud():
    with pytest.raises(ValueError, match="object branch"):
        Denoiser().embed_object(np.full((2, 64, 3), np.nan))


def _tokens(den, objects, cache=None):
    """embed_object's tokens of the clouds, or None for no clouds."""
    return None if objects is None else den.embed_object(objects, cache)


def _loss_and_grads(den, batch, target, mask, objects=None):
    x_t, cond, drop, t = batch
    cache = {}
    pred = den.predict(x_t, cond, drop, t, _tokens(den, objects, cache), cache=cache)
    denom = mask.sum()
    loss = float(np.sum(mask * (pred - target) ** 2) / denom)
    grads = {}
    den.backward(2.0 * mask * (pred - target) / denom, cache, grads.update)
    return loss, grads


@pytest.mark.parametrize("object_conditional", [False, True])
def test_backprop_matches_finite_differences(object_conditional):
    # Fixed net and batch: seed 9 keeps every pooling argmax stable inside
    # the +-1e-4 FD window (the encoder is piecewise linear). Checked in
    # float64: float32 rounding of the loss is too coarse for this FD step.
    den = float64_twin(
        Denoiser(DenoiserConfig("small", object_conditional=object_conditional), seed=5))
    rng = np.random.default_rng(9)
    batch = _batch(rng)
    objects = rng.normal(scale=0.05, size=(3, 40, 3)) if object_conditional else None
    target = rng.normal(size=(3, 64))
    mask = np.ones((3, 64))
    mask[1, 55:] = 0.0
    _, grads = _loss_and_grads(den, batch, target, mask, objects)
    h = 1e-4
    checked = 0
    for name in sorted(den.params):
        flat = den.params[name].reshape(-1)
        g_flat = grads[name].reshape(-1) if name in grads else np.zeros_like(flat)
        i = int(np.argmax(np.abs(g_flat)))  # most informative scalar
        orig = flat[i]
        flat[i] = orig + h
        lp, _ = _loss_and_grads(den, batch, target, mask, objects)
        flat[i] = orig - h
        lm, _ = _loss_and_grads(den, batch, target, mask, objects)
        flat[i] = orig
        fd = (lp - lm) / (2 * h)
        if abs(fd) < 1e-8 and abs(g_flat[i]) < 1e-8:
            continue  # flat direction (e.g. attention key bias); FD is noise
        assert abs(g_flat[i] - fd) / max(abs(fd), 1e-10) < 1e-2, name
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("object_conditional", [False, True])
def test_network_computes_in_float32(object_conditional):
    # A float64 array meeting a float32 weight promotes the matmul, and so
    # the grad it feeds: a leak anywhere shows up as a float64 grad here.
    den = Denoiser(DenoiserConfig("small", object_conditional=object_conditional), seed=5)
    rng = np.random.default_rng(9)
    x_t, cond, drop, t = _batch(rng)
    objects = rng.normal(scale=0.05, size=(3, 40, 3)) if object_conditional else None
    cache = {}
    pred = den.predict(x_t, cond, drop, t, _tokens(den, objects, cache), rng_stream(0, 1), cache)
    assert pred.dtype == np.float64
    grads = {}
    den.backward(pred - rng.normal(size=(3, 64)), cache, grads.update)
    opt = den.new_optimizer()
    opt.step(den.params, grads, 1e-3)
    for group in (den.params, grads, opt.m, opt.v):
        assert {name: v.dtype for name, v in group.items() if v.dtype != np.float32} == {}
    assert sorted(grads) == sorted(opt.m) == sorted(den.params)


@pytest.mark.parametrize("object_conditional", [False, True])
def test_float32_network_agrees_with_its_float64_twin(object_conditional):
    # Tolerances from float32's epsilon, 1.2e-7: predict within 1e-5 of the
    # output scale (~80 eps over a dozen layers), and the loss of one
    # training step (with dropout) within 1e-6 relative, a mean of 16 * 64
    # squares. Network seeds 0-2 measured up to 1.3e-6 and 8.3e-8.
    config = DenoiserConfig("small", object_conditional=object_conditional)
    den = Denoiser(config, seed=7)
    twin = float64_twin(den)
    rng = np.random.default_rng(10)
    batch = _batch(rng)
    objects = rng.normal(scale=0.05, size=(3, 40, 3)) if object_conditional else None
    out = den.predict(*batch, _tokens(den, objects))
    ref = twin.predict(*batch, _tokens(twin, objects))
    assert np.abs(out - ref).max() <= 1e-5 * np.abs(ref).max()
    ds = generate_synthetic(two_mode_spec(count=16, seed=1, with_objects=object_conditional))
    step = TrainConfig(epochs=1, batch_size=16, seed=3)
    loss, loss_ref = (train(ds, net, step).epoch_losses[0] for net in (den, twin))
    assert abs(loss - loss_ref) <= 1e-6 * abs(loss_ref)


class _WholeGradient(Denoiser):
    """Reference: collects every gradient, then hands the sink one dict, so
    train makes one Adam.step per batch on the whole network."""

    def backward(self, dout, cache, sink):
        grads = {}
        super().backward(dout, cache, grads.update)
        sink(grads)


@pytest.mark.parametrize("object_conditional", [False, True])
def test_per_part_steps_equal_one_step_on_the_whole_gradient(object_conditional):
    # The object encoder accumulates its gradients cloud by cloud, so it is
    # handed over last, with the embeddings.
    config = DenoiserConfig("small", object_conditional=object_conditional)
    ds = generate_synthetic(two_mode_spec(count=16, seed=1, with_objects=object_conditional))
    steps = TrainConfig(epochs=3, batch_size=16, seed=2)
    den, ref = Denoiser(config, seed=5), _WholeGradient(config, seed=5)
    handed = []
    backward = den.backward

    def recording(dout, cache, sink):
        parts = []
        backward(dout, cache, lambda part: (parts.append(sorted(part)), sink(part)))
        handed.append(parts)

    den.backward = recording
    losses = train(ds, den, steps).epoch_losses
    assert losses == train(ds, ref, steps).epoch_losses
    for name in den.params:
        np.testing.assert_array_equal(den.params[name], ref.params[name], err_msg=name)
    assert len(handed) == 3
    for parts in handed:
        assert len(parts) == N_DECODER_LAYERS + 1 + len(den.blocks) + 1
        names = [name for part in parts for name in part]
        assert sorted(names) == sorted(den.params)      # each tensor exactly once
        assert parts[0] == ["dec7.W", "dec7.b"]


def test_a_warm_train_step_holds_one_part_of_the_gradient():
    # tracemalloc peak of one warm small-profile step at batch 256: 20.7 MB
    # when each part steps as soon as its gradient is final, 24.8 MB when
    # the whole gradient is collected before one Adam.step.
    ds = generate_synthetic(two_mode_spec(count=64, seed=1, max_penetration=np.inf))
    ds = ds.subset(np.tile(np.arange(64), 4))
    den = Denoiser(DenoiserConfig("small"), seed=1)
    opt = den.new_optimizer()
    den.new_optimizer = lambda: opt
    train(ds, den, TrainConfig(epochs=1, batch_size=256, seed=0))
    tracemalloc.start()
    try:
        train(ds, den, TrainConfig(epochs=1, batch_size=256, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 22.5e6, peak


def test_null_token_gets_gradient_when_dropped():
    den = Denoiser(DenoiserConfig("small"), seed=9)
    rng = np.random.default_rng(3)
    batch = _batch(rng)
    target = rng.normal(size=(3, 64))
    _, grads = _loss_and_grads(den, batch, target, np.ones((3, 64)))
    assert np.abs(grads["null_token"]).max() > 0


def test_embed_object_permutation_invariant():
    den = Denoiser(DenoiserConfig("small", object_conditional=True), seed=4)
    rng = np.random.default_rng(5)
    cloud = rng.normal(scale=0.04, size=(64, 3))
    perm = rng.permutation(64)
    e1 = den.embed_object(cloud)
    e2 = den.embed_object(cloud[perm])
    assert np.abs(e1 - e2).max() < 1e-6


def test_embed_object_distinguishes_shapes():
    den = Denoiser(DenoiserConfig("small", object_conditional=True), seed=4)
    rng = np.random.default_rng(6)
    cube = rng.uniform(-0.03, 0.03, size=(64, 3))
    sphere = rng.normal(size=(64, 3))
    sphere = 0.03 * sphere / np.linalg.norm(sphere, axis=1, keepdims=True)
    assert np.abs(den.embed_object(cube) - den.embed_object(sphere)).max() > 1e-8


def test_embed_object_too_few_points():
    den = Denoiser(DenoiserConfig("small", object_conditional=True), seed=4)
    with pytest.raises(TooFewPoints):
        den.embed_object(np.zeros((8, 3)))


def test_embed_object_rejects_a_cloud_that_is_not_xyz():
    den = Denoiser(DenoiserConfig("small", object_conditional=True), seed=4)
    with pytest.raises(ShapeMismatch):
        den.embed_object(np.zeros((64, 2)))


def test_one_object_token_predicts_as_the_token_tiled_per_row():
    # sample_pairs passes embed_object's one (d,) token as it is; predict
    # broadcasts it to the rows, bit for bit as the tiled (B, d) tokens.
    den = Denoiser(DenoiserConfig("small", object_conditional=True), seed=4)
    rng = np.random.default_rng(7)
    token = den.embed_object(rng.normal(scale=0.04, size=(64, 3)))
    assert token.shape == (den.d_token,)
    for B in (1, 3, 16):
        batch = _batch(rng, min(B, 3))
        x_t, cond, drop, t = (np.resize(part, (B, *np.shape(part)[1:])) for part in batch)
        one = den.predict(x_t, cond, drop, t, object_embedding=token)
        tiled = den.predict(x_t, cond, drop, t, object_embedding=np.tile(token, (B, 1)))
        assert one.tobytes() == tiled.tobytes(), B


def test_paper_profile_builds_and_runs():
    den = Denoiser(DenoiserConfig("paper"), seed=0)
    rng = np.random.default_rng(8)
    out = den.predict(rng.normal(size=(1, 64)), rng.normal(size=(1, 64)),
                      np.array([False]), np.array([10]))
    assert out.shape == (1, 64)
    assert den.params["emb_x.l1.W"].shape == (64, 2056)
    assert den.params["dec7.W"].shape[1] == 64


def test_training_dropout_is_seeded():
    den = Denoiser(DenoiserConfig("small"), seed=6)
    rng = np.random.default_rng(4)
    batch = _batch(rng)
    a = den.predict(*batch, rng=rng_stream(0, 1))
    b = den.predict(*batch, rng=rng_stream(0, 1))
    c = den.predict(*batch, rng=rng_stream(0, 2))
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 0
