"""End to end through the object-conditional path: a dataset with object
clouds, training that embeds them, and cascaded sampling given one cloud,
pinned by a golden digest; and the object token's two shapes."""

import hashlib

import numpy as np

from handpair.data import generate_synthetic, two_mode_spec
from handpair.denoiser import Denoiser, DenoiserConfig
from handpair.diffusion import TrainConfig, make_schedule, train
from handpair.sampler import SampleConfig, sample_pairs

# sha256 over the trained weights (in name order), x_l, x_r and the epoch
# losses of test_object_conditional_train_then_sample's recipe. The network
# goes through BLAS matmuls, so the digest is that of one BLAS build (numpy
# 2.4 with scipy-openblas 0.3.31 on x86-64).
OBJECT_PATH_GOLDEN = "7d87fddd389d520a7032e2b6dd8e886bbee6bd65a6fcb639d30acaddc44ec960"


def test_object_conditional_train_then_sample():
    ds = generate_synthetic(two_mode_spec(count=16, seed=1, with_objects=True))
    den = Denoiser(DenoiserConfig("small", object_conditional=True), seed=0)
    result = train(ds, den, TrainConfig(epochs=3, batch_size=8))
    out = sample_pairs(den, SampleConfig(count=3, steps=8, object_points=ds.objects[0]),
                       make_schedule())
    for x in (out.x_l, out.x_r):
        assert x.shape == (3, 64)
        assert np.isfinite(x).all()
    digest = hashlib.sha256()
    for name in sorted(den.params):
        digest.update(den.params[name].tobytes())
    for array in (out.x_l, out.x_r, np.array(result.epoch_losses)):
        digest.update(array.tobytes())
    assert digest.hexdigest() == OBJECT_PATH_GOLDEN


def test_one_token_equals_the_tokens_of_a_stack_of_its_cloud():
    den = Denoiser(DenoiserConfig("small", object_conditional=True), seed=0)
    cloud = np.random.default_rng(3).normal(scale=0.04, size=(64, 3))
    B = 3
    rng = np.random.default_rng(4)
    x_t, cond = rng.normal(size=(B, 64)), rng.normal(size=(B, 64))
    drop, t = np.array([False, True, False]), np.array([5, 60, 200])
    one = den.predict(x_t, cond, drop, t, object_embedding=den.embed_object(cloud))
    stack = den.embed_object(np.repeat(cloud[None], B, 0))
    assert stack.shape == (B, den.d_token)
    assert one.tobytes() == den.predict(x_t, cond, drop, t, object_embedding=stack).tobytes()
