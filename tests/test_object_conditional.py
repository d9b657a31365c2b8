"""End to end through the object-conditional path: a dataset with object
clouds, training that reads them, cascaded sampling given one cloud, and the
precomputed object token that sampling uses in place of the raw cloud."""

import numpy as np

from handpair.data import generate_synthetic, two_mode_spec
from handpair.denoiser import Denoiser, DenoiserConfig
from handpair.diffusion import TrainConfig, make_schedule, train
from handpair.sampler import SampleConfig, sample_pairs


def test_object_conditional_train_then_sample():
    ds = generate_synthetic(two_mode_spec(count=16, seed=1, with_objects=True))
    den = Denoiser(DenoiserConfig("small", object_conditional=True), seed=0)
    train(ds, den, TrainConfig(epochs=2, batch_size=8))
    cloud = ds.objects(0)
    result = sample_pairs(den, SampleConfig(count=3, steps=8, object_points=cloud),
                          make_schedule())
    for x in (result.x_l, result.x_r):
        assert x.shape == (3, 64)
        assert np.isfinite(x).all()

    B = 3
    rng = np.random.default_rng(4)
    x_t, cond = rng.normal(size=(B, 64)), rng.normal(size=(B, 64))
    drop, t = np.array([False, True, False]), np.array([5, 60, 200])
    token = den.predict(x_t, cond, drop, t, object_embedding=den.embed_object(cloud))
    raw = den.predict(x_t, cond, drop, t, objects=np.repeat(cloud[None], B, 0))
    np.testing.assert_array_equal(token, raw)
