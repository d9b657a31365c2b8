"""Random streams: every draw in handpair comes from nn.rng_stream(seed, tag),
and every integer seed names a stream of its own."""

import warnings

import numpy as np
import pytest

from handpair.hand_model import HandParam, pair_segments
from handpair.mesh import sample_surface_points
from handpair.nn import TAG_INIT, TAG_SURFACE, rng_stream


def test_every_integer_seed_names_its_own_stream():
    seeds = [0, -1, -2, 2**63, 2**63 + 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first = [rng_stream(seed, TAG_INIT).random() for seed in seeds]
    assert len(set(first)) == len(seeds)


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**63 - 1])
def test_seeds_below_2_63_keep_their_philox_stream(seed):
    for tag in (0, TAG_SURFACE, TAG_INIT):
        expected = np.random.Generator(np.random.Philox(key=[seed, tag])).random(8)
        np.testing.assert_array_equal(rng_stream(seed, tag).random(8), expected)


def test_numpy_integer_seed_draws_its_python_value_stream():
    np.testing.assert_array_equal(rng_stream(np.int64(5), np.uint64(TAG_INIT)).random(4),
                                  rng_stream(5, TAG_INIT).random(4))


def test_surface_clouds_differ_at_seeds_0_and_minus_1(hand_model):
    segments = pair_segments(HandParam.from_parts(),
                             HandParam.from_parts(tau=[0.12, 0.0, 0.0]), hand_model)
    cloud = sample_surface_points(*segments, 64, seed=0)
    np.testing.assert_array_equal(sample_surface_points(*segments, 64, seed=0), cloud)
    assert not np.array_equal(sample_surface_points(*segments, 64, seed=-1), cloud)
