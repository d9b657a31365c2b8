import numpy as np
import pytest

from handpair.nn import ADAM_BETA1, ADAM_BETA2, ADAM_CHUNK, ADAM_EPS, Adam, Linear


class TextbookAdam:
    """Oracle: the whole-tensor Adam expression, one temporary per operation."""

    def __init__(self):
        self.m, self.v, self.t = {}, {}, 0

    def step(self, params, grads, lr):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        corr1 = 1.0 - b1**self.t
        corr2 = 1.0 - b2**self.t
        for name in sorted(grads):
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            mhat = self.m[name] / corr1
            vhat = self.v[name] / corr2
            params[name] -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def _run_both(params, rng, steps=3, lr=1e-3):
    ref_params = {name: p.copy() for name, p in params.items()}
    opt, ref = Adam(), TextbookAdam()
    for _ in range(steps):
        grads = {name: np.empty_like(p) for name, p in params.items()}   # in p's layout
        for name, g in grads.items():
            g[...] = rng.normal(size=g.shape)
        opt.step(params, grads, lr)
        ref.step(ref_params, grads, lr)
    return opt, ref, ref_params


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_matches_textbook_expression_bit_for_bit(dtype):
    rng = np.random.default_rng(0)
    sizes = {"below": (7, 5), "equal": (ADAM_CHUNK,), "above": (2 * ADAM_CHUNK + 13,)}
    params = {name: rng.normal(size=shape).astype(dtype) for name, shape in sizes.items()}
    held = dict(params)
    opt, ref, ref_params = _run_both(params, rng)
    for name in sizes:
        assert params[name] is held[name]          # updated in place
        assert params[name].dtype == dtype and opt.m[name].dtype == dtype
        np.testing.assert_array_equal(params[name], ref_params[name])
        np.testing.assert_array_equal(opt.m[name], ref.m[name])
        np.testing.assert_array_equal(opt.v[name], ref.v[name])


def test_adam_updates_a_non_contiguous_parameter():
    rng = np.random.default_rng(1)
    base = rng.normal(size=(6, 2 * ADAM_CHUNK // 3 + 1)).astype(np.float32)
    params = {"fortran": np.asfortranarray(rng.normal(size=(300, 500)).astype(np.float32)),
              "strided": base[:, ::2]}
    held = dict(params)
    opt, ref, ref_params = _run_both(params, rng)
    for name in params:
        assert params[name] is held[name]
        assert opt.m[name].flags.c_contiguous and opt.v[name].flags.c_contiguous
        np.testing.assert_array_equal(params[name], ref_params[name])
    # The strided parameter is a view: its update reached the array under it.
    np.testing.assert_array_equal(base[:, ::2], ref_params["strided"])


def test_adam_stepping_disjoint_subsets_equals_one_step():
    # Per-tensor step counts: the tensors stepped in three calls per round,
    # in any order, end where one call per round and the textbook end.
    rng = np.random.default_rng(3)
    shapes = {"a": (7, 5), "b": (ADAM_CHUNK + 9,), "c": (3,), "d": (4, 4), "e": (11,)}
    params = {name: rng.normal(size=shape).astype(np.float32) for name, shape in shapes.items()}
    split = {name: p.copy() for name, p in params.items()}
    whole = {name: p.copy() for name, p in params.items()}
    opt_split, opt_whole, ref = Adam(), Adam(), TextbookAdam()
    for _ in range(4):
        grads = {name: rng.normal(size=shape).astype(np.float32) for name, shape in shapes.items()}
        for subset in (["d", "e"], ["b"], ["c", "a"]):
            opt_split.step(split, {name: grads[name] for name in subset}, 1e-3)
        opt_whole.step(whole, grads, 1e-3)
        ref.step(params, grads, 1e-3)
    assert opt_split.t == opt_whole.t == {name: 4 for name in shapes}
    for name in shapes:
        np.testing.assert_array_equal(split[name], whole[name])
        np.testing.assert_array_equal(split[name], params[name])
        np.testing.assert_array_equal(opt_split.m[name], ref.m[name])
        np.testing.assert_array_equal(opt_split.v[name], ref.v[name])


@pytest.mark.parametrize("shape, d_out, dtype", [
    ((256, 3, 512), 512, np.float32),
    ((64, 3, 128), 128, np.float32),
    ((5, 4, 3, 24), 16, np.float64),
])
def test_linear_on_a_stack_equals_the_flattened_call(shape, d_out, dtype):
    rng = np.random.default_rng(2)
    lin = Linear("lin", shape[-1], d_out)
    params = {}
    lin.init(params, rng, bias_scale=0.1)
    params = {name: p.astype(dtype) for name, p in params.items()}
    x = rng.normal(size=shape).astype(dtype)
    dy = rng.normal(size=shape[:-1] + (d_out,)).astype(dtype)
    cache, flat_cache, grads, flat_grads = {}, {}, {}, {}
    y = lin.forward(params, x, cache)
    y_flat = lin.forward(params, x.reshape(-1, shape[-1]), flat_cache)
    assert y.shape == shape[:-1] + (d_out,)
    np.testing.assert_array_equal(y, y_flat.reshape(y.shape))
    dx = lin.backward(params, grads, dy, cache)
    dx_flat = lin.backward(params, flat_grads, dy.reshape(-1, d_out), flat_cache)
    assert dx.shape == shape
    np.testing.assert_array_equal(dx, dx_flat.reshape(shape))
    for name in grads:
        np.testing.assert_array_equal(grads[name], flat_grads[name])
