"""Minimal dense-network toolkit: layers with explicit backward passes.

Parameters live in a flat dict[str, np.ndarray]; each layer owns a name
prefix, and computes in the dtype of the arrays it is given, so a layer keeps
float32 inputs and weights in float32 (no float64 scalar or buffer promotes
them). A `Linear` treats every leading axis of its input as rows of one
matrix, so a (B, S, d) token stack is one 2-D gemm, not one per row of B.
`Adam` updates moments and parameters in place, in chunks that fit the
cache, and counts steps per tensor, so one step may cover any subset of the
tensors. Forward passes optionally record caches keyed by prefix so the
matching backward pass can accumulate into a grads dict. Everything is
deterministic given the generators passed in; dropout is active only when a
generator is supplied to a training-mode forward.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import LayoutMismatch

LN_EPS = 1e-5          # added to the LayerNorm variance before the square root
ADAM_BETA1 = 0.9       # Adam decay rate of the first-moment (mean) estimate
ADAM_BETA2 = 0.999     # Adam decay rate of the second-moment estimate
ADAM_EPS = 1e-8        # added to sqrt(second moment) in the Adam denominator
ADAM_CHUNK = 1 << 16   # elements per in-place Adam chunk: 6 float32 chunks, 1.5 MB, fit L2
N_HEADS = 4            # attention heads per block; the token width splits evenly among them
DROP_RATE = 0.1        # dropout probability on each attention and FFN sublayer output


def rng_stream(seed: int, tag: int) -> np.random.Generator:
    """Counter-based generator keyed on (seed, tag); independent per tag. Its
    uint64 key gives every integer seed, negative or NumPy, its own stream."""
    key = np.array([int(seed) % 2**64, int(tag) % 2**64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


TAG_INIT = 1 << 62            # Denoiser weights; + 1: FeatureBackbone weights
TAG_SAMPLE = 1 << 61          # + i: sample_pairs, pair i
TAG_DATA = 1 << 60            # + i: generate_synthetic, record i
TAG_SPLIT = 1 << 59           # split_indices
TAG_SURFACE = 1 << 58         # sample_surface_points; its cloud c is keyed by seed + c
TAG_METRIC = 1 << 57          # + 1: diversity (+ 0 is unused; moving there changes its values)
TAG_BACKBONE_STEP = 1 << 32   # + s: train_backbone batch s (diffusion.train step s is tag s)


class Linear:
    """y = x W + b over the last axis. Every leading axis is a row of one
    matrix: forward and backward reshape to (rows, d) and run one 2-D gemm
    per product, then restore the leading axes. The bias is added in place,
    so y holds the dtype of x W and no second output array is made."""

    def __init__(self, name: str, d_in: int, d_out: int):
        self.name = name
        self.d_in = d_in
        self.d_out = d_out

    def init(self, params: dict, rng: np.random.Generator,
             bias_scale: float = 0.0) -> None:
        scale = np.sqrt(2.0 / self.d_in)
        params[self.name + ".W"] = rng.normal(0.0, scale, (self.d_in, self.d_out))
        if bias_scale > 0.0:
            params[self.name + ".b"] = rng.normal(0.0, bias_scale, self.d_out)
        else:
            params[self.name + ".b"] = np.zeros(self.d_out)

    def forward(self, params, x, cache=None):
        x2 = x.reshape(-1, self.d_in)
        y = x2 @ params[self.name + ".W"]
        y += params[self.name + ".b"]
        if cache is not None:
            cache[self.name] = x2
        return y.reshape(*x.shape[:-1], self.d_out)

    def backward(self, params, grads, dy, cache):
        x2 = cache[self.name]
        dy2 = dy.reshape(-1, self.d_out)
        accumulate(grads, self.name + ".W", x2.T @ dy2)
        accumulate(grads, self.name + ".b", dy2.sum(axis=0))
        return (dy2 @ params[self.name + ".W"].T).reshape(*dy.shape[:-1], self.d_in)


class LayerNorm:
    def __init__(self, name: str, d: int):
        self.name = name
        self.d = d

    def init(self, params, rng) -> None:
        params[self.name + ".g"] = np.ones(self.d)
        params[self.name + ".b"] = np.zeros(self.d)

    def forward(self, params, x, cache=None):
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + LN_EPS)
        xhat = (x - mu) * inv
        if cache is not None:
            cache[self.name] = (xhat, inv)
        return xhat * params[self.name + ".g"] + params[self.name + ".b"]

    def backward(self, params, grads, dy, cache):
        xhat, inv = cache[self.name]
        g = params[self.name + ".g"]
        accumulate(grads, self.name + ".g", np.sum(dy * xhat, axis=tuple(range(dy.ndim - 1))))
        accumulate(grads, self.name + ".b", np.sum(dy, axis=tuple(range(dy.ndim - 1))))
        dxhat = dy * g
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        return inv * (dxhat - m1 - xhat * m2)


def swish_forward(x, name, cache=None):
    s = 1.0 / (1.0 + np.exp(-x))
    if cache is not None:
        cache[name] = (x, s)
    return x * s


def swish_backward(dy, name, cache):
    x, s = cache[name]
    return dy * (s + x * s * (1.0 - s))


def relu_forward(x, name, cache=None):
    y = np.maximum(x, 0.0)
    if cache is not None:
        cache[name] = x > 0
    return y


def relu_backward(dy, name, cache):
    return dy * cache[name]


def dropout_forward(x, name, cache=None, rng=None):
    """Inverted dropout at DROP_RATE; identity when no generator is supplied."""
    if rng is None:
        if cache is not None:
            cache[name] = None
        return x
    mask = (rng.random(x.shape) >= DROP_RATE).astype(x.dtype) / (1.0 - DROP_RATE)
    if cache is not None:
        cache[name] = mask
    return x * mask


def dropout_backward(dy, name, cache):
    mask = cache[name]
    return dy if mask is None else dy * mask


class SelfAttention:
    """N_HEADS-head self-attention over short token sequences (B, S, d)."""

    def __init__(self, name: str, d: int):
        assert d % N_HEADS == 0
        self.name = name
        self.d = d
        self.dh = d // N_HEADS
        self.wq = Linear(name + ".q", d, d)
        self.wk = Linear(name + ".k", d, d)
        self.wv = Linear(name + ".v", d, d)
        self.wo = Linear(name + ".o", d, d)

    def init(self, params, rng) -> None:
        for lin in (self.wq, self.wk, self.wv, self.wo):
            lin.init(params, rng)

    def _split(self, x):
        B, S, _ = x.shape
        return x.reshape(B, S, N_HEADS, self.dh).transpose(0, 2, 1, 3)

    def forward(self, params, x, cache=None):
        q = self._split(self.wq.forward(params, x, cache))
        k = self._split(self.wk.forward(params, x, cache))
        v = self._split(self.wv.forward(params, x, cache))
        scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(self.dh)
        scores -= scores.max(axis=-1, keepdims=True)
        e = np.exp(scores)
        att = e / e.sum(axis=-1, keepdims=True)
        ctx = att @ v                              # (B,H,S,dh)
        B, H, S, dh = ctx.shape
        merged = ctx.transpose(0, 2, 1, 3).reshape(B, S, self.d)
        if cache is not None:
            cache[self.name] = (q, k, v, att)
        return self.wo.forward(params, merged, cache)

    def backward(self, params, grads, dy, cache):
        q, k, v, att = cache[self.name]
        dmerged = self.wo.backward(params, grads, dy, cache)
        B, S, _ = dmerged.shape
        dctx = dmerged.reshape(B, S, N_HEADS, self.dh).transpose(0, 2, 1, 3)
        datt = dctx @ v.transpose(0, 1, 3, 2)
        dv = att.transpose(0, 1, 3, 2) @ dctx
        dscores = att * (datt - np.sum(datt * att, axis=-1, keepdims=True))
        dscores /= math.sqrt(self.dh)
        dq = dscores @ k
        dk = dscores.transpose(0, 1, 3, 2) @ q
        merge = lambda z: z.transpose(0, 2, 1, 3).reshape(B, S, self.d)  # noqa: E731
        dx = self.wq.backward(params, grads, merge(dq), cache)
        dx += self.wk.backward(params, grads, merge(dk), cache)
        dx += self.wv.backward(params, grads, merge(dv), cache)
        return dx


class TransformerBlock:
    """Post-LN block: residual MHA then residual FFN, dropout on sublayers."""

    def __init__(self, name: str, d: int, d_ff: int):
        self.name = name
        self.attn = SelfAttention(name + ".attn", d)
        self.ln1 = LayerNorm(name + ".ln1", d)
        self.ff1 = Linear(name + ".ff1", d, d_ff)
        self.ff2 = Linear(name + ".ff2", d_ff, d)
        self.ln2 = LayerNorm(name + ".ln2", d)

    def init(self, params, rng) -> None:
        for part in (self.attn, self.ln1, self.ff1, self.ff2, self.ln2):
            part.init(params, rng)

    def forward(self, params, x, cache=None, rng=None):
        a = self.attn.forward(params, x, cache)
        a = dropout_forward(a, self.name + ".d1", cache, rng)
        h = self.ln1.forward(params, x + a, cache)
        f = self.ff1.forward(params, h, cache)
        f = relu_forward(f, self.name + ".relu", cache)
        f = self.ff2.forward(params, f, cache)
        f = dropout_forward(f, self.name + ".d2", cache, rng)
        return self.ln2.forward(params, h + f, cache)

    def backward(self, params, grads, dy, cache):
        dhf = self.ln2.backward(params, grads, dy, cache)
        df = dropout_backward(dhf, self.name + ".d2", cache)
        df = self.ff2.backward(params, grads, df, cache)
        df = relu_backward(df, self.name + ".relu", cache)
        dh = dhf + self.ff1.backward(params, grads, df, cache)
        dxa = self.ln1.backward(params, grads, dh, cache)
        da = dropout_backward(dxa, self.name + ".d1", cache)
        return dxa + self.attn.backward(params, grads, da, cache)


class Adam:
    """Adam with bias correction. ``step`` updates the moments and each
    parameter in place, walking the flattened tensors in chunks of
    ``ADAM_CHUNK`` elements through two scratch buffers that stay in cache;
    the arithmetic is the textbook expression's, in its order, so the step
    is the same to the bit as the whole-tensor update.

    Each tensor keeps its own step count ``t[name]``, so ``step`` updates
    exactly the tensors in ``grads``, and stepping disjoint subsets in
    separate calls equals one call with all of them, bit for bit."""

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t: dict[str, int] = {}

    def step(self, params: dict, grads: dict, lr: float) -> None:
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        scratch = {}
        for name in sorted(grads):
            g = np.ravel(grads[name])
            if name not in self.m:
                self.m[name] = np.zeros(grads[name].shape, g.dtype)
                self.v[name] = np.zeros(grads[name].shape, g.dtype)
                self.t[name] = 0
            self.t[name] += 1
            corr1 = 1.0 - b1**self.t[name]
            corr2 = 1.0 - b2**self.t[name]
            p = params[name]
            # A non-C-contiguous parameter is updated through a C-order copy
            # and written back, since reshape(-1) of it would be a copy.
            work = p if p.flags.c_contiguous else np.ascontiguousarray(p)
            if g.dtype not in scratch:
                scratch[g.dtype] = (np.empty(ADAM_CHUNK, g.dtype), np.empty(ADAM_CHUNK, g.dtype))
            a, b = scratch[g.dtype]
            m, v, w = self.m[name].reshape(-1), self.v[name].reshape(-1), work.reshape(-1)
            for lo in range(0, g.size, ADAM_CHUNK):
                hi = min(lo + ADAM_CHUNK, g.size)
                gc, mc, vc = g[lo:hi], m[lo:hi], v[lo:hi]
                ta, tb = a[:hi - lo], b[:hi - lo]
                # m = b1*m + (1-b1)*g
                np.multiply(mc, b1, out=mc)
                np.multiply(gc, 1 - b1, out=ta)
                mc += ta
                # v = b2*v + ((1-b2)*g)*g
                np.multiply(vc, b2, out=vc)
                np.multiply(gc, 1 - b2, out=ta)
                ta *= gc
                vc += ta
                # p -= lr*(m/corr1) / (sqrt(v/corr2) + eps)
                np.divide(mc, corr1, out=ta)
                ta *= lr
                np.divide(vc, corr2, out=tb)
                np.sqrt(tb, out=tb)
                tb += ADAM_EPS
                ta /= tb
                w[lo:hi] -= ta
            if work is not p:
                p[...] = work


def sinusoidal_embedding(t: np.ndarray, dim: int) -> np.ndarray:
    """Half sine / half cosine with a geometric frequency ladder, base 10000."""
    t = np.asarray(t, dtype=float).reshape(-1)
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    args = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(args), np.cos(args)], axis=1)


class _ShapeOnly:
    """Generator stand-in for layer ``init``: ``normal`` returns a zero-stride
    array of the requested shape, so an init run draws and allocates nothing."""

    @staticmethod
    def normal(loc, scale, size):
        return np.broadcast_to(float(loc), size)


def check_layout(params: dict, init) -> None:
    """Raise LayoutMismatch unless ``params`` holds exactly the tensor names
    and shapes that ``init(rng)``, which returns a new parameter dict, builds."""
    expected = init(_ShapeOnly())
    missing = sorted(expected.keys() - params.keys())
    extra = sorted(params.keys() - expected.keys())
    if missing or extra:
        raise LayoutMismatch(f"tensors missing {missing[:4]}, unexpected {extra[:4]}")
    for name, value in expected.items():
        if np.shape(params[name]) != value.shape:
            raise LayoutMismatch(
                f"{name}: shape {np.shape(params[name])}, expected {value.shape}")


def network_params(init, params: dict | None, seed: int, tag: int) -> dict:
    """The weights of a network whose ``init(rng)`` returns a new parameter dict.

    Given ``params`` are checked against init's layout and kept in their dtype,
    so a float64 twin computes in float64. Otherwise init draws them from
    rng_stream(seed, tag) and each is cast to float32: a network that draws its
    own weights holds them in float32.
    """
    if params is not None:
        check_layout(params, init)
        return params
    params = init(rng_stream(seed, tag))
    for name in params:     # in place: each float64 draw is freed once cast
        params[name] = params[name].astype(np.float32)
    return params


def accumulate(grads: dict, name: str, value: np.ndarray) -> None:
    if name in grads:
        grads[name] += value
    else:
        grads[name] = value
