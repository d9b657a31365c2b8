"""Denoising network: token embeddings, self-attention, skip-wired decoder.

Inputs are the noisy hand vector, the conditioning hand vector (replaced by
a learned null token when dropped), the diffusion time, and optionally an
object point cloud. Tokens are typed by their embedding pathway, so the
encoder uses no positional encoding. The decoder is seven fully connected
layers; every layer sees the condition embeddings again, odd-numbered layers
additionally see the noisy-hand embedding (order: previous feature, cond,
time, object, noisy).

Profiles:
  "paper": token 512, embed hidden 2056, 2 attention blocks, FFN 2048,
           global feature 2056, decoder width 2056.
  "small": token 128, embed hidden 256, 1 attention block, FFN 256,
           global feature 256, decoder width 256. Used by the fast tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingObject, ShapeMismatch
from .nn import (
    TAG_INIT,
    Adam,
    Linear,
    TransformerBlock,
    _acc,
    relu_backward,
    relu_forward,
    rng_stream,
    sinusoidal_embedding,
    swish_backward,
    swish_forward,
)
from .pointset import PointSetEncoder

PROFILES = {
    "paper": dict(d_token=512, d_embed_hidden=2056, n_blocks=2, n_heads=4,
                  d_ff=2048, d_global=2056, d_decoder=2056, drop_rate=0.1),
    "small": dict(d_token=128, d_embed_hidden=256, n_blocks=1, n_heads=4,
                  d_ff=256, d_global=256, d_decoder=256, drop_rate=0.1),
}

N_DECODER_LAYERS = 7
X_DIM = 64


@dataclass(frozen=True)
class DenoiserConfig:
    profile: str = "small"
    object_conditional: bool = False

    def widths(self) -> dict:
        if self.profile not in PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}")
        return PROFILES[self.profile]


class _EmbedMLP:
    """Two fully connected layers, the first followed by a smooth gate."""

    def __init__(self, name: str, d_in: int, d_hidden: int, d_out: int):
        self.name = name
        self.l1 = Linear(name + ".l1", d_in, d_hidden)
        self.l2 = Linear(name + ".l2", d_hidden, d_out)

    def init(self, params, rng):
        self.l1.init(params, rng)
        self.l2.init(params, rng)

    def forward(self, params, x, cache=None):
        h = self.l1.forward(params, x, cache)
        h = swish_forward(h, self.name + ".swish", cache)
        return self.l2.forward(params, h, cache)

    def backward(self, params, grads, dy, cache):
        dh = self.l2.backward(params, grads, dy, cache)
        dh = swish_backward(dh, self.name + ".swish", cache)
        return self.l1.backward(params, grads, dh, cache)


class Denoiser:
    """Predicts the clean 64-dim hand vector from a noisy one.

    Immutable weights during inference; training mutates ``params`` under a
    single-writer contract (one optimizer step at a time).
    """

    def __init__(self, config: DenoiserConfig = DenoiserConfig(), seed: int = 0,
                 params: dict | None = None):
        self.config = config
        w = config.widths()
        d = w["d_token"]
        self.d_token = d
        self.n_tokens = 4 if config.object_conditional else 3

        self.emb_x = _EmbedMLP("emb_x", X_DIM, w["d_embed_hidden"], d)
        self.emb_c = _EmbedMLP("emb_c", X_DIM, w["d_embed_hidden"], d)
        self.emb_t = _EmbedMLP("emb_t", d, w["d_embed_hidden"], d)
        self.blocks = [
            TransformerBlock(f"block{i}", d, w["n_heads"], w["d_ff"], w["drop_rate"])
            for i in range(w["n_blocks"])
        ]
        self.to_global = Linear("to_global", self.n_tokens * d, w["d_global"])
        self.obj_encoder = None
        if config.object_conditional:
            self.obj_encoder = PointSetEncoder("obj", d)

        self.decoder = []
        d_prev = w["d_global"]
        skip = d * (2 + (1 if config.object_conditional else 0))
        for i in range(1, N_DECODER_LAYERS + 1):
            d_in = d_prev + skip + (d if i % 2 == 1 else 0)
            d_out = X_DIM if i == N_DECODER_LAYERS else w["d_decoder"]
            self.decoder.append(Linear(f"dec{i}", d_in, d_out))
            d_prev = d_out

        if params is not None:
            self.params = params
        else:
            rng = rng_stream(seed, TAG_INIT)
            self.params = {}
            for part in [self.emb_x, self.emb_c, self.emb_t, *self.blocks,
                         self.to_global, *self.decoder]:
                part.init(self.params, rng)
            if self.obj_encoder is not None:
                self.obj_encoder.init(self.params, rng)
            self.params["null_token"] = rng.normal(0.0, 0.02, d)

    # -- forward -----------------------------------------------------------

    def predict(self, x_t, cond, drop_mask=None, t=None, objects=None,
                object_embedding=None, rng=None, cache=None):
        """x0 estimate for a batch. Deterministic when ``rng`` is None.

        x_t, cond: (B, 64); drop_mask: (B,) bool, True routes the null token;
        t: (B,) ints in [1, T]; objects: (B, N, 3) clouds for object models.
        object_embedding: (B, d) precomputed tokens for a fixed cloud
        (inference fast path; backward requires raw clouds).
        """
        x_t = np.atleast_2d(np.asarray(x_t, dtype=float))
        cond = np.atleast_2d(np.asarray(cond, dtype=float))
        B = len(x_t)
        if x_t.shape != (B, X_DIM) or cond.shape != (B, X_DIM):
            raise ShapeMismatch(f"bad input shapes {x_t.shape}, {cond.shape}")
        if drop_mask is None:
            drop_mask = np.zeros(B, dtype=bool)
        drop_mask = np.asarray(drop_mask, dtype=bool).reshape(B)
        t = np.asarray(t, dtype=float).reshape(B)
        if self.config.object_conditional and objects is None and object_embedding is None:
            raise MissingObject("object-conditional model called without a cloud")

        params = self.params
        ex = self.emb_x.forward(params, x_t, cache)
        ec_raw = self.emb_c.forward(params, cond, cache)
        ec = np.where(drop_mask[:, None], params["null_token"][None, :], ec_raw)
        et = self.emb_t.forward(params, sinusoidal_embedding(t, self.d_token), cache)
        toks = [ex, ec, et]
        eo = None
        if self.obj_encoder is not None:
            if object_embedding is not None:
                eo = np.asarray(object_embedding, dtype=float).reshape(B, self.d_token)
            else:
                eo = self.obj_encoder.forward_batch(params, objects, cache)
            toks.append(eo)
        x = np.stack(toks, axis=1)                      # (B, S, d)
        for i, block in enumerate(self.blocks):
            x = block.forward(params, x, cache, rng)
        flat = x.reshape(B, self.n_tokens * self.d_token)
        h = self.to_global.forward(params, flat, cache)
        for i, lin in enumerate(self.decoder, start=1):
            parts = [h, ec, et]
            if eo is not None:
                parts.append(eo)
            if i % 2 == 1:
                parts.append(ex)
            inp = np.concatenate(parts, axis=1)
            h = lin.forward(params, inp, cache)
            if i < N_DECODER_LAYERS:
                h = relu_forward(h, f"dec{i}.relu", cache)
        if cache is not None:
            cache["#meta"] = (B, drop_mask, eo is not None)
        return h

    # -- backward ----------------------------------------------------------

    def backward(self, dout, cache) -> dict:
        """Accumulates parameter grads for a predict() call made with cache."""
        params = self.params
        grads: dict[str, np.ndarray] = {}
        B, drop_mask, has_obj = cache["#meta"]
        d = self.d_token
        dec_dh = dout
        d_ec = np.zeros((B, d))
        d_et = np.zeros((B, d))
        d_ex = np.zeros((B, d))
        d_eo = np.zeros((B, d)) if has_obj else None
        for i in range(N_DECODER_LAYERS, 0, -1):
            if i < N_DECODER_LAYERS:
                dec_dh = relu_backward(dec_dh, f"dec{i}.relu", cache)
            dinp = self.decoder[i - 1].backward(params, grads, dec_dh, cache)
            off = dinp.shape[1]
            if i % 2 == 1:
                d_ex += dinp[:, off - d:]
                off -= d
            if has_obj:
                d_eo += dinp[:, off - d: off]
                off -= d
            d_et += dinp[:, off - d: off]
            d_ec += dinp[:, off - 2 * d: off - d]
            dec_dh = dinp[:, : off - 2 * d]
        dflat = self.to_global.backward(params, grads, dec_dh, cache)
        dx = dflat.reshape(B, self.n_tokens, d)
        for block in reversed(self.blocks):
            dx = block.backward(params, grads, dx, cache)
        d_ex += dx[:, 0]
        d_ec += dx[:, 1]
        d_et += dx[:, 2]
        if has_obj:
            d_eo += dx[:, 3]
            if self.obj_encoder.name in cache:
                self.obj_encoder.backward_batch(params, grads, d_eo, cache)
        # Null-token substitution: dropped rows feed the token, kept rows the MLP.
        _acc(grads, "null_token", d_ec[drop_mask].sum(axis=0))
        d_ec_raw = np.where(drop_mask[:, None], 0.0, d_ec)
        self.emb_c.backward(params, grads, d_ec_raw, cache)
        self.emb_t.backward(params, grads, d_et, cache)
        self.emb_x.backward(params, grads, d_ex, cache)
        return grads

    def new_optimizer(self) -> Adam:
        return Adam()

    def embed_object(self, points: np.ndarray) -> np.ndarray:
        """512-dim (paper) / 128-dim (small) pooled token for one cloud."""
        if self.obj_encoder is None:
            raise MissingObject("model was built without an object branch")
        return self.obj_encoder.forward_one(self.params, points)
