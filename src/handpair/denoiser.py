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
Both profiles share nn.N_HEADS attention heads and nn.DROP_RATE dropout.

The network computes in the dtype of its parameters, float32 when it draws
them itself: predict and backward cast their inputs to that dtype, and
predict returns float64, so the diffusion algebra around it stays float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingObject, ShapeMismatch
from .hand_model import DIM
from .nn import (
    TAG_INIT,
    Adam,
    Linear,
    TransformerBlock,
    accumulate,
    network_params,
    relu_backward,
    relu_forward,
    sinusoidal_embedding,
    swish_backward,
    swish_forward,
)
from .pointset import PointSetEncoder

PROFILES = {
    "paper": dict(d_token=512, d_embed_hidden=2056, n_blocks=2,
                  d_ff=2048, d_global=2056, d_decoder=2056),
    "small": dict(d_token=128, d_embed_hidden=256, n_blocks=1,
                  d_ff=256, d_global=256, d_decoder=256),
}

N_DECODER_LAYERS = 7


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

        self.emb_x = _EmbedMLP("emb_x", DIM, w["d_embed_hidden"], d)
        self.emb_c = _EmbedMLP("emb_c", DIM, w["d_embed_hidden"], d)
        self.emb_t = _EmbedMLP("emb_t", d, w["d_embed_hidden"], d)
        self.blocks = [TransformerBlock(f"block{i}", d, w["d_ff"]) for i in range(w["n_blocks"])]
        self.to_global = Linear("to_global", self.n_tokens * d, w["d_global"])
        self.obj_encoder = None
        if config.object_conditional:
            self.obj_encoder = PointSetEncoder("obj", d)

        self.decoder = []
        d_prev = w["d_global"]
        skip = (self.n_tokens - 1) * d                  # cond, time (, object)
        for i in range(1, N_DECODER_LAYERS + 1):
            d_in = d_prev + skip + (d if i % 2 == 1 else 0)
            d_out = DIM if i == N_DECODER_LAYERS else w["d_decoder"]
            self.decoder.append(Linear(f"dec{i}", d_in, d_out))
            d_prev = d_out

        self.params = network_params(self._init_params, params, seed, TAG_INIT)

    def _init_params(self, rng) -> dict:
        params = {}
        for part in [self.emb_x, self.emb_c, self.emb_t, *self.blocks,
                     self.to_global, *self.decoder]:
            part.init(params, rng)
        if self.obj_encoder is not None:
            self.obj_encoder.init(params, rng)
        params["null_token"] = rng.normal(0.0, 0.02, self.d_token)
        return params

    # -- forward -----------------------------------------------------------

    def predict(self, x_t, cond, drop_mask, t, objects=None,
                object_embedding=None, rng=None, cache=None):
        """x0 estimate for a batch. Deterministic when ``rng`` is None.

        x_t, cond: (B, 64); drop_mask: (B,) bool or None (none dropped), True routes
        the null token; t: (B,) ints in [1, T]; objects: (B, N, 3) clouds for object models.
        object_embedding: precomputed tokens (d,) or (B, d) of a fixed cloud, broadcast
        to the rows (inference fast path; backward requires raw clouds).
        """
        params = self.params
        dtype = params["null_token"].dtype
        x_t = np.atleast_2d(np.asarray(x_t, dtype=dtype))
        cond = np.atleast_2d(np.asarray(cond, dtype=dtype))
        B = len(x_t)
        if x_t.shape != (B, DIM) or cond.shape != (B, DIM):
            raise ShapeMismatch(f"bad input shapes {x_t.shape}, {cond.shape}")
        if drop_mask is None:
            drop_mask = np.zeros(B, dtype=bool)
        drop_mask = np.asarray(drop_mask, dtype=bool).reshape(B)
        t = np.asarray(t, dtype=float).reshape(B)
        if self.config.object_conditional and objects is None and object_embedding is None:
            raise MissingObject("object-conditional model called without a cloud")

        ex = self.emb_x.forward(params, x_t, cache)
        ec_raw = self.emb_c.forward(params, cond, cache)
        ec = np.where(drop_mask[:, None], params["null_token"][None, :], ec_raw)
        emb = sinusoidal_embedding(t, self.d_token).astype(dtype)
        et = self.emb_t.forward(params, emb, cache)
        toks = [ex, ec, et]
        if self.obj_encoder is not None:
            if object_embedding is not None:
                toks.append(np.broadcast_to(object_embedding, (B, self.d_token)).astype(dtype))
            else:
                toks.append(self.obj_encoder.forward_one(params, objects, cache))
        x = np.stack(toks, axis=1)                      # (B, S, d)
        for i, block in enumerate(self.blocks):
            x = block.forward(params, x, cache, rng)
        flat = x.reshape(B, self.n_tokens * self.d_token)
        h = self.to_global.forward(params, flat, cache)
        skip = np.concatenate(toks[1:], axis=1)        # cond, time (, object)
        for i, lin in enumerate(self.decoder, start=1):
            parts = [h, skip, ex] if i % 2 == 1 else [h, skip]
            h = lin.forward(params, np.concatenate(parts, axis=1), cache)
            if i < N_DECODER_LAYERS:
                h = relu_forward(h, f"dec{i}.relu", cache)
        if cache is not None:
            cache["#meta"] = (B, drop_mask)
        return h.astype(float, copy=False)

    # -- backward ----------------------------------------------------------

    def backward(self, dout, cache, sink) -> None:
        """Backpropagates ``dout`` through a predict() call made with cache.

        Hands ``sink`` each part's finished weight gradients, one dict per
        part, in reverse layer order: each decoder layer, ``to_global``, each
        transformer block, then the embeddings with ``null_token`` and the
        object encoder. A part is handed over right after its own backward,
        when no later part reads its weights, so the sink may step them in
        place; every tensor arrives exactly once, complete. Collect the whole
        gradient with ``grads = {}; den.backward(dout, cache, grads.update)``.
        """
        params = self.params
        dtype = params["null_token"].dtype
        B, drop_mask = cache["#meta"]
        d = self.d_token
        n_skip = (self.n_tokens - 1) * d
        dec_dh = np.asarray(dout, dtype=dtype)
        d_ex = np.zeros((B, d), dtype)
        d_skip = np.zeros((B, n_skip), dtype)
        for i in range(N_DECODER_LAYERS, 0, -1):
            if i < N_DECODER_LAYERS:
                dec_dh = relu_backward(dec_dh, f"dec{i}.relu", cache)
            part = {}
            dinp = self.decoder[i - 1].backward(params, part, dec_dh, cache)
            sink(part)
            if i % 2 == 1:
                d_ex += dinp[:, -d:]
                dinp = dinp[:, :-d]
            d_skip += dinp[:, -n_skip:]
            dec_dh = dinp[:, :-n_skip]
        part = {}
        dflat = self.to_global.backward(params, part, dec_dh, cache)
        sink(part)
        dx = dflat.reshape(B, self.n_tokens, d)
        for block in reversed(self.blocks):
            part = {}
            dx = block.backward(params, part, dx, cache)
            sink(part)
        d_ex += dx[:, 0]
        d_skip += dx[:, 1:].reshape(B, n_skip)
        d_ec, d_et = d_skip[:, :d], d_skip[:, d:2 * d]
        part = {}
        if self.obj_encoder is not None and self.obj_encoder.name in cache:
            self.obj_encoder.backward_one(params, part, d_skip[:, 2 * d:], cache)
        # Null-token substitution: dropped rows feed the token, kept rows the MLP.
        accumulate(part, "null_token", d_ec[drop_mask].sum(axis=0))
        d_ec_raw = np.where(drop_mask[:, None], 0.0, d_ec)
        self.emb_c.backward(params, part, d_ec_raw, cache)
        self.emb_t.backward(params, part, d_et, cache)
        self.emb_x.backward(params, part, d_ex, cache)
        sink(part)

    def new_optimizer(self) -> Adam:
        return Adam()

    def embed_object(self, points: np.ndarray) -> np.ndarray:
        """512-dim (paper) / 128-dim (small) pooled token for one cloud."""
        if self.obj_encoder is None:
            raise MissingObject("model was built without an object branch")
        return self.obj_encoder.forward_one(self.params, points)
