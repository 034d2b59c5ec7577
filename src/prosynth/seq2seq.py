"""Toy encoder-decoder with attention, at desk scale.

The encoder embeds the symbol sequence (phone id, stress, phrase type,
break/silence flags), runs two 1-D convolutions and a bidirectional
recurrent layer, then concatenates a 2-dim prosody embedding onto every
output vector. The autoregressive decoder eats the previous frame through a
double-feed pre-net: the true previous frame beside the prediction when a
true frame is given (teacher forcing), the prediction twice when none is
(free-running decode). It attends with additive content+location
attention, optionally post-processes each alignment with the
structure-preserving augmented step, and emits one spectral frame plus a
stop logit per step. A convolutional post-net refines the whole utterance
residually.

The decoder's recurrence runs on plain arrays, in one loop that
synthesize (free-running, with the stop test) and teacher_forced (fed the
true previous frames) share. Each stage, the pre-net, the two LSTM cells,
the location attention, the alpha/beta selection heads, the augmented step
and the readout, returns its value with its hand-written backward, and
decoder_step composes them into one backward per frame that routes the
recurrent state's gradients by hand. Under teacher forcing the whole
decoded utterance is one graph node of shape (T, F+1), rows [y_t, stop
logit], whose backward walks the frames in reverse; weight gradients that
are outer products are gathered in (T, .) factor buffers and contracted
once per weight. So the training graph's size depends on the number of
symbols, not of frames, and without graph building the loop keeps no
backwards at all.

Training is teacher-forced, deterministic for a fixed seed, with the
prosody conditioning forced to zero for the first few epochs. Validation
alignment entropy is logged every epoch as the convergence diagnostic.
"""

from __future__ import annotations

import gc
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import align
from . import autodiff as ad
from . import fileio
from .errors import ConfigError, DataError

ATTENTION_MODES = ("augmented", "plain")  # plain: the initial alignment is final


@dataclass
class ModelConfig:
    """Every training hyperparameter, explicit. When loaded from a file all
    fields must be present; omissions are errors, not defaults."""

    seed: int = 7
    epochs: int = 30
    batch_size: int = 8
    learning_rate: float = 0.05
    momentum: float = 0.9
    grad_clip: float | None = 5.0
    prosody_zero_epochs: int = 5
    stop_pos_weight: float = 6.0
    stop_threshold: float = 0.5
    max_decode_ratio: int = 10
    symbol_embedding: int = 32
    stress_embedding: int = 4
    phrase_embedding: int = 4
    encoder_conv_channels: int = 64
    encoder_conv_kernel: int = 5
    encoder_rnn_width: int = 64
    decoder_rnn_width: int = 64
    prenet_hidden: int = 64
    prenet_out: int = 32
    attention_dim: int = 64
    location_filters: int = 8
    location_kernel: int = 7
    frame_width: int = 8
    postnet_channels: int = 16
    postnet_kernel: int = 5

    @property
    def context_dim(self):
        return 2 * self.encoder_rnn_width + 2

    def save(self, path):
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def load_model_config(path):
    """Strict loader: every field required, unknown fields rejected."""
    with open(path, "r", encoding="ascii") as fh:
        raw = json.load(fh)
    expected = set(ModelConfig.__dataclass_fields__)
    missing = expected - set(raw)
    if missing:
        raise ConfigError(f"{path}: missing config field(s): {', '.join(sorted(missing))}")
    unknown = set(raw) - expected
    if unknown:
        raise ConfigError(f"{path}: unknown config field(s): {', '.join(sorted(unknown))}")
    return ModelConfig(**raw)


@dataclass
class DecoderTrace:
    """Everything one decode produced: pre/post-net frames, stop logits, the
    alignment matrix (N x T), and whether the length cap truncated it."""

    y: np.ndarray
    z: np.ndarray
    stop_logits: np.ndarray
    alignment: np.ndarray
    targets: np.ndarray | None = None
    truncated: bool = False

    @property
    def frame_count(self):
        return self.z.shape[0]


# -- parameters -----------------------------------------------------------------


def init_params(cfg, vocab_size):
    """Seeded Glorot init for every weight; returns name -> Tensor."""
    rng = np.random.default_rng(cfg.seed)
    p = {}

    def par(name, data):
        p[name] = ad.parameter(np.asarray(data, dtype=np.float64), name=name)

    emb_in = cfg.symbol_embedding + cfg.stress_embedding + cfg.phrase_embedding + 2
    conv_c = cfg.encoder_conv_channels
    par("enc.embed.symbol", rng.uniform(-0.5, 0.5, size=(vocab_size, cfg.symbol_embedding)))
    par("enc.embed.stress", rng.uniform(-0.5, 0.5, size=(3, cfg.stress_embedding)))
    par("enc.embed.phrase", rng.uniform(-0.5, 0.5, size=(4, cfg.phrase_embedding)))
    k = cfg.encoder_conv_kernel
    par("enc.conv1.w", ad.glorot(rng, k * emb_in, conv_c, shape=(k, emb_in, conv_c)))
    par("enc.conv1.b", np.zeros(conv_c))
    par("enc.conv2.w", ad.glorot(rng, k * conv_c, conv_c, shape=(k, conv_c, conv_c)))
    par("enc.conv2.b", np.zeros(conv_c))
    h = cfg.encoder_rnn_width
    for d in ("fwd", "bwd"):
        par(f"enc.{d}.wx", ad.glorot(rng, conv_c, 4 * h))
        par(f"enc.{d}.wh", ad.glorot(rng, h, 4 * h))
        bias = np.zeros(4 * h)
        bias[h:2 * h] = 1.0  # forget-gate bias
        par(f"enc.{d}.b", bias)

    par("prosody.embed", rng.uniform(-0.5, 0.5, size=(2, 2)))

    ctx = cfg.context_dim
    d = cfg.decoder_rnn_width
    par("dec.prenet1.w", ad.glorot(rng, 2 * cfg.frame_width, cfg.prenet_hidden))
    par("dec.prenet1.b", np.zeros(cfg.prenet_hidden))
    par("dec.prenet2.w", ad.glorot(rng, cfg.prenet_hidden, cfg.prenet_out))
    par("dec.prenet2.b", np.zeros(cfg.prenet_out))
    for name, in_dim in (("lstm1", cfg.prenet_out + ctx), ("lstm2", d + ctx)):
        par(f"dec.{name}.wx", ad.glorot(rng, in_dim, 4 * d))
        par(f"dec.{name}.wh", ad.glorot(rng, d, 4 * d))
        bias = np.zeros(4 * d)
        bias[d:2 * d] = 1.0
        par(f"dec.{name}.b", bias)
    for name in ("h1", "c1", "h2", "c2"):
        par(f"dec.init.{name}", np.zeros(d))

    a = cfg.attention_dim
    par("att.query.w", ad.glorot(rng, d, a))
    par("att.memory.w", ad.glorot(rng, ctx, a))
    kl = cfg.location_kernel
    par("att.location.conv", ad.glorot(rng, kl * 2, cfg.location_filters, shape=(kl, 2, cfg.location_filters)))
    par("att.location.w", ad.glorot(rng, cfg.location_filters, a))
    par("att.v", rng.uniform(-0.1, 0.1, size=a))
    # selection heads start neutral (alpha = beta = 0.5)
    par("att.alpha.w", np.zeros(cfg.prenet_out + ctx + d))
    par("att.alpha.b", 0.0)
    par("att.beta.w", np.zeros(ctx))
    par("att.beta.b", 0.0)

    par("out.frame.w", ad.glorot(rng, d + ctx, cfg.frame_width))
    par("out.frame.b", np.zeros(cfg.frame_width))
    par("out.stop.w", ad.glorot(rng, d + ctx, 1).reshape(-1))
    par("out.stop.b", 0.0)

    kp = cfg.postnet_kernel
    par("post.conv1.w", ad.glorot(rng, kp * cfg.frame_width, cfg.postnet_channels,
                                  shape=(kp, cfg.frame_width, cfg.postnet_channels)))
    par("post.conv1.b", np.zeros(cfg.postnet_channels))
    # zero-initialised final layer: post-net starts as the identity residual
    par("post.conv2.w", np.zeros((kp, cfg.postnet_channels, cfg.frame_width)))
    par("post.conv2.b", np.zeros(cfg.frame_width))
    return p


# -- encoder ---------------------------------------------------------------------


def encoder_latents(params, symbols):
    """Symbol sequence -> (N, 2H) latents, before prosody conditioning."""
    if symbols.ids.max() >= params["enc.embed.symbol"].data.shape[0]:
        raise DataError(f"symbol id {int(symbols.ids.max())} outside embedding table")
    sym = ad.index_rows(params["enc.embed.symbol"], symbols.ids)
    st = ad.index_rows(params["enc.embed.stress"], symbols.stress)
    ph = ad.index_rows(params["enc.embed.phrase"], symbols.phrase)
    flags = ad.Tensor(np.stack([symbols.word_break, symbols.silence], axis=1).astype(np.float64))
    x = ad.concat([sym, st, ph, flags], axis=1)
    x = ad.relu(ad.conv1d(x, params["enc.conv1.w"], params["enc.conv1.b"]))
    x = ad.relu(ad.conv1d(x, params["enc.conv2.w"], params["enc.conv2.b"]))
    n = len(symbols)
    width = params["enc.fwd.wh"].data.shape[0]
    outs = {}
    for d, order in (("fwd", range(n)), ("bwd", range(n - 1, -1, -1))):
        h = ad.Tensor(np.zeros(width))
        c = ad.Tensor(np.zeros(width))
        rows = [None] * n
        for t in order:
            h, c = ad.lstm_step(x[t], h, c, params[f"enc.{d}.wx"], params[f"enc.{d}.wh"], params[f"enc.{d}.b"])
            rows[t] = h
        outs[d] = ad.stack(rows)
    return ad.concat([outs["fwd"], outs["bwd"]], axis=1)


def prosody_embedding(params, prosody_vec):
    """tanh of the unbiased 2x2 projection; zeros map exactly to zeros."""
    vec = ad.Tensor(np.zeros(2) if prosody_vec is None else np.asarray(prosody_vec, dtype=np.float64))
    return ad.tanh(ad.matmul(params["prosody.embed"], vec))


def encode(params, symbols, prosody_vec):
    """Conditioned encoder outputs: every latent gets the same 2 embedding
    channels appended."""
    latents = encoder_latents(params, symbols)
    emb = prosody_embedding(params, prosody_vec)
    n = latents.shape[0]
    tiled = ad.matmul(ad.Tensor(np.ones((n, 1))), ad.reshape(emb, (1, 2)))
    return ad.concat([latents, tiled], axis=1)


# -- decoder ---------------------------------------------------------------------
#
# The decoder runs on plain arrays. Each stage returns (value, backward), where
# backward maps the value's gradient to one gradient per input, in the order
# its docstring gives, weights last in the order of the stage's key tuple; a
# weight gradient that is an outer product comes as an ad.Outer pair.

_PRENET_KEYS = ("dec.prenet1.w", "dec.prenet1.b", "dec.prenet2.w", "dec.prenet2.b")
_LSTM1_KEYS = ("dec.lstm1.wx", "dec.lstm1.wh", "dec.lstm1.b")
_LSTM2_KEYS = ("dec.lstm2.wx", "dec.lstm2.wh", "dec.lstm2.b")
_ATTENTION_KEYS = ("att.location.conv", "att.location.w", "att.query.w", "att.v")
_HEAD_KEYS = ("att.alpha.w", "att.alpha.b", "att.beta.w", "att.beta.b")
_READOUT_KEYS = ("out.frame.w", "out.frame.b", "out.stop.w", "out.stop.b")
_CELLS = ("h1", "c1", "h2", "c2")  # start from the dec.init.* parameters
_INIT_KEYS = tuple(f"dec.init.{k}" for k in _CELLS)
_PLAIN_KEYS = _PRENET_KEYS + _LSTM1_KEYS + _LSTM2_KEYS + _INIT_KEYS + _ATTENTION_KEYS + _READOUT_KEYS
_AUGMENTED_KEYS = _PLAIN_KEYS + _HEAD_KEYS


def _weights(params, keys):
    return (params[k].data for k in keys)


def initial_attention(params, query, enc_proj, prev_align, cum_align):
    """Additive content+location attention over encoder positions.

    Location features come from a 1-D convolution over the stacked previous
    and cumulative alignment vectors. Returns (b_t, backward); backward(g)
    gives the gradients of (query, enc_proj, prev_align, cum_align) and the
    attention weights.
    """
    n = prev_align.shape[0]
    if enc_proj.shape[0] != n:
        raise DataError(f"attention: {enc_proj.shape[0]} encoder rows vs {n} alignment entries")
    return ad.location_attention_vjp(query, enc_proj, prev_align, cum_align, *_weights(params, _ATTENTION_KEYS))


def prenet_double_feed(params, prev_true, prev_pred):
    """Pre-net over [true, predicted] under teacher forcing, the prediction
    duplicated when prev_true is None (free-running decode).

    Two relu layers. Returns (out, backward); backward(g) gives the
    gradients of the four weights only: both frames are data, since the
    decoder feeds its prediction back as a constant.
    """
    first = prev_pred if prev_true is None else np.asarray(prev_true, dtype=np.float64)
    if first.shape != prev_pred.shape:
        raise ValueError(f"prenet_double_feed: frame widths differ {first.shape} vs {prev_pred.shape}")
    w1, b1, w2, b2 = _weights(params, _PRENET_KEYS)
    x = np.concatenate([first, prev_pred])
    h = np.maximum(x @ w1 + b1, 0.0)
    out = np.maximum(h @ w2 + b2, 0.0)

    def backward(g):
        g2 = g * (out > 0.0)
        g1 = (w2 @ g2) * (h > 0.0)
        return ad.Outer(x, g1), g1, ad.Outer(h, g2), g2

    return out, backward


def selection_heads(params, s_p, x_c, h2):
    """The augmented step's stage weights [alpha, beta]:
    alpha = sigmoid([s_p, x_c, h2] . w_alpha + b_alpha) and
    beta = sigmoid(x_c . w_beta + b_beta). Returns (heads, backward);
    backward(g) gives the gradients of (s_p, x_c, h2) and the four head
    weights."""
    aw, ab, bw, bb = _weights(params, _HEAD_KEYS)
    head_in = np.concatenate([s_p, x_c, h2])
    alpha = 0.5 * (1.0 + np.tanh(0.5 * (head_in @ aw + ab)))  # stable logistic
    beta = 0.5 * (1.0 + np.tanh(0.5 * (x_c @ bw + bb)))
    lo, hi = s_p.shape[0], s_p.shape[0] + x_c.shape[0]

    def backward(g):
        ga = g[0] * alpha * (1.0 - alpha)
        gb = g[1] * beta * (1.0 - beta)
        g_in = ga * aw
        return g_in[:lo], g_in[lo:hi] + gb * bw, g_in[hi:], ga * head_in, ga, gb * x_c, gb

    return np.array([alpha, beta]), backward


def frame_output(params, h2, x_c):
    """The readout as one (F+1,) vector: the frame [h2, x_c] @ W + b, then
    the stop logit [h2, x_c] . w_stop + b_stop. Returns (out, backward);
    backward(g) gives the gradients of (h2, x_c) and the four readout
    weights."""
    fw, fb, sw, sb = _weights(params, _READOUT_KEYS)
    readout = np.concatenate([h2, x_c])
    y = readout @ fw + fb
    stop = readout @ sw + sb
    hid = h2.shape[0]

    def backward(g):
        gy, gs = g[:-1], g[-1]
        g_read = fw @ gy + gs * sw
        return g_read[:hid], g_read[hid:], ad.Outer(readout, gy), gy, gs * readout, gs

    return np.append(y, stop), backward


def init_decoder_state(params, cfg, n_positions):
    return {
        "h1": params["dec.init.h1"].data, "c1": params["dec.init.c1"].data,
        "h2": params["dec.init.h2"].data, "c2": params["dec.init.c2"].data,
        "x_c": np.zeros(cfg.context_dim),
        "a_prev": None,  # no alignment history at t = 0
        "cum": np.zeros(n_positions),
        "y_prev": np.zeros(cfg.frame_width),
    }


def decoder_step(params, state, enc_cond, enc_proj, attention_mode, prev_true=None):
    """Advance one frame on plain arrays: returns (out_t, a_t, new state,
    backward), where out_t is frame_output's (F+1,) vector [y_t, stop
    logit]. prev_true is the true previous frame under teacher forcing,
    None when decoding free-running. attention_mode is one of
    ATTENTION_MODES; any other value is a ValueError.

    backward(g_out, g_next, grads) takes the gradients of out_t and of the
    new state's h1, c1, h2, c2, x_c, a_prev and cum, gives the weight,
    enc_cond and enc_proj gradients to grads (a _DecoderGrads) and returns
    the gradients of the same entries of state.
    """
    if attention_mode not in ATTENTION_MODES:
        raise ValueError(f"attention_mode must be one of {ATTENTION_MODES}, got {attention_mode!r}")
    x_c, a_prev = state["x_c"], state["a_prev"]
    s_p, prenet_backward = prenet_double_feed(params, prev_true, state["y_prev"])
    h1, c1, lstm1_backward = ad.lstm_vjp(np.concatenate([s_p, x_c]), state["h1"], state["c1"],
                                         *_weights(params, _LSTM1_KEYS))
    prev_align = np.zeros(enc_cond.shape[0]) if a_prev is None else a_prev
    b_t, attention_backward = initial_attention(params, h1, enc_proj, prev_align, state["cum"])
    augment = attention_mode == "augmented" and a_prev is not None
    if augment:
        heads, heads_backward = selection_heads(params, s_p, x_c, state["h2"])
        a_t, augment_backward = align.augmented_step(b_t, a_prev, heads[0], heads[1])
    else:
        a_t = b_t
    x_c_new = a_t @ enc_cond
    h2, c2, lstm2_backward = ad.lstm_vjp(np.concatenate([h1, x_c_new]), state["h2"], state["c2"],
                                         *_weights(params, _LSTM2_KEYS))
    out_t, readout_backward = frame_output(params, h2, x_c_new)
    new_state = {
        "h1": h1, "c1": c1, "h2": h2, "c2": c2,
        "x_c": x_c_new,
        "a_prev": a_t,  # the final alignment feeds both location features
        "cum": state["cum"] + a_t,
        "y_prev": out_t[:-1],  # autoregressive input, gradient stays local
    }
    n_sp, n_h1 = s_p.shape[0], h1.shape[0]

    def backward(g_out, g_next, grads):
        g_h2, g_xc, *g_w = readout_backward(g_out)
        grads.add(_READOUT_KEYS, g_w)
        g_in2, g_h2_prev, g_c2_prev, *g_w = lstm2_backward(g_next["h2"] + g_h2, g_next["c2"])
        grads.add(_LSTM2_KEYS, g_w)
        g_xc = g_next["x_c"] + g_xc + g_in2[n_h1:]
        grads.add(("enc_cond",), (ad.Outer(a_t, g_xc),))
        g_at = g_next["a_prev"] + g_next["cum"] + enc_cond @ g_xc
        if augment:
            g_bt, g_a_prev, g_alpha, g_beta = augment_backward(g_at)
            g_sp_heads, g_xc_heads, g_h2_heads, *g_w = heads_backward(np.array([g_alpha, g_beta]))
            grads.add(_HEAD_KEYS, g_w)
            g_h2_prev = g_h2_prev + g_h2_heads
        else:
            g_bt = g_at
        g_query, g_proj, g_prev_align, g_cum, *g_w = attention_backward(g_bt)
        grads.add(_ATTENTION_KEYS, g_w)
        grads.add(("enc_proj",), (g_proj,))
        g_in1, g_h1_prev, g_c1_prev, *g_w = lstm1_backward(g_next["h1"] + g_in2[:n_h1] + g_query, g_next["c1"])
        grads.add(_LSTM1_KEYS, g_w)
        g_sp, g_xc_prev = g_in1[:n_sp], g_in1[n_sp:]
        if augment:
            g_sp = g_sp + g_sp_heads
            g_xc_prev = g_xc_prev + g_xc_heads
            g_prev_align = g_prev_align + g_a_prev
        grads.add(_PRENET_KEYS, prenet_backward(g_sp))
        return {"h1": g_h1_prev, "c1": g_c1_prev, "h2": g_h2_prev, "c2": g_c2_prev,
                "x_c": g_xc_prev, "a_prev": g_prev_align, "cum": g_next["cum"] + g_cum}

    return out_t, a_t, new_state, backward


class _DecoderGrads:
    """The gradients one backward pass of the decoder node collects, in
    (T, .) buffers whose row t holds frame t's part: one buffer per key for
    plain gradients, and one per factor for keys that receive Outer pairs.
    total(key) sums the rows once, and contracts the factors once as
    sum_t outer(a_t, b_t) = A^T B."""

    def __init__(self, shapes, frames):
        self.frame = 0
        self._shapes = shapes
        self._frames = frames
        self._rows = {}
        self._factors = {}

    def add(self, keys, grads):
        t = self.frame
        for k, g in zip(keys, grads):
            if type(g) is ad.Outer:
                factors = self._factors.get(k)
                if factors is None:
                    rows, cols = self._shapes[k]
                    factors = self._factors[k] = (np.zeros((self._frames, rows)), np.zeros((self._frames, cols)))
                factors[0][t] = g.a
                factors[1][t] = g.b
            else:
                rows = self._rows.get(k)
                if rows is None:
                    rows = self._rows[k] = np.zeros((self._frames, *self._shapes[k]))
                rows[t] = g

    def total(self, k):
        g = self._rows[k].sum(axis=0) if k in self._rows else np.zeros(self._shapes[k])
        if k in self._factors:
            a, b = self._factors[k]
            g += a.T @ b
        return g


def _decode(params, cfg, enc_cond, enc_proj, attention_mode, targets=None):
    """Run the decoder recurrence on the plain arrays enc_cond and enc_proj.

    With targets, a (T, F) array, every frame is fed the true previous one
    and the decode runs T frames; without, the decoder runs free until the
    stop probability clears cfg.stop_threshold, or truncates at
    cfg.max_decode_ratio times the input length. Returns (out, alignment,
    truncated, steps): out is (T, F+1) with [y_t, stop logit] rows, the
    alignment is (N, T), and steps holds each frame's backward while graph
    building is on and is empty under no_grad.
    """
    n = enc_cond.shape[0]
    state = init_decoder_state(params, cfg, n)
    record = ad.grad_enabled()
    frames = cfg.max_decode_ratio * n if targets is None else targets.shape[0]
    rows, aligns, steps = [], [], []
    truncated = targets is None
    for t in range(frames):
        prev_true = None if targets is None else (targets[t - 1] if t > 0 else np.zeros(cfg.frame_width))
        out_t, a_t, state, backward = decoder_step(params, state, enc_cond, enc_proj, attention_mode, prev_true)
        rows.append(out_t)
        aligns.append(a_t)
        if record:
            steps.append(backward)
        if targets is None and 1.0 / (1.0 + np.exp(-float(out_t[-1]))) > cfg.stop_threshold:
            truncated = False
            break
    return np.stack(rows), np.stack(aligns, axis=1), truncated, steps


def decoder_node(params, cfg, enc_cond, enc_proj, attention_mode, targets):
    """The teacher-forced decode of one utterance as one graph node.

    enc_cond (N, C) and enc_proj (N, A) are Tensors, targets a (T, F)
    array. Returns (out, alignment): out is the (T, F+1) Tensor whose rows
    are [y_t, stop logit], over enc_cond, enc_proj and every decoder weight
    the mode uses (plain mode runs no selection heads); alignment is the
    (N, T) array. The node's backward walks the frames in
    reverse through each one's backward and returns one dense gradient per
    input; it depends on its output gradient alone, so a second backward
    adds the same again.
    """
    out, alignment, _, steps = _decode(params, cfg, enc_cond.data, enc_proj.data, attention_mode, targets)
    keys = _AUGMENTED_KEYS if attention_mode == "augmented" else _PLAIN_KEYS
    shapes = {"enc_cond": enc_cond.shape, "enc_proj": enc_proj.shape, **{k: params[k].shape for k in keys}}
    n, width = enc_cond.shape
    final = {k: np.zeros(params["dec.init.h1"].shape) for k in _CELLS}
    final.update(x_c=np.zeros(width), a_prev=np.zeros(n), cum=np.zeros(n))

    def backward(g):
        grads = _DecoderGrads(shapes, len(steps))
        g_state = final
        for t in range(len(steps) - 1, -1, -1):
            grads.frame = t
            g_state = steps[t](g[t], g_state, grads)
        grads.add(_INIT_KEYS, [g_state[k] for k in _CELLS])
        return [grads.total(k) for k in ("enc_cond", "enc_proj", *keys)]

    node = ad.fused(out, (enc_cond, enc_proj, *(params[k] for k in keys)), backward)
    return node, alignment


def postnet(params, y):
    """Residual convolutional refinement over the whole utterance."""
    h = ad.tanh(ad.conv1d(y, params["post.conv1.w"], params["post.conv1.b"]))
    return ad.add(y, ad.conv1d(h, params["post.conv2.w"], params["post.conv2.b"]))


# -- losses ----------------------------------------------------------------------


def spectral_loss(y, z, targets):
    """0.5 MSE(y, q) + 0.25 MSE(z, q) + 0.25 MSE(delta z, delta q), for
    (T, F) Tensors y and z and a (T, F) array of targets q.

    The differential term averages over steps 1..T-1 only; a single-frame
    utterance contributes nothing there.
    """
    q_np = np.asarray(targets, dtype=np.float64)
    if y.shape != q_np.shape or z.shape != q_np.shape:
        raise ValueError(f"spectral_loss: shape mismatch {y.shape} / {z.shape} / {q_np.shape}")
    q = ad.Tensor(q_np)
    dy = ad.add(y, ad.mul(q, -1.0))
    dz = ad.add(z, ad.mul(q, -1.0))
    loss = ad.add(ad.mul(ad.mean_(ad.mul(dy, dy)), 0.5), ad.mul(ad.mean_(ad.mul(dz, dz)), 0.25))
    t = q_np.shape[0]
    if t > 1:
        zd = ad.add(z[1:], ad.mul(z[:-1], -1.0))
        qd = ad.Tensor(q_np[1:] - q_np[:-1])
        dd = ad.add(zd, ad.mul(qd, -1.0))
        loss = ad.add(loss, ad.mul(ad.mean_(ad.mul(dd, dd)), 0.25))
    return loss


def stop_loss(stop_logits, true_length, pos_weight=1.0):
    """Binary cross-entropy of a (T,) Tensor of logits against a target
    that is 1 at and after the final true frame. pos_weight scales the
    positive frames' contribution."""
    t = stop_logits.shape[0]
    targets = np.zeros(t)
    targets[true_length - 1:] = 1.0
    weights = np.where(targets > 0, pos_weight, 1.0)
    # bce(x, z) = softplus(x) - x * z, numerically stable in both tails
    bce = ad.add(ad.softplus(stop_logits), ad.mul(ad.mul(stop_logits, ad.Tensor(targets)), -1.0))
    return ad.mul(ad.sum_(ad.mul(bce, ad.Tensor(weights))), 1.0 / t)


# -- passes ----------------------------------------------------------------------


def teacher_forced(params, cfg, utterance, prosody_vec, attention_mode):
    """One teacher-forced pass; returns (total loss Tensor, DecoderTrace)."""
    targets = utterance.features
    enc_cond = encode(params, utterance.symbols, prosody_vec)
    enc_proj = ad.matmul(enc_cond, params["att.memory.w"])
    out, alignment = decoder_node(params, cfg, enc_cond, enc_proj, attention_mode, targets)
    y, stop_vec = out[:, :-1], out[:, -1]
    z = postnet(params, y)
    loss = ad.add(spectral_loss(y, z, targets), stop_loss(stop_vec, targets.shape[0], cfg.stop_pos_weight))
    trace = DecoderTrace(
        y=y.data.copy(), z=z.data.copy(), stop_logits=stop_vec.data.copy(), alignment=alignment, targets=targets,
    )
    return loss, trace


@ad.no_grad()
def synthesize(params, cfg, symbols, prosody_vec, attention_mode="augmented"):
    """Autoregressive decode: stops when the stop probability clears the
    threshold, or truncates at max_decode_ratio times the input length.
    Builds no graph, so each step's values are freed as the decode moves on."""
    enc_cond = encode(params, symbols, prosody_vec)
    enc_proj = ad.matmul(enc_cond, params["att.memory.w"])
    out, alignment, truncated, _ = _decode(params, cfg, enc_cond.data, enc_proj.data, attention_mode)
    y = out[:, :-1].copy()
    z = postnet(params, ad.Tensor(y))
    return DecoderTrace(
        y=y, z=z.data.copy(), stop_logits=out[:, -1].copy(), alignment=alignment, truncated=truncated,
    )


# -- training --------------------------------------------------------------------


@dataclass
class TrainResult:
    params: dict
    history: list = field(default_factory=list)
    attention_mode: str = "augmented"


def _epoch_order(seed, epoch, n):
    return np.random.default_rng((seed, 0xE90C4, epoch)).permutation(n)


@ad.no_grad()
def validation_metrics(params, cfg, val_utts, prosody_table, attention_mode):
    """Mean teacher-forced loss and mean alignment entropy over val_utts,
    computed without building a graph."""
    losses, matrices = [], []
    for u in val_utts:
        vec = prosody_table[u.utt_id]
        loss, trace = teacher_forced(params, cfg, u, vec, attention_mode)
        losses.append(float(loss.data))
        matrices.append(trace.alignment)
    return float(np.mean(losses)), align.mean_entropy(matrices)


def _train_batch(params, cfg, opt, utts, vecs, attention_mode):
    """One optimiser step on the mean teacher-forced loss of utts, each
    conditioned on its prosody vector in vecs; returns that loss as a float.
    The graph is freed when this returns: nothing outside keeps a node."""
    opt.zero_grad()
    losses = [teacher_forced(params, cfg, u, vec, attention_mode)[0] for u, vec in zip(utts, vecs)]
    total = losses[0]
    for extra in losses[1:]:
        total = ad.add(total, extra)
    batch_loss = ad.mul(total, 1.0 / len(utts))
    batch_loss.backward()
    opt.step()
    return float(batch_loss.data)


def train(corpus, prosody_table, cfg, attention_mode="augmented", out_dir=None,
          resume=False, log=None):
    """Teacher-forced training over the corpus train split.

    prosody_table maps utt_id -> normalised (pace, pitch_span) pair; the
    conditioning is forced to zero for the first prosody_zero_epochs. The
    entropy log gets one entry per epoch. Checkpoints land in out_dir, which
    is created before the first epoch if missing; with resume=True training
    continues from the last one and the result is bit-identical to an
    uninterrupted run.

    Each batch's forward, backward and optimiser step run with Python's
    cyclic garbage collector paused, since training graphs hold no
    reference cycles and reference counting frees them. The collector is
    process-wide, so cycles made meanwhile by other threads wait until the
    batch ends. It is turned back on after each batch, also when the batch
    raises, unless the caller had it off already.
    """
    train_utts = corpus.split("train")
    val_utts = corpus.split("val")
    if not train_utts:
        raise DataError("train: corpus has no training utterances")
    if corpus.config.feature_width != cfg.frame_width:
        raise ConfigError(f"frame_width {cfg.frame_width} != corpus feature width {corpus.config.feature_width}")
    missing = [u.utt_id for u in corpus.utterances if u.utt_id not in prosody_table]
    if missing:
        raise DataError(f"train: prosody table missing {len(missing)} utterances (e.g. {missing[0]})")

    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)  # an unusable path fails before any training
    params = init_params(cfg, corpus.config.vocab_size)
    opt = ad.SGD(params, lr=cfg.learning_rate, momentum=cfg.momentum, grad_clip=cfg.grad_clip)
    history = []
    start_epoch = 0
    if resume and out_dir is not None and (Path(out_dir) / "checkpoint.bin").exists():
        start_epoch, history = load_checkpoint(Path(out_dir) / "checkpoint.bin", params, opt)

    zeros = np.zeros(2)
    for epoch in range(start_epoch, cfg.epochs):
        use_prosody = epoch >= cfg.prosody_zero_epochs
        order = _epoch_order(cfg.seed, epoch, len(train_utts))
        epoch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_utts[i] for i in order[start:start + cfg.batch_size]]
            vecs = [prosody_table[u.utt_id] if use_prosody else zeros for u in batch]
            # paused around the call, not inside it, so the batch's graph is
            # gone before the collector can walk it
            collecting = gc.isenabled()
            gc.disable()
            try:
                epoch_losses.append(_train_batch(params, cfg, opt, batch, vecs, attention_mode))
            finally:
                if collecting:
                    gc.enable()
        val_prosody = prosody_table if use_prosody else {u.utt_id: zeros for u in val_utts}
        val_loss, val_entropy = validation_metrics(params, cfg, val_utts, val_prosody, attention_mode)
        row = {
            "epoch": epoch,
            "train_loss": float(np.mean(epoch_losses)),
            "val_loss": val_loss,
            "val_entropy": val_entropy,
        }
        history.append(row)
        if log is not None:
            log(row)
        if out_dir is not None:
            save_checkpoint(Path(out_dir) / "checkpoint.bin", params, opt, epoch + 1, history)
    return TrainResult(params=params, history=history, attention_mode=attention_mode)


# -- checkpoints -----------------------------------------------------------------


def save_checkpoint(path, params, opt, next_epoch, history):
    table = {f"model.{k}": p.data for k, p in params.items()}
    table.update(opt.state_tensors())
    table["meta.next_epoch"] = np.array([float(next_epoch)])
    table["meta.history"] = np.array([
        [row["epoch"], row["train_loss"], row["val_loss"], row["val_entropy"]]
        for row in history
    ]).reshape(len(history), 4)
    fileio.save_tensor_table(path, table)


def _whole_numbers(arr):
    return bool(np.all(np.isfinite(arr)) and np.all(arr >= 0) and np.all(arr == np.floor(arr)))


def load_checkpoint(path, params, opt=None):
    """Restore parameters (and optimiser state) in place, all or nothing: a
    missing or misshapen tensor, a meta.next_epoch that is not one whole
    number >= 0, or a meta.history that is not k rows of 4 with whole epoch
    numbers, is a DataError and changes nothing. Returns
    (next_epoch, history)."""
    table = fileio.load_tensor_table(path)
    shapes = {k: p.data.shape for k, p in params.items()}
    arrays = fileio.checked_entries(table, shapes, f"{path}: checkpoint", prefix="model.")
    meta_epoch = table.get("meta.next_epoch")
    if meta_epoch is None or meta_epoch.shape != (1,) or not _whole_numbers(meta_epoch):
        raise DataError(f"{path}: checkpoint meta.next_epoch must be one whole number >= 0, got {meta_epoch!r}")
    meta_history = table.get("meta.history")
    if (meta_history is None or meta_history.ndim != 2 or meta_history.shape[1] != 4
            or not _whole_numbers(meta_history[:, 0])):
        shape = None if meta_history is None else meta_history.shape
        raise DataError(f"{path}: checkpoint meta.history must be (k, 4) rows with whole epoch numbers, "
                        f"got shape {shape}")
    history = [
        {"epoch": int(row[0]), "train_loss": float(row[1]), "val_loss": float(row[2]), "val_entropy": float(row[3])}
        for row in meta_history
    ]
    if opt is not None:
        opt.load_state_tensors(table)  # all or nothing too, and before any parameter is assigned
    for k, arr in arrays.items():
        params[k].data = arr
    return int(meta_epoch[0]), history
