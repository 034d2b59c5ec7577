"""Toy encoder-decoder with attention, at desk scale.

The encoder embeds the symbol sequence (phone id, stress, phrase type,
break/silence flags), runs two 1-D convolutions and a bidirectional
recurrent layer, one autodiff.lstm_layer node per direction, then
concatenates a 2-dim prosody embedding onto every output vector. The
autoregressive decoder eats the previous frame through a double-feed
pre-net: the true previous frame beside the prediction when a true frame is
given (teacher forcing), the prediction twice when none is (free-running
decode). It attends with additive content+location attention, optionally
post-processes each alignment with the structure-preserving augmented
step, and emits one spectral frame plus a stop logit per step. A
convolutional post-net refines the whole utterance residually.

The decoder's recurrence runs on plain arrays, in one loop that
synthesize (free-running, with the stop test) and teacher_forced (fed the
true previous frames) share. Its stages are the pre-net, the two LSTM cells
(autodiff.lstm_step), the location attention, the alpha/beta selection
heads, the augmented step and the readout. Under teacher forcing the whole
decoded utterance is one graph node of shape (T, F+1), rows [y_t, stop
logit], whose backward runs in three parts. First the readout's backward
runs once over the (T, F+1) output gradient and the forward's h2 rows. Then
a loop walks the frames in reverse and holds only the recurrence: the two
cells' input and state gradients, the attention's softmax/tanh chain, the
augmented step and the heads' logit gradients, and the routing of the
recurrent state's gradients. Each frame writes its rows, such as the gate
gradients and the attention's per-position terms, into (T, .) arrays. Last,
every weight gradient is one contraction over those rows: the pre-net's,
both LSTMs', the heads', the attention's and the context projection's. So
the training graph's size does not depend on the length of the input or of
the decode, and without graph building the loop keeps no backwards at all.

The attention context x_c = a_t @ enc_cond enters every stage that reads it
linearly: both LSTMs' input weights, the frame and stop readouts and the
alpha and beta heads each multiply it by a block of C = context_dim rows.
Those blocks are one parameter, side by side: dec.context.w = W_ctx,
(C, 4D + 4D + F + 1 + 2), whose column layout init_params gives. Every
other weight holds only the rows of its other inputs. So the decode never
forms x_c. It projects once per utterance, M = enc_cond @ W_ctx, and each
frame makes one a_t @ M. Each LSTM cell's input term is its input's
product plus its bias and context terms, x @ wx + (b + terms); the heads
and the readout take their projected terms, and plain mode, which runs no
heads, ignores their two columns. In the backward each frame adds M @ g_ctx to a_t's gradient,
where g_ctx, a row of a (T + 1, .) array, is the gradient of that frame's
a_t @ M: its lstm2 gate gradient and output gradient, and the next
frame's lstm1 gate gradient and heads' logit gradients, the stages that
add those terms. After the loop, M's gradient is the (N, T) alignment
times those rows.

The location attention reads enc_cond through a second product, its
memory projection enc_proj = enc_cond @ W_mem, W_mem = att.memory.w. A
decode takes enc_cond alone and makes both products from it once per
utterance, in its DecoderWeights record (below); after the loop
decoder_node differentiates each once, for enc_cond and for W_ctx and
W_mem.

Everything a frame reads that is fixed for the decode is made once, before
the frame loop, into one DecoderWeights record, which every stage and every
*_grads function of the backward takes in place of params. The decode also
owns one padded location buffer [a_prev, cum], which each frame reads and
the loop updates in place, and writes each frame's output row and alignment
column into arrays preallocated for the longest decode. A free run stops
when the stable logistic 0.5 * (1 + tanh(logit / 2)) of the stop logit
clears stop_threshold, which no stop logit, however negative, can overflow.

Training is teacher-forced, deterministic for a fixed seed, with the
prosody conditioning forced to zero for the first few epochs. A step
differentiates its batch one utterance at a time (autodiff.backward_mean),
so its memory is one utterance's graph, whatever the batch size. Validation
alignment entropy is logged every epoch as the convergence diagnostic.
"""

from __future__ import annotations

import gc
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import align
from . import autodiff as ad
from . import fileio
from .errors import ConfigError, DataError

ATTENTION_MODES = ("augmented", "plain")  # plain: the initial alignment is final


# the ModelConfig fields that must be at least 1: the batch size, the
# decode cap and every layer width and kernel size
_AT_LEAST_ONE = ("batch_size", "max_decode_ratio", "symbol_embedding", "stress_embedding", "phrase_embedding",
                 "encoder_conv_channels", "encoder_conv_kernel", "encoder_rnn_width", "decoder_rnn_width",
                 "prenet_hidden", "prenet_out", "attention_dim", "location_filters", "location_kernel",
                 "frame_width", "postnet_channels", "postnet_kernel")


@dataclass
class ModelConfig:
    """Every training hyperparameter, explicit. When loaded from a file all
    fields must be present; omissions are errors, not defaults. A value that
    training or decoding cannot run with is a ConfigError at construction:
    widths, kernels, batch_size and max_decode_ratio below 1, an even
    kernel, negative epoch counts, a learning_rate or stop_pos_weight not
    above 0, a momentum outside [0, 1), a grad_clip not None or above 0, a
    stop_threshold outside [0, 1]."""

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

    def __post_init__(self):
        for name in _AT_LEAST_ONE:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        for name in ("epochs", "prosody_zero_epochs"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be at least 0, got {getattr(self, name)}")
        for name in ("encoder_conv_kernel", "location_kernel", "postnet_kernel"):
            if getattr(self, name) % 2 != 1:
                raise ConfigError(f"{name} must be odd, got {getattr(self, name)}")
        for name in ("learning_rate", "stop_pos_weight"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ConfigError(f"grad_clip must be None or > 0, got {self.grad_clip}")
        if not 0 <= self.stop_threshold <= 1:
            raise ConfigError(f"stop_threshold must be in [0, 1], got {self.stop_threshold}")

    @property
    def context_dim(self):
        return 2 * self.encoder_rnn_width + 2

    def save(self, path):
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def load_model_config(path):
    """Strict loader: every field required, unknown fields rejected. Text
    that is not ASCII JSON, or a missing, unknown or invalid field, is a
    ConfigError naming the file."""
    try:
        return fileio.strict_dataclass(ModelConfig, json.loads(Path(path).read_bytes().decode("ascii")))
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


@dataclass
class DecoderTrace:
    """Everything one decode produced: pre/post-net frames, stop logits, the
    alignment matrix (N x T), and whether the length cap truncated it."""

    y: np.ndarray
    z: np.ndarray
    stop_logits: np.ndarray
    alignment: np.ndarray
    truncated: bool = False

    @property
    def frame_count(self):
        return self.z.shape[0]


# -- parameters -----------------------------------------------------------------


def init_params(cfg, vocab_size):
    """Seeded Glorot init for every weight; returns name -> Tensor.

    Each weight that meets the attention context x_c is drawn whole, with
    the fan-in of all its inputs, and keeps the rows of its other inputs:
    dec.lstm1.wx s_p's, dec.lstm2.wx h1's, out.frame.w and out.stop.w
    h2's, att.alpha.w s_p's then h2's. Their C = context_dim rows for x_c
    are dec.context.w, (C, 4D + 4D + F + 1 + 2), in the column blocks
    lstm1, lstm2, frame, stop, alpha and beta; beta's weight is its column
    alone. Both heads' weights start at zero.
    """
    rng = np.random.default_rng(cfg.seed)
    p = {}
    context = []  # the x_c rows, as (C, .) blocks in dec.context.w's column order

    def par(name, data):
        p[name] = ad.parameter(np.asarray(data, dtype=np.float64), name=name)

    def par_split(name, data, row):
        # data's C rows from row on meet x_c; the rest stay under name
        context.append(data[row:row + ctx].reshape(ctx, -1))
        par(name, np.concatenate([data[:row], data[row + ctx:]]))

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
        for part, data in zip(("wx", "wh", "b"), ad.lstm_weights(rng, conv_c, h)):
            par(f"enc.{d}.{part}", data)

    par("prosody.embed", rng.uniform(-0.5, 0.5, size=(2, 2)))

    ctx = cfg.context_dim
    d = cfg.decoder_rnn_width
    par("dec.prenet1.w", ad.glorot(rng, 2 * cfg.frame_width, cfg.prenet_hidden))
    par("dec.prenet1.b", np.zeros(cfg.prenet_hidden))
    par("dec.prenet2.w", ad.glorot(rng, cfg.prenet_hidden, cfg.prenet_out))
    par("dec.prenet2.b", np.zeros(cfg.prenet_out))
    for name, own in (("lstm1", cfg.prenet_out), ("lstm2", d)):
        wx, wh, b = ad.lstm_weights(rng, own + ctx, d)
        par_split(f"dec.{name}.wx", wx, own)
        par(f"dec.{name}.wh", wh)
        par(f"dec.{name}.b", b)
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
    par("att.alpha.w", np.zeros(cfg.prenet_out + d))
    par("att.alpha.b", 0.0)
    par("att.beta.b", 0.0)

    par_split("out.frame.w", ad.glorot(rng, d + ctx, cfg.frame_width), d)
    par("out.frame.b", np.zeros(cfg.frame_width))
    par_split("out.stop.w", ad.glorot(rng, d + ctx, 1).reshape(-1), d)
    par("out.stop.b", 0.0)
    par("dec.context.w", np.concatenate(context + [np.zeros((ctx, 2))], axis=1))

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
    """Symbol sequence -> (N, 2H) latents, before prosody conditioning. An
    id, stress or phrase value outside the rows of its embedding table is a
    DataError naming the field."""
    for name, table in (("ids", "symbol"), ("stress", "stress"), ("phrase", "phrase")):
        values, rows = getattr(symbols, name), params[f"enc.embed.{table}"].data.shape[0]
        if values.min() < 0 or values.max() >= rows:
            bad = int(values[(values < 0) | (values >= rows)][0])
            raise DataError(f"encoder: {name} value {bad} outside 0..{rows - 1}, the rows of enc.embed.{table}")
    sym = ad.index_rows(params["enc.embed.symbol"], symbols.ids)
    st = ad.index_rows(params["enc.embed.stress"], symbols.stress)
    ph = ad.index_rows(params["enc.embed.phrase"], symbols.phrase)
    flags = ad.Tensor(np.stack([symbols.word_break, symbols.silence], axis=1).astype(np.float64))
    x = ad.concat([sym, st, ph, flags], axis=1)
    x = ad.relu(ad.conv1d(x, params["enc.conv1.w"], params["enc.conv1.b"]))
    x = ad.relu(ad.conv1d(x, params["enc.conv2.w"], params["enc.conv2.b"]))
    fwd = ad.lstm_layer(x, params["enc.fwd.wx"], params["enc.fwd.wh"], params["enc.fwd.b"])
    bwd = ad.lstm_layer(x, params["enc.bwd.wx"], params["enc.bwd.wh"], params["enc.bwd.b"], reverse=True)
    return ad.concat([fwd, bwd], axis=1)


def prosody_embedding(params, prosody_vec):
    """tanh of the unbiased 2x2 projection; zeros map exactly to zeros,
    and None means zeros. Any other prosody_vec than a finite (2,) array is
    a ValueError."""
    vec = np.zeros(2) if prosody_vec is None else np.asarray(prosody_vec, dtype=np.float64)
    if vec.shape != (2,) or not np.all(np.isfinite(vec)):
        raise ValueError(f"prosody vector must be None or a finite (2,) array, got {prosody_vec!r}")
    return ad.tanh(ad.matmul(params["prosody.embed"], ad.Tensor(vec)))


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
# The decoder runs on plain arrays, one decoder_step per frame. Each stage's
# backward is split where the recurrence ends. What a frame's reverse step
# needs comes from the backward that a stage returns with its value:
# (value, backward), where backward maps the value's gradient to the
# gradients the reverse loop routes, in the order its docstring gives. The
# rest, every weight gradient and the input gradients that feed only stages
# outside the loop, comes from the stage's *_grads function over (T, .)
# rows, run once per utterance; one frame is T = 1. The pre-net and the
# readout have no part in the loop and only a *_grads function. Every stage
# and every *_grads function reads its weights from one DecoderWeights
# record, built once per decode.

_PRENET_KEYS = ("dec.prenet1.w", "dec.prenet1.b", "dec.prenet2.w", "dec.prenet2.b")
_LSTM1_KEYS = ("dec.lstm1.wx", "dec.lstm1.wh", "dec.lstm1.b")
_LSTM2_KEYS = ("dec.lstm2.wx", "dec.lstm2.wh", "dec.lstm2.b")
_ATTENTION_KEYS = ("att.location.conv", "att.location.w", "att.query.w", "att.v")
_HEAD_KEYS = ("att.alpha.w", "att.alpha.b", "att.beta.b")
_READOUT_KEYS = ("out.frame.w", "out.frame.b", "out.stop.w", "out.stop.b")
_CELLS = ("h1", "c1", "h2", "c2")  # start from the dec.init.* parameters
_INIT_KEYS = tuple(f"dec.init.{k}" for k in _CELLS)
_PLAIN_KEYS = (_PRENET_KEYS + _LSTM1_KEYS + _LSTM2_KEYS + _INIT_KEYS + _ATTENTION_KEYS + _READOUT_KEYS
               + ("att.memory.w", "dec.context.w"))
_AUGMENTED_KEYS = _PLAIN_KEYS + _HEAD_KEYS


class DecoderWeights:
    """Every array the frames of one decode read, fetched from params once
    per decode, so the frame loop makes no params lookup.

    Built from params and the decode's (N, C) enc_cond array, it holds
    both per-utterance products of enc_cond:

    - ctx_proj = enc_cond @ W_ctx, W_ctx = dec.context.w (kept as w_ctx),
      the context projection every frame reads;
    - enc_proj = enc_cond @ W_mem, W_mem = att.memory.w (kept as w_mem),
      the memory projection the attention reads;
    - the attention's flat (2K, A) location_kernel, its window_index for N
      positions and its query and v weights, and the kernel's two factors,
      which only the weight gradients read;
    - the pre-net's weights, with prenet_w1_free = w1[:F] + w1[F:]: in a
      free-running decode both halves of the pre-net input are the same
      prediction, so its first layer is one (F, .) matmul;
    - both LSTMs' wx, wh and b, and the dec.init.* start state;
    - the alpha head's weight split at the s_p/h2 boundary, and both heads'
      biases as floats;
    - the readout's frame and stop weights side by side, (D, F+1), and its
      (F+1,) bias.

    The arrays are those params held when the record was built; an
    optimiser step assigns new ones, so a record stays the forward's.
    """

    __slots__ = ("ctx_proj", "enc_proj", "w_ctx", "w_mem", "kernel", "index", "conv_w", "loc_w", "query_w", "v",
                 "prenet_w1", "prenet_w1_free", "prenet_b1", "prenet_w2", "prenet_b2",
                 "lstm1_wx", "lstm1_wh", "lstm1_b", "lstm2_wx", "lstm2_wh", "lstm2_b", "init",
                 "alpha_w_s", "alpha_w_h", "alpha_b", "beta_b", "readout_w", "readout_b",
                 "frame_width", "d4", "heads_at", "pad")

    def __init__(self, params, enc_cond):
        data = {k: params[k].data for k in _AUGMENTED_KEYS}
        self.w_ctx, self.w_mem = data["dec.context.w"], data["att.memory.w"]
        self.ctx_proj, self.enc_proj = enc_cond @ self.w_ctx, enc_cond @ self.w_mem
        self.conv_w, self.loc_w, self.query_w, self.v = (data[k] for k in _ATTENTION_KEYS)
        self.kernel = ad.location_kernel(self.conv_w, self.loc_w)
        width = self.conv_w.shape[0]
        self.index = ad.window_index(enc_cond.shape[0], width)
        self.pad = width // 2
        w1, self.prenet_b1, self.prenet_w2, self.prenet_b2 = (data[k] for k in _PRENET_KEYS)
        f = w1.shape[0] // 2
        self.prenet_w1, self.prenet_w1_free = w1, w1[:f] + w1[f:]
        self.lstm1_wx, self.lstm1_wh, self.lstm1_b = (data[k] for k in _LSTM1_KEYS)
        self.lstm2_wx, self.lstm2_wh, self.lstm2_b = (data[k] for k in _LSTM2_KEYS)
        self.init = tuple(data[k] for k in _INIT_KEYS)
        p = self.prenet_w2.shape[1]
        self.alpha_w_s, self.alpha_w_h = data["att.alpha.w"][:p], data["att.alpha.w"][p:]
        self.alpha_b, self.beta_b = float(data["att.alpha.b"]), float(data["att.beta.b"])
        fw, fb, sw, sb = (data[k] for k in _READOUT_KEYS)
        self.readout_w = np.concatenate([fw, sw[:, None]], axis=1)
        self.readout_b = np.append(fb, sb)
        self.frame_width = f
        self.d4 = 4 * self.lstm1_wh.shape[0]
        self.heads_at = 2 * self.d4 + f + 1  # the columns after the LSTMs' and the readout's


def initial_attention(weights, query, loc):
    """Additive content+location attention over encoder positions.

    Location features come from a 1-D convolution over the previous and
    cumulative alignment vectors with the location kernel of weights, a
    DecoderWeights; loc is the decode's padded (N + K - 1, 2) location
    buffer holding them (autodiff.location_input), which a decode updates
    in place. Returns (b_t, backward); backward(g) gives the gradients of
    (query, prev_align, cum_align) and the frame's rows for
    autodiff.location_attention_weight_grads, which gives the enc_proj and
    weight gradients. A buffer whose rows do not fit the encoder's
    positions is a DataError.
    """
    n = weights.enc_proj.shape[0]
    if loc.shape[0] != n + 2 * weights.pad:
        raise DataError(f"attention: {n} encoder rows vs a location buffer of {loc.shape[0]} rows")
    return ad.location_attention_vjp(query, weights.enc_proj, loc, weights.kernel, weights.index, weights.query_w,
                                     weights.v)


def prenet_double_feed(weights, prev_true, prev_pred):
    """Pre-net over x = [true, predicted] under teacher forcing, the
    prediction duplicated when prev_true is None (free-running decode),
    where the first layer is one matmul with the two halves of its weight
    summed (weights.prenet_w1_free).

    Two relu layers. Returns (out, hidden), hidden being the first layer's
    output. Both frames are data, since the decoder feeds its prediction
    back as a constant, so only the weights have gradients: prenet_grads.
    """
    if prev_true is None:
        pre = prev_pred @ weights.prenet_w1_free
    else:
        first = np.asarray(prev_true, dtype=np.float64)
        if first.shape != prev_pred.shape:
            raise ValueError(f"prenet_double_feed: frame widths differ {first.shape} vs {prev_pred.shape}")
        pre = np.concatenate([first, prev_pred]) @ weights.prenet_w1
    hidden = np.maximum(pre + weights.prenet_b1, 0.0)
    return np.maximum(hidden @ weights.prenet_w2 + weights.prenet_b2, 0.0), hidden


def prenet_grads(weights, xs, hiddens, outs, g):
    """The pre-net's backward over T frames: the gradients of its four
    weights (in _PRENET_KEYS order, w1 whole) from the (T, 2F) inputs xs,
    the (T, .) hidden and output rows that prenet_double_feed gave and the
    (T, P) output gradients g."""
    g2 = g * (outs > 0.0)
    g1 = (g2 @ weights.prenet_w2.T) * (hiddens > 0.0)
    return xs.T @ g1, g1.sum(axis=0), hiddens.T @ g2, g2.sum(axis=0)


def selection_heads(weights, s_p, ctx_heads, h2):
    """The augmented step's stage weights [alpha, beta]:
    alpha = sigmoid([s_p, h2] . w_alpha + x_c . c_alpha + b_alpha) and
    beta = sigmoid(x_c . c_beta + b_beta), where c_alpha and c_beta are
    the heads' columns of dec.context.w and x_c enters as its projected
    terms ctx_heads = [x_c . c_alpha, x_c . c_beta]. Returns (heads,
    backward); backward(g) gives the logits' gradient, which is also
    ctx_heads', and h2's. selection_heads_grads gives the rest."""
    aw_h = weights.alpha_w_h
    logits = np.array([s_p @ weights.alpha_w_s + h2 @ aw_h + weights.alpha_b, weights.beta_b]) + ctx_heads
    heads = 0.5 * (1.0 + np.tanh(0.5 * logits))  # stable logistic

    def backward(g):
        g_logits = g * heads * (1.0 - heads)
        return g_logits, g_logits[0] * aw_h

    return heads, backward


def selection_heads_grads(weights, s_ps, h2s, g_logits):
    """The rest of selection_heads' backward over T frames, from the (T, P)
    and (T, D) rows of s_p and h2 and the (T, 2) logit gradients: the
    (T, P) gradients of s_p, then those of w_alpha, of b_alpha and of
    b_beta."""
    ga = g_logits[:, 0]
    return (np.outer(ga, weights.alpha_w_s), ga @ np.concatenate([s_ps, h2s], axis=1), ga.sum(),
            g_logits[:, 1].sum())


def frame_output(weights, h2, ctx_out):
    """The readout as one (F+1,) vector: the frame h2 @ W + x_c @ C_frame
    + b, then the stop logit h2 . w_stop + x_c . c_stop + b_stop, made as
    h2 @ [W, w_stop] + [b, b_stop] + ctx_out, where C_frame and c_stop are
    the readout's columns of dec.context.w and x_c enters as its projected
    terms ctx_out = x_c @ [C_frame, c_stop], an (F+1,) vector. Its
    backward is frame_output_grads."""
    return h2 @ weights.readout_w + weights.readout_b + ctx_out


def frame_output_grads(weights, h2s, g):
    """frame_output's backward over T frames, from the (T, D) rows of h2
    and the (T, F+1) output gradients g: the gradients of h2 and ctx_out
    as (T, .) rows, then of W, of b, of w_stop and of b_stop."""
    g_w = h2s.T @ g
    g_b = g.sum(axis=0)
    return g @ weights.readout_w.T, g, g_w[:, :-1], g_b[:-1], g_w[:, -1], g_b[-1]


def init_decoder_state(weights):
    """The state before the first frame of a decode that reads weights, a
    DecoderWeights (see decoder_step)."""
    h1, c1, h2, c2 = weights.init
    return {
        "h1": h1, "c1": c1, "h2": h2, "c2": c2,
        "ctx": np.zeros(weights.ctx_proj.shape[1]),  # x_c = 0, projected: no context yet
        "a_prev": None,  # no alignment history at t = 0
        "y_prev": np.zeros(weights.frame_width),
    }


class DecoderRows:
    """The (T, .) arrays one teacher-forced backward over T frames fills,
    frame by frame in reverse, for the contractions after its loop.

    ctx has T + 1 rows: row t + 1 is the gradient of frame t's context
    terms a_t @ ctx_proj, and row 0 that of the zero terms before the
    first frame, which no weight reads. So the lstm1 and head columns of
    row t hold frame t's gate and logit gradients, and the lstm2 and
    readout columns of row t + 1 frame t's; in plain mode the head columns
    stay zero. g_h2 holds the readout's h2 gradients, which the loop reads;
    the attention rows and the pre-net's output and hidden rows are written
    by the loop.
    """

    __slots__ = ("ctx", "g_h2", "gterms", "ge", "th", "s_p", "hidden")

    def __init__(self, cfg, steps, n_positions, columns, g_h2):
        a = cfg.attention_dim
        self.ctx = np.zeros((steps + 1, columns))
        self.g_h2 = g_h2
        self.gterms = np.empty((steps, n_positions, a))
        self.ge = np.empty((steps, n_positions))
        self.th = np.empty((steps, n_positions, a))
        self.s_p = np.empty((steps, cfg.prenet_out))
        self.hidden = np.empty((steps, cfg.prenet_hidden))


def decoder_step(weights, state, loc, attention_mode, prev_true=None):
    """Advance one frame on plain arrays: returns (out_t, a_t, new state,
    backward), where out_t is frame_output's (F+1,) vector [y_t, stop
    logit]. weights is the decode's DecoderWeights. Its context projection
    ctx_proj = enc_cond @ W_ctx, (N, 4D + 4D + F + 1 + 2), makes
    a_t @ ctx_proj hold every term of x_c = a_t @ enc_cond that a stage
    adds: the two LSTMs' context terms, which go into their input terms,
    the readout's and the selection heads' (plain mode runs no heads and
    ignores their two columns). The LSTM cells get their input terms whole,
    s_p @ wx1 + (b1 + context terms) and h1 @ wx2 + (b2 + context terms).
    loc is the decode's padded (N + K - 1, 2) location buffer, which holds
    the state's previous and cumulative alignment; the step only reads it,
    and the caller writes a_t into it before the next frame (see _decode).
    prev_true is the true previous frame under teacher forcing, None when
    decoding free-running. attention_mode is one of ATTENTION_MODES; any
    other value is a ValueError.

    While ad.grad_enabled(), backward(t, g_next, rows) is the frame's step
    of the reverse loop, for frame index t: it takes the gradients of the
    new state's h1, c1, h2, c2 and of the a_prev and cum it leaves in the
    buffer, reads the readout's h2 gradient from rows (a DecoderRows) and
    that of its context terms from rows.ctx, writes its rows there, and
    returns the gradients of the same entries of state. It runs the two
    LSTM cells' backwards, the attention's softmax/tanh chain, the
    augmented step's and the heads' and routes the state; every weight
    gradient, and s_p's, is left to the contractions over rows. Under
    no_grad backward is None.
    """
    if attention_mode not in ATTENTION_MODES:
        raise ValueError(f"attention_mode must be one of {ATTENTION_MODES}, got {attention_mode!r}")
    ctx_prev, a_prev = state["ctx"], state["a_prev"]
    d4, heads_at = weights.d4, weights.heads_at
    s_p, hidden = prenet_double_feed(weights, prev_true, state["y_prev"])
    h1, c1, lstm1_backward = ad.lstm_step(s_p @ weights.lstm1_wx + (weights.lstm1_b + ctx_prev[:d4]),
                                          state["h1"], state["c1"], weights.lstm1_wh)
    b_t, attention_backward = initial_attention(weights, h1, loc)
    augment = attention_mode == "augmented" and a_prev is not None
    if augment:
        heads, heads_backward = selection_heads(weights, s_p, ctx_prev[heads_at:], state["h2"])
        a_t, augment_backward = align.augmented_step(b_t, a_prev, heads[0], heads[1])
    else:
        a_t = b_t
    ctx = a_t @ weights.ctx_proj
    wx2 = weights.lstm2_wx
    h2, c2, lstm2_backward = ad.lstm_step(h1 @ wx2 + (weights.lstm2_b + ctx[d4:2 * d4]), state["h2"], state["c2"],
                                          weights.lstm2_wh)
    out_t = frame_output(weights, h2, ctx[2 * d4:heads_at])
    new_state = {
        "h1": h1, "c1": c1, "h2": h2, "c2": c2,
        "ctx": ctx,
        "a_prev": a_t,  # the final alignment feeds both location features
        "y_prev": out_t[:-1],  # autoregressive input, gradient stays local
    }
    if not ad.grad_enabled():
        return out_t, a_t, new_state, None
    ctx_proj = weights.ctx_proj

    def backward(t, g_next, rows):
        rows.s_p[t], rows.hidden[t] = s_p, hidden
        g_ctx = rows.ctx[t + 1]  # complete: frame t + 1 wrote its lstm1 and head columns
        g_h2_prev, g_c2_prev, g_ctx[d4:2 * d4] = lstm2_backward(g_next["h2"] + rows.g_h2[t], g_next["c2"])
        g_h1 = wx2 @ g_ctx[d4:2 * d4]
        g_at = g_next["a_prev"] + g_next["cum"] + ctx_proj @ g_ctx
        if augment:
            g_bt, g_a_prev, g_alpha, g_beta = augment_backward(g_at)
            rows.ctx[t, heads_at:], g_h2_heads = heads_backward(np.array([g_alpha, g_beta]))
            g_h2_prev = g_h2_prev + g_h2_heads
        else:
            g_bt = g_at
        g_query, g_prev_align, g_cum, rows.gterms[t], rows.ge[t], rows.th[t] = attention_backward(g_bt)
        g_h1_prev, g_c1_prev, rows.ctx[t, :d4] = lstm1_backward(
            g_next["h1"] + g_h1 + g_query, g_next["c1"])
        if augment:
            g_prev_align = g_prev_align + g_a_prev
        return {"h1": g_h1_prev, "c1": g_c1_prev, "h2": g_h2_prev, "c2": g_c2_prev,
                "a_prev": g_prev_align, "cum": g_next["cum"] + g_cum}

    return out_t, a_t, new_state, backward


def _decode(weights, cfg, attention_mode, targets=None):
    """Run the decoder recurrence over the arrays of weights, the decode's
    one DecoderWeights record.

    With targets, a (T, F) array, every frame is fed the true previous one
    and the decode runs T frames; without, the decoder runs free until the
    stop probability, the stable logistic 0.5 * (1 + tanh(logit / 2)) of
    the stop logit, clears cfg.stop_threshold, or truncates at
    cfg.max_decode_ratio times the input length. The decode owns one
    location buffer, the zero-padded (N + K - 1, 2) [a_prev, cum] array of
    autodiff.location_input that every frame's attention reads: after each
    frame it writes a_t into the a_prev channel and adds it into the cum
    channel, in place. The output rows and the alignment are preallocated
    for the longest decode and written in place, and a free run's are cut
    where it stopped. Returns (out, alignment, truncated, steps): out is
    (T, F+1) with [y_t, stop logit] rows, the alignment is (N, T), and
    steps is (h1s, h2s, backwards), each frame's h1 and h2 as (T, D) rows
    and its backward, while graph building is on, and None under no_grad.
    """
    n = weights.enc_proj.shape[0]
    frames = cfg.max_decode_ratio * n if targets is None else targets.shape[0]
    out = np.empty((frames, weights.frame_width + 1))
    alignment = np.empty((n, frames))
    loc = np.zeros((n + 2 * weights.pad, 2))
    prev_channel, cum_channel = loc[weights.pad:weights.pad + n].T  # views of the buffer's a_prev and cum
    state = init_decoder_state(weights)
    steps = None
    if ad.grad_enabled():
        width = cfg.decoder_rnn_width
        steps = h1s, h2s, backwards = np.empty((frames, width)), np.empty((frames, width)), []
    prev_true = None if targets is None else np.zeros(weights.frame_width)
    threshold = cfg.stop_threshold
    for t in range(frames):
        out[t], alignment[:, t], state, backward = decoder_step(weights, state, loc, attention_mode, prev_true)
        a_t = state["a_prev"]
        prev_channel[:] = a_t
        cum_channel += a_t
        if steps is not None:
            h1s[t], h2s[t] = state["h1"], state["h2"]
            backwards.append(backward)
        if targets is None:
            if 0.5 * (1.0 + math.tanh(0.5 * float(out[t, -1]))) > threshold:
                # a copy, so a kept alignment does not hold the whole preallocated one
                return out[:t + 1], alignment[:, :t + 1].copy(), False, steps
        else:
            prev_true = targets[t]
    return out, alignment, targets is None, steps


def decoder_node(params, cfg, enc_cond, attention_mode, targets):
    """The teacher-forced decode of one utterance as one graph node.

    enc_cond (N, C) is a Tensor, targets a (T, F) array. Returns (out,
    alignment): out is the (T, F+1) Tensor whose rows are [y_t, stop
    logit], over enc_cond and every decoder weight the mode uses (plain
    mode runs no selection heads), att.memory.w among them; alignment is
    the (N, T) array.

    The forward and the backward read one DecoderWeights record. The
    node's backward runs the readout's backward once, over the output
    gradient and the forward's h2 rows. Its frame loop then walks the
    frames in reverse through each one's backward, which holds only the
    recurrence and writes its rows into a DecoderRows. After the loop every
    weight gradient is one contraction over those rows: the pre-net's, both
    LSTMs', the heads', the attention's and the context projection's;
    lstm1's input gradient, which reaches only the pre-net, is one
    contraction too. The node makes both products of enc_cond that the
    decode reads, and differentiates each once more: the context
    projection enc_cond @ W_ctx, for enc_cond and W_ctx = dec.context.w,
    and the attention's memory projection enc_cond @ W_mem, for enc_cond
    and W_mem = att.memory.w. It depends on its output gradient alone, so
    a second backward adds the same again.
    """
    weights = DecoderWeights(params, enc_cond.data)
    out, alignment, _, steps = _decode(weights, cfg, attention_mode, targets)
    keys = _AUGMENTED_KEYS if attention_mode == "augmented" else _PLAIN_KEYS
    n = enc_cond.shape[0]
    d4, heads_at = weights.d4, weights.heads_at
    final = {k: np.zeros(cfg.decoder_rnn_width) for k in _CELLS}
    final.update(a_prev=np.zeros(n), cum=np.zeros(n))

    def backward(g):
        h1s, h2s, backwards = steps
        frames = len(backwards)
        g_h2, _, *g_readout = frame_output_grads(weights, h2s, g)
        rows = DecoderRows(cfg, frames, n, weights.w_ctx.shape[1], g_h2)
        rows.ctx[1:, 2 * d4:heads_at] = g
        g_state = final
        for t in range(frames - 1, -1, -1):
            g_state = backwards[t](t, g_state, rows)

        grads = dict(zip(_INIT_KEYS, (g_state[k] for k in _CELLS)))
        grads.update(zip(_READOUT_KEYS, g_readout))
        h1_prev = np.concatenate([weights.init[0][None], h1s[:-1]])
        h2_prev = np.concatenate([weights.init[2][None], h2s[:-1]])
        grads.update(zip(_LSTM1_KEYS, ad.lstm_weight_grads(rows.s_p, h1_prev, rows.ctx[:-1, :d4])))
        grads.update(zip(_LSTM2_KEYS, ad.lstm_weight_grads(h1s, h2_prev, rows.ctx[1:, d4:2 * d4])))
        g_s_p = rows.ctx[:-1, :d4] @ weights.lstm1_wx.T
        if attention_mode == "augmented":
            g_s_p_heads, *g_heads = selection_heads_grads(weights, rows.s_p, h2_prev, rows.ctx[:-1, heads_at:])
            g_s_p = g_s_p + g_s_p_heads
            grads.update(zip(_HEAD_KEYS, g_heads))
        # the pre-net's inputs: the true and the predicted previous frame,
        # both zero before the first frame
        fw = weights.frame_width
        xs = np.zeros((frames, 2 * fw))
        xs[1:, :fw] = targets[:-1]
        xs[1:, fw:] = out[:-1, :-1]
        grads.update(zip(_PRENET_KEYS, prenet_grads(weights, xs, rows.hidden, rows.s_p, g_s_p)))
        aligns = alignment.T
        prev_aligns = np.zeros_like(aligns)
        prev_aligns[1:] = aligns[:-1]
        cum_aligns = np.cumsum(prev_aligns, axis=0)
        g_enc_proj, *g_attention = ad.location_attention_weight_grads(
            h1s, prev_aligns, cum_aligns, rows.gterms, rows.ge, rows.th, weights.conv_w, weights.loc_w)
        grads.update(zip(_ATTENTION_KEYS, g_attention))

        g_ctx_proj = alignment @ rows.ctx[1:]
        grads["dec.context.w"] = enc_cond.data.T @ g_ctx_proj
        grads["att.memory.w"] = enc_cond.data.T @ g_enc_proj
        return [g_ctx_proj @ weights.w_ctx.T + g_enc_proj @ weights.w_mem.T, *(grads[k] for k in keys)]

    node = ad.fused(out, (enc_cond, *(params[k] for k in keys)), backward)
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
    out, alignment = decoder_node(params, cfg, enc_cond, attention_mode, targets)
    y, stop_vec = out[:, :-1], out[:, -1]
    z = postnet(params, y)
    loss = ad.add(spectral_loss(y, z, targets), stop_loss(stop_vec, targets.shape[0], cfg.stop_pos_weight))
    trace = DecoderTrace(y=y.data.copy(), z=z.data.copy(), stop_logits=stop_vec.data.copy(), alignment=alignment)
    return loss, trace


@ad.no_grad()
def synthesize(params, cfg, symbols, prosody_vec, attention_mode="augmented"):
    """Autoregressive decode: stops when the stop probability clears the
    threshold, or truncates at max_decode_ratio times the input length.
    Builds no graph, so each step's values are freed as the decode moves on."""
    enc_cond = encode(params, symbols, prosody_vec)
    weights = DecoderWeights(params, enc_cond.data)
    out, alignment, truncated, _ = _decode(weights, cfg, attention_mode)
    y = out[:, :-1].copy()
    z = postnet(params, ad.Tensor(y))
    return DecoderTrace(
        y=y, z=z.data.copy(), stop_logits=out[:, -1].copy(), alignment=alignment, truncated=truncated,
    )


# -- training --------------------------------------------------------------------


# one row per epoch in TrainResult.history and in a checkpoint's
# meta.history, in this column order; the epoch is a whole number
HISTORY_COLUMNS = ("epoch", "train_loss", "val_loss", "val_entropy")


@dataclass
class TrainResult:
    params: dict
    history: list = field(default_factory=list)


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
    Each utterance's graph is built, differentiated and freed before the
    next one's is built, last utterance first (see ad.backward_mean)."""
    opt.zero_grad()
    loss = ad.backward_mean(
        lambda i: teacher_forced(params, cfg, utts[i], vecs[i], attention_mode)[0], len(utts))
    opt.step()
    return loss


def _check_resume_config(path, cfg):
    """A resume must train with the config that wrote its checkpoint; only
    epochs, the run's length, may change. Anything else is a ConfigError
    naming the changed fields."""
    saved = load_model_config(path)
    changed = [f.name for f in fields(cfg) if f.name != "epochs" and getattr(saved, f.name) != getattr(cfg, f.name)]
    if changed:
        raise ConfigError(f"{path}: resume with a config that differs in {', '.join(changed)}")


def train(corpus, prosody_table, cfg, attention_mode="augmented", out_dir=None,
          resume=False, log=None):
    """Teacher-forced training over the corpus train split.

    prosody_table maps utt_id -> normalised (pace, pitch_span) pair; the
    conditioning is forced to zero for the first prosody_zero_epochs. The
    entropy log gets one entry per epoch. Checkpoints land in out_dir, which
    is created before the first epoch if missing, each beside the
    config.json that trained it; with resume=True training continues from
    the last one and the result is bit-identical to an uninterrupted run. A
    resume whose cfg differs from that config.json in any field but epochs,
    or whose attention_mode differs from the checkpoint's, is a
    ConfigError. A corpus without train or val utterances is a DataError.

    A batch's step is the mean of its utterances' losses, but each
    utterance's graph is built, differentiated and freed before the next
    one's is built, so a step holds one utterance's graph at a time. A
    batch that raises, such as on a non-finite loss or gradient, leaves the
    parameters and optimiser state unchanged, although their .grad may hold
    part of the batch's sum until the next zero_grad.

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
    if not val_utts:
        raise DataError("train: corpus has no validation utterances")
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
        _check_resume_config(Path(out_dir) / "config.json", cfg)
        start_epoch, history, saved_mode = load_checkpoint(Path(out_dir) / "checkpoint.bin", params, opt)
        if saved_mode != attention_mode:
            raise ConfigError(f"{Path(out_dir) / 'checkpoint.bin'}: resume in {attention_mode!r} attention mode "
                              f"of a run trained in {saved_mode!r}")

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
        row = dict(zip(HISTORY_COLUMNS, (epoch, float(np.mean(epoch_losses)), val_loss, val_entropy)))
        history.append(row)
        if log is not None:
            log(row)
        if out_dir is not None:
            cfg.save(Path(out_dir) / "config.json")
            save_checkpoint(Path(out_dir) / "checkpoint.bin", params, opt, epoch + 1, history, attention_mode)
    return TrainResult(params=params, history=history)


# -- checkpoints -----------------------------------------------------------------


def save_checkpoint(path, params, opt, next_epoch, history, attention_mode):
    """Write parameters, optimiser state and meta entries: the next epoch,
    the history rows and the index of attention_mode in ATTENTION_MODES."""
    table = {f"model.{k}": p.data for k, p in params.items()}
    table.update(opt.state_tensors())
    table["meta.next_epoch"] = np.array([float(next_epoch)])
    table["meta.attention_mode"] = np.array([float(ATTENTION_MODES.index(attention_mode))])
    table["meta.history"] = np.array([[row[k] for k in HISTORY_COLUMNS] for row in history]).reshape(
        len(history), len(HISTORY_COLUMNS))
    fileio.save_tensor_table(path, table)


def _whole_numbers(arr):
    return bool(np.all(np.isfinite(arr)) and np.all(arr >= 0) and np.all(arr == np.floor(arr)))


def load_checkpoint(path, params, opt=None):
    """Restore parameters (and optimiser state) in place, all or nothing: a
    missing or misshapen tensor, a meta.next_epoch that is not one whole
    number >= 0, a meta.attention_mode that is not one whole number
    indexing ATTENTION_MODES, or a meta.history that is not k rows of
    HISTORY_COLUMNS with whole epoch numbers, is a DataError and changes
    nothing. Returns (next_epoch, history, attention_mode)."""
    table = fileio.load_tensor_table(path)
    shapes = {k: p.data.shape for k, p in params.items()}
    arrays = fileio.checked_entries(table, shapes, f"{path}: checkpoint", prefix="model.")
    meta_epoch = table.get("meta.next_epoch")
    if meta_epoch is None or meta_epoch.shape != (1,) or not _whole_numbers(meta_epoch):
        raise DataError(f"{path}: checkpoint meta.next_epoch must be one whole number >= 0, got {meta_epoch!r}")
    meta_mode = table.get("meta.attention_mode")
    if (meta_mode is None or meta_mode.shape != (1,) or not _whole_numbers(meta_mode)
            or meta_mode[0] >= len(ATTENTION_MODES)):
        raise DataError(f"{path}: checkpoint meta.attention_mode must be one whole number indexing "
                        f"{ATTENTION_MODES}, got {meta_mode!r}")
    meta_history = table.get("meta.history")
    if (meta_history is None or meta_history.ndim != 2 or meta_history.shape[1] != len(HISTORY_COLUMNS)
            or not _whole_numbers(meta_history[:, 0])):
        shape = None if meta_history is None else meta_history.shape
        raise DataError(f"{path}: checkpoint meta.history must be (k, {len(HISTORY_COLUMNS)}) rows with whole "
                        f"epoch numbers, got shape {shape}")
    history = [dict(zip(HISTORY_COLUMNS, [int(row[0]), *map(float, row[1:])])) for row in meta_history]
    if opt is not None:
        opt.load_state_tensors(table)  # all or nothing too, and before any parameter is assigned
    for k, arr in arrays.items():
        params[k].data = arr
    return int(meta_epoch[0]), history, ATTENTION_MODES[int(meta_mode[0])]
