"""The decoder as a graph of per-frame Tensor nodes: the reference that the
library's one-node-per-utterance decoder (seq2seq.decoder_node) is tested
against.

decoder_step and teacher_forced below advance one frame at a time on
autodiff Tensors and let Tensor.backward route every gradient. They run in
one of two forms, chosen by an ops table:

- FUSED: each decoder stage is one node whose backward is the library
  stage's own (seq2seq's stage functions and align.augmented_step, each
  wrapped by as_node), so only the routing between stages differs from
  the library;
- COMPOSED: each stage is rebuilt from engine primitives and the ops in
  oracle_ops.py, one node per primitive op, so nothing of the library's
  hand-written backwards is used.

Both forms run the decoder LSTMs as the engine's lstm_step on the
concatenation of the cell's input parts.
"""

from types import SimpleNamespace

import numpy as np

from prosynth import align, seq2seq
from prosynth import autodiff as ad

from oracle_ops import as_node, clamp_max, div, logsumexp, sigmoid, softmax, threshold_keep

PRENET_KEYS = ("dec.prenet1.w", "dec.prenet1.b", "dec.prenet2.w", "dec.prenet2.b")
HEAD_KEYS = ("att.alpha.w", "att.alpha.b", "att.beta.w", "att.beta.b")
READOUT_KEYS = ("out.frame.w", "out.frame.b", "out.stop.w", "out.stop.b")
ATTENTION_KEYS = ("att.location.conv", "att.location.w", "att.query.w", "att.v")


# -- FUSED: the library's stages, one node each ---------------------------------------


def fused_prenet(params, prev_true, prev_pred):
    return as_node(seq2seq.prenet_double_feed(params, prev_true, prev_pred.data), (params[k] for k in PRENET_KEYS))


def fused_selection_heads(params, s_p, x_c, h2):
    return as_node(seq2seq.selection_heads(params, s_p.data, x_c.data, h2.data),
                   (s_p, x_c, h2, *(params[k] for k in HEAD_KEYS)))


def fused_frame_output(params, h2, x_c):
    return as_node(seq2seq.frame_output(params, h2.data, x_c.data), (h2, x_c, *(params[k] for k in READOUT_KEYS)))


def fused_initial_attention(params, query, enc_proj, prev_align, cum_align):
    return as_node(seq2seq.initial_attention(params, query.data, enc_proj.data, prev_align.data, cum_align.data),
                   (query, enc_proj, prev_align, cum_align, *(params[k] for k in ATTENTION_KEYS)))


def fused_augmented_step(b_t, b_prev, alpha, beta):
    return as_node(align.augmented_step(b_t.data, b_prev.data, alpha.data, beta.data), (b_t, b_prev, alpha, beta))


FUSED = SimpleNamespace(prenet=fused_prenet, initial_attention=fused_initial_attention,
                        selection_heads=fused_selection_heads, augmented_step=fused_augmented_step,
                        frame_output=fused_frame_output, stack=ad.stack)


# -- COMPOSED: every stage from primitives -------------------------------------------


def composed_initial_attention(params, query, enc_proj, prev_align, cum_align):
    n = prev_align.shape[0]
    loc_in = ad.concat([ad.reshape(prev_align, (n, 1)), ad.reshape(cum_align, (n, 1))], axis=1)
    loc = ad.conv1d(loc_in, params["att.location.conv"])
    terms = ad.add(enc_proj, ad.matmul(loc, params["att.location.w"]))
    terms = ad.add(terms, ad.matmul(query, params["att.query.w"]))
    return softmax(ad.matmul(ad.tanh(terms), params["att.v"]))


def composed_shift(v):
    n = v.shape[0]
    if n == 1:
        return v
    zero = ad.Tensor(np.zeros(1))
    tail = ad.reshape(ad.sum_(v[n - 2:]), (1,))
    if n == 2:
        return ad.concat([zero, tail])
    return ad.concat([zero, v[:n - 2], tail])


def composed_metric(c):
    n = c.shape[0]
    peak = ad.mul(logsumexp(ad.mul(c, 10.0)), 0.1)
    if n == 1:
        sharp = ad.Tensor(1.0)
    else:
        sumsq = ad.sum_(ad.mul(c, c))
        sharp = clamp_max(ad.mul(ad.add(ad.mul(sumsq, float(n)), -1.0), 1.67 / (n - 1)), 1.0)
    return clamp_max(threshold_keep(ad.mul(peak, sharp), 0.12), 1.0)


def one_minus(x):
    return ad.add(ad.mul(x, -1.0), 1.0)


def composed_augmented_step(b_t, b_prev, alpha, beta):
    d = ad.add(ad.mul(composed_shift(b_prev), alpha), ad.mul(b_prev, one_minus(alpha)))
    gamma = ad.mul(composed_metric(b_t), one_minus(composed_metric(d)))
    raw = ad.add(ad.mul(ad.mul(d, beta), one_minus(gamma)), ad.mul(ad.mul(b_t, one_minus(beta)), gamma))
    total = ad.sum_(raw)
    if float(total.data) < 1e-8:
        return d
    return div(raw, total)


def composed_prenet(params, prev_true, prev_pred):
    first = prev_pred if prev_true is None else ad.Tensor(prev_true)
    x = ad.concat([first, prev_pred])
    h = ad.relu(ad.add(ad.matmul(x, params["dec.prenet1.w"]), params["dec.prenet1.b"]))
    return ad.relu(ad.add(ad.matmul(h, params["dec.prenet2.w"]), params["dec.prenet2.b"]))


def composed_selection_heads(params, s_p, x_c, h2):
    head_in = ad.concat([s_p, x_c, h2])
    alpha = sigmoid(ad.add(ad.matmul(head_in, params["att.alpha.w"]), params["att.alpha.b"]))
    beta = sigmoid(ad.add(ad.matmul(x_c, params["att.beta.w"]), params["att.beta.b"]))
    return ad.concat([ad.reshape(alpha, (1,)), ad.reshape(beta, (1,))])


def composed_frame_output(params, h2, x_c):
    readout = ad.concat([h2, x_c])
    y = ad.add(ad.matmul(readout, params["out.frame.w"]), params["out.frame.b"])
    stop = ad.add(ad.matmul(readout, params["out.stop.w"]), params["out.stop.b"])
    return ad.concat([y, ad.reshape(stop, (1,))])


def composed_stack(rows):
    return ad.concat([ad.reshape(r, (1, r.shape[0])) for r in rows], axis=0)


COMPOSED = SimpleNamespace(prenet=composed_prenet, initial_attention=composed_initial_attention,
                           selection_heads=composed_selection_heads, augmented_step=composed_augmented_step,
                           frame_output=composed_frame_output, stack=composed_stack)


# -- the per-frame decoder ----------------------------------------------------------------


def init_decoder_state(params, cfg, n_positions):
    return {
        "h1": params["dec.init.h1"], "c1": params["dec.init.c1"],
        "h2": params["dec.init.h2"], "c2": params["dec.init.c2"],
        "x_c": ad.Tensor(np.zeros(cfg.context_dim)),
        "a_prev": None,
        "cum": ad.Tensor(np.zeros(n_positions)),
        "y_prev": ad.Tensor(np.zeros(cfg.frame_width)),
    }


def decoder_step(ops, params, state, enc_cond, enc_proj, attention_mode, prev_true=None):
    """One frame as Tensor nodes: returns (out_t, a_t, new state)."""
    s_p = ops.prenet(params, prev_true, state["y_prev"])
    h1, c1 = ad.lstm_step(ad.concat([s_p, state["x_c"]]), state["h1"], state["c1"],
                          params["dec.lstm1.wx"], params["dec.lstm1.wh"], params["dec.lstm1.b"])
    n = enc_cond.shape[0]
    prev_align = state["a_prev"] if state["a_prev"] is not None else ad.Tensor(np.zeros(n))
    b_t = ops.initial_attention(params, h1, enc_proj, prev_align, state["cum"])
    if attention_mode == "augmented" and state["a_prev"] is not None:
        heads = ops.selection_heads(params, s_p, state["x_c"], state["h2"])
        a_t = ops.augmented_step(b_t, state["a_prev"], heads[0], heads[1])
    else:
        a_t = b_t
    x_c = ad.matmul(a_t, enc_cond)
    h2, c2 = ad.lstm_step(ad.concat([h1, x_c]), state["h2"], state["c2"],
                          params["dec.lstm2.wx"], params["dec.lstm2.wh"], params["dec.lstm2.b"])
    out_t = ops.frame_output(params, h2, x_c)
    new_state = {
        "h1": h1, "c1": c1, "h2": h2, "c2": c2, "x_c": x_c, "a_prev": a_t,
        "cum": ad.add(state["cum"], a_t),
        "y_prev": ad.Tensor(out_t.data[:-1]),
    }
    return out_t, a_t, new_state


def decode(ops, params, cfg, enc_cond, enc_proj, attention_mode, targets):
    """Teacher-forced frames as Tensor nodes: returns ((T, F+1) Tensor,
    (N, T) alignment array), the counterpart of seq2seq.decoder_node."""
    state = init_decoder_state(params, cfg, enc_cond.shape[0])
    outs, aligns = [], []
    for t in range(targets.shape[0]):
        prev_true = targets[t - 1] if t > 0 else np.zeros(cfg.frame_width)
        out_t, a_t, state = decoder_step(ops, params, state, enc_cond, enc_proj, attention_mode, prev_true)
        outs.append(out_t)
        aligns.append(a_t.data)
    return ops.stack(outs), np.stack(aligns, axis=1)


def teacher_forced(ops, params, cfg, utterance, prosody_vec, attention_mode):
    """seq2seq.teacher_forced with the per-frame decoder: (loss, trace)."""
    targets = utterance.features
    enc_cond = seq2seq.encode(params, utterance.symbols, prosody_vec)
    enc_proj = ad.matmul(enc_cond, params["att.memory.w"])
    out, alignment = decode(ops, params, cfg, enc_cond, enc_proj, attention_mode, targets)
    y, stop_vec = out[:, :-1], out[:, -1]
    z = seq2seq.postnet(params, y)
    loss = ad.add(seq2seq.spectral_loss(y, z, targets),
                  seq2seq.stop_loss(stop_vec, targets.shape[0], cfg.stop_pos_weight))
    trace = seq2seq.DecoderTrace(y=y.data.copy(), z=z.data.copy(), stop_logits=stop_vec.data.copy(),
                                 alignment=alignment, targets=targets)
    return loss, trace
