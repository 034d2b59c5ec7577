"""The decoder as a graph of per-frame Tensor nodes: the reference that the
library's one-node-per-utterance decoder (seq2seq.decoder_node) and its
free-running decode (seq2seq.synthesize) are tested against.

decoder_step, teacher_forced and synthesize below advance one frame at a
time on autodiff Tensors and let Tensor.backward route every gradient. They run in
one of two forms, chosen by an ops table:

- FUSED: each decoder stage is one node whose backward is the library
  stage's own (seq2seq's stage functions and align.augmented_step, each
  wrapped by as_node), with the weight gradients from the stage's
  function over rows at T = 1, so only the routing between stages and
  the order of the sums over frames differ from the library. Like the
  library, it projects the context once per utterance,
  M = enc_cond @ W_ctx with W_ctx = dec.context.w, and each frame reads
  its context terms from a_t @ M: the LSTMs through their bias argument,
  the heads and the readout as their projected terms;
- COMPOSED: each stage is rebuilt from engine primitives and the ops in
  oracle_ops.py, one node per primitive op, so nothing of the library's
  hand-written backwards is used. Each frame forms x_c = a_t @ enc_cond,
  and every stage reads [its other inputs, x_c] through its whole weight,
  rebuilt with engine ops as the weight's own rows with its columns of
  dec.context.w (context_block) in x_c's place.

Both forms run the decoder LSTMs as oracle_ops.lstm_node, the engine's
lstm_step as one node. The state's "ctx" entry is the previous frame's
context in the form's own terms: a_t @ M or x_c.
"""

from types import SimpleNamespace

import numpy as np

from prosynth import align, seq2seq
from prosynth import autodiff as ad

from oracle_ops import (as_node, attention_stage_node, clamp_max, div, logsumexp, lstm_node, sigmoid, softmax, stack,
                        threshold_keep)

PRENET_KEYS = ("dec.prenet1.w", "dec.prenet1.b", "dec.prenet2.w", "dec.prenet2.b")
HEAD_KEYS = ("att.alpha.w", "att.alpha.b", "att.beta.b")
READOUT_KEYS = ("out.frame.w", "out.frame.b", "out.stop.w", "out.stop.b")
ATTENTION_KEYS = ("att.location.conv", "att.location.w", "att.query.w", "att.v")
CONTEXT_BLOCKS = ("lstm1", "lstm2", "frame", "stop", "alpha", "beta")  # dec.context.w's columns, in order


def context_columns(params, stage):
    """The slice of dec.context.w's columns that hold the rows of stage's
    whole weight that x_c meets, stage one of CONTEXT_BLOCKS: 4D for each
    LSTM, F for the frame, 1 for the stop logit and for each head."""
    d4, f = 4 * params["dec.lstm1.wh"].shape[0], params["out.frame.b"].shape[0]
    widths = (d4, d4, f, 1, 1, 1)
    i = CONTEXT_BLOCKS.index(stage)
    lo = sum(widths[:i])
    return slice(lo, lo + widths[i])


def context_block(params, stage):
    return params["dec.context.w"][:, context_columns(params, stage)]


# -- FUSED: the library's stages, one node each ---------------------------------------


def weights(params, keys):
    return [params[k].data for k in keys]


def fused_prenet(params, prev_true, prev_pred):
    pred = prev_pred.data
    out, hidden = seq2seq.prenet_double_feed(params, prev_true, pred)
    x = np.concatenate([pred if prev_true is None else prev_true, pred])
    return as_node((out, lambda g: seq2seq.prenet_grads(weights(params, PRENET_KEYS), x[None], hidden[None],
                                                        out[None], g[None])),
                   (params[k] for k in PRENET_KEYS))


def fused_selection_heads(params, s_p, ctx_heads, h2):
    heads, step_backward = seq2seq.selection_heads(params, s_p.data, ctx_heads.data, h2.data)

    def backward(g):
        g_logits, g_h2 = step_backward(g)
        g_s_p, *g_w = seq2seq.selection_heads_grads(weights(params, HEAD_KEYS), s_p.data[None], h2.data[None],
                                                    g_logits[None])
        return (g_s_p, g_logits, g_h2, *g_w)

    return as_node((heads, backward), (s_p, ctx_heads, h2, *(params[k] for k in HEAD_KEYS)))


def fused_frame_output(params, h2, ctx_out):
    out = seq2seq.frame_output(params, h2.data, ctx_out.data)
    return as_node((out, lambda g: seq2seq.frame_output_grads(weights(params, READOUT_KEYS), h2.data[None], g[None])),
                   (h2, ctx_out, *(params[k] for k in READOUT_KEYS)))


def fused_context(params, cfg, enc_cond, attention_mode):
    """M = enc_cond @ W_ctx, W_ctx = dec.context.w: (N, 4D + 4D + F + 1 + 2),
    whose head columns plain mode ignores."""
    return ad.matmul(enc_cond, params["dec.context.w"])


def fused_lstm(layer, params, x, ctx, h, c):
    # layer 1 reads the first 4D context terms, layer 2 the next 4D
    d4 = 4 * h.shape[0]
    terms = ctx[:d4] if layer == 1 else ctx[d4:2 * d4]
    return lstm_node(x, h, c, params[f"dec.lstm{layer}.wx"], params[f"dec.lstm{layer}.wh"],
                     ad.add(params[f"dec.lstm{layer}.b"], terms))


def readout_end(params, h2):
    # the context terms run [lstm1 (4D), lstm2 (4D), readout (F+1), heads]
    return 8 * h2.shape[0] + params["out.frame.b"].shape[0] + 1


def fused_heads_step(params, s_p, ctx, h2):
    return fused_selection_heads(params, s_p, ctx[readout_end(params, h2):], h2)


def fused_readout_step(params, h2, ctx):
    return fused_frame_output(params, h2, ctx[8 * h2.shape[0]:readout_end(params, h2)])


def fused_initial_attention(params, query, enc_proj, prev_align, cum_align):
    b_t = seq2seq.initial_attention(params, query.data, enc_proj.data, prev_align.data, cum_align.data,
                                    seq2seq.location_kernel(params))
    return attention_stage_node(b_t, (query, enc_proj, prev_align, cum_align, *(params[k] for k in ATTENTION_KEYS)))


def fused_augmented_step(b_t, b_prev, alpha, beta):
    return as_node(align.augmented_step(b_t.data, b_prev.data, alpha.data, beta.data), (b_t, b_prev, alpha, beta))


FUSED = SimpleNamespace(context=fused_context, prenet=fused_prenet, lstm=fused_lstm,
                        initial_attention=fused_initial_attention, selection_heads=fused_heads_step,
                        augmented_step=fused_augmented_step, frame_output=fused_readout_step, stack=stack)


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


def context_vector(params, stage):
    """A one-column context block as a (C,) vector."""
    return ad.reshape(context_block(params, stage), (-1,))


def composed_selection_heads(params, s_p, x_c, h2):
    # alpha's whole weight meets [s_p, x_c, h2], beta's x_c alone
    aw, p = params["att.alpha.w"], s_p.shape[0]
    w_alpha = ad.concat([aw[:p], context_vector(params, "alpha"), aw[p:]])
    alpha = sigmoid(ad.add(ad.matmul(ad.concat([s_p, x_c, h2]), w_alpha), params["att.alpha.b"]))
    beta = sigmoid(ad.add(ad.matmul(x_c, context_vector(params, "beta")), params["att.beta.b"]))
    return ad.concat([ad.reshape(alpha, (1,)), ad.reshape(beta, (1,))])


def composed_frame_output(params, h2, x_c):
    readout = ad.concat([h2, x_c])
    w_frame = ad.concat([params["out.frame.w"], context_block(params, "frame")])
    w_stop = ad.concat([params["out.stop.w"], context_vector(params, "stop")])
    y = ad.add(ad.matmul(readout, w_frame), params["out.frame.b"])
    stop = ad.add(ad.matmul(readout, w_stop), params["out.stop.b"])
    return ad.concat([y, ad.reshape(stop, (1,))])


def composed_stack(rows):
    return ad.concat([ad.reshape(r, (1, r.shape[0])) for r in rows], axis=0)


def composed_context(params, cfg, enc_cond, attention_mode):
    return enc_cond  # each frame forms x_c = a_t @ enc_cond


def composed_lstm(layer, params, x, x_c, h, c):
    wx = ad.concat([params[f"dec.lstm{layer}.wx"], context_block(params, f"lstm{layer}")])
    return lstm_node(ad.concat([x, x_c]), h, c, wx, params[f"dec.lstm{layer}.wh"], params[f"dec.lstm{layer}.b"])


COMPOSED = SimpleNamespace(context=composed_context, prenet=composed_prenet, lstm=composed_lstm,
                           initial_attention=composed_initial_attention, selection_heads=composed_selection_heads,
                           augmented_step=composed_augmented_step, frame_output=composed_frame_output,
                           stack=composed_stack)


# -- the per-frame decoder ----------------------------------------------------------------


def init_decoder_state(params, cfg, context):
    return {
        "h1": params["dec.init.h1"], "c1": params["dec.init.c1"],
        "h2": params["dec.init.h2"], "c2": params["dec.init.c2"],
        "ctx": ad.Tensor(np.zeros(context.shape[1])),
        "a_prev": None,
        "cum": ad.Tensor(np.zeros(context.shape[0])),
        "y_prev": ad.Tensor(np.zeros(cfg.frame_width)),
    }


def decoder_step(ops, params, state, context, enc_proj, attention_mode, prev_true=None):
    """One frame as Tensor nodes: returns (out_t, a_t, new state). context
    is what ops.context made of enc_cond."""
    s_p = ops.prenet(params, prev_true, state["y_prev"])
    h1, c1 = ops.lstm(1, params, s_p, state["ctx"], state["h1"], state["c1"])
    n = context.shape[0]
    prev_align = state["a_prev"] if state["a_prev"] is not None else ad.Tensor(np.zeros(n))
    b_t = ops.initial_attention(params, h1, enc_proj, prev_align, state["cum"])
    if attention_mode == "augmented" and state["a_prev"] is not None:
        heads = ops.selection_heads(params, s_p, state["ctx"], state["h2"])
        a_t = ops.augmented_step(b_t, state["a_prev"], heads[0], heads[1])
    else:
        a_t = b_t
    ctx = ad.matmul(a_t, context)
    h2, c2 = ops.lstm(2, params, h1, ctx, state["h2"], state["c2"])
    out_t = ops.frame_output(params, h2, ctx)
    new_state = {
        "h1": h1, "c1": c1, "h2": h2, "c2": c2, "ctx": ctx, "a_prev": a_t,
        "cum": ad.add(state["cum"], a_t),
        "y_prev": ad.Tensor(out_t.data[:-1]),
    }
    return out_t, a_t, new_state


def decode(ops, params, cfg, enc_cond, enc_proj, attention_mode, targets=None):
    """The decode as Tensor nodes, the counterpart of seq2seq._decode:
    teacher-forced over targets, a (T, F) array, or free-running without,
    until the stop probability clears cfg.stop_threshold or the length
    reaches cfg.max_decode_ratio times the input length. Returns ((T, F+1)
    Tensor, (N, T) alignment array, truncated)."""
    context = ops.context(params, cfg, enc_cond, attention_mode)
    state = init_decoder_state(params, cfg, context)
    frames = cfg.max_decode_ratio * enc_cond.shape[0] if targets is None else targets.shape[0]
    outs, aligns = [], []
    truncated = targets is None
    for t in range(frames):
        prev_true = None if targets is None else (targets[t - 1] if t > 0 else np.zeros(cfg.frame_width))
        out_t, a_t, state = decoder_step(ops, params, state, context, enc_proj, attention_mode, prev_true)
        outs.append(out_t)
        aligns.append(a_t.data)
        if targets is None and 1.0 / (1.0 + np.exp(-float(out_t.data[-1]))) > cfg.stop_threshold:
            truncated = False
            break
    return ops.stack(outs), np.stack(aligns, axis=1), truncated


@ad.no_grad()
def synthesize(ops, params, cfg, symbols, prosody_vec, attention_mode):
    """seq2seq.synthesize with the per-frame decoder: each frame is fed its
    own previous prediction. Returns a DecoderTrace."""
    enc_cond = seq2seq.encode(params, symbols, prosody_vec)
    enc_proj = ad.matmul(enc_cond, params["att.memory.w"])
    out, alignment, truncated = decode(ops, params, cfg, enc_cond, enc_proj, attention_mode)
    y = out[:, :-1]
    z = seq2seq.postnet(params, y)
    return seq2seq.DecoderTrace(y=y.data.copy(), z=z.data.copy(), stop_logits=out.data[:, -1].copy(),
                                alignment=alignment, truncated=truncated)


def teacher_forced(ops, params, cfg, utterance, prosody_vec, attention_mode):
    """seq2seq.teacher_forced with the per-frame decoder: (loss, trace)."""
    targets = utterance.features
    enc_cond = seq2seq.encode(params, utterance.symbols, prosody_vec)
    enc_proj = ad.matmul(enc_cond, params["att.memory.w"])
    out, alignment, _ = decode(ops, params, cfg, enc_cond, enc_proj, attention_mode, targets)
    y, stop_vec = out[:, :-1], out[:, -1]
    z = seq2seq.postnet(params, y)
    loss = ad.add(seq2seq.spectral_loss(y, z, targets),
                  seq2seq.stop_loss(stop_vec, targets.shape[0], cfg.stop_pos_weight))
    trace = seq2seq.DecoderTrace(y=y.data.copy(), z=z.data.copy(), stop_logits=stop_vec.data.copy(),
                                 alignment=alignment)
    return loss, trace
