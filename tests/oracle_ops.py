"""Engine ops that only the tests use.

as_node makes one graph node of a library stage's (value, backward) pair,
the form every hand-differentiated stage comes in; the tests check those
stages on such nodes. A stage whose backward leaves its weight gradients
to a function over (T, .) rows is checked through that function at T = 1,
as lstm_node and attention_node do for the engine's two cells. cell_node
is the LSTM cell alone, on its input term, for any batch shape, and
layer_chain, one input projection and then one cell_node per step, is the
per-step reference for autodiff.lstm_layer.

The composed-primitive oracle in oracle_decoder.py rebuilds location
attention, the augmented step and the decoder's selection heads from the
other ops, one graph node per op. Each takes Tensors and is a
prosynth.autodiff.fused node with its own value and backward; their
finite-difference tests are in test_autodiff.py.
"""

import numpy as np

from prosynth import autodiff as ad
from prosynth.errors import ShapeError


def as_node(stage_result, inputs):
    """A library stage's (value, backward) as one graph node over inputs,
    the Tensors or arrays whose gradients backward returns, in its order."""
    value, backward = stage_result
    return ad.fused(value, tuple(inputs), backward)


def data(x):
    return x.data if isinstance(x, ad.Tensor) else x


def cell_node(xw, h, c, wh):
    """autodiff.lstm_step as one node over its four inputs, each a Tensor or
    an array of any leading batch shape: returns (h', c') as the two halves
    of that node. The input term xw's gradient is the gate gradient gz."""
    inputs = (xw, h, c, wh)
    h_new, c_new, step_backward = ad.lstm_step(*map(data, inputs))
    hid = h_new.shape[-1]

    def backward(g):
        g_h, g_c, gz = step_backward(g[..., :hid], g[..., hid:])
        return gz, g_h, g_c, data(h).reshape(-1, hid).T @ gz.reshape(-1, 4 * hid)

    hc = as_node((np.concatenate([h_new, c_new], axis=-1), backward), inputs)
    return hc[..., :hid], hc[..., hid:]


def lstm_node(x, h, c, wx, wh, b):
    """One LSTM cell on its input x, the input term x @ wx + b and then
    autodiff.lstm_step, as one node over its six inputs, each a Tensor or
    an array: returns (h', c') as the two halves of that node. x's
    gradient is wx @ gz, from the step's gate gradient gz."""
    inputs = (x, h, c, wx, wh, b)
    x, h, c, wx, wh, b = map(data, inputs)
    h_new, c_new, step_backward = ad.lstm_step(x @ wx + b, h, c, wh)
    hid = h_new.shape[0]

    def backward(g):
        g_h, g_c, gz = step_backward(g[:hid], g[hid:])
        g_wx, g_wh, g_b = ad.lstm_weight_grads(x[None], h[None], gz[None])
        return wx @ gz, g_h, g_c, g_wx, g_wh, g_b

    hc = as_node((np.concatenate([h_new, c_new]), backward), inputs)
    return hc[:hid], hc[hid:]


def layer_chain(xs, wx, wh, b, reverse=False):
    """autodiff.lstm_layer rebuilt from engine nodes: the input terms
    xs @ wx + b as one matmul and one add over the (T, I) sequence, then one
    cell_node per step from a zero state, in the layer's order."""
    xw = ad.add(ad.matmul(xs, wx), b)
    steps, hid = xs.shape[0], data(wh).shape[0]
    h, c = ad.Tensor(np.zeros(hid)), ad.Tensor(np.zeros(hid))
    rows = [None] * steps
    for t in (range(steps - 1, -1, -1) if reverse else range(steps)):
        h, c = cell_node(xw[t], h, c, wh)
        rows[t] = h
    return stack(rows)


def attention_stage_node(stage_result, inputs):
    """One location attention step's (value, backward), from
    autodiff.location_attention_vjp, as one node over the eight inputs
    (query, enc_proj, prev_align, cum_align, conv_w, loc_w, query_w, v)
    whose values it was made from."""
    value, step_backward = stage_result
    query, _, prev_align, cum_align, conv_w, loc_w, _, _ = map(data, inputs)

    def backward(g):
        g_query, g_prev, g_cum, *rows = step_backward(g)
        g_proj, g_conv, g_loc, g_query_w, g_v = ad.location_attention_weight_grads(
            query[None], prev_align[None], cum_align[None], *(r[None] for r in rows), conv_w, loc_w)
        return g_query, g_proj, g_prev, g_cum, g_conv, g_loc, g_query_w, g_v

    return as_node((value, backward), inputs)


def attention_node(*inputs):
    """autodiff.location_attention_vjp as one node over its inputs, each a
    Tensor or an array, with the alignments prev and cum in place of their
    padded buffer and the two kernel factors conv_w and loc_w in place of
    the composed kernel."""
    query, enc_proj, prev, cum, conv_w, loc_w, query_w, v = map(data, inputs)
    n, k = prev.shape[0], conv_w.shape[0]
    loc = ad.location_input(prev, cum, k)
    kernel = ad.location_kernel(conv_w, loc_w)
    return attention_stage_node(
        ad.location_attention_vjp(query, enc_proj, loc, kernel, ad.window_index(n, k), query_w, v), inputs)


def stack(rows):
    """Stack equal-length 1-D tensors as the rows of a 2-D tensor."""
    rows = tuple(rows)
    data = np.stack([r.data for r in rows])
    if data.ndim != 2:
        raise ShapeError(f"stack: rows must be 1-D, got shape {rows[0].data.shape}")
    return ad.fused(data, rows, lambda g: g)  # a 2-D gradient iterates as its rows


def sigmoid(x):
    """Stable logistic, 0.5 * (1 + tanh(x / 2))."""
    data = 0.5 * (1.0 + np.tanh(0.5 * x.data))
    return ad.fused(data, (x,), lambda g: (g * data * (1.0 - data),))


def softmax(x):
    """Stable softmax over a 1-D vector; output sums to 1."""
    v = x.data
    e = np.exp(v - v.max())
    data = e / e.sum()
    return ad.fused(data, (x,), lambda g: (data * (g - np.dot(g, data)),))


def logsumexp(x):
    """Stable log-sum-exp of a 1-D vector (max-subtraction form)."""
    v = x.data
    m = v.max()
    data = m + np.log(np.exp(v - m).sum())
    return ad.fused(data, (x,), lambda g: (float(g) * np.exp(v - data),))


def clamp_max(x, cap):
    """min(x, cap); gradient passes where x <= cap."""
    v = x.data
    return ad.fused(np.minimum(v, cap), (x,), lambda g: (g * (v <= cap),))


def threshold_keep(x, thr):
    """x where x > thr, else 0. Gradient is identity above, zero below."""
    v = x.data
    mask = v > thr
    return ad.fused(v * mask, (x,), lambda g: (g * mask,))


def div(a, b):
    """Elementwise quotient; same shape or scalar-with-anything."""
    av, bv = a.data, b.data

    def backward(g):
        ga, gb = g / bv, -g * av / (bv * bv)
        # a scalar operand's gradient sums over the broadcast
        return (ga if ga.shape == av.shape else np.sum(ga)), (gb if gb.shape == bv.shape else np.sum(gb))

    return ad.fused(av / bv, (a, b), backward)
