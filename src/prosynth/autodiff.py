"""Minimal reverse-mode differentiation engine.

Eager, tape-free design: every operation immediately computes its numpy
value and makes one graph node through fused(value, inputs, backward),
where backward maps the node's output gradient to one gradient per input.
Tensor.backward alone decides which inputs receive them: the Tensors that
require grad. The graph is whatever Python executed, so data-dependent
control flow is free. All arithmetic is float64. Broadcasting is
deliberately restricted to bias-add ((m,n)+(n,)) and scalar-with-anything;
everything else must match shapes exactly so that mistakes surface as
errors, not silent expansion.

The op set is what the synthesiser runs: add, mul and matmul; tanh, relu
and softplus; sum_ and mean_; concat, narrow (also spelled tensor[key]),
reshape and index_rows; conv1d; and lstm_layer, a whole LSTM layer over a
sequence as one node. Two cells come as functions on plain arrays that
return their value together with their backward, without making a node:
lstm_step, one LSTM cell update whose initial weights lstm_weights draws in
the same gate layout, and location_attention_vjp, whose kernel
location_kernel composes. A caller that runs many cells and routes their
gradients itself, as lstm_layer does for a sequence and the decoder for a
whole utterance, uses those and wraps its result in one node with fused.
Other modules build their own nodes the same way. Tensors define no
arithmetic operators; call the functions.

Such a caller keeps only the recurrence in its reverse loop. The cells'
backwards give no weight gradients: lstm_step's gives the gate gradient,
which is also the bias gradient, and location_attention_vjp's the rows its
weight gradients are made of. lstm_step's gives no input gradient either:
it is wx @ gz, made in the loop only where the recurrence reads it. The
caller writes each step's rows into (T, .) arrays and contracts every
weight gradient once after the loop, with lstm_weight_grads and
location_attention_weight_grads; a single step is T = 1. Graph nodes
hand Tensor.backward plain arrays only.

Inside no_grad(), operations return constants: the value only, with no
parents and no backward closure, so inference leaves no graph behind.
grad_enabled() tells code that records backwards itself whether to.

Thread-safety: construction and backward are single-threaded per graph;
distinct graphs on distinct threads are fine. The grad mode is per-thread
state, so no_grad() in one thread leaves graph building in every other
thread on; the only state shared between threads is the id counter
(itertools.count is atomic in CPython).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading

import numpy as np

from . import fileio
from .errors import ShapeError

_IDS = itertools.count()


class _GradMode(threading.local):
    enabled = True  # class-level default: every new thread starts with grad on


_GRAD_MODE = _GradMode()


def grad_enabled():
    """True when operations in this thread record graph nodes, False
    inside no_grad()."""
    return _GRAD_MODE.enabled


@contextlib.contextmanager
def no_grad():
    """Within this block, in this thread, operations record no graph.

    Results are constants (requires_grad=False, no parents); values are the
    same as with graph building on. Nests, and restores the previous mode on
    exit, also when the block raises. Also a decorator: @no_grad().
    """
    prev = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = prev


class Tensor:
    """A node in the computation graph: a float64 array plus gradient plumbing.

    Leaf tensors created with requires_grad=True act as parameters; their
    .grad accumulates across backward calls until zero_grad().
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_inputs", "_backward", "_id",
                 "_grad_owned")

    def __init__(self, data, requires_grad=False, name=None, _parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents = _parents  # the inputs that require grad
        self._inputs = ()
        self._backward = None
        self._id = next(_IDS)
        self._grad_owned = False

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, grad={'yes' if self.requires_grad else 'no'})"

    # -- gradient machinery ---------------------------------------------------

    def zero_grad(self):
        self.grad = None
        self._grad_owned = False

    def _accum(self, g):
        # borrow the incoming buffer on first touch (producers hand over
        # fresh arrays); copy-on-write only when a second path arrives
        if self.grad is None:
            self.grad = g
            self._grad_owned = False
        elif self._grad_owned:
            self.grad += g
        else:
            self.grad = self.grad + g
            self._grad_owned = True

    def backward(self):
        """Reverse-accumulate d(self)/d(leaf) for every reachable leaf.

        self must be scalar (size 1). Gradients add into the .grad of
        leaves, so call zero_grad() on parameters between optimisation
        steps. Interior nodes start each pass from no gradient and keep
        the one it gives them, so a second pass over the same graph adds
        the same amounts to the leaves again.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward: output must be scalar, got shape {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise FloatingPointError("backward: non-finite output value")
        # Creation ids are a topological order because ops are eager.
        nodes = []
        seen = set()
        stack = [self]
        while stack:
            t = stack.pop()
            if id(t) in seen or not t.requires_grad:
                continue
            seen.add(id(t))
            nodes.append(t)
            if t._parents:
                t.zero_grad()  # an earlier pass's gradient is not this pass's
                stack.extend(t._parents)
        nodes.sort(key=lambda t: t._id, reverse=True)
        self._accum(np.ones_like(self.data))
        for t in nodes:
            if t._backward is None:
                continue
            for x, g in zip(t._inputs, t._backward(t.grad)):
                if isinstance(x, Tensor) and x.requires_grad:
                    if not (isinstance(g, np.ndarray) and g.shape == x.data.shape):
                        g = np.reshape(g, x.data.shape)
                    x._accum(g)

    def __getitem__(self, key):
        """Basic slicing, the one operator a Tensor supports (see narrow)."""
        return narrow(self, key)


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def fused(data, inputs, backward):
    """One graph node; every op in this module, and every caller-built node,
    is made here.

    data is the node's value. inputs may mix Tensors and plain values; the
    Tensors that require grad become its parents. backward(g) returns one
    gradient per input, in input order. Tensor.backward gives each to its
    input when that input is a Tensor that requires grad, reshaped to the
    input's shape unless it already is an array of that shape (so a scalar
    input's gradient may be a Python float); the rest are dropped. An input
    may keep a returned array without copying, so backward must not write
    to it afterwards.
    """
    if not _GRAD_MODE.enabled:
        return Tensor(data)
    parents = tuple(x for x in inputs if isinstance(x, Tensor) and x.requires_grad)
    out = Tensor(data, requires_grad=bool(parents), _parents=parents)
    if parents:
        out._inputs = inputs
        out._backward = backward
    return out


def _is_scalar(t):
    return t.data.ndim == 0 or t.data.size == 1


# -- arithmetic primitives ----------------------------------------------------


def add(a, b):
    """Elementwise sum. Allowed pairings: same shape, (m,n)+(n,) bias-add,
    or scalar with anything."""
    a, b = _wrap(a), _wrap(b)
    bias = a.data.ndim == 2 and b.data.ndim == 1 and a.data.shape[1] == b.data.shape[0]
    if not (a.data.shape == b.data.shape or bias or _is_scalar(a) or _is_scalar(b)):
        raise ShapeError(f"add: incompatible shapes {a.data.shape} and {b.data.shape}")
    return fused(a.data + b.data, (a, b), lambda g: (_reduce_to(g, a.data.shape), _reduce_to(g, b.data.shape)))


def _reduce_to(g, shape):
    """Sum g down to a smaller operand shape (bias or scalar broadcast)."""
    if g.shape == shape:
        return g
    if shape == () or int(np.prod(shape)) == 1:
        return np.sum(g).reshape(shape)
    # bias-add case: (m,n) grad -> (n,)
    return g.sum(axis=0).reshape(shape)


def mul(a, b):
    """Elementwise product; same shape or scalar-with-anything."""
    a, b = _wrap(a), _wrap(b)
    if not (a.data.shape == b.data.shape or _is_scalar(a) or _is_scalar(b)):
        raise ShapeError(f"mul: incompatible shapes {a.data.shape} and {b.data.shape}")

    def backward(g):
        return _reduce_to(g * b.data, a.data.shape), _reduce_to(g * a.data, b.data.shape)

    return fused(a.data * b.data, (a, b), backward)


def matmul(a, b):
    """numpy-style matmul for the 1-D/2-D combinations."""
    a, b = _wrap(a), _wrap(b)
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise ShapeError(f"matmul: only 1-D/2-D operands, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != (bd.shape[0] if bd.ndim >= 1 else None):
        raise ShapeError(f"matmul: inner dims differ, {ad.shape} @ {bd.shape}")

    def backward(g):
        if ad.ndim == 2 and bd.ndim == 2:
            return g @ bd.T, ad.T @ g
        if ad.ndim == 1 and bd.ndim == 2:
            return bd @ g, np.outer(ad, g)
        if ad.ndim == 2:
            return np.outer(g, bd), ad.T @ g
        return g * bd, g * ad  # 1-D @ 1-D -> scalar

    return fused(ad @ bd, (a, b), backward)


# -- elementwise nonlinearities -------------------------------------------------


def tanh(x):
    x = _wrap(x)
    data = np.tanh(x.data)
    return fused(data, (x,), lambda g: (g * (1.0 - data * data),))


def relu(x):
    x = _wrap(x)
    return fused(np.maximum(x.data, 0.0), (x,), lambda g: (g * (x.data > 0.0),))


def softplus(x):
    """log(1 + e^x), computed without overflow."""
    x = _wrap(x)
    return fused(np.logaddexp(0.0, x.data), (x,), lambda g: (g * 0.5 * (1.0 + np.tanh(0.5 * x.data)),))


# -- reductions ----------------------------------------------------------------


def sum_(x):
    x = _wrap(x)
    return fused(np.sum(x.data), (x,), lambda g: (np.full_like(x.data, float(g)),))


def mean_(x):
    x = _wrap(x)
    n = x.data.size
    return fused(np.sum(x.data) / n, (x,), lambda g: (np.full_like(x.data, float(g) / n),))


# -- shape manipulation ----------------------------------------------------------


def concat(parts, axis=0):
    """Concatenate 1-D or 2-D tensors along axis."""
    parts = tuple(_wrap(p) for p in parts)
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        grads = []
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            grads.append(g[tuple(sl)])
        return grads

    return fused(data, parts, backward)


def narrow(x, key):
    """Basic slice/index view; gradient scatters back into place."""
    x = _wrap(x)

    def backward(g):
        buf = np.zeros_like(x.data)
        buf[key] = g
        return (buf,)

    return fused(x.data[key], (x,), backward)


def reshape(x, shape):
    x = _wrap(x)
    return fused(x.data.reshape(shape), (x,), lambda g: (g.reshape(x.data.shape),))


def index_rows(table, ids):
    """Gather rows of a 2-D table by integer ids; grad scatter-adds."""
    table = _wrap(table)
    ids = np.asarray(ids, dtype=np.intp)
    if table.data.ndim != 2:
        raise ShapeError(f"index_rows: table must be 2-D, got {table.data.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(f"index_rows: id out of range 0..{table.data.shape[0] - 1}")

    def backward(g):
        buf = np.zeros_like(table.data)
        np.add.at(buf, ids, g)
        return (buf,)

    return fused(table.data[ids], (table,), backward)


def _conv_same(x, w):
    """'Same'-padded 1-D convolution of plain arrays: x (T, Cin), w (K, Cin,
    Cout) with odd K. Returns (out, xp); xp is the padded input, which the
    backward needs."""
    k = w.shape[0]
    t = x.shape[0]
    pad = k // 2
    xp = np.zeros((t + 2 * pad, x.shape[1]))
    xp[pad:pad + t] = x
    out = np.zeros((t, w.shape[2]))
    for j in range(k):
        out += xp[j:j + t] @ w[j]
    return out, xp


def _windows(xp, k):
    """(T, K * C) matrix whose row t holds rows t .. t + K - 1 of the padded
    (T + K - 1, C) array xp, which must be C-contiguous: a read-only view
    of xp, in which consecutive rows overlap."""
    t, c = xp.shape[0] - k + 1, xp.shape[1]
    view = np.ndarray((t, k * c), dtype=xp.dtype, buffer=xp, strides=xp.strides)
    view.flags.writeable = False
    return view


def _conv_same_grads(g, xp, w):
    """Gradients (gx, gw) of _conv_same for output gradient g, each as one
    matmul over K-row windows: gw from the windows of xp, and gx from the
    windows of the padded g against the flipped kernel."""
    k, cin, cout = w.shape
    pad = k // 2
    gw = (_windows(xp, k).T @ g).reshape(k, cin, cout)
    gp = np.zeros((g.shape[0] + 2 * pad, cout))
    gp[pad:pad + g.shape[0]] = g
    return _windows(gp, k) @ w[::-1].transpose(0, 2, 1).reshape(k * cout, cin), gw


@functools.lru_cache(maxsize=64)
def _window_index(n, k):
    """Read-only (N, 2K) flat indices of the K-row windows of a padded
    (N + K - 1, 2) array: entry (t, 2j + c) is 2 (t + j) + c, row t + j and
    channel c. Taking them gives the windows; adding a gradient of the
    windows back through them gives the padded array's."""
    index = np.add.outer(2 * np.arange(n), np.arange(2 * k))
    index.flags.writeable = False
    return index


def conv1d(x, w, bias=None):
    """'Same'-padded 1-D convolution over time.

    x: (T, Cin), w: (K, Cin, Cout) with odd K, bias: (Cout,) or None.
    out[t, o] = sum_k sum_i x[t + k - K//2, i] * w[k, i, o] (+ bias[o])
    """
    x, w = _wrap(x), _wrap(w)
    if x.data.ndim != 2 or w.data.ndim != 3:
        raise ShapeError(f"conv1d: expected (T,Cin) and (K,Cin,Cout), got {x.data.shape}, {w.data.shape}")
    k, cin, cout = w.data.shape
    if k % 2 != 1:
        raise ShapeError(f"conv1d: kernel size must be odd, got {k}")
    if x.data.shape[1] != cin:
        raise ShapeError(f"conv1d: channel mismatch {x.data.shape[1]} vs {cin}")
    data, xp = _conv_same(x.data, w.data)
    if bias is None:
        return fused(data, (x, w), lambda g: _conv_same_grads(g, xp, w.data))
    bias = _wrap(bias)
    return fused(data + bias.data, (x, w, bias), lambda g: (*_conv_same_grads(g, xp, w.data), g.sum(axis=0)))


@functools.lru_cache(maxsize=None)
def _gate_constants(hid):
    """Read-only (scale, shift, scale^2) over the 4H gate pre-activations,
    gate order i, f, g, o: a gate is tanh(z * scale) * scale + shift, the
    logistic 0.5 * (1 + tanh(z / 2)) on i, f, o and tanh on g."""
    scale = np.full(4 * hid, 0.5)
    scale[2 * hid:3 * hid] = 1.0
    shift = np.full(4 * hid, 0.5)
    shift[2 * hid:3 * hid] = 0.0
    consts = (scale, shift, scale * scale)
    for arr in consts:
        arr.flags.writeable = False
    return consts


def lstm_step(x, h, c, wx, wh, b):
    """One LSTM cell update on plain arrays, with its backward.

    x: (I,), h/c: (H,), wx: (I,4H), wh: (H,4H), b: (4H,); gate order
    i,f,g,o. Returns (h', c', backward), where backward(gh, gc) maps the
    gradients of h' and c' to those of (h, c) and to the (4H,) gate
    gradient gz, which is also b's. x's gradient is wx @ gz, the weight
    gradients outer(x, gz) and outer(h, gz); lstm_weight_grads makes the
    latter over the rows of many steps or of one, and a caller whose x
    feeds nothing in its reverse loop contracts x's over those rows too.
    """
    hid = h.shape[0]
    if wx.shape != (x.shape[0], 4 * hid) or wh.shape != (hid, 4 * hid):
        raise ShapeError(f"lstm_step: weight shapes {wx.shape}/{wh.shape} do not fit "
                         f"input {x.shape} and state {h.shape}")
    scale, shift, scale2 = _gate_constants(hid)
    t = np.tanh((x @ wx + h @ wh + b) * scale)  # all four gates in one tanh
    act = t * scale + shift
    i, f, g, o = act[:hid], act[hid:2 * hid], act[2 * hid:3 * hid], act[3 * hid:]
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    h_new = o * tc

    def backward(gh, gc):
        gc_total = gc + gh * o * (1.0 - tc * tc)
        gz = np.concatenate([gc_total * g, gc_total * c, gc_total * i, gh * tc]) * ((1.0 - t * t) * scale2)
        return wh @ gz, gc_total * f, gz

    return h_new, c_new, backward


def lstm_weight_grads(xs, hs, gz):
    """The gradients of lstm_step's (wx, wh, b) summed over T steps, from
    the (T, I) inputs xs, the (T, H) states hs the steps read and their
    (T, 4H) gate gradients gz: one contraction each."""
    return xs.T @ gz, hs.T @ gz, gz.sum(axis=0)


def lstm_layer(xs, wx, wh, b, reverse=False):
    """An LSTM layer over a (T, I) sequence as one graph node.

    The cell (see lstm_step) starts from a zero state and reads the rows of
    xs first to last, or last to first when reverse is set. Returns the
    (T, H) Tensor whose row t is the h the cell gave after reading row t.
    The node's backward walks the steps in reverse, writing each step's
    gate gradient as a row of a (T, 4H) array, and then contracts the
    input's gradient and each weight's once (lstm_weight_grads).
    """
    xs, wx, wh, b = _wrap(xs), _wrap(wx), _wrap(wh), _wrap(b)
    if xs.data.ndim != 2:
        raise ShapeError(f"lstm_layer: expected a (T, I) sequence, got shape {xs.data.shape}")
    steps, hid = xs.data.shape[0], wh.data.shape[0]
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    out = np.empty((steps, hid))
    h = c = np.zeros(hid)
    record = grad_enabled()
    backwards = []
    for t in order:
        h, c, step_backward = lstm_step(xs.data[t], h, c, wx.data, wh.data, b.data)
        out[t] = h
        if record:
            backwards.append(step_backward)

    def backward(g):
        gz = np.empty((steps, 4 * hid))
        gh = gc = np.zeros(hid)
        for k in range(steps - 1, -1, -1):
            t = order[k]
            gh, gc, gz[t] = backwards[k](g[t] + gh, gc)
        hs = np.zeros_like(out)  # row t: the h the cell read with row t of xs
        if reverse:
            hs[:-1] = out[1:]
        else:
            hs[1:] = out[:-1]
        return (gz @ wx.data.T, *lstm_weight_grads(xs.data, hs, gz))

    return fused(out, (xs, wx, wh, b), backward)


def location_kernel(conv_w, loc_w):
    """The (K, 2, A) kernel of location_attention_vjp: conv_w (K, 2, F)
    with odd K composed with loc_w (F, A). The location term is linear in
    both, so a convolution with conv_w followed by loc_w is one
    convolution with this kernel. A ShapeError when they do not fit."""
    if not (conv_w.ndim == 3 and conv_w.shape[0] % 2 == 1 and conv_w.shape[1] == 2
            and loc_w.ndim == 2 and loc_w.shape[0] == conv_w.shape[2]):
        raise ShapeError(f"location_attention: kernel shapes do not fit: {np.shape(conv_w)}, {np.shape(loc_w)}")
    k, _, f = conv_w.shape
    return (conv_w.reshape(2 * k, f) @ loc_w).reshape(k, 2, loc_w.shape[1])


def location_attention_vjp(query, enc_proj, prev_align, cum_align, kernel, query_w, v):
    """Location-sensitive additive attention on plain arrays, with its
    backward.

    query: (D,), enc_proj: (N, A), prev_align/cum_align: (N,), kernel:
    (K, 2, A) with odd K (see location_kernel), query_w: (D, A), v: (A,).
    loc = conv1d([prev_align, cum_align], kernel), one matmul of the
    (N, 2K) windows of the padded [prev_align, cum_align], gathered by one
    index, against the kernel's (2K, A) form, and the result is
    softmax(tanh(enc_proj + loc + query @ query_w) @ v), an (N,)
    distribution. Returns (result, backward), where backward(g) gives the
    gradients of (query, prev_align, cum_align) and the step's rows for
    location_attention_weight_grads: gterms, the (N, A) gradient of the
    tanh's argument, which is also enc_proj's, ge, the (N,) gradient of
    the scores, and th, the (N, A) tanh.
    """
    fits = enc_proj.ndim == 2 and kernel.ndim == 3 and query.ndim == 1
    if fits:
        n, a = enc_proj.shape
        k = kernel.shape[0]
        fits = (prev_align.shape == cum_align.shape == (n,) and kernel.shape == (k, 2, a) and k % 2 == 1
                and query_w.shape == (query.shape[0], a) and v.shape == (a,))
    if not fits:
        raise ShapeError("location_attention: shapes do not fit: " + ", ".join(
            str(np.shape(t)) for t in (query, enc_proj, prev_align, cum_align, kernel, query_w, v)))
    pad = k // 2
    loc_pad = np.zeros((n + 2 * pad, 2))
    loc_pad[pad:pad + n, 0] = prev_align
    loc_pad[pad:pad + n, 1] = cum_align
    index = _window_index(n, k)
    flat = kernel.reshape(2 * k, a)
    th = np.tanh(enc_proj + loc_pad.take(index) @ flat + query @ query_w)
    e = th @ v
    z = np.exp(e - e.max())
    data = z / z.sum()

    def backward(g):
        ge = data * (g - np.dot(g, data))
        gterms = np.outer(ge, v) * (1.0 - th * th)
        # the windows' gradient, added back onto the padded rows they read
        g_windows = gterms @ flat.T
        gin = np.bincount(index.ravel(), g_windows.ravel(), 2 * (n + 2 * pad)).reshape(-1, 2)[pad:pad + n]
        return query_w @ gterms.sum(axis=0), gin[:, 0], gin[:, 1], gterms, ge, th

    return data, backward


def location_attention_weight_grads(queries, prev_aligns, cum_aligns, gterms, ges, ths, conv_w, loc_w):
    """The gradients of location_attention_vjp's enc_proj, conv_w, loc_w,
    query_w and v summed over T steps, from each step's (T, .) rows: the
    queries, alignments and cumulative alignments the steps read and the
    gterms, ge and th their backwards gave. The composed kernel's gradient
    is one (2K, T*N) @ (T*N, A) matmul over every step's windows, chained
    once to conv_w and loc_w."""
    steps, n, a = gterms.shape
    k, _, f = conv_w.shape
    pad = k // 2
    loc_pad = np.zeros((steps, n + 2 * pad, 2))
    loc_pad[:, pad:pad + n, 0] = prev_aligns
    loc_pad[:, pad:pad + n, 1] = cum_aligns
    windows = loc_pad.reshape(steps, -1)[:, _window_index(n, k)]
    g_kernel = windows.reshape(steps * n, 2 * k).T @ gterms.reshape(steps * n, a)
    return (gterms.sum(axis=0), (g_kernel @ loc_w.T).reshape(k, 2, f), conv_w.reshape(2 * k, f).T @ g_kernel,
            queries.T @ gterms.sum(axis=1), ths.reshape(steps * n, a).T @ ges.reshape(steps * n))


# -- parameters, optimiser, gradient checking ------------------------------------


def parameter(data, name=None):
    return Tensor(data, requires_grad=True, name=name)


def glorot(rng, fan_in, fan_out, shape=None):
    """Uniform Glorot init; shape defaults to (fan_in, fan_out)."""
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-lim, lim, size=shape)


def lstm_weights(rng, in_dim, hid):
    """Initial (wx, wh, b) for lstm_step: Glorot weights, wx drawn first,
    and a zero bias except 1 on the forget gate (gate order i,f,g,o)."""
    wx = glorot(rng, in_dim, 4 * hid)
    wh = glorot(rng, hid, 4 * hid)
    b = np.zeros(4 * hid)
    b[hid:2 * hid] = 1.0
    return wx, wh, b


class SGD:
    """Plain gradient descent with momentum over a name->Tensor dict.

    Iteration order is sorted by name so steps are bit-reproducible.
    """

    def __init__(self, params, lr, momentum=0.9, grad_clip=None):
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.grad_clip = grad_clip
        self.velocity = {k: np.zeros_like(p.data) for k, p in sorted(params.items())}

    def zero_grad(self):
        for _, p in sorted(self.params.items()):
            p.zero_grad()

    def global_grad_norm(self):
        total = 0.0
        for _, p in sorted(self.params.items()):
            if p.grad is not None:
                total += float(np.sum(p.grad * p.grad))
        return float(np.sqrt(total))

    def step(self):
        scale = 1.0
        if self.grad_clip is not None:
            norm = self.global_grad_norm()
            if norm > self.grad_clip:
                scale = self.grad_clip / norm
        for name, p in sorted(self.params.items()):
            if p.grad is None:
                continue
            v = self.velocity[name]
            v *= self.momentum
            v -= self.lr * scale * p.grad
            p.data = np.asarray(p.data + v)  # a 0-d sum is a NumPy scalar

    def state_tensors(self):
        """Momentum buffers as plain arrays keyed for checkpointing."""
        return {f"opt.velocity.{k}": v for k, v in self.velocity.items()}

    def load_state_tensors(self, table):
        """Restore every momentum buffer, all or nothing: a missing or
        misshapen one is a DataError, since resuming without it would
        silently diverge."""
        shapes = {k: v.shape for k, v in self.velocity.items()}
        self.velocity.update(fileio.checked_entries(table, shapes, "optimiser state", prefix="opt.velocity."))


def finite_diff_check(build, param, step=1e-5):
    """Max relative error between analytic and central-difference gradients.

    build() must re-evaluate the graph from scratch and return a scalar
    Tensor. The relative error for each entry of param is
    |analytic - fd| / max(|analytic|, 1e-8). param.data must be a numpy
    array, of any layout: each entry is perturbed in place (a TypeError
    otherwise, such as for a NumPy scalar, which cannot be). Raises
    FloatingPointError if any evaluation goes non-finite (reported, never
    clipped).
    """
    if step <= 0:
        raise ValueError("finite_diff_check: step must be > 0")
    if not isinstance(param.data, np.ndarray):
        raise TypeError(f"finite_diff_check: param.data is a {type(param.data).__name__}, not a numpy array")
    param.zero_grad()
    out = build()
    if not np.all(np.isfinite(out.data)):
        raise FloatingPointError("finite_diff_check: non-finite forward value")
    out.backward()
    analytic = np.zeros_like(param.data) if param.grad is None else param.grad.copy()
    flat = param.data.flat  # writes through to param.data whatever its layout
    worst = 0.0
    for i in range(param.data.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = float(build().data)
        flat[i] = orig - step
        lo = float(build().data)
        flat[i] = orig
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise FloatingPointError("finite_diff_check: non-finite perturbed value")
        fd = (hi - lo) / (2.0 * step)
        a = analytic.reshape(-1)[i]
        err = abs(a - fd) / max(abs(a), 1e-8)
        worst = max(worst, err)
    return worst
