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

A backward may return a weight gradient that is an outer product as its
two factors, Outer(a, b), standing for np.outer(a, b); matmul with one 1-D
operand and lstm_step (wx, wh) do, and so may nodes built elsewhere with
fused. Tensor.backward collects each input's pairs over the pass and adds
their sum once, as one matmul, when the pass reaches that input (by then
every consumer has run), instead of a full matrix per use, such as per
encoder step. Leaves, such as parameters, and interior nodes are treated
alike.

The op set is what the synthesiser runs: add, mul and matmul; tanh, relu
and softplus; sum_ and mean_; concat, stack, narrow (also spelled
tensor[key]), reshape and index_rows; conv1d; and lstm_step, one LSTM cell
update as a single node with a hand-written backward. Two cells come as
functions on plain arrays that return their value together with their
backward, without making a node: lstm_vjp, behind lstm_step, and
location_attention_vjp. A caller that runs many cells and routes their
gradients itself, as the decoder does for a whole utterance, uses those
and wraps its result in one node with fused. Other modules build their own
nodes the same way. Tensors define no arithmetic operators; call the
functions.

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


class Outer:
    """The gradient np.outer(a, b), kept as its two 1-D factors."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


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
        pairs = {}  # node -> the Outer gradients it has received so far
        for t in nodes:
            # every consumer of t has run, so its pairs are complete:
            # sum_k outer(a_k, b_k) = [a_1 .. a_K] @ [b_1 .. b_K]^T
            outers = pairs.pop(t, None)
            if outers:
                t._accum(np.stack([o.a for o in outers], axis=1) @ np.stack([o.b for o in outers]))
            if t._backward is None:
                continue
            for x, g in zip(t._inputs, t._backward(t.grad)):
                if isinstance(x, Tensor) and x.requires_grad:
                    if type(g) is Outer:
                        pairs.setdefault(x, []).append(g)
                        continue
                    if not (isinstance(g, np.ndarray) and g.shape == x.data.shape):
                        g = np.reshape(g, x.data.shape)
                    x._accum(g)

    def detach(self):
        """Return a constant view of this value (blocks gradient flow)."""
        return Tensor(self.data, requires_grad=False)

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
    input's gradient may be a Python float); the rest are dropped. A 2-D
    input's gradient may also be a factor pair Outer(a, b), standing for
    np.outer(a, b): the input collects its pairs and adds their sum once,
    in one matmul, when the pass reaches it, leaf or interior node alike.
    An input may keep a returned array, or a pair's factors, without
    copying, so backward must not write to them afterwards.
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
            return bd @ g, Outer(ad, g)
        if ad.ndim == 2:
            return Outer(g, bd), ad.T @ g
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


def stack(rows):
    """Stack equal-length 1-D tensors as the rows of a 2-D tensor."""
    rows = tuple(_wrap(r) for r in rows)
    data = np.stack([r.data for r in rows])
    if data.ndim != 2:
        raise ShapeError(f"stack: rows must be 1-D, got shape {rows[0].data.shape}")
    return fused(data, rows, lambda g: g)  # a 2-D gradient iterates as its rows


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


def lstm_vjp(x, h, c, wx, wh, b):
    """One LSTM cell update on plain arrays, with its backward.

    x: (I,), h/c: (H,), wx: (I,4H), wh: (H,4H), b: (4H,); gate order
    i,f,g,o. Returns (h', c', backward), where backward(gh, gc) maps the
    gradients of h' and c' to those of (x, h, c, wx, wh, b); the two weight
    gradients come as Outer pairs sharing the gate gradient, which is also
    the bias gradient.
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
        return wx @ gz, wh @ gz, gc_total * f, Outer(x, gz), Outer(h, gz), gz

    return h_new, c_new, backward


def lstm_step(x, h, c, wx, wh, b):
    """One fused LSTM cell update (single graph node for speed).

    x: (I,), h/c: (H,), wx: (I,4H), wh: (H,4H), b: (4H,); gate order
    i,f,g,o. Returns (h', c').
    """
    x, h, c = _wrap(x), _wrap(h), _wrap(c)
    h_new, c_new, cell_backward = lstm_vjp(x.data, h.data, c.data, wx.data, wh.data, b.data)
    hid = h_new.shape[0]

    def backward(grad):
        gx, gh, gc, gwx, gwh, gb = cell_backward(grad[:hid], grad[hid:])
        # gb is also both pairs' factor, and b may add to its gradient in place
        return gx, gh, gc, gwx, gwh, gb.copy()

    hc = fused(np.concatenate([h_new, c_new]), (x, h, c, wx, wh, b), backward)
    return hc[:hid], hc[hid:]


def location_attention_vjp(query, enc_proj, prev_align, cum_align, conv_w, loc_w, query_w, v):
    """Location-sensitive additive attention on plain arrays, with its
    backward.

    query: (D,), enc_proj: (N, A), prev_align/cum_align: (N,),
    conv_w: (K, 2, F) with odd K, loc_w: (F, A), query_w: (D, A), v: (A,).
    loc = conv1d([prev_align, cum_align], conv_w) and the result is
    softmax(tanh(enc_proj + loc @ loc_w + query @ query_w) @ v), an (N,)
    distribution. Returns (result, backward), where backward(g) gives the
    gradients of all eight inputs in order, query_w's as an Outer pair.
    """
    fits = enc_proj.ndim == 2 and conv_w.ndim == 3 and query.ndim == 1
    if fits:
        n, a = enc_proj.shape
        k, cin, f = conv_w.shape
        fits = (prev_align.shape == cum_align.shape == (n,) and cin == 2 and k % 2 == 1
                and loc_w.shape == (f, a) and query_w.shape == (query.shape[0], a) and v.shape == (a,))
    if not fits:
        raise ShapeError("location_attention: shapes do not fit: " + ", ".join(
            str(np.shape(t)) for t in (query, enc_proj, prev_align, cum_align, conv_w, loc_w, query_w, v)))
    loc_in = np.stack([prev_align, cum_align], axis=1)
    loc, loc_pad = _conv_same(loc_in, conv_w)
    th = np.tanh(enc_proj + loc @ loc_w + query @ query_w)
    e = th @ v
    z = np.exp(e - e.max())
    data = z / z.sum()

    def backward(g):
        ge = data * (g - np.dot(g, data))
        gterms = np.outer(ge, v) * (1.0 - th * th)
        gq = gterms.sum(axis=0)
        gin, gw = _conv_same_grads(gterms @ loc_w.T, loc_pad, conv_w)
        return (query_w @ gq, gterms, gin[:, 0].copy(), gin[:, 1].copy(), gw,
                loc.T @ gterms, Outer(query, gq), th.T @ ge)

    return data, backward


# -- parameters, optimiser, gradient checking ------------------------------------


def parameter(data, name=None):
    return Tensor(data, requires_grad=True, name=name)


def glorot(rng, fan_in, fan_out, shape=None):
    """Uniform Glorot init; shape defaults to (fan_in, fan_out)."""
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-lim, lim, size=shape)


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
