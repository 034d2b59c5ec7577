"""Engine ops that only the tests use.

The composed-primitive oracle in oracle_decoder.py rebuilds location
attention, the augmented step and the decoder's selection heads from these,
one graph node per op. Each takes Tensors and is a prosynth.autodiff.fused node with
its own value and backward; their finite-difference tests are in
test_autodiff.py.
"""

import numpy as np

from prosynth import autodiff as ad


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
