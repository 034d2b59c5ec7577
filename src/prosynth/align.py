"""Structure-preserving alignment post-processing and diagnostics.

An alignment vector is a probability distribution over the N encoder
positions; a decode of T steps stacks them into an N x T alignment matrix.
The ops here build candidate alignments from the previous step, score how
sharp/unimodal a candidate is, and soft-select a final alignment that keeps
that structure. They compute on plain numpy arrays.

The three quantities of the augmented step are stages in the form every
hand-differentiated stage of the package takes: arrays in, (value,
backward) out. structure_metric scores a candidate, stage1_select builds
the candidate d from the previous alignment, and stage2_select mixes d
with the initial alignment b_t under the two scores. augmented_step, the
one op the decoder calls, composes the two selection stages, and its
backward chains theirs; the decoder's per-utterance graph node calls it
frame by frame and routes its gradients. A caller that wants a graph node
wraps the pair with autodiff.fused.

All functions are pure; call them from as many threads as you like.
"""

from __future__ import annotations

import numpy as np

# Fixed scoring constants (N-independent). Read-only by convention.
LSE_SCALE = 10.0  # multiplier inside the soft-max exponent
LSE_GAIN = 0.1  # outer gain that undoes the multiplier's magnitude
SHARPNESS_BOOST = 1.67  # desensitising boost on the peakiness ratio
SCORE_THRESHOLD = 0.12  # near-zero floor: scores at or below map to 0
RENORM_FLOOR = 1e-8  # below this total mass, stage 2 falls back to d

SUM_TOL = 1e-6  # how far an alignment's total may stray from 1


# -- candidate construction ------------------------------------------------------


def shift_sticky(v):
    """Shift one position toward the sequence end, mass at the last index stays.

    out[0] = 0, out[n] = v[n-1], and the final entry absorbs both v[N-2]
    and v[N-1] so the output still sums to 1 and attention can dwell on the
    last symbol near the end of an utterance.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("shift_sticky: empty vector")
    if v.size == 1:
        return v.copy()
    out = np.empty_like(v)
    out[0] = 0.0
    out[1:] = v[:-1]
    out[-1] += v[-1]
    return out


# -- structure metric ------------------------------------------------------------


def f1(c):
    """Soft-maximum assessment of the peak height (stabilised log-sum-exp)."""
    x = LSE_SCALE * np.asarray(c, dtype=np.float64)
    m = x.max()
    return float(LSE_GAIN * (m + np.log(np.exp(x - m).sum())))


def _f2_raw(c):
    """f2 before its clamp at 1; needs N >= 2."""
    n = c.size
    return SHARPNESS_BOOST * (n * float(c @ c) - 1.0) / (n - 1)


def f2(c):
    """Peak-sharpness ratio in [0, 1]: 0 for the flat vector, 1 for one-hot.

    A single-symbol alignment is maximally sharp by construction, so N=1
    returns 1.
    """
    c = np.asarray(c, dtype=np.float64)
    if c.size == 1:
        return 1.0
    return min(_f2_raw(c), 1.0)


def structure_metric(c):
    """Combined structure score in [0, 1]: f1*f2, zeroed at or below the
    near-zero threshold, clamped to at most 1.

    Returns (score, backward), where backward(g) gives the gradient of c.
    It is zero where the threshold or the outer clamp holds the score flat;
    its f2 term vanishes where f2 is clamped at 1 and for N=1, where f2 is
    the constant 1.
    """
    c = np.asarray(c, dtype=np.float64)
    n = c.size
    peak = f1(c)
    raw2 = _f2_raw(c) if n > 1 else 1.0
    sharp = min(raw2, 1.0)
    raw = peak * sharp
    live = SCORE_THRESHOLD < raw <= 1.0
    sharp_live = n > 1 and raw2 <= 1.0

    def backward(g):
        if not live:
            return g * np.zeros_like(c)
        w = np.exp(LSE_SCALE * (c - c.max()))
        grad = (sharp * LSE_GAIN * LSE_SCALE / w.sum()) * w
        if sharp_live:
            grad += (peak * SHARPNESS_BOOST * 2.0 * n / (n - 1)) * c
        return g * grad

    return (raw if live else float(raw > 1.0)), backward


# -- two-stage soft-selection ----------------------------------------------------


def _weight_value(w, name):
    val = float(w)
    if not 0.0 <= val <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {val}")
    return val


def stage1_select(b_prev, alpha):
    """Convex mix of the previous alignment with its shifted version:
    alpha picks 'advance one symbol', (1 - alpha) picks 'stay'.

    Returns (d, backward), where backward(g) gives the gradients of
    (b_prev, alpha).
    """
    alpha = _weight_value(alpha, "alpha")
    b_prev = np.asarray(b_prev, dtype=np.float64)
    shifted = shift_sticky(b_prev)

    def backward(g):
        g_alpha = np.dot(g, shifted) - np.dot(g, b_prev)
        g_shift = alpha * g
        g_bp = (1.0 - alpha) * g
        g_bp[:-1] += g_shift[1:]  # shift_sticky moves entry i to i+1 ...
        g_bp[-1] += g_shift[-1]  # ... and keeps the last one in place
        return g_bp, g_alpha

    return alpha * shifted + (1.0 - alpha) * b_prev, backward


def stage2_select(d, b_t, beta):
    """Structure-guided final mix of the stage-1 candidate d and the initial
    alignment b_t.

    gamma = f(b_t) * (1 - f(d)) prefers b_t only when its structure beats
    d's. The raw mix (1-gamma)*beta*d + gamma*(1-beta)*b_t is not a
    distribution on its own, so it is renormalised to unit sum; a degenerate
    total (< 1e-8) falls back to d. Returns (out, backward), where
    backward(g) gives the gradients of (d, b_t, beta).
    """
    beta = _weight_value(beta, "beta")
    d = np.asarray(d, dtype=np.float64)
    b_t = np.asarray(b_t, dtype=np.float64)
    if d.shape[0] != b_t.shape[0]:
        raise ValueError(f"stage2_select: length mismatch {d.shape[0]} vs {b_t.shape[0]}")
    m_b, m_b_backward = structure_metric(b_t)
    # with m_b = 0, gamma is 0 for any m_d in [0, 1], so d's score is unused
    m_d, m_d_backward = structure_metric(d) if m_b > 0.0 else (0.0, None)
    gamma = m_b * (1.0 - m_d)
    raw = (1.0 - gamma) * beta * d + gamma * (1.0 - beta) * b_t
    total = raw.sum()
    if total < RENORM_FLOOR:
        return d.copy(), lambda g: (g, np.zeros_like(b_t), 0.0)

    def backward(g):
        g_raw = g / total - np.dot(g, raw) / (total * total)
        g_d = g_raw * (beta * (1.0 - gamma))
        g_bt = g_raw * ((1.0 - beta) * gamma)
        g_beta = (1.0 - gamma) * np.dot(g_raw, d) - gamma * np.dot(g_raw, b_t)
        # with m_b = 0, gamma is 0 whatever either score does; skipping both
        # score gradients holds only while a zero score has a zero gradient
        if m_b > 0.0:
            g_gamma = (1.0 - beta) * np.dot(g_raw, b_t) - beta * np.dot(g_raw, d)
            g_bt = g_bt + m_b_backward(g_gamma * (1.0 - m_d))
            g_d = g_d - m_d_backward(g_gamma * m_b)
        return g_d, g_bt, g_beta

    return raw / total, backward


def augmented_step(b_t, b_prev, alpha, beta):
    """Full post-processing of one decoder step's initial alignment b_t,
    given the previous step's final alignment b_prev and the stage weights
    alpha and beta in [0, 1] (from the decoder's sigmoid heads): stage 2
    over stage 1.

    The first decoder step has no history and keeps its initial alignment
    without calling this. Returns (out, backward), where backward(g) gives
    the gradients of (b_t, b_prev, alpha, beta).
    """
    d, stage1_backward = stage1_select(b_prev, alpha)
    out, stage2_backward = stage2_select(d, b_t, beta)

    def backward(g):
        g_d, g_bt, g_beta = stage2_backward(g)
        g_bp, g_alpha = stage1_backward(g_d)
        return g_bt, g_bp, g_alpha, g_beta

    return out, backward


# -- diagnostics -----------------------------------------------------------------


def entropy(a):
    """Shannon entropy in nats, with 0*ln(0) = 0."""
    a = np.asarray(a, dtype=np.float64)
    pos = a[a > 0.0]
    return float(-(pos * np.log(pos)).sum())


def mean_entropy(matrices):
    """Unweighted mean entropy over all columns of all alignment matrices."""
    values = []
    for m in matrices:
        m = np.asarray(m, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError(f"mean_entropy: expected N x T matrix, got shape {m.shape}")
        for t in range(m.shape[1]):
            values.append(entropy(m[:, t]))
    if not values:
        raise ValueError("mean_entropy: no alignment columns given")
    return float(np.mean(values))


# -- exports ---------------------------------------------------------------------


def save_alignment_csv(matrix, path):
    """Write an N x T alignment matrix as CSV, one row per decoder step,
    full float precision."""
    m = np.asarray(matrix, dtype=np.float64)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for t in range(m.shape[1]):
            fh.write(",".join(repr(float(x)) for x in m[:, t]))
            fh.write("\n")


def save_alignment_pgm(matrix, path):
    """Write an N x T alignment matrix as an 8-bit binary PGM image.

    Image rows are encoder positions (height N), columns decoder steps
    (width T); pixel = round(255 * probability).
    """
    m = np.asarray(matrix, dtype=np.float64)
    n, t = m.shape
    pix = np.rint(np.clip(m, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{t} {n}\n255\n".encode("ascii"))
        fh.write(pix.tobytes())
