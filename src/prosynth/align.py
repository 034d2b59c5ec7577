"""Structure-preserving alignment post-processing and diagnostics.

An alignment vector is a probability distribution over the N encoder
positions; a decode of T steps stacks them into an N x T alignment matrix.
The ops here build candidate alignments from the previous step, score how
sharp/unimodal a candidate is, and soft-select a final alignment that keeps
that structure. They compute on plain numpy arrays. augmented_step, the one
op the decoder calls, returns its value together with its hand-written
backward, which follows the same formulas, masks included (see
_metric_grad); the decoder's per-utterance graph node calls it frame by
frame and routes its gradients. A caller that wants a graph node wraps the
pair with autodiff.fused.

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

SUM_TOL = 1e-6


def check_alignment(v, name="alignment"):
    """Validate and return a 1-D float64 probability vector."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name}: expected non-empty 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: non-finite entries")
    if (arr < -SUM_TOL).any():
        raise ValueError(f"{name}: negative entries")
    if abs(arr.sum() - 1.0) > SUM_TOL:
        raise ValueError(f"{name}: entries sum to {arr.sum():.8f}, expected 1")
    return arr


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


def candidate_set(b_t, b_prev):
    """The three feasible alignments for this step: stay on the current
    initial alignment, keep the previous one, or advance it by one symbol."""
    n_t, n_p = np.shape(b_t)[0], np.shape(b_prev)[0]
    if n_t != n_p:
        raise ValueError(f"candidate_set: length mismatch {n_t} vs {n_p}")
    return b_t, b_prev, shift_sticky(b_prev)


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
    near-zero threshold, clamped to at most 1. Differentiable wherever the
    raw product exceeds the threshold."""
    raw = f1(c) * f2(c)
    if raw <= SCORE_THRESHOLD:
        return 0.0
    return min(raw, 1.0)


def _metric_grad(c):
    """d structure_metric / dc, zero where the threshold or the clamp of the
    product holds the metric flat; the f2 term vanishes where f2 is clamped
    at 1 and for N=1, where f2 is the constant 1."""
    n = c.size
    peak = f1(c)
    raw2 = _f2_raw(c) if n > 1 else 1.0
    sharp = min(raw2, 1.0)
    if not SCORE_THRESHOLD < peak * sharp <= 1.0:
        return np.zeros_like(c)
    w = np.exp(LSE_SCALE * (c - c.max()))
    grad = (sharp * LSE_GAIN * LSE_SCALE / w.sum()) * w
    if n > 1 and raw2 <= 1.0:
        grad += (peak * SHARPNESS_BOOST * 2.0 * n / (n - 1)) * c
    return grad


# -- two-stage soft-selection ----------------------------------------------------


def _weight_value(w, name):
    val = float(w)
    if not 0.0 <= val <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {val}")
    return val


def stage1_select(b_prev, alpha):
    """Convex mix of the previous alignment with its shifted version:
    alpha picks 'advance one symbol', (1 - alpha) picks 'stay'."""
    alpha = _weight_value(alpha, "alpha")
    b_prev = np.asarray(b_prev, dtype=np.float64)
    return alpha * shift_sticky(b_prev) + (1.0 - alpha) * b_prev


def _stage2(d, b_t, beta):
    """stage2_select with the intermediates its gradient needs:
    (out, gamma, metric of b_t, metric of d, raw mix, total), where total is
    None when the mix fell back to d."""
    beta = _weight_value(beta, "beta")
    d = np.asarray(d, dtype=np.float64)
    b_t = np.asarray(b_t, dtype=np.float64)
    if d.shape[0] != b_t.shape[0]:
        raise ValueError(f"stage2_select: length mismatch {d.shape[0]} vs {b_t.shape[0]}")
    m_b = structure_metric(b_t)
    m_d = structure_metric(d)
    gamma = m_b * (1.0 - m_d)
    raw = (1.0 - gamma) * beta * d + gamma * (1.0 - beta) * b_t
    total = raw.sum()
    if total < RENORM_FLOOR:
        return d.copy(), gamma, m_b, m_d, raw, None
    return raw / total, gamma, m_b, m_d, raw, total


def stage2_select(d, b_t, beta):
    """Structure-guided final mix of the stage-1 candidate d and the initial
    alignment b_t.

    gamma = f(b_t) * (1 - f(d)) prefers b_t only when its structure beats
    d's. The raw mix (1-gamma)*beta*d + gamma*(1-beta)*b_t is not a
    distribution on its own, so it is renormalised to unit sum; a degenerate
    total (< 1e-8) falls back to d.
    """
    return _stage2(d, b_t, beta)[0]


def augmented_step(b_t, b_prev, alpha, beta):
    """Full post-processing of one decoder step's initial alignment b_t,
    given the previous step's final alignment b_prev and the stage weights
    alpha and beta in [0, 1] (from the decoder's sigmoid heads).

    The first decoder step has no history and keeps its initial alignment
    without calling this. Returns (out, backward), where backward(g) gives
    the gradients of (b_t, b_prev, alpha, beta).
    """
    bt = np.asarray(b_t, dtype=np.float64)
    bp = np.asarray(b_prev, dtype=np.float64)
    alpha = _weight_value(alpha, "alpha")
    beta = _weight_value(beta, "beta")
    d = stage1_select(bp, alpha)
    out, gamma, m_b, m_d, raw, total = _stage2(d, bt, beta)
    shifted = shift_sticky(bp)

    def backward(g):
        if total is None:  # fell back to d
            g_d, g_bt, g_beta = g, np.zeros_like(bt), 0.0
        else:
            g_raw = g / total - np.dot(g, raw) / (total * total)
            g_d = g_raw * (beta * (1.0 - gamma))
            g_bt = g_raw * ((1.0 - beta) * gamma)
            g_beta = (1.0 - gamma) * np.dot(g_raw, d) - gamma * np.dot(g_raw, bt)
            if m_b > 0.0:  # else gamma is 0 whatever either metric does
                g_gamma = (1.0 - beta) * np.dot(g_raw, bt) - beta * np.dot(g_raw, d)
                g_bt = g_bt + (g_gamma * (1.0 - m_d)) * _metric_grad(bt)
                g_d = g_d - (g_gamma * m_b) * _metric_grad(d)
        g_alpha = np.dot(g_d, shifted) - np.dot(g_d, bp)
        g_shift = alpha * g_d
        g_bp = (1.0 - alpha) * g_d
        g_bp[:-1] += g_shift[1:]  # shift_sticky moves entry i to i+1 ...
        g_bp[-1] += g_shift[-1]  # ... and keeps the last one in place
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
