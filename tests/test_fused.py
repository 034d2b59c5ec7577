"""Fused attention and decoder nodes: gradients against finite
differences, and the whole teacher-forced pass against a reference built
from engine primitives and the test-side ops in oracle_ops.py (the oracle
below, one graph node per primitive op)."""

import numpy as np
import pytest

from prosynth import align, seq2seq, synthdata
from prosynth import autodiff as ad
from prosynth.errors import ShapeError

from oracle_ops import clamp_max, div, logsumexp, sigmoid, softmax, threshold_keep

_lstm_step = ad.lstm_step

# -- composed-primitive oracle ---------------------------------------------------------


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


def composed_augmented_step(b_t, b_prev, weights):
    if b_prev is None:
        return b_t
    b_t, b_prev, alpha, beta = (ad._wrap(x) for x in (b_t, b_prev, weights.alpha, weights.beta))
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


def composed_lstm_step(x, *rest):
    return _lstm_step(ad.concat(list(x)) if isinstance(x, tuple) else x, *rest)


def node_count(build):
    """Graph nodes build() creates, counted from the engine's id sequence."""
    first = ad.Tensor(0.0)._id
    build()
    return ad.Tensor(0.0)._id - first - 1


# -- location attention -------------------------------------------------------------


def attention_inputs(rng, n=6, d=3, a=4, f=2, k=3):
    """query, enc_proj, prev_align, cum_align, conv_w, loc_w, query_w, v."""
    prev = rng.dirichlet(np.ones(n))
    return (rng.normal(size=d), rng.normal(size=(n, a)), prev, prev + rng.dirichlet(np.ones(n)),
            rng.normal(size=(k, 2, f)), rng.normal(size=(f, a)), rng.normal(size=(d, a)), rng.normal(size=a))


ATTENTION_NAMES = ("query", "enc_proj", "prev_align", "cum_align", "conv_w", "loc_w", "query_w", "v")


def test_location_attention_fd_every_input():
    rng = np.random.default_rng(20)
    ins = [ad.parameter(x, name=name) for x, name in zip(attention_inputs(rng), ATTENTION_NAMES)]
    w = ad.Tensor(rng.normal(size=6))

    def build():
        return ad.matmul(ad.location_attention(*ins), w)

    for p in ins:
        err = ad.finite_diff_check(build, p, step=1e-6)
        assert err < 1e-5, f"{p.name}: rel err {err:.3e}"


def test_location_attention_matches_composed():
    rng = np.random.default_rng(21)
    raw = attention_inputs(rng, n=9, k=5)
    keys = ("att.location.conv", "att.location.w", "att.query.w", "att.v")
    grads = []
    for fused in (True, False):
        ins = [ad.parameter(x) for x in raw]
        query, enc_proj, prev, cum, conv_w, loc_w, query_w, v = ins
        if fused:
            out = ad.location_attention(*ins)
        else:
            params = dict(zip(keys, (conv_w, loc_w, query_w, v)))
            out = composed_initial_attention(params, query, enc_proj, prev, cum)
        ad.sum_(ad.mul(out, out)).backward()
        grads.append([out.data] + [p.grad for p in ins])
    for name, a, b in zip(("out",) + ATTENTION_NAMES, *grads):
        assert np.max(np.abs(a - b)) < 1e-12, name


def test_location_attention_is_one_node():
    rng = np.random.default_rng(22)
    ins = [ad.parameter(x) for x in attention_inputs(rng)]
    assert node_count(lambda: ad.location_attention(*ins)) == 1


def test_location_attention_rejects_bad_shapes():
    rng = np.random.default_rng(23)
    ins = list(attention_inputs(rng))
    ins[3] = ins[3][:-1]  # cum_align one entry short
    with pytest.raises(ShapeError, match="location_attention"):
        ad.location_attention(*ins)
    ins = list(attention_inputs(rng, k=4))  # even kernel
    with pytest.raises(ShapeError):
        ad.location_attention(*ins)


# -- augmented step -------------------------------------------------------------------


def onehot(n, k):
    v = np.zeros(n)
    v[k] = 1.0
    return v


def flat(n):
    return np.full(n, 1.0 / n)


def raw_score(c):
    return align.f1(c) * align.f2(c)


# name -> (b_t, b_prev, alpha, beta, finite-difference step, branch check)
AUGMENTED_CASES = {
    # both metrics strictly inside (threshold, 1): gamma interior
    "interior": (0.7 * onehot(8, 3) + 0.3 * flat(8), 0.8 * onehot(8, 2) + 0.2 * flat(8), 0.15, 0.6, 1e-6,
                 lambda bt, d: 0.12 < raw_score(bt) < 1 and 0.12 < raw_score(d) < 1 and align.f2(bt) < 1),
    # b_t scores below the threshold: gamma = 0, so no gradient reaches b_t
    # and beta cancels out; a wider step keeps the zero gradients above noise
    "below_threshold": (flat(8) + 0.01 * np.arange(8), 0.8 * onehot(8, 5) + 0.2 * flat(8), 0.1, 0.7, 1e-4,
                        lambda bt, d: raw_score(bt) <= 0.12 < raw_score(d)),
    # one-hot b_t: f1 * f2 > 1, so the outer clamp holds its metric at 1
    "metric_clamp": (onehot(10, 4), 0.8 * onehot(10, 3) + 0.2 * flat(10), 0.1, 0.5, 1e-6,
                     lambda bt, d: raw_score(bt) > 1 and 0.12 < raw_score(d) < 1),
    # sharp b_t: f2 clamps at 1 while f1 * f2 stays inside (threshold, 1)
    "f2_clamp": (0.85 * onehot(8, 4) + 0.15 * flat(8), 0.6 * onehot(8, 3) + 0.4 * flat(8), 0.45, 0.35, 1e-6,
                 lambda bt, d: align.f2(bt) == 1.0 and 0.12 < raw_score(bt) < 1),
    # N = 1: f2 is the constant 1 and the output is always [1]
    "n1": (np.array([0.7]), np.array([0.9]), 0.3, 0.6, 1e-6, lambda bt, d: align.f2(bt) == 1.0),
    # N = 2: the sticky shift moves all mass onto the last entry
    "n2": (np.array([0.3, 0.7]), np.array([0.6, 0.4]), 0.35, 0.55, 1e-6,
           lambda bt, d: 0.12 < raw_score(bt) < 1),
    # total mass under RENORM_FLOOR: the output falls back to d
    "renorm_fallback": (1e-10 * (1.0 + np.arange(6)), 1e-10 * (6.0 - np.arange(6)), 0.4, 0.5, 1e-12,
                        lambda bt, d: (1 - 0.5) * d.sum() + bt.sum() < 1e-8),
}


def augmented_loss(step, b_t, b_prev, alpha, beta, w):
    out = step(b_t, b_prev, align.SelectionWeights(alpha, beta))
    return ad.add(ad.sum_(ad.mul(out, ad.Tensor(w))), ad.sum_(ad.mul(out, out)))


@pytest.mark.parametrize("case", sorted(AUGMENTED_CASES))
def test_augmented_fd_every_input(case):
    bt, bp, alpha, beta, step, branch = AUGMENTED_CASES[case]
    assert branch(bt, align.stage1_select(bp, alpha)), "fixture no longer hits its branch"
    ins = [ad.parameter(np.asarray(x, dtype=np.float64), name=name)
           for x, name in zip((bt, bp, alpha, beta), ("b_t", "b_prev", "alpha", "beta"))]
    w = np.linspace(-1.0, 1.0, bt.size)

    def build():
        return augmented_loss(align.augmented_step, *ins, w)

    for p in ins:
        err = ad.finite_diff_check(build, p, step=step)
        assert err < 1e-4, f"{case} {p.name}: rel err {err:.3e}"


@pytest.mark.parametrize("case", sorted(AUGMENTED_CASES))
def test_augmented_matches_composed(case):
    bt, bp, alpha, beta, _, _ = AUGMENTED_CASES[case]
    w = np.linspace(-1.0, 1.0, bt.size)
    results = []
    for step in (align.augmented_step, composed_augmented_step):
        ins = [ad.parameter(np.asarray(x, dtype=np.float64)) for x in (bt, bp, alpha, beta)]
        loss = augmented_loss(step, *ins, w)
        loss.backward()
        results.append([loss.data] + [np.zeros_like(p.data) if p.grad is None else p.grad for p in ins])
    for name, a, b in zip(("loss", "b_t", "b_prev", "alpha", "beta"), *results):
        assert np.max(np.abs(a - b)) < 1e-10, f"{case} {name}"


def test_augmented_is_one_node():
    bt, bp, alpha, beta = (ad.parameter(x) for x in AUGMENTED_CASES["interior"][:4])
    weights = align.SelectionWeights(alpha, beta)
    assert node_count(lambda: align.augmented_step(bt, bp, weights)) == 1


def test_augmented_tensor_checks_kept():
    b = ad.parameter(flat(5))
    with pytest.raises(ValueError, match="alpha"):
        align.augmented_step(b, b, align.SelectionWeights(ad.Tensor(1.5), 0.5))
    with pytest.raises(ValueError, match="beta"):
        align.augmented_step(b, b, align.SelectionWeights(0.5, ad.Tensor(-0.1)))
    with pytest.raises(ValueError, match="length mismatch"):
        align.augmented_step(ad.parameter(flat(4)), b, align.SelectionWeights(0.5, 0.5))


# -- through the decoder ------------------------------------------------------------------

TINY = dict(encoder_rnn_width=2, decoder_rnn_width=4, prenet_hidden=4, prenet_out=3, attention_dim=4,
            location_filters=2, location_kernel=3, frame_width=2, postnet_channels=2)


@pytest.mark.parametrize("mode", ["augmented", "plain"])
def test_decoder_step_fd(mode):
    # one step with alignment history, so that augmented mode runs the
    # augmented step; the history is fixed input, as is the fed-back frame
    cfg = seq2seq.ModelConfig(**TINY)
    params = seq2seq.init_params(cfg, vocab_size=5)
    rng = np.random.default_rng(30)
    for name in ("h1", "c1", "h2", "c2"):
        params[f"dec.init.{name}"].data = rng.normal(scale=0.5, size=cfg.decoder_rnn_width)
    params["att.v"].data = params["att.v"].data * 250.0  # a peaked b_t ...
    params["att.alpha.b"].data = np.asarray(-2.0)  # ... and a peaked d give 0 < gamma < 1
    n = 5
    enc_cond = ad.parameter(rng.normal(size=(n, cfg.context_dim)), name="enc_cond")
    a_prev = 0.7 * onehot(n, 1) + 0.3 * flat(n)
    history = {"a_prev": ad.Tensor(a_prev), "cum": ad.Tensor(a_prev + onehot(n, 0)),
               "x_c": ad.Tensor(rng.normal(size=cfg.context_dim)), "y_prev": ad.Tensor(rng.normal(size=cfg.frame_width))}
    prev_true = rng.normal(size=cfg.frame_width)
    w = ad.Tensor(rng.normal(size=cfg.frame_width + 1 + n))
    seen = {}

    def build():
        enc_proj = ad.matmul(enc_cond, params["att.memory.w"])
        state = {**seq2seq.init_decoder_state(params, cfg, n), **history}
        out, a_t, _ = seq2seq.decoder_step(params, state, enc_cond, enc_proj, mode, prev_true=prev_true)
        seen["a_t"] = a_t.data
        return ad.matmul(ad.concat([out, a_t]), w)

    build()
    if mode == "augmented":
        d = align.stage1_select(a_prev, 1.0 / (1.0 + np.exp(2.0)))
        assert 0.12 < raw_score(d) < 1
        assert not np.allclose(seen["a_t"], d)  # b_t took part in the mix
    checked = [enc_cond] + [p for k, p in sorted(params.items()) if k.split(".")[0] in ("dec", "att", "out")]
    for p in checked:
        err = ad.finite_diff_check(build, p, step=1e-5)
        assert err < 1e-4, f"{mode} {p.name}: rel err {err:.3e}"


def decoder_params(seed):
    """TINY-config parameters moved off their init, so every head and
    relu carries signal."""
    cfg = seq2seq.ModelConfig(**TINY)
    params = seq2seq.init_params(cfg, vocab_size=5)
    rng = np.random.default_rng(seed)
    for p in params.values():
        p.data = np.asarray(p.data + rng.normal(scale=0.5, size=p.data.shape))  # 0-d stays an array
    return cfg, params, rng


def check_every_input(build, inputs, step=1e-6, tol=1e-5):
    for p in inputs:
        err = ad.finite_diff_check(build, p, step=step)
        assert err < tol, f"{p.name}: rel err {err:.3e}"


@pytest.mark.parametrize("feed", ["teacher", "free"])
def test_prenet_double_feed_fd_every_input(feed):
    cfg, params, rng = decoder_params(30)
    pred = ad.Tensor(rng.normal(size=cfg.frame_width))
    prev_true = rng.normal(size=cfg.frame_width) if feed == "teacher" else None
    w = ad.Tensor(rng.normal(size=cfg.prenet_out))

    def build():
        return ad.matmul(seq2seq.prenet_double_feed(params, prev_true, pred), w)

    out = seq2seq.prenet_double_feed(params, prev_true, pred).data
    assert 0 < np.count_nonzero(out) < out.size  # both sides of the relu
    check_every_input(build, [params[k] for k in sorted(params) if k.startswith("dec.prenet")])


def test_selection_heads_fd_every_input():
    cfg, params, rng = decoder_params(32)
    s_p, x_c, h2 = (ad.parameter(rng.normal(size=n), name=name) for n, name in
                    ((cfg.prenet_out, "s_p"), (cfg.context_dim, "x_c"), (cfg.decoder_rnn_width, "h2")))
    w = ad.Tensor(np.array([0.7, -1.3]))

    def build():
        return ad.matmul(seq2seq.selection_heads(params, s_p, x_c, h2), w)

    heads = [params[k] for k in ("att.alpha.w", "att.alpha.b", "att.beta.w", "att.beta.b")]
    check_every_input(build, [s_p, x_c, h2] + heads)


def test_frame_output_fd_every_input():
    cfg, params, rng = decoder_params(33)
    h2 = ad.parameter(rng.normal(size=cfg.decoder_rnn_width), name="h2")
    x_c = ad.parameter(rng.normal(size=cfg.context_dim), name="x_c")
    w = ad.Tensor(rng.normal(size=cfg.frame_width + 1))

    def build():
        return ad.matmul(seq2seq.frame_output(params, h2, x_c), w)

    check_every_input(build, [h2, x_c] + [params[k] for k in sorted(params) if k.startswith("out.")])


@pytest.mark.parametrize("mode, limit", [("augmented", 15), ("plain", 11)])
def test_decoder_step_node_count(mode, limit, made_nodes):
    # one frame with alignment history, the step every frame after the first takes
    cfg, params, rng = decoder_params(34)
    n = 5
    enc_cond = ad.parameter(rng.normal(size=(n, cfg.context_dim)))
    enc_proj = ad.matmul(enc_cond, params["att.memory.w"])
    a_prev = rng.dirichlet(np.ones(n))
    state = {**seq2seq.init_decoder_state(params, cfg, n), "a_prev": ad.Tensor(a_prev), "cum": ad.Tensor(a_prev)}
    made_nodes.clear()
    seq2seq.decoder_step(params, state, enc_cond, enc_proj, mode, prev_true=rng.normal(size=cfg.frame_width))
    assert len(made_nodes) <= limit


@pytest.fixture(scope="module")
def utterance():
    corpus = synthdata.generate_corpus(synthdata.CorpusConfig(utterance_count=4, validation_count=1, seed=5))
    return corpus.config.vocab_size, corpus.utterances[0]


@pytest.mark.parametrize("mode", ["augmented", "plain"])
def test_teacher_forced_matches_composed(mode, utterance, monkeypatch):
    vocab, utt = utterance
    cfg = seq2seq.ModelConfig()
    results = []
    for composed in (False, True):
        if composed:
            monkeypatch.setattr(seq2seq, "initial_attention", composed_initial_attention)
            monkeypatch.setattr(align, "augmented_step", composed_augmented_step)
            monkeypatch.setattr(seq2seq, "prenet_double_feed", composed_prenet)
            monkeypatch.setattr(seq2seq, "selection_heads", composed_selection_heads)
            monkeypatch.setattr(seq2seq, "frame_output", composed_frame_output)
            monkeypatch.setattr(ad, "lstm_step", composed_lstm_step)
            monkeypatch.setattr(ad, "stack", composed_stack)
        params = seq2seq.init_params(cfg, vocab)
        params["att.v"].data = params["att.v"].data * 10.0  # most steps then have 0 < gamma < 1
        rng = np.random.default_rng(40)
        for k in ("att.alpha.w", "att.beta.w"):  # off their zero init, so the heads pass gradient on
            params[k].data = rng.normal(scale=0.1, size=params[k].data.shape)
        loss, trace = seq2seq.teacher_forced(params, cfg, utt, np.array([0.3, -0.2]), mode)
        loss.backward()
        results.append((float(loss.data), trace.alignment, {k: p.grad for k, p in params.items()}))
    (loss, alignment, grads), (ref_loss, ref_alignment, ref_grads) = results
    assert abs(loss - ref_loss) < 1e-10
    assert np.max(np.abs(alignment - ref_alignment)) < 1e-10
    for k, g in ref_grads.items():
        if g is None:
            assert grads[k] is None, k
        else:
            assert np.max(np.abs(grads[k] - g)) < 1e-10, k
    assert grads["att.query.w"] is not None and np.any(grads["att.query.w"] != 0.0)
