"""The hand-differentiated decoder stages, each made one node with
as_node, and the decoder node: gradients against finite differences (also
of the per-utterance context projection), the whole teacher-forced
pass against the per-frame decoder of oracle_decoder.py, in its form with
the library's stages and in its form composed from engine primitives (one
graph node per op), and free-running synthesis against the composed
form."""

import dataclasses

import numpy as np
import pytest

from prosynth import align, seq2seq, synthdata
from prosynth import autodiff as ad
from prosynth.errors import ShapeError

import oracle_decoder as oracle
from oracle_decoder import composed_augmented_step, composed_initial_attention
from oracle_ops import as_node, attention_node


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
        return ad.matmul(attention_node(*ins), w)

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
            out = attention_node(*ins)
        else:
            params = dict(zip(keys, (conv_w, loc_w, query_w, v)))
            out = composed_initial_attention(params, query, enc_proj, prev, cum)
        ad.sum_(ad.mul(out, out)).backward()
        grads.append([out.data] + [p.grad for p in ins])
    for name, a, b in zip(("out",) + ATTENTION_NAMES, *grads):
        assert np.max(np.abs(a - b)) < 1e-12, name


def test_location_attention_rejects_bad_shapes():
    rng = np.random.default_rng(23)
    ins = list(attention_inputs(rng))
    ins[3] = ins[3][:-1]  # cum_align one entry short
    with pytest.raises(ShapeError, match="location_attention"):
        ad.location_attention_vjp(*ins[:4], ad.location_kernel(*ins[4:6]), *ins[6:])
    ins = list(attention_inputs(rng, k=4))  # even kernel
    with pytest.raises(ShapeError, match="location_attention"):
        ad.location_kernel(*ins[4:6])


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
    out = step(b_t, b_prev, alpha, beta)
    return ad.add(ad.sum_(ad.mul(out, ad.Tensor(w))), ad.sum_(ad.mul(out, out)))


def metric_node(c):
    score, backward = align.structure_metric(c.data)
    return as_node((score, lambda g: (backward(g),)), (c,))


# stage -> (one node over the named inputs, their names); "d" is the
# stage-1 candidate the case's b_prev and alpha make
STAGES = {
    "metric_b_t": (metric_node, ("b_t",)),
    "metric_d": (metric_node, ("d",)),
    "stage1": (lambda bp, alpha: as_node(align.stage1_select(bp.data, alpha.data), (bp, alpha)),
               ("b_prev", "alpha")),
    "stage2": (lambda d, bt, beta: as_node(align.stage2_select(d.data, bt.data, beta.data), (d, bt, beta)),
               ("d", "b_t", "beta")),
}


def stage_loss(out):
    """A scalar loss that reads every entry of a stage's output."""
    w = np.linspace(0.5, 1.5, out.data.size).reshape(out.data.shape)
    return ad.add(ad.sum_(ad.mul(out, ad.Tensor(w))), ad.sum_(ad.mul(out, out)))


@pytest.mark.parametrize("case", sorted(AUGMENTED_CASES))
def test_augmented_fd_every_input(case):
    bt, bp, alpha, beta, step, branch = AUGMENTED_CASES[case]
    d = align.stage1_select(bp, alpha)[0]
    assert branch(bt, d), "fixture no longer hits its branch"
    ins = [ad.parameter(np.asarray(x, dtype=np.float64), name=name)
           for x, name in zip((bt, bp, alpha, beta), ("b_t", "b_prev", "alpha", "beta"))]
    w = np.linspace(-1.0, 1.0, bt.size)

    def build():
        return augmented_loss(oracle.fused_augmented_step, *ins, w)

    for p in ins:
        err = ad.finite_diff_check(build, p, step=step)
        assert err < 1e-4, f"{case} {p.name}: rel err {err:.3e}"
    # each stage's own backward, on the same inputs
    values = {"b_t": bt, "b_prev": bp, "alpha": alpha, "beta": beta, "d": d}
    for stage, (node, names) in STAGES.items():
        stage_ins = [ad.parameter(np.asarray(values[k], dtype=np.float64), name=k) for k in names]

        def build_stage():
            return stage_loss(node(*stage_ins))

        for p in stage_ins:
            err = ad.finite_diff_check(build_stage, p, step=step)
            assert err < 1e-4, f"{case} {stage} {p.name}: rel err {err:.3e}"


def random_augmented_case(seed):
    """(b_t, b_prev, alpha, beta) for N = 1..40: every third draw is a pair
    of peaks a symbol apart, so both scores often clear the threshold."""
    rng = np.random.default_rng((seed, 0xA16))
    n = int(rng.integers(1, 41))
    if seed % 3 == 0:
        k = int(rng.integers(0, n))
        peaks = [np.eye(n)[min(k + s, n - 1)] for s in (1, 0)]
        bt, bp = (p * rng.uniform(0.3, 1.0) for p in peaks)
        bt, bp = (v + (1.0 - v.sum()) * rng.dirichlet(np.ones(n)) for v in (bt, bp))
    else:
        bt, bp = rng.dirichlet(np.full(n, 10 ** rng.uniform(-2, 1)), size=2)
    return bt, bp, float(rng.uniform()), float(rng.uniform())


COMPOSED_CASES = {**{name: case[:4] for name, case in AUGMENTED_CASES.items()},
                  **{f"random{seed:03d}": random_augmented_case(seed) for seed in range(200)}}


@pytest.mark.parametrize("case", sorted(COMPOSED_CASES))
def test_augmented_matches_composed(case):
    bt, bp, alpha, beta = COMPOSED_CASES[case]
    w = np.linspace(-1.0, 1.0, bt.size)
    results = []
    for step in (oracle.fused_augmented_step, composed_augmented_step):
        ins = [ad.parameter(np.asarray(x, dtype=np.float64)) for x in (bt, bp, alpha, beta)]
        loss = augmented_loss(step, *ins, w)
        loss.backward()
        results.append([loss.data] + [np.zeros_like(p.data) if p.grad is None else p.grad for p in ins])
    for name, a, b in zip(("loss", "b_t", "b_prev", "alpha", "beta"), *results):
        assert np.max(np.abs(a - b)) < 1e-10, f"{case} {name}"


def test_augmented_tensor_checks_kept():
    # the step's input checks hold on the node the oracle builds from it
    b, half = ad.parameter(flat(5)), ad.Tensor(0.5)
    with pytest.raises(ValueError, match="alpha"):
        oracle.fused_augmented_step(b, b, ad.Tensor(1.5), half)
    with pytest.raises(ValueError, match="beta"):
        oracle.fused_augmented_step(b, b, half, ad.Tensor(-0.1))
    with pytest.raises(ValueError, match="length mismatch"):
        oracle.fused_augmented_step(ad.parameter(flat(4)), b, half, half)


# -- through the decoder ------------------------------------------------------------------

TINY = dict(encoder_rnn_width=2, decoder_rnn_width=4, prenet_hidden=4, prenet_out=3, attention_dim=4,
            location_filters=2, location_kernel=3, frame_width=2, postnet_channels=2)


def perturb_heads(params, rng):
    """Move the selection heads off their zero init, att.alpha.w and the
    heads' two columns of dec.context.w (its last), so they pass gradient
    on."""
    params["att.alpha.w"].data = rng.normal(scale=0.1, size=params["att.alpha.w"].data.shape)
    params["dec.context.w"].data[:, -2:] = rng.normal(scale=0.1, size=(params["dec.context.w"].data.shape[0], 2))


@pytest.mark.parametrize("mode", ["augmented", "plain"])
def test_decoder_step_fd(mode):
    # the decoder node over three frames: frames 1 and 2 take the step with
    # alignment history, and the state gradients run back through every
    # recurrent input
    cfg = seq2seq.ModelConfig(**TINY)
    params = seq2seq.init_params(cfg, vocab_size=5)
    rng = np.random.default_rng(32)
    for k, p in params.items():
        if k != "att.alpha.w":  # zero, so that alpha is the logistic of its bias alone ...
            p.data = np.asarray(p.data + rng.normal(scale=0.3, size=p.data.shape))
    params["dec.context.w"].data[:, oracle.context_columns(params, "alpha")] = 0.0  # ... and x_c's
    # the fed-back prediction is data, not a gradient path; zero pre-net
    # weights on it keep the forward from depending on it, so finite
    # differences see no such path either
    params["dec.prenet1.w"].data[cfg.frame_width:] = 0.0
    params["att.v"].data = params["att.v"].data * 100.0  # a peaked b_t ...
    params["att.alpha.b"].data = np.asarray(-2.0)  # ... and a peaked d give 0 < gamma < 1
    n = 5
    enc_cond = ad.parameter(rng.normal(size=(n, cfg.context_dim)), name="enc_cond")
    enc_proj = ad.parameter(rng.normal(size=(n, cfg.attention_dim)), name="enc_proj")
    targets = rng.normal(size=(3, cfg.frame_width))
    w = ad.Tensor(rng.normal(size=(3, cfg.frame_width + 1)))

    def build():
        out, _ = seq2seq.decoder_node(params, cfg, enc_cond, enc_proj, mode, targets)
        return ad.sum_(ad.mul(out, w))

    if mode == "augmented":
        _, alignment = seq2seq.decoder_node(params, cfg, enc_cond, enc_proj, mode, targets)
        for t in (1, 2):
            d = align.stage1_select(alignment[:, t - 1], 1.0 / (1.0 + np.exp(2.0)))[0]
            assert 0.12 < raw_score(d) < 1
            assert not np.allclose(alignment[:, t], d)  # b_t took part in the mix
    checked = [enc_cond, enc_proj] + [p for k, p in sorted(params.items())
                                      if k.split(".")[0] in ("dec", "att", "out") and k != "att.memory.w"]
    for p in checked:
        err = ad.finite_diff_check(build, p, step=1e-5)
        assert err < 1e-4, f"{mode} {p.name}: rel err {err:.3e}"


@pytest.mark.parametrize("mode", ["augmented", "plain"])
def test_context_projection_fd(mode):
    # the context projection enc_cond @ W_ctx is differentiated once per
    # utterance: its gradient reaches enc_cond and W_ctx = dec.context.w,
    # every column block of which meets x_c (all but the heads' two in
    # plain mode, which runs no heads)
    cfg = seq2seq.ModelConfig(**TINY)
    params = seq2seq.init_params(cfg, vocab_size=5)
    rng = np.random.default_rng(35)
    for p in params.values():
        p.data = np.asarray(p.data + rng.normal(scale=0.3, size=p.data.shape))
    params["dec.prenet1.w"].data[cfg.frame_width:] = 0.0  # the fed-back prediction is data
    params["att.v"].data = params["att.v"].data * 10.0  # b_t sharp enough that 0 < gamma < 1, not one-hot
    params["att.alpha.b"].data = np.asarray(-2.0)
    n = 5
    enc_cond = ad.parameter(rng.normal(size=(n, cfg.context_dim)), name="enc_cond")
    enc_proj = ad.Tensor(rng.normal(size=(n, cfg.attention_dim)))
    targets = rng.normal(size=(4, cfg.frame_width))
    w = ad.Tensor(rng.normal(size=(4, cfg.frame_width + 1)))

    def build():
        out, _ = seq2seq.decoder_node(params, cfg, enc_cond, enc_proj, mode, targets)
        return ad.sum_(ad.mul(out, w))

    w_ctx = params["dec.context.w"]
    build().backward()
    for stage in oracle.CONTEXT_BLOCKS:  # the check is not vacuous: every block gets a gradient
        g = w_ctx.grad[:, oracle.context_columns(params, stage)]
        assert (np.max(np.abs(g)) > 1e-6) == (mode == "augmented" or stage not in ("alpha", "beta")), stage
    for p in (enc_cond, w_ctx):
        err = ad.finite_diff_check(build, p)
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
    pred = rng.normal(size=cfg.frame_width)
    prev_true = rng.normal(size=cfg.frame_width) if feed == "teacher" else None
    w = ad.Tensor(rng.normal(size=cfg.prenet_out))

    def build():
        return ad.matmul(oracle.fused_prenet(params, prev_true, ad.Tensor(pred)), w)

    out, _ = seq2seq.prenet_double_feed(params, prev_true, pred)
    assert 0 < np.count_nonzero(out) < out.size  # both sides of the relu
    check_every_input(build, [params[k] for k in oracle.PRENET_KEYS])


def test_selection_heads_fd_every_input():
    # x_c enters as its two projected terms; the heads' columns of
    # dec.context.w are not inputs of the stage
    cfg, params, rng = decoder_params(32)
    s_p, ctx_heads, h2 = (ad.parameter(rng.normal(size=n), name=name) for n, name in
                          ((cfg.prenet_out, "s_p"), (2, "ctx_heads"), (cfg.decoder_rnn_width, "h2")))
    w = ad.Tensor(np.array([0.7, -1.3]))

    def build():
        return ad.matmul(oracle.fused_selection_heads(params, s_p, ctx_heads, h2), w)

    check_every_input(build, [s_p, ctx_heads, h2] + [params[k] for k in oracle.HEAD_KEYS])


def test_frame_output_fd_every_input():
    cfg, params, rng = decoder_params(33)
    h2 = ad.parameter(rng.normal(size=cfg.decoder_rnn_width), name="h2")
    ctx_out = ad.parameter(rng.normal(size=cfg.frame_width + 1), name="ctx_out")
    w = ad.Tensor(rng.normal(size=cfg.frame_width + 1))

    def build():
        return ad.matmul(oracle.fused_frame_output(params, h2, ctx_out), w)

    check_every_input(build, [h2, ctx_out] + [params[k] for k in oracle.READOUT_KEYS])


@pytest.mark.parametrize("mode", ["augmented", "plain"])
def test_decoder_step_node_count(mode, made_nodes):
    # one frame with alignment history, the step every frame after the
    # first takes, runs on plain arrays and makes no graph node
    cfg, params, rng = decoder_params(34)
    n = 5
    a_prev = rng.dirichlet(np.ones(n))
    d, f = cfg.decoder_rnn_width, cfg.frame_width
    ctx_proj = rng.normal(size=(n, 8 * d + f + (3 if mode == "augmented" else 1)))
    enc_proj = rng.normal(size=(n, cfg.attention_dim))
    state = {**seq2seq.init_decoder_state(params, cfg, ctx_proj), "a_prev": a_prev, "cum": a_prev}
    made_nodes.clear()
    kernel = seq2seq.location_kernel(params)
    seq2seq.decoder_step(params, state, ctx_proj, enc_proj, kernel, mode, prev_true=rng.normal(size=cfg.frame_width))
    assert made_nodes == []


@pytest.fixture(scope="module")
def utterance():
    corpus = synthdata.generate_corpus(synthdata.CorpusConfig(utterance_count=4, validation_count=1, seed=5))
    return corpus.config.vocab_size, corpus.utterances[0]


def largest_relative_difference(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


@pytest.mark.parametrize("mode", ["augmented", "plain"])
def test_teacher_forced_matches_composed(mode, utterance):
    # the library pass against the per-frame decoder: in the form with the
    # library's stages the forward is the same arithmetic, so its values
    # are bit-identical and only the order of gradient sums moves; the
    # composed form shares none of the hand-written backwards
    vocab, utt = utterance
    cfg = seq2seq.ModelConfig()
    results = []
    for run in (seq2seq.teacher_forced, lambda *a: oracle.teacher_forced(oracle.FUSED, *a),
                lambda *a: oracle.teacher_forced(oracle.COMPOSED, *a)):
        params = seq2seq.init_params(cfg, vocab)
        params["att.v"].data = params["att.v"].data * 10.0  # most steps then have 0 < gamma < 1
        perturb_heads(params, np.random.default_rng(40))
        loss, trace = run(params, cfg, utt, np.array([0.3, -0.2]), mode)
        loss.backward()
        results.append((loss.data, trace, {k: p.grad for k, p in params.items()}))
    (loss, trace, grads), (fused_loss, fused_trace, fused_grads), (ref_loss, ref_trace, ref_grads) = results
    assert np.array_equal(loss, fused_loss)
    for key in ("y", "z", "stop_logits", "alignment"):
        assert np.array_equal(getattr(trace, key), getattr(fused_trace, key)), key
    assert abs(loss - ref_loss) < 1e-10
    assert np.max(np.abs(trace.alignment - ref_trace.alignment)) < 1e-10
    for k, g in ref_grads.items():
        if g is None:
            assert grads[k] is None and fused_grads[k] is None, k
        else:
            assert largest_relative_difference(grads[k], fused_grads[k]) < 1e-12, k
            assert np.max(np.abs(grads[k] - g)) < 1e-10, k
    assert grads["att.query.w"] is not None and np.any(grads["att.query.w"] != 0.0)


@pytest.fixture(scope="module")
def long_utterance():
    """An utterance of N = 35 symbols cut to T = 155 frames, the length of
    the longest utterance the training benchmark runs."""
    corpus = synthdata.generate_corpus(synthdata.CorpusConfig(utterance_count=10, validation_count=0, min_words=4,
                                                              max_words=8, seed=5))
    utt = corpus.utterances[9]
    return corpus.config.vocab_size, dataclasses.replace(utt, features=utt.features[:155])


@pytest.mark.parametrize("mode", ["augmented", "plain"])
def test_teacher_forced_matches_fused_on_a_long_utterance(mode, long_utterance):
    # the library pass contracts every weight gradient once over the
    # utterance's rows, where the per-frame decoder with the library's
    # stages sums one frame's part at a time: over 155 frames of 35
    # positions the forward stays bit-identical and the gradient sums'
    # order moves furthest
    vocab, utt = long_utterance
    assert utt.features.shape[0] == 155 and len(utt.symbols) >= 20
    cfg = seq2seq.ModelConfig()
    results = []
    for run in (seq2seq.teacher_forced, lambda *a: oracle.teacher_forced(oracle.FUSED, *a)):
        params = seq2seq.init_params(cfg, vocab)
        params["att.v"].data = params["att.v"].data * 10.0
        perturb_heads(params, np.random.default_rng(42))
        loss, trace = run(params, cfg, utt, np.array([-0.4, 0.5]), mode)
        loss.backward()
        results.append((loss.data, trace, {k: p.grad for k, p in params.items()}))
    (loss, trace, grads), (fused_loss, fused_trace, fused_grads) = results
    assert np.array_equal(loss, fused_loss)
    for key in ("y", "z", "stop_logits", "alignment"):
        assert np.array_equal(getattr(trace, key), getattr(fused_trace, key)), key
    for k, g in fused_grads.items():
        if g is None:
            assert grads[k] is None, k
        else:
            assert largest_relative_difference(grads[k], g) < 1e-12, k
    assert np.any(grads["att.location.conv"] != 0.0) and np.any(grads["att.query.w"] != 0.0)


def free_run_params(cfg, vocab):
    """Parameters with a peaked initial attention and selection heads off
    their zero init, so augmented steps mix b_t in and the heads carry
    signal; the stop head, scaled by -10, gives a stop probability that
    rises over the first frames."""
    params = seq2seq.init_params(cfg, vocab)
    params["att.v"].data = params["att.v"].data * 10.0
    params["out.stop.w"].data = params["out.stop.w"].data * -10.0
    params["dec.context.w"].data[:, oracle.context_columns(params, "stop")] *= -10.0
    perturb_heads(params, np.random.default_rng(41))
    return params


def first_symbols(symbols, n):
    return synthdata.SymbolSequence(symbols.ids[:n], symbols.stress[:n], symbols.phrase[:n],
                                    symbols.word_break[:n], symbols.silence[:n])


@pytest.mark.parametrize("mode", ["augmented", "plain"])
@pytest.mark.parametrize("n", [1, 9])
def test_synthesize_matches_composed_free_run(mode, n, utterance):
    # free-running decodes, fed their own predictions, against the per-frame
    # decoder composed from engine primitives: one run to the length cap,
    # then one with a threshold that the stop probability first clears
    # part-way through that run
    vocab, utt = utterance
    symbols = first_symbols(utt.symbols, n)
    vec = np.array([0.3, -0.2])
    capped = seq2seq.ModelConfig(stop_threshold=1.0, max_decode_ratio=6)
    params = free_run_params(capped, vocab)
    probs = 1.0 / (1.0 + np.exp(-seq2seq.synthesize(params, capped, symbols, vec, mode).stop_logits))
    # the frames before the last whose stop probability tops every earlier one
    records = [k for k in range(1, probs.size - 1) if probs[k] > np.max(probs[:k]) + 1e-6]
    last = records[len(records) // 2]
    stopping = dataclasses.replace(capped, stop_threshold=0.5 * (probs[last] + np.max(probs[:last])))
    for cfg, frames in ((capped, 6 * n), (stopping, last + 1)):
        trace = seq2seq.synthesize(params, cfg, symbols, vec, mode)
        ref = oracle.synthesize(oracle.COMPOSED, params, cfg, symbols, vec, mode)
        assert trace.frame_count == ref.frame_count == frames
        assert trace.truncated == ref.truncated == (frames == 6 * n)
        for key in ("y", "z", "stop_logits", "alignment"):
            assert np.max(np.abs(getattr(trace, key) - getattr(ref, key))) < 1e-10, key
