"""seq2seq: the strict config loader and the config's value checks, the
checks on prosody vectors, symbols and target frames, decode truncation,
the training output directory, graph-free inference (values bit-identical
to grad mode, no graph recorded), a backward that reaches every parameter,
the corpus splits that train needs, one training step against the
batch-wide form of its backward, and the collector pause in train."""

import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest

from prosynth import align, seq2seq, synthdata
from prosynth import autodiff as ad
from prosynth.errors import ConfigError, DataError

TINY = dict(encoder_rnn_width=4, decoder_rnn_width=6, prenet_hidden=6, prenet_out=4, attention_dim=6,
            location_filters=2, location_kernel=3, postnet_channels=3, symbol_embedding=4,
            stress_embedding=2, phrase_embedding=2, encoder_conv_channels=6, encoder_conv_kernel=3,
            batch_size=2, prosody_zero_epochs=1)
MODES = ["augmented", "plain"]


@pytest.fixture(scope="module")
def corpus():
    return synthdata.generate_corpus(synthdata.CorpusConfig(utterance_count=5, validation_count=2, seed=9))


@pytest.fixture(scope="module")
def table(corpus):
    rng = np.random.default_rng(9)
    return {u.utt_id: rng.normal(size=2) for u in corpus.utterances}


@pytest.fixture(scope="module")
def params(corpus):
    p = seq2seq.init_params(seq2seq.ModelConfig(**TINY), corpus.config.vocab_size)
    rng = np.random.default_rng(3)
    for t in p.values():  # move off the neutral init so every branch carries signal
        t.data = t.data + rng.normal(scale=0.3, size=t.data.shape)
    return p


def assert_no_graph(nodes):
    assert nodes
    for t in nodes:
        assert t._parents == () and t._backward is None and not t.requires_grad


def assert_same_trace(a, b):
    for key in ("y", "z", "stop_logits", "alignment"):
        assert np.array_equal(getattr(a, key), getattr(b, key)), key
    assert a.truncated == b.truncated


# -- config loader -------------------------------------------------------------------


def test_config_round_trip(tmp_path):
    cfg = seq2seq.ModelConfig(seed=3, grad_clip=None, learning_rate=0.125, **TINY)
    cfg.save(tmp_path / "cfg.json")
    assert seq2seq.load_model_config(tmp_path / "cfg.json") == cfg


@pytest.mark.parametrize("edit, field", [
    (lambda raw: raw.pop("stop_threshold"), "stop_threshold"),
    (lambda raw: raw.update(warmup_steps=10), "warmup_steps"),
], ids=["missing", "unknown"])
def test_config_strict_fields(tmp_path, edit, field):
    path = tmp_path / "cfg.json"
    seq2seq.ModelConfig().save(path)
    raw = json.loads(path.read_text())
    edit(raw)
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match=field):
        seq2seq.load_model_config(path)


@pytest.mark.parametrize("body, match", [
    (b'{"seed": 7,', "Expecting"),
    (b'{"seed": 7, "n\xe9": 0}', "ascii"),
    (b'[1, 2]', "config must be a JSON object, got list"),
], ids=["bad_json", "non_ascii", "not_object"])
def test_config_bad_file_names_it(tmp_path, body, match):
    path = tmp_path / "cfg.json"
    path.write_bytes(body)
    with pytest.raises(ConfigError, match=rf"cfg\.json: .*{match}"):
        seq2seq.load_model_config(path)


@pytest.mark.parametrize("value, match", [(0, "batch_size must be at least 1"), ("8", "not supported")],
                         ids=["out_of_range", "wrong_type"])
def test_config_invalid_value_in_file_names_it(tmp_path, value, match):
    path = tmp_path / "cfg.json"
    seq2seq.ModelConfig().save(path)
    raw = json.loads(path.read_text())
    raw["batch_size"] = value
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match=rf"cfg\.json: .*{match}"):
        seq2seq.load_model_config(path)


@pytest.mark.parametrize("field, value", [
    ("batch_size", 0), ("max_decode_ratio", 0), ("attention_dim", 0), ("frame_width", 0),
    ("encoder_conv_kernel", 4), ("location_kernel", 2), ("postnet_kernel", 0), ("postnet_kernel", -1),
    ("epochs", -1), ("prosody_zero_epochs", -1),
    ("learning_rate", 0.0), ("learning_rate", float("nan")), ("stop_pos_weight", -1.0),
    ("momentum", 1.0), ("momentum", -0.1), ("grad_clip", 0.0),
    ("stop_threshold", 1.5), ("stop_threshold", -0.1),
])
def test_config_rejects_unusable_value(field, value):
    with pytest.raises(ConfigError, match=field):
        seq2seq.ModelConfig(**{field: value})


def test_config_accepts_edge_values():
    seq2seq.ModelConfig(epochs=0, prosody_zero_epochs=0, momentum=0.0, grad_clip=None, stop_threshold=0.0,
                        batch_size=1, max_decode_ratio=1, encoder_conv_kernel=1, location_kernel=1, postnet_kernel=1)
    seq2seq.ModelConfig(stop_threshold=1.0)


# -- input checks --------------------------------------------------------------------


@pytest.mark.parametrize("vec", [[np.nan, 0.0], [np.inf, 0.0], [0.1, -0.2, 0.3]], ids=["nan", "inf", "three"])
@pytest.mark.parametrize("mode", MODES)
def test_bad_prosody_vector_raises(corpus, params, vec, mode):
    # unchecked, NaN gives non-finite frames or fails deep in align or the
    # stop loss, and inf decodes without complaint
    cfg = seq2seq.ModelConfig(**TINY)
    u = corpus.utterances[0]
    with pytest.raises(ValueError, match=r"prosody vector must be None or a finite \(2,\) array"):
        seq2seq.synthesize(params, cfg, u.symbols, vec, mode)
    with pytest.raises(ValueError, match=r"prosody vector must be None or a finite \(2,\) array"):
        seq2seq.teacher_forced(params, cfg, u, vec, mode)


def _with_target(utterance, frame, value):
    features = utterance.features.copy()
    features[frame, 1] = value
    return dataclasses.replace(utterance, features=features)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("mode", MODES)
def test_non_finite_target_raises_before_encoding(corpus, table, params, monkeypatch, value, mode):
    # unchecked, a middle frame fed as the true previous frame fails deep
    # in align (augmented) or as a bare FloatingPointError (plain)
    u = corpus.utterances[0]
    middle = u.features.shape[0] // 2
    encoded = []
    monkeypatch.setattr(seq2seq, "encode", lambda *args: encoded.append(args))
    with pytest.raises(DataError, match=rf"target frame {middle} of utterance {u.utt_id} is not finite"):
        seq2seq.teacher_forced(params, seq2seq.ModelConfig(**TINY), _with_target(u, middle, value),
                               table[u.utt_id], mode)
    assert encoded == []


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("mode", MODES)
def test_train_with_a_non_finite_target_fails_before_any_checkpoint(tmp_path, corpus, table, value, mode):
    bad = corpus.split("train")[-1]
    middle = bad.features.shape[0] // 2
    utterances = [_with_target(u, middle, value) if u is bad else u for u in corpus.utterances]
    epochs = []
    with pytest.raises(DataError, match=rf"target frame {middle} of utterance {bad.utt_id} is not finite"):
        seq2seq.train(dataclasses.replace(corpus, utterances=utterances), table,
                      seq2seq.ModelConfig(epochs=1, **TINY), mode, out_dir=tmp_path, log=epochs.append)
    assert epochs == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode", MODES)
def test_train_with_a_non_finite_val_target_fails_before_any_step(tmp_path, corpus, table, step_spy, mode):
    # validation runs only after an epoch's steps, so the frames are checked
    # up front with the prosody table
    bad = corpus.split("val")[0]
    middle = bad.features.shape[0] // 2
    utterances = [_with_target(u, middle, np.nan) if u is bad else u for u in corpus.utterances]
    with pytest.raises(DataError, match=rf"target frame {middle} of utterance {bad.utt_id} is not finite"):
        seq2seq.train(dataclasses.replace(corpus, utterances=utterances), table,
                      seq2seq.ModelConfig(epochs=1, **TINY), mode, out_dir=tmp_path)
    assert step_spy == []
    assert not (tmp_path / "checkpoint.bin").exists()


@pytest.mark.parametrize("name, value, table", [
    ("ids", -1, "symbol"), ("ids", None, "symbol"), ("stress", -1, "stress"), ("stress", 3, "stress"),
    ("phrase", -1, "phrase"), ("phrase", 4, "phrase"),
], ids=["id_negative", "id_vocab_size", "stress_negative", "stress_high", "phrase_negative", "phrase_high"])
def test_encoder_rejects_symbols_outside_its_tables(corpus, params, name, value, table):
    symbols = corpus.utterances[0].symbols
    value = corpus.config.vocab_size if value is None else value
    field = getattr(symbols, name).copy()
    field[1] = value
    bad = dataclasses.replace(symbols, **{name: field})
    rows = params[f"enc.embed.{table}"].data.shape[0]
    match = rf"{name} value {value} outside 0\.\.{rows - 1}, the rows of enc\.embed\.{table}"
    with pytest.raises(DataError, match=match):
        seq2seq.encoder_latents(params, bad)


# -- truncation ----------------------------------------------------------------------


def test_decode_truncates_at_cap(corpus, params):
    symbols = corpus.utterances[0].symbols
    cfg = seq2seq.ModelConfig(stop_threshold=1.0, max_decode_ratio=3, **TINY)  # a sigmoid never exceeds 1
    out = seq2seq.synthesize(params, cfg, symbols, [0.2, -0.1])
    assert out.frame_count == 3 * len(symbols)
    assert out.truncated
    assert out.alignment.shape == (len(symbols), 3 * len(symbols))


def test_decode_stops_when_threshold_cleared(corpus, params):
    symbols = corpus.utterances[0].symbols
    cfg = seq2seq.ModelConfig(stop_threshold=0.0, max_decode_ratio=3, **TINY)
    out = seq2seq.synthesize(params, cfg, symbols, [0.2, -0.1])
    assert out.frame_count == 1
    assert not out.truncated


@pytest.mark.parametrize("mode", MODES)
def test_decode_with_a_very_negative_stop_logit_runs_to_the_cap(corpus, params, mode):
    # exp(-logit) overflows for a stop logit below about -709; the stop
    # test's logistic is the tanh form, which cannot, so the decode runs on
    # to the length cap without a warning (warnings are errors here)
    symbols = corpus.utterances[0].symbols
    cfg = seq2seq.ModelConfig(max_decode_ratio=2, **TINY)
    bias = params["out.readout.b"].data.copy()
    bias[-1] = -800.0  # the stop logit's
    moved = {**params, "out.readout.b": ad.parameter(bias)}
    out = seq2seq.synthesize(moved, cfg, symbols, [0.2, -0.1], mode)
    assert out.truncated and out.frame_count == 2 * len(symbols)
    assert np.all(out.stop_logits < -709.0)


# -- training output directory -------------------------------------------------------


def test_train_creates_missing_out_dir(tmp_path, corpus, table):
    out_dir = tmp_path / "runs" / "a" / "b"
    seq2seq.train(corpus, table, seq2seq.ModelConfig(epochs=1, **TINY), "plain", out_dir=out_dir)
    assert (out_dir / "checkpoint.bin").is_file()


def test_train_unusable_out_dir_fails_before_training(tmp_path, corpus, table):
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("x")
    epochs = []
    with pytest.raises(OSError):
        seq2seq.train(corpus, table, seq2seq.ModelConfig(epochs=1, **TINY), "plain",
                      out_dir=blocker / "run", log=epochs.append)
    assert epochs == []


def test_train_without_validation_split_fails_before_training(tmp_path, table, monkeypatch):
    # validation_count = 0 is a valid corpus, but each epoch logs the val
    # split's loss and alignment entropy
    corpus = synthdata.generate_corpus(synthdata.CorpusConfig(utterance_count=5, validation_count=0, seed=9))
    batches = []
    monkeypatch.setattr(seq2seq, "_train_batch", lambda *args: batches.append(args) or 0.0)
    with pytest.raises(DataError, match="no validation utterances"):
        seq2seq.train(corpus, table, seq2seq.ModelConfig(epochs=1, **TINY), "plain", out_dir=tmp_path / "run")
    assert batches == []
    assert not (tmp_path / "run").exists()


# -- graph-free inference ------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_teacher_forced_same_under_no_grad(corpus, table, params, mode):
    cfg = seq2seq.ModelConfig(**TINY)
    u = corpus.split("val")[0]
    loss, trace = seq2seq.teacher_forced(params, cfg, u, table[u.utt_id], mode)
    with ad.no_grad():
        loss_ng, trace_ng = seq2seq.teacher_forced(params, cfg, u, table[u.utt_id], mode)
    assert loss._parents and not loss_ng._parents
    assert np.array_equal(loss.data, loss_ng.data)
    assert_same_trace(trace, trace_ng)


@pytest.mark.parametrize("mode", MODES)
def test_validation_metrics_match_grad_mode(corpus, table, params, mode, made_nodes):
    cfg = seq2seq.ModelConfig(**TINY)
    val = corpus.split("val")
    passes = [seq2seq.teacher_forced(params, cfg, u, table[u.utt_id], mode) for u in val]
    expected = (float(np.mean([float(loss.data) for loss, _ in passes])),
                align.mean_entropy([trace.alignment for _, trace in passes]))
    made_nodes.clear()
    assert seq2seq.validation_metrics(params, cfg, val, table, mode) == expected
    assert_no_graph(made_nodes)


@pytest.mark.parametrize("mode", MODES)
def test_synthesize_builds_no_graph(corpus, params, mode, made_nodes):
    cfg = seq2seq.ModelConfig(stop_threshold=1.0, max_decode_ratio=2, **TINY)
    symbols = corpus.utterances[1].symbols
    with_graph = seq2seq.synthesize.__wrapped__(params, cfg, symbols, [0.4, 0.3], mode)  # grad mode
    assert any(t._parents for t in made_nodes)  # the spy sees the graph when one is built
    made_nodes.clear()
    out = seq2seq.synthesize(params, cfg, symbols, [0.4, 0.3], mode)
    assert_no_graph(made_nodes)
    assert_same_trace(out, with_graph)


# -- attention mode ------------------------------------------------------------------


def test_unknown_attention_mode_raises(corpus, table, params, tmp_path):
    cfg = seq2seq.ModelConfig(epochs=1, **TINY)
    with pytest.raises(ValueError, match="'augmneted'"):
        seq2seq.train(corpus, table, cfg, attention_mode="augmneted", out_dir=tmp_path)
    assert not list(tmp_path.iterdir())  # failed in the first step, before any checkpoint
    with pytest.raises(ValueError, match="'Plain'"):
        seq2seq.synthesize(params, cfg, corpus.utterances[0].symbols, table[corpus.utterances[0].utt_id], "Plain")


# -- graph shape -----------------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_training_graph_is_acyclic(corpus, table, params, mode):
    # every training graph is freed by reference counting alone: with the
    # cyclic collector off, a forward and backward leave nothing for it
    cfg = seq2seq.ModelConfig(**TINY)
    u = corpus.utterances[0]
    gc.collect()
    gc.disable()
    try:
        loss, _ = seq2seq.teacher_forced(params, cfg, u, table[u.utt_id], mode)
        loss.backward()
        del loss
        for p in params.values():
            p.zero_grad()
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("mode", MODES)
def test_teacher_forced_backward_reaches_every_parameter(corpus, table, params, mode):
    # plain mode runs no selection heads
    model = {k: ad.parameter(p.data.copy(), name=k) for k, p in params.items()}
    u = corpus.utterances[0]
    loss, _ = seq2seq.teacher_forced(model, seq2seq.ModelConfig(**TINY), u, table[u.utt_id], mode)
    loss.backward()
    unused = set() if mode == "augmented" else {"att.alpha.w", "att.heads.b"}
    assert {k for k, p in model.items() if p.grad is None} == unused
    for k, p in model.items():
        if k not in unused:
            assert p.grad.shape == p.data.shape and np.all(np.isfinite(p.grad)), k


@pytest.mark.parametrize("mode", MODES)
def test_teacher_forced_node_count_independent_of_length(corpus, table, params, mode, made_nodes):
    # the decoder is one node per utterance, so the graph's size depends on
    # the number of symbols and not on the number of frames
    cfg = seq2seq.ModelConfig(**TINY)
    u = corpus.utterances[0]
    short = dataclasses.replace(u, features=u.features[:u.features.shape[0] // 2])
    counts = []
    for utt in (u, short):
        made_nodes.clear()
        seq2seq.teacher_forced(params, cfg, utt, table[u.utt_id], mode)
        counts.append(len(made_nodes))
    assert counts[0] == counts[1]


def test_encode_node_count_independent_of_length(corpus, table, params, made_nodes):
    # each direction of the encoder's BiLSTM is one node, so the encoder's
    # graph has as many nodes for a sequence as for its first half
    symbols = corpus.utterances[0].symbols
    half = synthdata.SymbolSequence(*(getattr(symbols, f.name)[:len(symbols) // 2]
                                      for f in dataclasses.fields(symbols)))
    counts = []
    for seq in (symbols, half):
        made_nodes.clear()
        seq2seq.encode(params, seq, table[corpus.utterances[0].utt_id])
        counts.append(len(made_nodes))
    assert len(half) >= 2 and counts[0] == counts[1]


@pytest.mark.parametrize("mode", MODES)
def test_teacher_forced_second_backward_adds_the_same_again(corpus, table, params, mode):
    cfg = seq2seq.ModelConfig(**TINY)
    u = corpus.utterances[0]
    loss, _ = seq2seq.teacher_forced(params, cfg, u, table[u.utt_id], mode)
    try:
        loss.backward()
        once = {k: p.grad.copy() for k, p in params.items() if p.grad is not None}
        loss.backward()
        for k, g in once.items():
            assert np.max(np.abs(params[k].grad - 2.0 * g)) <= 1e-12 * np.max(np.abs(g)), k
    finally:
        for p in params.values():
            p.zero_grad()


@pytest.mark.parametrize("mode", MODES)
def test_teacher_forced_under_no_grad_keeps_no_step_backward(corpus, table, params, mode, monkeypatch):
    # under no_grad a frame builds no backward at all; with graph building
    # on, each frame's is kept for the graph node until the pass returns
    real = seq2seq.decoder_step
    kept, alive = [], []

    def step(*args, **kwargs):
        alive.append(sum(ref is not None and ref() is not None for ref in kept))
        result = real(*args, **kwargs)
        kept.append(result[3] if result[3] is None else weakref.ref(result[3]))
        return result

    monkeypatch.setattr(seq2seq, "decoder_step", step)
    cfg = seq2seq.ModelConfig(**TINY)
    u = corpus.utterances[0]
    with ad.no_grad():
        seq2seq.teacher_forced(params, cfg, u, table[u.utt_id], mode)
    assert len(kept) == u.features.shape[0] and all(k is None for k in kept)
    kept.clear()
    alive.clear()
    loss, _ = seq2seq.teacher_forced(params, cfg, u, table[u.utt_id], mode)
    assert alive[-1] == u.features.shape[0] - 1


# -- one training step -----------------------------------------------------------------


def _train_batch_whole(params, cfg, opt, utts, vecs, attention_mode):
    """Reference: the batch-wide form of _train_batch, which builds every
    utterance's graph and then runs one backward through their mean."""
    opt.zero_grad()
    losses = [seq2seq.teacher_forced(params, cfg, u, vec, attention_mode)[0] for u, vec in zip(utts, vecs)]
    total = losses[0]
    for extra in losses[1:]:
        total = ad.add(total, extra)
    batch_loss = ad.mul(total, 1.0 / len(utts))
    batch_loss.backward()
    opt.step()
    return float(batch_loss.data)


def _model_and_optimiser(params, cfg):
    """A copy of params and an SGD over it whose velocities are not zero."""
    copy = {k: ad.parameter(p.data.copy(), name=k) for k, p in params.items()}
    opt = ad.SGD(copy, lr=cfg.learning_rate, momentum=cfg.momentum, grad_clip=cfg.grad_clip)
    rng = np.random.default_rng(12)
    for v in opt.velocity.values():
        v += rng.normal(scale=1e-3, size=v.shape)
    return copy, opt


def _batch(corpus, table):
    utts = corpus.utterances[:3]
    assert len({u.features.shape[0] for u in utts}) == 3
    return utts, [table[u.utt_id] for u in utts]


def _state(model, opt):
    return ({k: p.data.copy() for k, p in model.items()}, {k: v.copy() for k, v in opt.velocity.items()})


def _assert_same_state(a, b):
    for part_a, part_b in zip(a, b):
        for k in part_a:
            assert np.array_equal(part_a[k], part_b[k]), k


@pytest.mark.parametrize("mode", MODES)
def test_train_batch_matches_one_backward_through_the_batch(corpus, table, params, mode):
    cfg = seq2seq.ModelConfig(**TINY)
    utts, vecs = _batch(corpus, table)
    (model, opt), (ref_model, ref_opt) = _model_and_optimiser(params, cfg), _model_and_optimiser(params, cfg)
    loss = seq2seq._train_batch(model, cfg, opt, utts, vecs, mode)
    assert loss == _train_batch_whole(ref_model, cfg, ref_opt, utts, vecs, mode)
    _assert_same_state(_state(model, opt), _state(ref_model, ref_opt))


@pytest.mark.parametrize("mode", MODES)
def test_train_batch_holds_one_graph_at_a_time(corpus, table, params, monkeypatch, mode):
    real = seq2seq.teacher_forced
    earlier = []

    def teacher_forced(*args):
        assert all(ref() is None for ref in earlier), "an earlier utterance's loss is still alive"
        loss, trace = real(*args)
        # a Tensor takes no weak reference; its backward closure lives as long as it does
        earlier.append(weakref.ref(loss._backward))
        return loss, trace

    monkeypatch.setattr(seq2seq, "teacher_forced", teacher_forced)
    cfg = seq2seq.ModelConfig(**TINY)
    utts, vecs = _batch(corpus, table)
    model, opt = _model_and_optimiser(params, cfg)
    seq2seq._train_batch(model, cfg, opt, utts, vecs, mode)
    assert len(earlier) == 3


@pytest.mark.parametrize("mode", MODES)
def test_train_batch_with_a_non_finite_loss_changes_nothing(corpus, table, params, monkeypatch, mode):
    # the middle utterance's loss is made NaN after its forward; the last
    # utterance's backward has run by then, the optimiser step has not
    real = seq2seq.teacher_forced
    cfg = seq2seq.ModelConfig(**TINY)
    utts, vecs = _batch(corpus, table)

    def teacher_forced(params, cfg, utterance, *args):
        loss, trace = real(params, cfg, utterance, *args)
        return (ad.mul(loss, np.nan) if utterance is utts[1] else loss), trace

    monkeypatch.setattr(seq2seq, "teacher_forced", teacher_forced)
    model, opt = _model_and_optimiser(params, cfg)
    before = _state(model, opt)
    with pytest.raises(FloatingPointError):
        seq2seq._train_batch(model, cfg, opt, utts, vecs, mode)
    _assert_same_state(_state(model, opt), before)


# -- the collector during training -----------------------------------------------------


@pytest.fixture
def step_spy(monkeypatch):
    """Records gc.isenabled() at every optimiser step."""
    seen = []
    real = ad.SGD.step

    def step(self):
        seen.append(gc.isenabled())
        real(self)

    monkeypatch.setattr(ad.SGD, "step", step)
    return seen


def test_train_pauses_collector_per_batch(corpus, table, step_spy):
    assert gc.isenabled()
    seq2seq.train(corpus, table, seq2seq.ModelConfig(epochs=1, **TINY), "plain")
    assert step_spy and not any(step_spy)
    assert gc.isenabled()


def test_train_restores_collector_when_batch_raises(corpus, table, monkeypatch):
    def failing_step(self):
        raise RuntimeError("step failed")

    monkeypatch.setattr(ad.SGD, "step", failing_step)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="step failed"):
        seq2seq.train(corpus, table, seq2seq.ModelConfig(epochs=1, **TINY), "plain")
    assert gc.isenabled()


def test_train_leaves_disabled_collector_disabled(corpus, table, step_spy):
    gc.disable()
    try:
        seq2seq.train(corpus, table, seq2seq.ModelConfig(epochs=1, **TINY), "plain")
        assert step_spy and not any(step_spy)
        assert not gc.isenabled()
    finally:
        gc.enable()
