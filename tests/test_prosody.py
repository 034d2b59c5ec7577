"""Prosody extraction, normalisation, and predictor tests."""

import json
import math

import numpy as np
import pytest

from prosynth import prosody, seq2seq, synthdata
from prosynth import autodiff as ad
from prosynth.errors import ConfigError, DataError
from prosynth.prosody import (
    NormalizedProsody,
    PredictorConfig,
    ProsodyInfo,
    TooFewVoicedFrames,
    apply_offset,
    compute_pace,
    compute_pitch_span,
    denormalize,
    fit_speaker_stats,
    normalize,
    train_predictor,
)

import oracle_ops as ops

FRAME_PERIOD = 256 / 22050


# -- pace --------------------------------------------------------------------------


def test_pace_direct_arithmetic():
    got = compute_pace([5, 10, 15], [False, False, False], FRAME_PERIOD)
    assert got == pytest.approx(math.log(10 * FRAME_PERIOD), abs=1e-12)
    assert got == pytest.approx(-2.1533, abs=1e-3)


def test_pace_one_second_phoneme():
    assert compute_pace([100], [False], 0.01) == pytest.approx(0.0, abs=1e-12)


def test_pace_excludes_silence():
    with_sil = compute_pace([10, 10], [False, True], FRAME_PERIOD)
    without = compute_pace([10], [False], FRAME_PERIOD)
    assert with_sil == without


def test_pace_silence_never_changes_it():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        durs = rng.integers(1, 30, size=n).tolist()
        base = compute_pace(durs, [False] * n, FRAME_PERIOD)
        extra = rng.integers(1, 100, size=3).tolist()
        padded = compute_pace(durs + extra, [False] * n + [True] * 3, FRAME_PERIOD)
        assert padded == pytest.approx(base, abs=1e-12)


def test_pace_scale_equivariance():
    durs = [4, 9, 7, 12]
    base = compute_pace(durs, [False] * 4, FRAME_PERIOD)
    scaled = compute_pace([3 * d for d in durs], [False] * 4, FRAME_PERIOD)
    assert scaled - base == pytest.approx(math.log(3), abs=1e-12)


def test_pace_rejects_all_silence():
    with pytest.raises(ValueError):
        compute_pace([5, 8], [True, True], FRAME_PERIOD)


# -- pitch span ---------------------------------------------------------------------


def test_span_constant_pitch():
    lp = np.full(50, math.log(150.0))
    assert compute_pitch_span(lp, np.ones(50, bool)) == 0.0


def test_span_uniform_grid():
    lp = np.linspace(math.log(100), math.log(200), 1000)
    got = compute_pitch_span(lp, np.ones(1000, bool))
    assert got == pytest.approx(0.9 * math.log(2), abs=1e-12)
    assert got == pytest.approx(0.623832, abs=1e-6)


def test_span_explicit_list_quantile_oracle():
    vals = np.arange(1.0, 101.0)
    got = compute_pitch_span(vals, np.ones(100, bool))
    # linear-interpolation estimator: q95 = 95.05, q05 = 5.95
    assert got == pytest.approx(95.05 - 5.95, abs=1e-9)


def test_span_ignores_unvoiced():
    lp = np.concatenate([np.full(30, 5.0), np.full(30, -100.0)])
    voiced = np.concatenate([np.ones(30, bool), np.zeros(30, bool)])
    assert compute_pitch_span(lp, voiced) == 0.0


def test_span_too_few_voiced():
    with pytest.raises(TooFewVoicedFrames):
        compute_pitch_span(np.zeros(100), np.zeros(100, bool))


def test_span_pitch_scaling_invariance():
    rng = np.random.default_rng(1)
    pitch = rng.uniform(100, 300, size=200)
    voiced = np.ones(200, bool)
    base = compute_pitch_span(np.log(pitch), voiced)
    scaled = compute_pitch_span(np.log(2.5 * pitch), voiced)
    assert scaled == pytest.approx(base, abs=1e-12)


# -- speaker stats and normalisation ----------------------------------------------------


def stats_fixture():
    values = [ProsodyInfo(p, s) for p, s in zip([-2, -1, 0, 1, 2] * 2, [1, 2, 3, 4, 5] * 2)]
    return fit_speaker_stats(values)


def test_fit_stats_median_and_std():
    s = stats_fixture()
    assert s.pace_median == 0.0
    assert s.pace_std == pytest.approx(math.sqrt(2), abs=1e-12)


def test_fit_stats_median_robust_to_outlier():
    base = [ProsodyInfo(float(p), 1.0 + 0.1 * p) for p in [-2, -1, 0, 1, 2] * 2]
    with_outlier = base + [ProsodyInfo(500.0, 0.0)]
    assert fit_speaker_stats(with_outlier).pace_median == fit_speaker_stats(base).pace_median


def test_fit_stats_rejects_identical():
    with pytest.raises(ValueError):
        fit_speaker_stats([ProsodyInfo(1.0, 2.0)] * 12)


def test_fit_stats_rejects_small_corpus():
    with pytest.raises(ValueError):
        fit_speaker_stats([ProsodyInfo(float(i), float(i)) for i in range(5)])


def test_normalize_anchor_points():
    s = stats_fixture()
    at_median = normalize(ProsodyInfo(s.pace_median, s.span_median), s)
    assert at_median.pace == 0.0 and at_median.pitch_span == 0.0
    hi = normalize(ProsodyInfo(s.pace_median + 3 * s.pace_std, s.span_median), s)
    assert hi.pace == pytest.approx(1.0, abs=1e-12)
    mid = normalize(ProsodyInfo(s.pace_median - 1.5 * s.pace_std, s.span_median), s)
    assert mid.pace == pytest.approx(-0.5, abs=1e-12)


def test_normalize_no_clamping():
    s = stats_fixture()
    out = normalize(ProsodyInfo(s.pace_median + 9 * s.pace_std, s.span_median), s)
    assert out.pace == pytest.approx(3.0, abs=1e-12)


def test_normalize_roundtrip():
    rng = np.random.default_rng(2)
    s = stats_fixture()
    for _ in range(100):
        info = ProsodyInfo(rng.normal(), abs(rng.normal()))
        back = denormalize(normalize(info, s), s)
        assert back.pace == pytest.approx(info.pace, abs=1e-12)
        assert back.pitch_span == pytest.approx(info.pitch_span, abs=1e-12)


# -- offsets ------------------------------------------------------------------------------


def test_offset_identity():
    p = NormalizedProsody(0.3, -0.2)
    out = apply_offset(p, (0.0, 0.0))
    assert (out.pace, out.pitch_span) == (0.3, -0.2)


def test_offset_reported_settings():
    # the two settings called out as per-voice bests
    out = apply_offset(NormalizedProsody(0.0, 0.0), (-0.1, 0.5))
    assert (out.pace, out.pitch_span) == (-0.1, 0.5)
    out = apply_offset(NormalizedProsody(0.2, 0.1), (0.5, 1.0))
    assert out.pace == pytest.approx(0.7)


def test_offset_rejects_out_of_range():
    with pytest.raises(ValueError):
        apply_offset(NormalizedProsody(0, 0), (1.5, 0.0))
    with pytest.raises(ValueError):
        apply_offset(NormalizedProsody(0, 0), (0.0, -1.01))


def test_offset_additivity():
    p = NormalizedProsody(0.1, -0.3)
    a, b = (0.2, -0.1), (0.3, 0.4)
    two_step = apply_offset(apply_offset(p, a), b)
    one_step = apply_offset(p, (a[0] + b[0], a[1] + b[1]))
    assert two_step.pace == pytest.approx(one_step.pace, abs=1e-15)
    assert two_step.pitch_span == pytest.approx(one_step.pitch_span, abs=1e-15)


# -- embedding and conditioning -------------------------------------------------------------


def _embedding_params(weight):
    return {"prosody.embed": ad.parameter(np.asarray(weight, dtype=np.float64))}


def test_embed_zero_input():
    out = seq2seq.prosody_embedding(_embedding_params(np.eye(2)), NormalizedProsody(0.0, 0.0).as_array())
    assert np.array_equal(out.data, [0.0, 0.0])
    none = seq2seq.prosody_embedding(_embedding_params(np.eye(2)), None)
    assert np.array_equal(none.data, [0.0, 0.0])


def test_embed_identity_weight():
    out = seq2seq.prosody_embedding(_embedding_params(np.eye(2)), NormalizedProsody(0.5, -0.5).as_array()).data
    assert np.allclose(out, [math.tanh(0.5), -math.tanh(0.5)])
    assert out[0] == pytest.approx(0.462117, abs=1e-6)


def test_embed_output_bounded():
    # realistic domain: normalised values nominally in [-1, 1] plus offsets
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = NormalizedProsody(*rng.uniform(-2, 2, size=2))
        out = seq2seq.prosody_embedding(_embedding_params(rng.uniform(-2, 2, size=(2, 2))), p.as_array()).data
        assert (np.abs(out) < 1.0).all()


def test_condition_encoder_shapes():
    cfg = seq2seq.ModelConfig(encoder_rnn_width=3, encoder_conv_channels=4, encoder_conv_kernel=3,
                              symbol_embedding=4, stress_embedding=2, phrase_embedding=2)
    corpus = synthdata.generate_corpus(synthdata.CorpusConfig(utterance_count=2, validation_count=0, seed=1))
    symbols = corpus.utterances[0].symbols
    n, width = len(symbols), 2 * cfg.encoder_rnn_width
    params = seq2seq.init_params(cfg, corpus.config.vocab_size)
    params["prosody.embed"].data = np.eye(2)
    latents = seq2seq.encoder_latents(params, symbols).data
    out = seq2seq.encode(params, symbols, [0.0, 0.0]).data
    assert out.shape == (n, width + 2)
    assert np.array_equal(out[:, :width], latents)
    assert np.array_equal(out[:, width:], np.zeros((n, 2)))
    out2 = seq2seq.encode(params, symbols, [0.3, -0.4]).data
    assert np.array_equal(out2[:, :width], latents)
    assert np.array_equal(out2[:, width:], np.tile(np.tanh([0.3, -0.4]), (n, 1)))


# -- predictor -------------------------------------------------------------------------------


def tiny_dataset(rng, n=24, t=6, d=5):
    data = []
    for _ in range(n):
        seq = rng.normal(size=(t, d)) * 0.5
        target = np.array([seq[:, 0].mean(), seq[:, 1].mean()])
        data.append((seq, target))
    return data


def test_predictor_constant_target():
    rng = np.random.default_rng(4)
    data = [(rng.normal(size=(5, 4)) * 0.3, np.array([0.4, -0.2])) for _ in range(16)]
    cfg = PredictorConfig(width=8, layers=2, epochs=40, learning_rate=0.1, seed=1)
    predictor, history = train_predictor(data, cfg)
    assert history[-1] < 1e-3
    out = predictor.predict(data[0][0])
    assert out.pace == pytest.approx(0.4, abs=0.05)
    assert out.pitch_span == pytest.approx(-0.2, abs=0.05)


def test_predictor_output_size_and_determinism():
    rng = np.random.default_rng(5)
    data = tiny_dataset(rng)
    cfg = PredictorConfig(width=8, layers=3, epochs=3, seed=2)
    predictor, _ = train_predictor(data, cfg)
    a = predictor.forward(data[0][0]).data
    b = predictor.forward(data[0][0]).data
    assert a.shape == (2,)
    assert np.array_equal(a, b)


def test_predictor_learns_signal():
    rng = np.random.default_rng(6)
    data = tiny_dataset(rng, n=40)
    cfg = PredictorConfig(width=16, layers=2, epochs=60, learning_rate=0.05, seed=3)
    predictor, history = train_predictor(data, cfg)
    targets = np.array([t for _, t in data])
    baseline = float(np.mean((targets - targets.mean(axis=0)) ** 2))
    assert history[-1] < baseline
    assert history[-1] <= history[-2] <= history[-3]  # settled by the end


def _train_predictor_whole(dataset, config):
    """Reference: train_predictor with the batch-wide form of its step, which
    builds every sequence's graph and then runs one backward through their
    mean. Returns the predictor."""
    predictor = prosody.ProsodyPredictor(dataset[0][0].shape[1], width=config.width, layers=config.layers,
                                         seed=config.seed)
    opt = ad.SGD(predictor.params, lr=config.learning_rate, momentum=config.momentum)
    for epoch in range(config.epochs):
        order = np.random.default_rng((config.seed, epoch)).permutation(len(dataset))
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            opt.zero_grad()
            losses = []
            for i in batch:
                seq, target = dataset[i]
                out = predictor.forward(seq)
                diff = ad.add(out, ad.Tensor(-np.asarray(target, dtype=np.float64)))
                losses.append(ad.mean_(ad.mul(diff, diff)))
            total = losses[0]
            for extra in losses[1:]:
                total = ad.add(total, extra)
            ad.mul(total, 1.0 / len(batch)).backward()
            opt.step()
    return predictor


def test_train_predictor_matches_one_backward_through_each_batch():
    # 37 sequences at batch 16: the last batch of each epoch is partial
    data = tiny_dataset(np.random.default_rng(13), n=37)
    cfg = PredictorConfig(width=6, layers=2, epochs=3, batch_size=16, seed=4)
    predictor, _ = train_predictor(data, cfg)
    expected = _train_predictor_whole(data, cfg)
    for k, p in predictor.params.items():
        assert np.array_equal(p.data, expected.params[k].data), k


def test_predict_builds_no_graph(made_nodes):
    rng = np.random.default_rng(8)
    data = tiny_dataset(rng, n=4)
    predictor = prosody.ProsodyPredictor(5, width=4, layers=2, seed=1)
    expected = predictor.forward(data[0][0]).data
    expected_mse = prosody.evaluate_predictor.__wrapped__(predictor, data)  # grad mode
    made_nodes.clear()
    out = predictor.predict(data[0][0])
    assert prosody.evaluate_predictor(predictor, data) == expected_mse
    assert made_nodes and all(t._parents == () and not t.requires_grad for t in made_nodes)
    assert (out.pace, out.pitch_span) == (expected[0], expected[1])


def test_predictor_matches_step_chain():
    # one lstm_layer node per layer gives bit for bit what one input
    # projection and one cell node per step give, layer by layer
    rng = np.random.default_rng(9)
    seq = rng.normal(size=(6, 5))
    predictor = prosody.ProsodyPredictor(5, width=4, layers=3, seed=2)
    p = predictor.params
    x = ad.Tensor(seq)
    for l in range(3):
        x = ops.layer_chain(x, p[f"lstm{l}.wx"], p[f"lstm{l}.wh"], p[f"lstm{l}.b"])
    chain = ad.add(ad.matmul(x[-1], p["out.w"]), p["out.b"]).data
    out = predictor.predict(seq)
    assert (out.pace, out.pitch_span) == (chain[0], chain[1])
    assert np.array_equal(predictor.forward(seq).data, chain)


@pytest.mark.parametrize("field, value", [
    ("width", 0), ("layers", 0), ("batch_size", 0), ("epochs", -1),
    ("learning_rate", 0.0), ("learning_rate", -1.0), ("learning_rate", float("nan")),
    ("momentum", 1.0), ("momentum", 1.5), ("momentum", -0.1),
])
def test_predictor_config_rejects_unusable_value(field, value):
    with pytest.raises(ConfigError, match=field):
        PredictorConfig(**{field: value})



@pytest.mark.parametrize("field, kwargs", [
    ("input_dim", {"input_dim": 0}), ("width", {"width": 0}), ("layers", {"layers": 0}),
    ("width", {"width": -3}),
])
def test_predictor_rejects_unusable_size(field, kwargs):
    with pytest.raises(ConfigError, match=field):
        prosody.ProsodyPredictor(**{"input_dim": 5, **kwargs})

def test_predictor_config_accepts_edge_values():
    PredictorConfig()
    data = tiny_dataset(np.random.default_rng(10), n=2)
    cfg = PredictorConfig(width=1, layers=1, epochs=1, learning_rate=1e-9, momentum=0.0, batch_size=1)
    _, history = train_predictor(data, cfg)
    assert len(history) == 1 and np.isfinite(history[0])
    assert train_predictor(data, PredictorConfig(epochs=0))[1] == []


def test_predictor_rejects_empty():
    with pytest.raises(ValueError):
        train_predictor([])
    rng = np.random.default_rng(7)
    predictor, _ = train_predictor(tiny_dataset(rng, n=12), PredictorConfig(width=4, layers=1, epochs=1))
    with pytest.raises(ValueError):
        predictor.forward(np.zeros((0, 5)))


# -- exports ----------------------------------------------------------------------------------


def test_prosody_table_roundtrip(tmp_path):
    rows = [
        ("utt_0000", -2.1, 0.5, 0.1, -0.3, "ok"),
        ("utt_0001", None, None, None, None, "skipped:all-silence"),
    ]
    path = tmp_path / "prosody.csv"
    prosody.write_prosody_table(path, rows)
    back = prosody.read_prosody_table(path)
    assert back[0][0] == "utt_0000"
    assert back[0][1] == pytest.approx(-2.1)
    assert back[1][1] is None
    assert back[1][5] == "skipped:all-silence"


@pytest.mark.parametrize("utt_id, status", [
    ("utt,0000", "ok"), ("utt_0000", "skipped\nall-silence"), ("utt\r0000", "ok"), ("utt_0000", "a,b"),
])
def test_prosody_table_rejects_separators(tmp_path, utt_id, status):
    path = tmp_path / "prosody.csv"
    with pytest.raises(ValueError, match="comma or line break"):
        prosody.write_prosody_table(path, [("utt_ok", 1.0, 1.0, 0.0, 0.0, "ok"),
                                           (utt_id, 1.0, 1.0, 0.0, 0.0, status)])
    assert not path.exists()


@pytest.mark.parametrize("bad_line, message", [
    ("utt_0001,-2.0,0.5,0.1,-0.3,ok,extra", "7 fields, expected 6"),
    ("utt_0001,-2.0,0.5,0.1,ok", "5 fields, expected 6"),
    ("", "1 fields, expected 6"),
    ("utt_0001,-2.0,fast,0.1,-0.3,ok", "fast"),
    ("utt_0001,nan,0.5,0.1,-0.3,ok", "non-finite"),
    ("utt_0001,-2.0,inf,0.1,-0.3,ok", "non-finite"),
    ("utt_0001,-2.0,0.5,,-inf,ok", "non-finite"),
])
def test_prosody_table_bad_row_raises_data_error(tmp_path, bad_line, message):
    path = tmp_path / "prosody.csv"
    path.write_text(prosody.PROSODY_CSV_HEADER + "\nutt_0000,-2.1,0.5,0.1,-0.3,ok\n" + bad_line + "\n")
    with pytest.raises(DataError) as info:
        prosody.read_prosody_table(path)
    assert f"{path}:3:" in str(info.value)
    assert message in str(info.value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_prosody_table_writer_rejects_non_finite(tmp_path, value):
    path = tmp_path / "prosody.csv"
    with pytest.raises(ValueError, match="non-finite"):
        prosody.write_prosody_table(path, [("utt_0000", -2.1, 0.5, 0.1, -0.3, "ok"),
                                           ("utt_0001", -2.0, value, None, None, "ok")])
    assert not path.exists()


def test_prosody_table_bad_header_raises_data_error(tmp_path):
    path = tmp_path / "prosody.csv"
    path.write_text("utt_id,pace,pitch_span\nutt_0000,-2.1,0.5\n")
    with pytest.raises(DataError) as info:
        prosody.read_prosody_table(path)
    assert f"{path}:1:" in str(info.value) and "header" in str(info.value)


def test_speaker_stats_sidecar_roundtrip(tmp_path):
    s = stats_fixture()
    path = tmp_path / "stats.json"
    prosody.save_speaker_stats(path, s)
    text = path.read_text()
    assert '"version"' in text
    back = prosody.load_speaker_stats(path)
    assert back == s


@pytest.mark.parametrize("edit, message", [
    (lambda raw: {**raw, "version": 2}, "version 2"),
    (lambda raw: {k: v for k, v in raw.items() if k != "version"}, "version None"),
    (lambda raw: [raw], "version None"),
    (lambda raw: {k: v for k, v in raw.items() if k != "pace"}, "pace.median"),
    (lambda raw: {k: v for k, v in raw.items() if k != "pitch_span"}, "pitch_span.median"),
    (lambda raw: {**raw, "pace": 0.5}, "pace.median"),
    (lambda raw: {**raw, "pace": {"median": 0.0}}, "pace.std"),
    (lambda raw: {**raw, "pitch_span": {"std": 1.0}}, "pitch_span.median"),
], ids=["version", "no_version", "not_an_object", "no_pace", "no_pitch_span", "pace_not_an_object",
        "no_pace_std", "no_span_median"])
def test_speaker_stats_bad_file_raises_data_error(tmp_path, edit, message):
    path = tmp_path / "stats.json"
    prosody.save_speaker_stats(path, stats_fixture())
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(DataError) as info:
        prosody.load_speaker_stats(path)
    assert message in str(info.value)


@pytest.mark.parametrize("edit, message", [
    (lambda raw: {**raw, "pace": {**raw["pace"], "std": "0.1"}}, "pace.std is not a finite number"),
    (lambda raw: {**raw, "pace": {**raw["pace"], "std": None}}, "pace.std is not a finite number"),
    (lambda raw: {**raw, "pace": {**raw["pace"], "std": True}}, "pace.std is not a finite number"),
    (lambda raw: {**raw, "pitch_span": {**raw["pitch_span"], "std": float("nan")}}, "pitch_span.std is not a finite"),
    (lambda raw: {**raw, "pitch_span": {**raw["pitch_span"], "median": float("inf")}}, "pitch_span.median is not a"),
    (lambda raw: {**raw, "pace": {**raw["pace"], "median": [1.0]}}, "pace.median is not a finite number"),
    (lambda raw: {**raw, "pace": {**raw["pace"], "std": 0}}, "pace.std must be positive"),
    (lambda raw: {**raw, "pitch_span": {**raw["pitch_span"], "std": -0.5}}, "pitch_span.std must be positive"),
], ids=["std_string", "std_null", "std_bool", "std_nan", "median_inf", "median_list", "std_zero", "std_negative"])
def test_speaker_stats_bad_value_raises_data_error(tmp_path, edit, message):
    path = tmp_path / "stats.json"
    prosody.save_speaker_stats(path, stats_fixture())
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(DataError) as info:
        prosody.load_speaker_stats(path)
    assert str(path) in str(info.value) and message in str(info.value)


@pytest.mark.parametrize("damage", [
    lambda raw: raw[:-5],  # cut mid-object
    lambda raw: raw.replace(b'"version"', b'"v\xc3\xa9rsion"'),  # UTF-8, not ASCII
], ids=["bad_json", "non_ascii"])
def test_speaker_stats_unreadable_file_raises_data_error(tmp_path, damage):
    path = tmp_path / "stats.json"
    prosody.save_speaker_stats(path, stats_fixture())
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(DataError, match="not ASCII JSON") as info:
        prosody.load_speaker_stats(path)
    assert str(path) in str(info.value)


def test_prosody_table_non_ascii_raises_data_error(tmp_path):
    path = tmp_path / "prosody.csv"
    path.write_bytes((prosody.PROSODY_CSV_HEADER + "\nutt_0000,-2.1,0.5,0.1,-0.3,ok\n").encode("ascii")
                     + "utt_\u00e9,-2.1,0.5,0.1,-0.3,ok\n".encode("utf-8"))
    with pytest.raises(DataError, match="not ASCII") as info:
        prosody.read_prosody_table(path)
    assert str(path) in str(info.value)
