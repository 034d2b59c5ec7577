"""Corpus generator tests: ground truth must be recoverable exactly, and a
saved corpus loads back equal or fails with a DataError naming the file."""

import json
import re

import numpy as np
import pytest

from prosynth import fileio, prosody, synthdata
from prosynth.errors import ConfigError, DataError
from prosynth.synthdata import CorpusConfig, generate_corpus, generate_utterance

FRAME_PERIOD = 256 / 22050


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusConfig())


def test_same_seed_identical(corpus):
    again = generate_corpus(CorpusConfig())
    for a, b in zip(corpus.utterances, again.utterances):
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.durations, b.durations)
        assert a.pace_factor == b.pace_factor


def test_counts_and_split(corpus):
    cfg = corpus.config
    assert len(corpus.utterances) == cfg.utterance_count
    assert len(corpus.split("val")) == cfg.validation_count
    assert len(corpus.split("train")) == cfg.utterance_count - cfg.validation_count


def test_duration_invariants(corpus):
    for u in corpus.utterances:
        assert (u.durations >= 1).all()
        assert u.features.shape == (int(u.durations.sum()), corpus.config.feature_width)
        assert u.pitch_contour.shape[0] == u.features.shape[0]


def test_pace_doubling_same_sentence():
    cfg = CorpusConfig()
    table, templates = synthdata._corpus_tables(cfg)
    u1 = generate_utterance(cfg, 3, table, templates)
    d1 = synthdata._scaled_durations(table, u1.symbols.ids, u1.symbols.silence, 1.0, cfg.silence_duration)
    d2 = synthdata._scaled_durations(table, u1.symbols.ids, u1.symbols.silence, 2.0, cfg.silence_duration)
    mask = ~u1.symbols.silence
    assert np.array_equal(d2[mask], 2 * d1[mask])
    p1 = prosody.compute_pace(d1, u1.symbols.silence, FRAME_PERIOD)
    p2 = prosody.compute_pace(d2, u1.symbols.silence, FRAME_PERIOD)
    assert p2 - p1 == pytest.approx(np.log(2), abs=1e-12)


def test_zero_pitch_variance_constant_contour():
    cfg = CorpusConfig(speaker_pitch_scale=0.0, utterance_count=12, validation_count=2)
    for u in generate_corpus(cfg).utterances:
        span = prosody.compute_pitch_span(u.pitch_contour, np.ones(len(u.pitch_contour), bool))
        assert span == 0.0


def test_pace_rank_correlation_exact(corpus):
    paces = [prosody.compute_pace(u.durations, u.symbols.silence, FRAME_PERIOD)
             for u in corpus.utterances]
    factors = [u.pace_factor for u in corpus.utterances]
    # rank correlation 1 with ties: every pair is ordered alike (ties alike too)
    p, f = np.array(paces), np.array(factors)
    assert np.array_equal(np.sign(p[:, None] - p[None, :]), np.sign(f[:, None] - f[None, :]))


def test_prosody_separability(corpus):
    factors = [u.pace_factor for u in corpus.utterances]
    variances = [u.pitch_variance for u in corpus.utterances]
    assert abs(np.corrcoef(factors, variances)[0, 1]) < 0.1


def test_measured_span_tracks_variance(corpus):
    spans = [float(np.quantile(u.pitch_contour, 0.95) - np.quantile(u.pitch_contour, 0.05))
             for u in corpus.utterances]
    variances = [u.pitch_variance for u in corpus.utterances]
    assert np.corrcoef(variances, spans)[0, 1] > 0.9


def test_render_shapes_and_silence_template():
    cfg = CorpusConfig()
    table, templates = synthdata._corpus_tables(cfg)
    u = generate_utterance(cfg, 0, table, templates)
    # first symbol is leading silence: near-zero template
    first = u.features[: u.durations[0], :-1]
    assert np.abs(first).max() < 0.05
    # explicit small case: 3 symbols, durations [2, 3, 1] -> 6 frames
    sym = synthdata.symbols_from_string("p0:0 p1:1 p2:2", cfg)
    feats = synthdata.render_targets(sym, np.array([2, 3, 1]), np.zeros(6), templates)
    assert feats.shape == (6, cfg.feature_width)



def _render_per_symbol(symbols, durations, pitch_contour, templates):
    """The per-symbol loop render_targets once ran; the reference it must
    match bit for bit."""
    total = int(np.sum(durations))
    feats = np.zeros((total, templates.shape[1] + 1))
    row = 0
    for sid, dur in zip(symbols.ids, durations):
        env = 0.75 + 0.25 * np.sin(np.pi * (np.arange(dur) + 0.5) / dur)
        feats[row:row + dur, :-1] = env[:, None] * templates[sid]
        row += dur
    feats[:, -1] = pitch_contour
    return feats


@pytest.mark.parametrize("cfg", [
    CorpusConfig(),
    CorpusConfig(base_duration_min=1, base_duration_max=40, pace_sigma=0.6),
], ids=["default", "wide_durations"])
def test_render_matches_per_symbol_loop_exactly(cfg):
    corpus = generate_corpus(cfg)
    for u in corpus.utterances:
        want = _render_per_symbol(u.symbols, u.durations, u.pitch_contour, corpus.templates)
        got = synthdata.render_targets(u.symbols, u.durations, u.pitch_contour, corpus.templates)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("durations, contour_len, match", [
    ([2] * 11, 22, "durations must be 13"),
    ([2] * 12 + [-2], 22, "durations must be >= 1"),
    ([2.5] * 13, 32, "durations must be 13"),
    ([2] * 13, 25, "pitch_contour must have shape"),
], ids=["too_few", "negative", "fractional", "contour_length"])
def test_render_rejects_inputs_that_do_not_fit(durations, contour_len, match):
    cfg = CorpusConfig()
    _, templates = synthdata._corpus_tables(cfg)
    sym = synthdata.symbols_from_string(" ".join(["sil"] + [f"p{i % 12}:0" for i in range(11)] + ["sil"]), cfg)
    assert len(sym) == 13
    with pytest.raises(ValueError, match=match):
        synthdata.render_targets(sym, np.array(durations), np.zeros(contour_len), templates)

def test_frame_alignment_recoverable(corpus):
    for u in corpus.utterances[:10]:
        ali = u.frame_alignment
        assert ali.shape[0] == u.features.shape[0]
        assert ali[0] == 0 and ali[-1] == len(u.symbols) - 1
        assert (np.diff(ali) >= 0).all()
        # durations recoverable by counting
        counts = np.bincount(ali, minlength=len(u.symbols))
        assert np.array_equal(counts, u.durations)


def test_symbol_string_roundtrip(corpus):
    cfg = corpus.config
    for u in corpus.utterances[:20]:
        text = synthdata.symbols_to_string(u.symbols)
        back = synthdata.symbols_from_string(text, cfg, phrase=int(u.symbols.phrase[0]))
        assert np.array_equal(back.ids, u.symbols.ids)
        assert np.array_equal(back.stress, u.symbols.stress)
        assert np.array_equal(back.silence, u.symbols.silence)
        assert np.array_equal(back.word_break, u.symbols.word_break)


def test_symbol_string_rejects_garbage():
    cfg = CorpusConfig()
    with pytest.raises(DataError):
        synthdata.symbols_from_string("p99:0", cfg)
    with pytest.raises(DataError):
        synthdata.symbols_from_string("xyz", cfg)
    with pytest.raises(DataError):
        synthdata.symbols_from_string("", cfg)


@pytest.mark.parametrize("text, phrase, match", [
    ("p1:3", 0, r"stress 3 outside 0\.\.2"),
    ("p1:-1", 0, r"stress -1 outside"),
    ("p1:x", 0, r"stress 'x' is not a whole number"),
    ("px:0", 0, r"symbol id 'x' is not a whole number"),
    ("p1:0", 4, r"phrase 4 outside 0\.\.3"),
    ("p1:0", -1, r"phrase -1 outside"),
], ids=["stress_high", "stress_negative", "stress_not_int", "id_not_int", "phrase_high", "phrase_negative"])
def test_symbol_string_rejects_out_of_range(text, phrase, match):
    with pytest.raises(DataError, match=match):
        synthdata.symbols_from_string(text, CorpusConfig(), phrase=phrase)


@pytest.mark.parametrize("name", ["stress", "phrase", "word_break", "silence"])
@pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
def test_symbol_sequence_rejects_fields_of_unequal_length(name, change):
    fields = dict(ids=[1, 2, 3], stress=[0, 1, 0], phrase=[2, 2, 2], word_break=[False, True, False],
                  silence=[True, False, False])
    fields[name] = (fields[name] + fields[name])[:3 + change]
    with pytest.raises(ValueError, match=rf"unequal length .*'{name}': {3 + change}"):
        synthdata.SymbolSequence(**fields)


def test_degenerate_config_rejected():
    with pytest.raises(ConfigError):
        CorpusConfig(alphabet_size=0)
    with pytest.raises(ConfigError):
        CorpusConfig(validation_count=500)


def test_save_load_roundtrip(tmp_path, corpus):
    small = synthdata.generate_corpus(CorpusConfig(utterance_count=8, validation_count=2))
    synthdata.save_corpus(small, tmp_path / "corpus")
    back = synthdata.load_corpus(tmp_path / "corpus")
    assert back.config == small.config
    assert np.array_equal(back.duration_table, small.duration_table)
    assert np.array_equal(back.templates, small.templates)
    assert len(back.utterances) == len(small.utterances)
    for a, b in zip(small.utterances, back.utterances):
        assert a.utt_id == b.utt_id
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.durations, b.durations)
        assert np.array_equal(a.pitch_contour, b.pitch_contour)
        assert a.split == b.split
        assert (a.pace_factor, a.pitch_variance) == (b.pace_factor, b.pitch_variance)
        assert synthdata.symbols_to_string(a.symbols) == synthdata.symbols_to_string(b.symbols)
        assert np.array_equal(a.symbols.phrase, b.symbols.phrase)


def test_save_byte_identical(tmp_path):
    small = synthdata.generate_corpus(CorpusConfig(utterance_count=5, validation_count=1))
    synthdata.save_corpus(small, tmp_path / "a")
    synthdata.save_corpus(small, tmp_path / "b")
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == sorted(synthdata.CORPUS_FILES)
    for rel in ["corpus_meta.json", "utterances.jsonl", "arrays.bin"]:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_save_rejects_duplicate_id(tmp_path):
    small = synthdata.generate_corpus(CorpusConfig(utterance_count=4, validation_count=1))
    small.utterances[2].utt_id = small.utterances[1].utt_id
    with pytest.raises(DataError, match="duplicate utterance id 'utt_0001'"):
        synthdata.save_corpus(small, tmp_path / "corpus")
    assert not (tmp_path / "corpus").exists()


def test_load_missing_dir(tmp_path):
    with pytest.raises(DataError):
        synthdata.load_corpus(tmp_path / "nope")


def _edit_json(name, edit):
    def corrupt(root):
        path = root / name
        meta = json.loads(path.read_text(encoding="ascii"))
        edit(meta)
        path.write_text(json.dumps(meta), encoding="ascii")
    return corrupt


def _edit_line(lineno, edit):
    def corrupt(root):
        path = root / "utterances.jsonl"
        lines = path.read_bytes().split(b"\n")
        lines[lineno - 1] = edit(lines[lineno - 1])
        path.write_bytes(b"\n".join(lines))
    return corrupt


def _edit_record(edit):
    def corrupt(line):
        rec = json.loads(line)
        edit(rec)
        return json.dumps(rec).encode("ascii")
    return corrupt


def _edit_arrays(edit):
    def corrupt(root):
        table = fileio.load_tensor_table(root / "arrays.bin")
        edit(table)
        fileio.save_tensor_table(root / "arrays.bin", table)
    return corrupt


def _set_nan(table):
    table["features.utt_0001"][3, 2] = np.nan


def _stress_five(rec):
    rec["symbols"] = re.sub(r"p(\d+):\d", r"p\1:5", rec["symbols"], count=1)


def _drop_symbols(line):
    rec = json.loads(line)
    del rec["symbols"]
    return json.dumps(rec).encode("ascii")


def _edit_durations(edit):
    def corrupt(line):
        rec = json.loads(line)
        rec["durations"] = edit(rec["durations"])
        return json.dumps(rec).encode("ascii")
    return corrupt


def _fold_last_duration(durations):
    """One duration short, with the same total."""
    return [durations[0] + durations[-1]] + durations[1:-1]


def _lengthen_first(durations):
    """One duration per symbol, one frame more in total."""
    return [durations[0] + 1] + durations[1:]


@pytest.mark.parametrize("corrupt, where", [
    (_edit_json("corpus_meta.json", lambda m: m.pop("config")), r"corpus_meta\.json: missing field 'config'"),
    (_edit_json("corpus_meta.json", lambda m: m["config"].update(tempo=2)), r"corpus_meta\.json: .*tempo"),
    (lambda root: (root / "corpus_meta.json").write_bytes(b'{"version": 1,'), r"corpus_meta\.json: "),
    (lambda root: (root / "corpus_meta.json").write_bytes(b'{"version": 1, "n\xe9": 0}'), r"corpus_meta\.json: .*ascii"),
    (_edit_line(2, _drop_symbols), r"utterances\.jsonl:2: missing field 'symbols'"),
    (_edit_line(2, lambda line: line[:-3]), r"utterances\.jsonl:2: "),
    (_edit_line(3, lambda line: line.replace(b'"id"', b'"\xe9d"')), r"utterances\.jsonl:3: .*ascii"),
    (_edit_json("corpus_meta.json", lambda m: m.update(duration_table=[1, 2])),
     r"corpus_meta\.json: duration_table must have 14 entries, got 2"),
    (_edit_json("corpus_meta.json", lambda m: m["config"].update(duration_table=[1, 2])),
     r"corpus_meta\.json: duration_table must have 14 entries, got 2"),
    (_edit_json("corpus_meta.json", lambda m: m["config"].update(utterance_count=0)),
     r"corpus_meta\.json: utterance_count"),
    (_edit_line(2, _edit_durations(_fold_last_duration)), r"utterances\.jsonl:2: .* durations .* symbols"),
    (_edit_line(2, _edit_durations(_lengthen_first)),
     r"utterances\.jsonl:2: features\.utt_0001 has shape \(\d+, 8\), expected \(\d+, 8\)"),
    (lambda root: (root / "arrays.bin").unlink(), r"not a corpus directory \(missing arrays\.bin\)"),
    (lambda root: (root / "utterances.jsonl").unlink(), r"not a corpus directory \(missing utterances\.jsonl\)"),
    (_edit_arrays(lambda t: t.pop("features.utt_0001")), r"utterances\.jsonl:2: missing features\.utt_0001"),
    (_edit_arrays(lambda t: t.update({"features.utt_0001": t["features.utt_0001"][:, :5]})),
     r"utterances\.jsonl:2: features\.utt_0001 has shape \(\d+, 5\), expected \(\d+, 8\)"),
    (_edit_arrays(_set_nan), r"utterances\.jsonl:2: features\.utt_0001 holds a non-finite value"),
    (_edit_arrays(lambda t: t.update(templates=np.ones((3, 3)))),
     r"arrays\.bin: templates has shape \(3, 3\), expected \(14, 7\)"),
    (lambda root: (root / "arrays.bin").write_bytes(b"PSCT\x01\x00"), r"arrays\.bin: truncated table header"),
    (_edit_json("corpus_meta.json", lambda m: m["config"].pop("pitch_sigma")),
     r"corpus_meta\.json: missing config field\(s\): pitch_sigma"),
    (_edit_json("corpus_meta.json", lambda m: m.update(config=[1, 2])),
     r"corpus_meta\.json: config must be a JSON object, got list"),
    (_edit_json("corpus_meta.json", lambda m: m.update(version=1)), r"corpus_meta\.json: unsupported corpus version 1"),
    (_edit_line(3, _edit_record(lambda r: r.update(id="utt_0001"))), r"utterances\.jsonl:3: duplicate id 'utt_0001'"),
    (_edit_line(2, _edit_record(lambda r: r.update(id=5))), r"utterances\.jsonl:2: id 5 is not a string"),
    (_edit_line(2, _edit_record(lambda r: r.update(id="../templates"))),
     r"utterances\.jsonl:2: missing features\.\.\./templates"),
    (_edit_line(2, _edit_record(lambda r: r.update(split="valid"))), r"utterances\.jsonl:2: split 'valid'"),
    (_edit_line(2, _edit_record(_stress_five)), r"utterances\.jsonl:2: stress 5 outside 0\.\.2"),
    (_edit_line(2, _edit_record(lambda r: r.update(phrase=9))), r"utterances\.jsonl:2: phrase 9 outside 0\.\.3"),
    (_edit_line(2, _edit_record(lambda r: r.update(pace_factor="fast"))),
     r"utterances\.jsonl:2: pace_factor 'fast' is not a finite number"),
    (_edit_line(3, _edit_record(lambda r: r.update(pitch_variance=None))),
     r"utterances\.jsonl:3: pitch_variance None is not a finite number"),
    (_edit_line(2, _edit_record(lambda r: r.update(pitch_variance=True))),
     r"utterances\.jsonl:2: pitch_variance True is not a finite number"),
    (_edit_line(2, _edit_record(lambda r: r.update(phrase=1.7))), r"utterances\.jsonl:2: phrase 1\.7 is not a whole"),
    (_edit_line(2, _edit_durations(lambda d: [0] + d[1:])),
     r"utterances\.jsonl:2: duration 0 is not a whole number >= 1"),
    (_edit_line(3, _edit_durations(lambda d: [-1] + d[1:])),
     r"utterances\.jsonl:3: duration -1 is not a whole number >= 1"),
    (_edit_line(2, _edit_durations(lambda d: d[:-1] + [2.7])),
     r"utterances\.jsonl:2: duration 2\.7 is not a whole number >= 1"),
], ids=["meta_no_config", "meta_unknown_field", "meta_bad_json", "meta_non_ascii",
        "record_no_symbols", "record_bad_json", "record_non_ascii",
        "meta_short_table", "config_short_table", "config_invalid",
        "record_duration_count", "record_duration_sum",
        "no_arrays", "no_utterances", "features_missing", "features_width", "features_nan",
        "templates_shape", "arrays_truncated", "config_missing_field", "config_not_object", "meta_version_1",
        "record_duplicate_id", "record_id_not_string", "record_id_path", "record_unknown_split",
        "record_stress_range", "record_phrase_range", "record_pace_string", "record_pitch_null",
        "record_pitch_bool", "record_phrase_float", "record_duration_zero", "record_duration_negative",
        "record_duration_float"])
def test_load_bad_corpus_raises_data_error(tmp_path, corrupt, where):
    small = synthdata.generate_corpus(CorpusConfig(utterance_count=4, validation_count=1))
    synthdata.save_corpus(small, tmp_path)
    corrupt(tmp_path)
    with pytest.raises(DataError, match=where):
        synthdata.load_corpus(tmp_path)
