"""Checkpoint files: tensor-table round trips, truncated headers, strict
optimiser state, all-or-nothing restores, bit-identical resumed training,
and resumes refused when the config or the attention mode changed."""

import struct

import numpy as np
import pytest

from prosynth import fileio, prosody, seq2seq, synthdata
from prosynth import autodiff as ad
from prosynth.errors import ConfigError, DataError


def test_tensor_table_roundtrip_keeps_0d_shape(tmp_path):
    table = {"scalar": np.array(2.5), "vector": np.array([1.0]), "matrix": np.arange(6.0).reshape(2, 3)}
    path = tmp_path / "t.bin"
    fileio.save_tensor_table(path, table)
    back = fileio.load_tensor_table(path)
    assert sorted(back) == sorted(table)
    for name, arr in table.items():
        assert back[name].shape == arr.shape, name
        assert np.array_equal(back[name], arr), name


def test_checkpoint_restores_scalar_parameters(tmp_path):
    cfg = seq2seq.ModelConfig(seed=3)
    params = seq2seq.init_params(cfg, vocab_size=14)
    scalars = [k for k, p in params.items() if p.data.ndim == 0]
    assert {"att.alpha.b", "att.beta.b", "out.stop.b"} <= set(scalars)
    for i, k in enumerate(scalars):
        params[k].data = np.asarray(0.25 * (i + 1))
    opt = ad.SGD(params, lr=0.1)
    seq2seq.save_checkpoint(tmp_path / "c.bin", params, opt, 1, [], "plain")
    fresh = seq2seq.init_params(cfg, vocab_size=14)
    assert seq2seq.load_checkpoint(tmp_path / "c.bin", fresh, ad.SGD(fresh, lr=0.1)) == (1, [], "plain")
    for k in scalars:
        assert fresh[k].data.shape == () and fresh[k].data == params[k].data, k


def _table_file(tmp_path):
    path = tmp_path / "t.bin"
    fileio.save_tensor_table(path, {"model.x": np.arange(3.0)})  # name bytes 16..22
    return path


@pytest.mark.parametrize("make, load, length", [
    (_table_file, fileio.load_tensor_table, 6),  # inside the version/count header
    (_table_file, fileio.load_tensor_table, 14),  # inside the first name length
    (_table_file, fileio.load_tensor_table, 20),  # inside the first name
])
def test_truncated_header_raises_data_error(tmp_path, make, load, length):
    path = make(tmp_path)
    path.write_bytes(path.read_bytes()[:length])
    with pytest.raises(DataError, match="truncated"):
        load(path)


def _opt():
    params = {"a": ad.parameter(np.zeros(3)), "b": ad.parameter(np.zeros((2, 2)))}
    return ad.SGD(params, lr=0.1)


def test_sgd_state_roundtrip():
    opt = _opt()
    state = {k: v + 1.5 for k, v in opt.state_tensors().items()}
    other = _opt()
    other.load_state_tensors(state)
    for k, v in other.state_tensors().items():
        assert np.array_equal(v, state[k])


def test_sgd_state_missing_key_raises():
    opt = _opt()
    state = opt.state_tensors()
    del state["opt.velocity.b"]
    with pytest.raises(DataError, match="opt.velocity.b"):
        _opt().load_state_tensors(state)


def test_sgd_state_wrong_shape_raises():
    state = _opt().state_tensors()
    state["opt.velocity.a"] = np.zeros(4)
    target = _opt()
    with pytest.raises(DataError, match="shape"):
        target.load_state_tensors(state)
    assert all(not v.any() for v in target.state_tensors().values())  # nothing half-loaded


# -- all-or-nothing restores ---------------------------------------------------------


@pytest.mark.parametrize("corrupt, match", [
    (lambda t: t.update({"model.post.conv2.b": np.zeros(3)}), "shape"),  # the last parameter restored
    (lambda t: t.pop("model.post.conv2.b"), "model.post.conv2.b"),
    (lambda t: t.pop("opt.velocity.post.conv2.b"), "opt.velocity.post.conv2.b"),
    (lambda t: t.update({"opt.velocity.att.v": np.zeros(2)}), "shape"),
    (lambda t: t["model.out.frame.b"].__setitem__(0, np.nan), "model.out.frame.b"),
    (lambda t: t["opt.velocity.att.v"].__setitem__(-1, np.inf), "opt.velocity.att.v"),
    (lambda t: t.pop("meta.next_epoch"), "meta.next_epoch"),
    (lambda t: t.update({"meta.next_epoch": np.zeros(0)}), "meta.next_epoch"),
    (lambda t: t.update({"meta.next_epoch": np.array([1.0, 2.0])}), "meta.next_epoch"),
    (lambda t: t.update({"meta.next_epoch": np.array(1.0)}), "meta.next_epoch"),
    (lambda t: t.update({"meta.next_epoch": np.array([1.5])}), "meta.next_epoch"),
    (lambda t: t.update({"meta.next_epoch": np.array([-1.0])}), "meta.next_epoch"),
    (lambda t: t.update({"meta.next_epoch": np.array([np.nan])}), "meta.next_epoch"),
    (lambda t: t.pop("meta.attention_mode"), "meta.attention_mode"),
    (lambda t: t.update({"meta.attention_mode": np.array([2.0])}), "meta.attention_mode"),
    (lambda t: t.update({"meta.attention_mode": np.array([0.5])}), "meta.attention_mode"),
    (lambda t: t.update({"meta.attention_mode": np.array([0.0, 1.0])}), "meta.attention_mode"),
    (lambda t: t.pop("meta.history"), "meta.history"),
    (lambda t: t.update({"meta.history": np.zeros(6)}), "meta.history"),
    (lambda t: t.update({"meta.history": np.zeros((2, 3))}), "meta.history"),
    (lambda t: t.update({"meta.history": np.array([[0.5, 1.0, 1.0, 1.0]])}), "meta.history"),
], ids=["model_shape", "model_missing", "velocity_missing", "velocity_shape", "model_nan", "velocity_inf",
        "epoch_missing", "epoch_empty", "epoch_two_values", "epoch_0d", "epoch_fraction", "epoch_negative",
        "epoch_nan", "mode_missing", "mode_out_of_range", "mode_fraction", "mode_two_values", "history_missing",
        "history_six_values", "history_width_3", "history_epoch_fraction"])
def test_bad_checkpoint_changes_nothing(tmp_path, corrupt, match):
    params = seq2seq.init_params(seq2seq.ModelConfig(seed=3), vocab_size=14)
    assert list(params)[-1] == "post.conv2.b"
    opt = ad.SGD(params, lr=0.1)
    for v in opt.velocity.values():
        v += 0.5
    path = tmp_path / "c.bin"
    seq2seq.save_checkpoint(path, params, opt, 1, [], "augmented")
    table = fileio.load_tensor_table(path)
    corrupt(table)
    fileio.save_tensor_table(path, table)
    target = seq2seq.init_params(seq2seq.ModelConfig(seed=4), vocab_size=14)
    target_opt = ad.SGD(target, lr=0.1)
    before = {k: p.data.copy() for k, p in target.items()}
    with pytest.raises(DataError, match=match):
        seq2seq.load_checkpoint(path, target, target_opt)
    for k, p in target.items():
        assert np.array_equal(p.data, before[k]), k
    assert all(not v.any() for v in target_opt.velocity.values())


def _predictor(seed):
    return prosody.ProsodyPredictor(5, width=4, layers=2, seed=seed)


def test_predictor_state_roundtrip():
    source, target = _predictor(1), _predictor(2)
    target.load_state_tensors({k: v.copy() for k, v in source.state_tensors().items()})
    x = np.random.default_rng(0).normal(size=(6, 5))
    assert target.predict(x) == source.predict(x)


@pytest.mark.parametrize("corrupt, match", [
    (lambda t: t.update({"out.w": np.zeros((3, 3))}), "shape"),
    (lambda t: t.pop("out.b"), "out.b"),
    (lambda t: t["out.b"].__setitem__(0, np.nan), "out.b"),
    (lambda t: t["out.w"].__setitem__((0, 0), -np.inf), "out.w"),
], ids=["wrong_shape", "missing", "nan", "inf"])
def test_bad_predictor_state_changes_nothing(corrupt, match):
    table = {k: v.copy() for k, v in _predictor(1).state_tensors().items()}
    corrupt(table)
    target = _predictor(2)
    before = {k: p.data.copy() for k, p in target.params.items()}
    with pytest.raises(DataError, match=match):
        target.load_state_tensors(table)
    for k, p in target.params.items():
        assert np.array_equal(p.data, before[k]), k


# -- resume --------------------------------------------------------------------------

TINY = dict(encoder_rnn_width=4, decoder_rnn_width=6, prenet_hidden=6, prenet_out=4, attention_dim=6,
            location_filters=2, location_kernel=3, postnet_channels=3, symbol_embedding=4,
            stress_embedding=2, phrase_embedding=2, encoder_conv_channels=6, encoder_conv_kernel=3,
            batch_size=2, prosody_zero_epochs=1)


@pytest.fixture(scope="module")
def small_corpus():
    corpus = synthdata.generate_corpus(synthdata.CorpusConfig(utterance_count=5, validation_count=1, seed=9))
    rng = np.random.default_rng(9)
    return corpus, {u.utt_id: rng.normal(size=2) for u in corpus.utterances}


@pytest.mark.parametrize("mode", ["augmented", "plain"])
def test_resume_is_bit_identical(tmp_path, small_corpus, mode):
    corpus, table = small_corpus
    (tmp_path / "a").mkdir()
    straight = seq2seq.train(corpus, table, seq2seq.ModelConfig(epochs=2, **TINY), mode, out_dir=tmp_path / "a")
    (tmp_path / "b").mkdir()
    first = seq2seq.train(corpus, table, seq2seq.ModelConfig(epochs=1, **TINY), mode, out_dir=tmp_path / "b")
    assert len(first.history) == 1
    resumed = seq2seq.train(corpus, table, seq2seq.ModelConfig(epochs=2, **TINY), mode, out_dir=tmp_path / "b",
                            resume=True)
    assert resumed.history == straight.history
    for k, p in straight.params.items():
        assert p.data.shape == resumed.params[k].data.shape, k
        assert np.array_equal(p.data, resumed.params[k].data), k
    assert (tmp_path / "a" / "checkpoint.bin").read_bytes() == (tmp_path / "b" / "checkpoint.bin").read_bytes()


def test_train_writes_config_beside_checkpoint(tmp_path, small_corpus):
    corpus, table = small_corpus
    cfg = seq2seq.ModelConfig(epochs=1, **TINY)
    seq2seq.train(corpus, table, cfg, "plain", out_dir=tmp_path)
    assert seq2seq.load_model_config(tmp_path / "config.json") == cfg


@pytest.mark.parametrize("changes, names", [
    (dict(learning_rate=0.01, seed=8), "seed, learning_rate"),
    (dict(batch_size=1), "batch_size"),
    (dict(grad_clip=None), "grad_clip"),
], ids=["lr_and_seed", "batch_size", "grad_clip"])
def test_resume_with_different_config_raises(tmp_path, small_corpus, changes, names):
    corpus, table = small_corpus
    seq2seq.train(corpus, table, seq2seq.ModelConfig(epochs=1, **TINY), "plain", out_dir=tmp_path)
    before = (tmp_path / "checkpoint.bin").read_bytes()
    epochs = []
    with pytest.raises(ConfigError, match=rf"config\.json: .* differs in {names}$"):
        seq2seq.train(corpus, table, seq2seq.ModelConfig(epochs=2, **{**TINY, **changes}), "plain",
                      out_dir=tmp_path, resume=True, log=epochs.append)
    assert epochs == []
    assert (tmp_path / "checkpoint.bin").read_bytes() == before


@pytest.mark.parametrize("first, second", [("plain", "augmented"), ("augmented", "plain")])
def test_resume_in_other_attention_mode_raises(tmp_path, small_corpus, first, second):
    corpus, table = small_corpus
    seq2seq.train(corpus, table, seq2seq.ModelConfig(epochs=1, **TINY), first, out_dir=tmp_path)
    before = (tmp_path / "checkpoint.bin").read_bytes()
    epochs = []
    with pytest.raises(ConfigError, match=rf"checkpoint\.bin: resume in '{second}' attention mode of a run "
                                          rf"trained in '{first}'"):
        seq2seq.train(corpus, table, seq2seq.ModelConfig(epochs=2, **TINY), second, out_dir=tmp_path,
                      resume=True, log=epochs.append)
    assert epochs == []
    assert (tmp_path / "checkpoint.bin").read_bytes() == before


def test_table_name_not_utf8_raises_data_error(tmp_path):
    path = tmp_path / "t.bin"
    entry = struct.pack("<I", 2) + b"\xff\xfe" + struct.pack("<I", 0) + np.zeros(1).tobytes()
    path.write_bytes(fileio.TABLE_MAGIC + struct.pack("<II", fileio.FORMAT_VERSION, 1) + entry)
    with pytest.raises(DataError, match="entry 0 name is not UTF-8"):
        fileio.load_tensor_table(path)


def test_table_entry_larger_than_file_raises_data_error(tmp_path):
    path = tmp_path / "t.bin"
    entry = struct.pack("<I", 1) + b"x" + struct.pack("<III", 2, 2**32 - 1, 2**32 - 1)
    path.write_bytes(fileio.TABLE_MAGIC + struct.pack("<II", fileio.FORMAT_VERSION, 1) + entry)
    with pytest.raises(DataError, match=r"truncated entry 'x' \(0 of"):
        fileio.load_tensor_table(path)
