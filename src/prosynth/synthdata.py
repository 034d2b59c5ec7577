"""Deterministic synthetic corpus with known prosody ground truth.

Each utterance is a symbol sequence (phones with stress, word breaks,
leading/trailing silence, an utterance-level phrase type) rendered to a
frame matrix: one distinct template per symbol, expanded by its duration,
with the last channel carrying a smooth pitch-like contour. Pace factors
scale all non-silence durations multiplicatively and depend partly on the
phrase type (so a predictor can recover them from symbols alone), while the
pitch variance factor is drawn independently, keeping the two control
components measurably disentangled.

Generation is reproducible: every utterance draws from its own stream
seeded by (corpus seed, utterance index), so parallel generation cannot
reorder randomness.

On disk (save_corpus, load_corpus) a corpus is a directory of three files:
  corpus_meta.json  -- {"version": 2, "config": every CorpusConfig field,
                       "duration_table": one base duration per symbol}
  utterances.jsonl  -- one JSON record per utterance, in corpus order: id,
                       symbols (symbols_to_string form), phrase, durations,
                       pace_factor, pitch_variance, split
  arrays.bin        -- one fileio tensor table: "templates", (vocab_size,
                       feature_width - 1), and "features.<id>",
                       (sum(durations), feature_width), per utterance
An id is a table key, never a path.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import fileio
from .errors import ConfigError, DataError

PHRASE_TYPES = ("affirmative", "interrogative", "exclamatory", "other")
# pace multiplier per phrase type: questions run slower, exclamations faster
PACE_BY_PHRASE = (1.0, 1.25, 0.8, 1.0)
STRESS_LEVELS = 3
REF_DURATION = 7.5  # frames; realized pace factor = mean duration / this


def _check_table_size(table, vocab_size):
    size = np.size(table)
    if size != vocab_size:
        raise ConfigError(f"duration_table must have {vocab_size} entries, got {size}")


@dataclass
class CorpusConfig:
    alphabet_size: int = 12
    utterance_count: int = 200
    validation_count: int = 20
    min_words: int = 2
    max_words: int = 4
    min_word_len: int = 2
    max_word_len: int = 4
    feature_width: int = 8
    base_duration_min: int = 3
    base_duration_max: int = 12
    silence_duration: int = 6
    pace_sigma: float = 0.1
    pitch_span_base: float = 0.35
    pitch_sigma: float = 0.45
    speaker_pace_scale: float = 1.0
    speaker_pitch_scale: float = 1.0
    seed: int = 1234
    duration_table: list | None = None  # per-symbol base frames; drawn if None

    def __post_init__(self):
        if self.alphabet_size < 1:
            raise ConfigError("alphabet_size must be at least 1")
        if self.utterance_count < 1:
            raise ConfigError("utterance_count must be at least 1")
        if not 0 <= self.validation_count < self.utterance_count:
            raise ConfigError("validation_count must be in [0, utterance_count)")
        if self.feature_width < 2:
            raise ConfigError("feature_width must leave room for the pitch channel")
        if not 1 <= self.base_duration_min <= self.base_duration_max:
            raise ConfigError("base duration range is invalid")
        if self.duration_table is not None:
            _check_table_size(self.duration_table, self.vocab_size)

    @property
    def word_break_id(self):
        return self.alphabet_size

    @property
    def silence_id(self):
        return self.alphabet_size + 1

    @property
    def vocab_size(self):
        return self.alphabet_size + 2


@dataclass
class SymbolSequence:
    """Per-position symbolic input: phone id, 3-way stress, 4-way phrase
    type, and flags for word-break and silence symbols. An empty sequence,
    or fields of unequal length, is a ValueError."""

    ids: np.ndarray
    stress: np.ndarray
    phrase: np.ndarray
    word_break: np.ndarray
    silence: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.stress = np.asarray(self.stress, dtype=np.int64)
        self.phrase = np.asarray(self.phrase, dtype=np.int64)
        self.word_break = np.asarray(self.word_break, dtype=bool)
        self.silence = np.asarray(self.silence, dtype=bool)
        if self.ids.size == 0:
            raise ValueError("SymbolSequence: empty sequence")
        sizes = {name: getattr(self, name).size for name in ("ids", "stress", "phrase", "word_break", "silence")}
        if len(set(sizes.values())) != 1:
            raise ValueError(f"SymbolSequence: fields of unequal length {sizes}")

    def __len__(self):
        return int(self.ids.size)


@dataclass
class SyntheticUtterance:
    utt_id: str
    symbols: SymbolSequence
    durations: np.ndarray
    pace_factor: float
    pitch_variance: float
    pitch_contour: np.ndarray
    features: np.ndarray
    split: str = "train"

    @property
    def frame_alignment(self):
        """Ground-truth symbol index per frame, for attention scoring."""
        return np.repeat(np.arange(len(self.symbols)), self.durations)


@dataclass
class Corpus:
    config: CorpusConfig
    duration_table: np.ndarray
    templates: np.ndarray
    utterances: list = field(default_factory=list)

    def split(self, name):
        return [u for u in self.utterances if u.split == name]


# -- generation ------------------------------------------------------------------


def _corpus_tables(cfg):
    rng = np.random.default_rng((cfg.seed, 0x7AB1E5))
    if cfg.duration_table is not None:
        table = np.asarray(cfg.duration_table, dtype=np.int64)
    else:
        table = rng.integers(cfg.base_duration_min, cfg.base_duration_max + 1, size=cfg.vocab_size)
        table[cfg.word_break_id] = cfg.base_duration_min
        table[cfg.silence_id] = cfg.silence_duration
    templates = rng.uniform(0.1, 0.9, size=(cfg.vocab_size, cfg.feature_width - 1))
    templates[cfg.word_break_id] = rng.uniform(0.02, 0.08, size=cfg.feature_width - 1)
    templates[cfg.silence_id] = 0.02
    return table, templates


def _scaled_durations(table, ids, silence, pace_factor, silence_duration):
    """Non-silence durations scale multiplicatively; silences stay fixed."""
    base = table[ids].astype(np.float64)
    scaled = np.maximum(1, np.floor(base * pace_factor + 0.5)).astype(np.int64)
    scaled[silence] = silence_duration
    return scaled


def _pitch_wander(rng, total_frames):
    """Piecewise-smooth zero-mean contour with O(1) span."""
    t = np.arange(total_frames)
    p1 = rng.uniform(40.0, 80.0)
    p2 = rng.uniform(15.0, 30.0)
    ph1, ph2 = rng.uniform(0, 2 * np.pi, size=2)
    return 0.5 * np.sin(2 * np.pi * t / p1 + ph1) + 0.3 * np.sin(2 * np.pi * t / p2 + ph2)


def _build_symbols(cfg, rng):
    words = rng.integers(cfg.min_words, cfg.max_words + 1)
    phrase = int(rng.integers(0, len(PHRASE_TYPES)))
    ids, stress, brk, sil = [cfg.silence_id], [0], [False], [True]
    for w in range(words):
        if w > 0:
            ids.append(cfg.word_break_id)
            stress.append(0)
            brk.append(True)
            sil.append(False)
        for _ in range(rng.integers(cfg.min_word_len, cfg.max_word_len + 1)):
            ids.append(int(rng.integers(0, cfg.alphabet_size)))
            stress.append(int(rng.integers(0, STRESS_LEVELS)))
            brk.append(False)
            sil.append(False)
    ids.append(cfg.silence_id)
    stress.append(0)
    brk.append(False)
    sil.append(True)
    return SymbolSequence(ids, stress, np.full(len(ids), phrase), brk, sil), phrase


def render_targets(symbols, durations, pitch_contour, templates):
    """Expand per-symbol templates by duration into a (sum(durations),
    templates.shape[1] + 1) frame matrix; the last channel is the pitch
    contour. An in-symbol sine envelope makes position within a long symbol
    visible to the decoder.

    durations must be a 1-D integer array with one entry >= 1 per symbol,
    and pitch_contour must have shape (sum(durations),); anything else is a
    ValueError naming the field."""
    durations = np.asarray(durations)
    if durations.ndim != 1 or durations.dtype.kind not in "iu" or durations.size != len(symbols):
        raise ValueError(f"render_targets: durations must be {len(symbols)} integers, "
                         f"got {durations.dtype} of shape {durations.shape}")
    if durations.min() < 1:
        raise ValueError(f"render_targets: durations must be >= 1, got {durations.min()}")
    durations = durations.astype(np.int64, copy=False)  # np.repeat refuses uint64 counts
    total = int(durations.sum())
    if np.shape(pitch_contour) != (total,):
        raise ValueError(f"render_targets: pitch_contour must have shape ({total},), got {np.shape(pitch_contour)}")
    dur = np.repeat(durations, durations)
    pos = np.arange(total) - np.repeat(np.cumsum(durations) - durations, durations)
    env = 0.75 + 0.25 * np.sin(np.pi * (pos + 0.5) / dur)
    feats = np.empty((total, templates.shape[1] + 1))
    feats[:, :-1] = env[:, None] * templates[np.repeat(symbols.ids, durations)]
    feats[:, -1] = pitch_contour
    return feats


def generate_utterance(cfg, index, table, templates, split="train"):
    rng = np.random.default_rng((cfg.seed, index))
    symbols, phrase = _build_symbols(cfg, rng)
    drawn_pace = PACE_BY_PHRASE[phrase] * np.exp(rng.normal(0.0, cfg.pace_sigma)) * cfg.speaker_pace_scale
    durations = _scaled_durations(table, symbols.ids, symbols.silence, drawn_pace, cfg.silence_duration)
    # record the realised factor so measured pace is exactly monotone in it
    realized = float(np.mean(durations[~symbols.silence]) / REF_DURATION)
    pitch_variance = float(cfg.pitch_span_base * np.exp(rng.normal(0.0, cfg.pitch_sigma)) * cfg.speaker_pitch_scale)
    total = int(np.sum(durations))
    contour = 0.5 + pitch_variance * _pitch_wander(rng, total)
    feats = render_targets(symbols, durations, contour, templates)
    return SyntheticUtterance(
        utt_id=f"utt_{index:04d}",
        symbols=symbols,
        durations=durations,
        pace_factor=realized,
        pitch_variance=pitch_variance,
        pitch_contour=contour,
        features=feats,
        split=split,
    )


def generate_corpus(cfg):
    """Build the full corpus; the last validation_count utterances are the
    validation split."""
    table, templates = _corpus_tables(cfg)
    utterances = []
    first_val = cfg.utterance_count - cfg.validation_count
    for i in range(cfg.utterance_count):
        split = "val" if i >= first_val else "train"
        utterances.append(generate_utterance(cfg, i, table, templates, split))
    return Corpus(cfg, table, templates, utterances)


# -- symbol-string round trip --------------------------------------------------------


def symbols_to_string(symbols):
    """Compact token form: 'p<id>:<stress>' for phones, 'wb', 'sil'."""
    toks = []
    for i in range(len(symbols)):
        if symbols.silence[i]:
            toks.append("sil")
        elif symbols.word_break[i]:
            toks.append("wb")
        else:
            toks.append(f"p{symbols.ids[i]}:{symbols.stress[i]}")
    return " ".join(toks)


def _whole(text, what):
    try:
        return int(text)
    except ValueError:
        raise DataError(f"{what} {text!r} is not a whole number") from None


def symbols_from_string(text, cfg, phrase=0):
    """Parse the compact token form back into a SymbolSequence. A phone id
    outside the alphabet, a stress outside 0..STRESS_LEVELS-1, a phrase
    outside 0..len(PHRASE_TYPES)-1, a part that is not a whole number or an
    unknown token is a DataError."""
    if not 0 <= phrase < len(PHRASE_TYPES):
        raise DataError(f"phrase {phrase} outside 0..{len(PHRASE_TYPES) - 1}")
    ids, stress, brk, sil = [], [], [], []
    for tok in text.split():
        if tok == "sil":
            ids.append(cfg.silence_id)
            stress.append(0)
            brk.append(False)
            sil.append(True)
        elif tok == "wb":
            ids.append(cfg.word_break_id)
            stress.append(0)
            brk.append(True)
            sil.append(False)
        elif tok.startswith("p"):
            pid, _, st = tok[1:].partition(":")
            pid = _whole(pid, "symbol id")
            if not 0 <= pid < cfg.alphabet_size:
                raise DataError(f"symbol id {pid} outside alphabet of {cfg.alphabet_size}")
            st = _whole(st, "stress") if st else 0
            if not 0 <= st < STRESS_LEVELS:
                raise DataError(f"stress {st} outside 0..{STRESS_LEVELS - 1}")
            ids.append(pid)
            stress.append(st)
            brk.append(False)
            sil.append(False)
        else:
            raise DataError(f"unknown symbol token {tok!r}")
    if not ids:
        raise DataError("empty symbol string")
    return SymbolSequence(ids, stress, np.full(len(ids), phrase), brk, sil)


# -- disk format -----------------------------------------------------------------------


CORPUS_VERSION = 2
CORPUS_FILES = ("corpus_meta.json", "utterances.jsonl", "arrays.bin")
SPLITS = ("train", "val")


def save_corpus(corpus, out_dir):
    """Write corpus to out_dir, created if missing, as the three files the
    module docstring lays out. The same corpus gives the same bytes. A
    repeated utterance id, which would make two utterances share one
    features entry, is a DataError raised before anything is written."""
    ids = [u.utt_id for u in corpus.utterances]
    if len(set(ids)) != len(ids):
        raise DataError(f"save_corpus: duplicate utterance id {next(i for i in ids if ids.count(i) > 1)!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "version": CORPUS_VERSION,
        "config": asdict(corpus.config),
        "duration_table": corpus.duration_table.tolist(),
    }
    with open(out / "corpus_meta.json", "w", encoding="ascii", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    arrays = {"templates": corpus.templates}
    with open(out / "utterances.jsonl", "w", encoding="ascii", newline="\n") as fh:
        for u in corpus.utterances:
            record = {
                "id": u.utt_id,
                "symbols": symbols_to_string(u.symbols),
                "phrase": int(u.symbols.phrase[0]),
                "durations": u.durations.tolist(),
                "pace_factor": u.pace_factor,
                "pitch_variance": u.pitch_variance,
                "split": u.split,
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            arrays[f"features.{u.utt_id}"] = u.features
    fileio.save_tensor_table(out / "arrays.bin", arrays)


def _reason(exc):
    return f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)


def _finite_number(value, what):
    """A finite JSON number (not a bool), as a float."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise DataError(f"{what} {value!r} is not a finite number")
    return float(value)


def _whole_number(value, what, low=None):
    """A JSON int (not a bool), at least low when low is given."""
    if type(value) is not int or (low is not None and value < low):
        raise DataError(f"{what} {value!r} is not a whole number" + ("" if low is None else f" >= {low}"))
    return value


# what a malformed file makes parsing raise; ValueError includes JSON and
# ASCII decoding errors, TypeError a value of the wrong JSON type,
# ConfigError a config value out of range or a config field missing,
# OverflowError a whole number too large for its array
_PARSE_ERRORS = (ConfigError, DataError, KeyError, TypeError, ValueError, OverflowError)


def load_corpus(corpus_dir):
    """A corpus as written by save_corpus. Rejected with a DataError:
    - a missing file, naming the directory;
    - in corpus_meta.json, naming it: text that is not ASCII JSON, a
      missing field, a version other than CORPUS_VERSION, a config without
      every CorpusConfig field or with another field or an invalid value,
      a duration table without one entry per vocabulary symbol;
    - in utterances.jsonl, naming it and the line: text that is not ASCII
      JSON, a missing field, an id that is not a string or repeats, a split
      other than train or val, a pace_factor or pitch_variance that is not
      a finite number, a bad symbol string, a phrase that is not a whole
      number in range, durations that are not whole numbers >= 1, not one
      duration per symbol;
    - in arrays.bin, naming the file, or for features the record's line:
      a malformed table, or a missing, misshapen or non-finite templates
      or features.<id> entry (fileio.checked_entries); the features must
      be (sum(durations), feature_width)."""
    root = Path(corpus_dir)
    for name in CORPUS_FILES:
        if not (root / name).is_file():
            raise DataError(f"{corpus_dir}: not a corpus directory (missing {name})")
    meta_path, records_path, arrays_path = (root / name for name in CORPUS_FILES)
    try:
        meta = json.loads(meta_path.read_bytes().decode("ascii"))
        if meta["version"] != CORPUS_VERSION:
            raise DataError(f"unsupported corpus version {meta['version']}")
        cfg = fileio.strict_dataclass(CorpusConfig, meta["config"])
        table = np.asarray(meta["duration_table"], dtype=np.int64)
        _check_table_size(table, cfg.vocab_size)
    except _PARSE_ERRORS as exc:
        raise DataError(f"{meta_path}: {_reason(exc)}") from None
    arrays = fileio.load_tensor_table(arrays_path)
    shapes = {"templates": (cfg.vocab_size, cfg.feature_width - 1)}
    templates = fileio.checked_entries(arrays, shapes, arrays_path)["templates"]
    utterances = {}
    with open(records_path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            source = f"{records_path}:{lineno}"
            try:
                rec = json.loads(line.decode("ascii"))
                utt_id, split = rec["id"], rec["split"]
                pace_factor = _finite_number(rec["pace_factor"], "pace_factor")
                pitch_variance = _finite_number(rec["pitch_variance"], "pitch_variance")
                if not isinstance(utt_id, str):
                    raise DataError(f"id {utt_id!r} is not a string")
                if utt_id in utterances:
                    raise DataError(f"duplicate id {utt_id!r}")
                if split not in SPLITS:
                    raise DataError(f"split {split!r} is not one of {', '.join(SPLITS)}")
                symbols = symbols_from_string(rec["symbols"], cfg, phrase=_whole_number(rec["phrase"], "phrase"))
                durations = np.asarray([_whole_number(d, "duration", low=1) for d in rec["durations"]], dtype=np.int64)
                if durations.shape != (len(symbols),):
                    raise DataError(f"{durations.size} durations for {len(symbols)} symbols")
            except _PARSE_ERRORS as exc:
                raise DataError(f"{source}: {_reason(exc)}") from None
            shapes = {utt_id: (int(durations.sum()), cfg.feature_width)}
            feats = fileio.checked_entries(arrays, shapes, source, prefix="features.")[utt_id]
            utterances[utt_id] = SyntheticUtterance(utt_id, symbols, durations, pace_factor, pitch_variance,
                                                    feats[:, -1].copy(), feats, split)
    return Corpus(cfg, table, templates, list(utterances.values()))
