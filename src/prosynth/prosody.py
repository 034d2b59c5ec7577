"""Utterance-level prosody observations and their prediction.

Two interpretable components per utterance:
  pace       -- natural log of the mean phoneme duration in seconds,
                silences excluded;
  pitch_span -- 0.95-quantile minus 0.05-quantile of log-pitch over voiced
                frames.
Both are normalised per speaker so that median +/- 3 std maps to [-1, 1].
A small stacked-recurrent predictor, one autodiff.lstm_layer node per
layer, regresses the normalised pair from the encoder output sequence, so
synthesis can run without measured prosody and accept deliberate
component-wise offsets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import fileio
from .errors import ConfigError, DataError

MIN_VOICED_FRAMES = 20
MIN_STATS_UTTERANCES = 10
EFFICIENT_SPAN_STDS = 3.0


class TooFewVoicedFrames(ValueError):
    """Quantiles would be meaningless; skip this utterance for statistics."""


@dataclass
class ProsodyInfo:
    pace: float
    pitch_span: float

    def as_array(self):
        return np.array([self.pace, self.pitch_span])


@dataclass
class NormalizedProsody:
    pace: float
    pitch_span: float

    def as_array(self):
        return np.array([self.pace, self.pitch_span])


@dataclass
class SpeakerStats:
    """Per-component median and population std over a speaker's utterances."""

    pace_median: float
    pace_std: float
    span_median: float
    span_std: float

    def __post_init__(self):
        if self.pace_std <= 0 or self.span_std <= 0:
            raise ValueError("SpeakerStats: std must be positive (degenerate corpus)")


# -- extraction -----------------------------------------------------------------


def compute_pace(durations, silence_flags, frame_period):
    """ln(mean non-silence phoneme duration in seconds)."""
    if frame_period <= 0:
        raise ValueError("compute_pace: frame_period must be positive")
    durations = np.asarray(durations, dtype=np.float64)
    silence = np.asarray(silence_flags, dtype=bool)
    if durations.shape != silence.shape:
        raise ValueError("compute_pace: durations and silence flags differ in length")
    voiced = durations[~silence]
    if voiced.size == 0:
        raise ValueError("compute_pace: utterance contains only silence")
    return float(np.log(voiced.mean() * frame_period))


def compute_pitch_span(log_pitch, voiced, min_voiced=MIN_VOICED_FRAMES):
    """Empirical q0.95 - q0.05 of log-pitch over voiced frames.

    Uses the linear-interpolation quantile estimator. Raises
    TooFewVoicedFrames below min_voiced frames.
    """
    log_pitch = np.asarray(log_pitch, dtype=np.float64)
    voiced = np.asarray(voiced, dtype=bool)
    vals = log_pitch[voiced]
    if vals.size < min_voiced:
        raise TooFewVoicedFrames(f"{vals.size} voiced frames, need {min_voiced}")
    return float(np.quantile(vals, 0.95) - np.quantile(vals, 0.05))


# -- per-speaker normalisation -----------------------------------------------------


def fit_speaker_stats(infos, min_count=MIN_STATS_UTTERANCES):
    """Component-wise median and population standard deviation."""
    if len(infos) < min_count:
        raise ValueError(f"fit_speaker_stats: need >= {min_count} utterances, got {len(infos)}")
    paces = np.array([p.pace for p in infos])
    spans = np.array([p.pitch_span for p in infos])
    pace_std = float(np.std(paces))
    span_std = float(np.std(spans))
    if pace_std == 0.0 or span_std == 0.0:
        raise ValueError("fit_speaker_stats: zero variance (degenerate corpus)")
    return SpeakerStats(float(np.median(paces)), pace_std, float(np.median(spans)), span_std)


def normalize(info, stats):
    """Map the efficient span (median +/- 3 std) onto [-1, 1]; values outside
    pass through un-clamped."""
    return NormalizedProsody(
        (info.pace - stats.pace_median) / (EFFICIENT_SPAN_STDS * stats.pace_std),
        (info.pitch_span - stats.span_median) / (EFFICIENT_SPAN_STDS * stats.span_std),
    )


def denormalize(norm, stats):
    return ProsodyInfo(
        stats.pace_median + EFFICIENT_SPAN_STDS * stats.pace_std * norm.pace,
        stats.span_median + EFFICIENT_SPAN_STDS * stats.span_std * norm.pitch_span,
    )


def apply_offset(norm, offset):
    """Shift each component by a deliberate offset in [-1, 1]; the sum is
    intentionally not clamped."""
    dp, ds = float(offset[0]), float(offset[1])
    for v in (dp, ds):
        if not -1.0 <= v <= 1.0:
            raise ValueError(f"apply_offset: offset {v} outside [-1, 1]")
    return NormalizedProsody(norm.pace + dp, norm.pitch_span + ds)


# -- the prediction module --------------------------------------------------------------


@dataclass
class PredictorConfig:
    """The predictor's size and training hyperparameters. A value that
    train_predictor cannot run with is a ConfigError at construction:
    width, layers or batch_size below 1, negative epochs, a learning_rate
    not above 0, a momentum outside [0, 1)."""

    width: int = 32
    layers: int = 3
    epochs: int = 60
    learning_rate: float = 0.03
    momentum: float = 0.9
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        for name in ("width", "layers", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be at least 0, got {self.epochs}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")


class ProsodyPredictor:
    """Stacked recurrent network over encoder outputs, linear head of size 2.

    Each layer reads the whole output sequence of the one below; the top
    layer's final state feeds the output layer. Frozen predictors are
    read-only and therefore thread-safe. An input_dim, width or layers below
    1 is a ConfigError.
    """

    def __init__(self, input_dim, width=32, layers=3, seed=0):
        for name, value in (("input_dim", input_dim), ("width", width), ("layers", layers)):
            if value < 1:
                raise ConfigError(f"{name} must be at least 1, got {value}")
        self.input_dim = input_dim
        self.width = width
        self.layers = layers
        rng = np.random.default_rng(seed)
        self.params = {}
        for l in range(layers):
            in_dim = input_dim if l == 0 else width
            for part, data in zip(("wx", "wh", "b"), ad.lstm_weights(rng, in_dim, width)):
                self.params[f"lstm{l}.{part}"] = ad.parameter(data, name=f"lstm{l}.{part}")
        self.params["out.w"] = ad.parameter(ad.glorot(rng, width, 2), name="out.w")
        self.params["out.b"] = ad.parameter(np.zeros(2), name="out.b")

    def forward(self, sequence):
        """Graph-building forward pass; returns a (2,) Tensor."""
        seq = np.asarray(sequence, dtype=np.float64)
        if seq.ndim != 2 or seq.shape[0] == 0:
            raise ValueError(f"predictor: expected non-empty (T, D) sequence, got {seq.shape}")
        if seq.shape[1] != self.input_dim:
            raise ValueError(f"predictor: input dim {seq.shape[1]}, expected {self.input_dim}")
        x = ad.Tensor(seq)
        for l in range(self.layers):
            x = ad.lstm_layer(x, self.params[f"lstm{l}.wx"], self.params[f"lstm{l}.wh"], self.params[f"lstm{l}.b"])
        return ad.add(ad.matmul(x[-1], self.params["out.w"]), self.params["out.b"])

    @ad.no_grad()
    def predict(self, sequence):
        """Deterministic (2,) prediction as NormalizedProsody; builds no graph."""
        out = self.forward(sequence).data
        return NormalizedProsody(float(out[0]), float(out[1]))

    def state_tensors(self):
        return {k: p.data for k, p in self.params.items()}

    def load_state_tensors(self, table):
        """Restore every parameter, all or nothing: a missing or misshapen
        entry is a DataError and leaves the predictor unchanged."""
        shapes = {k: p.data.shape for k, p in self.params.items()}
        for k, arr in fileio.checked_entries(table, shapes, "predictor state").items():
            self.params[k].data = arr


def _predictor_loss(predictor, seq, target):
    """Squared error of one prediction, averaged over its two values."""
    diff = ad.add(predictor.forward(seq), ad.Tensor(-np.asarray(target, dtype=np.float64)))
    return ad.mean_(ad.mul(diff, diff))


def train_predictor(dataset, config=None, log=None):
    """Fit a ProsodyPredictor by MSE on (encoder outputs, normalised prosody).

    The dataset must come from a frozen main model, with encoder outputs
    taken before prosody concatenation. Returns (predictor, per-epoch
    training MSE list).
    """
    config = config or PredictorConfig()
    if not dataset:
        raise ValueError("train_predictor: empty dataset")
    input_dim = np.asarray(dataset[0][0]).shape[1]
    predictor = ProsodyPredictor(input_dim, width=config.width, layers=config.layers, seed=config.seed)
    opt = ad.SGD(predictor.params, lr=config.learning_rate, momentum=config.momentum)
    history = []
    for epoch in range(config.epochs):
        order = np.random.default_rng((config.seed, epoch)).permutation(len(dataset))
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            opt.zero_grad()
            ad.backward_mean(lambda j: _predictor_loss(predictor, *dataset[batch[j]]), len(batch))
            opt.step()
        mse = evaluate_predictor(predictor, dataset)
        history.append(mse)
        if log is not None:
            log(epoch, mse)
    return predictor, history


@ad.no_grad()
def evaluate_predictor(predictor, dataset):
    """Mean squared error over a dataset, computed without building a graph."""
    total = 0.0
    for seq, target in dataset:
        out = predictor.forward(seq).data
        diff = out - np.asarray(target, dtype=np.float64)
        total += float(np.mean(diff * diff))
    return total / len(dataset)


# -- table export -----------------------------------------------------------------------


PROSODY_CSV_HEADER = "utt_id,pace,pitch_span,norm_pace,norm_pitch_span,status"
STATS_FORMAT_VERSION = 1


def write_prosody_table(path, rows):
    """rows: (utt_id, pace, pitch_span, norm_pace, norm_pitch_span, status);
    numeric fields may be None for flagged utterances. The format has no
    escaping, so an utt_id or status holding a comma or a line break is a
    ValueError, and so is a non-finite number; both are raised before the
    file is opened."""

    def fmt(x):
        return "" if x is None else repr(float(x))

    rows = list(rows)
    for row in rows:
        for label, text in (("utt_id", str(row[0])), ("status", str(row[5]))):
            if any(ch in text for ch in ",\n\r"):
                raise ValueError(f"write_prosody_table: {label} {text!r} contains a comma or line break")
        for value in row[1:5]:
            if value is not None and not math.isfinite(float(value)):
                raise ValueError(f"write_prosody_table: {row[0]} has a non-finite value {value!r}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(PROSODY_CSV_HEADER + "\n")
        for utt_id, pace, span, npace, nspan, status in rows:
            fh.write(f"{utt_id},{fmt(pace)},{fmt(span)},{fmt(npace)},{fmt(nspan)},{status}\n")


def read_prosody_table(path):
    """Rows as written by write_prosody_table; a file that is not ASCII, a
    wrong header, or a row with the wrong number of fields or an unparsable
    or non-finite number, is a DataError naming the file (and the line,
    where known). Empty numeric fields read as None."""
    rows = []
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip()
            if header != PROSODY_CSV_HEADER:
                raise DataError(f"{path}:1: unexpected prosody table header {header!r}")
            for lineno, line in enumerate(fh, start=2):
                fields = line.rstrip("\n").split(",")
                if len(fields) != 6:
                    raise DataError(f"{path}:{lineno}: {len(fields)} fields, expected 6")
                utt_id, *numbers, status = fields
                try:
                    values = [None if s == "" else float(s) for s in numbers]
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
                if not all(v is None or math.isfinite(v) for v in values):
                    raise DataError(f"{path}:{lineno}: non-finite number in {line.strip()!r}")
                rows.append((utt_id, *values, status))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: prosody table is not ASCII: {exc}") from None
    return rows


def save_speaker_stats(path, stats):
    payload = {
        "version": STATS_FORMAT_VERSION,
        "pace": {"median": stats.pace_median, "std": stats.pace_std},
        "pitch_span": {"median": stats.span_median, "std": stats.span_std},
    }
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_speaker_stats(path):
    """Stats as written by save_speaker_stats. A file that is not ASCII
    JSON, another version, a missing pace or pitch_span object or field, a
    median or std that is not a finite number, or a std <= 0, is a
    DataError naming the file."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            payload = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: speaker stats are not ASCII JSON: {exc}") from None
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != STATS_FORMAT_VERSION:
        raise DataError(f"{path}: unsupported speaker stats version {version}")
    values = []
    for part in ("pace", "pitch_span"):
        for name in ("median", "std"):
            try:
                value = payload[part][name]
            except (KeyError, TypeError):  # TypeError: the part is not an object
                raise DataError(f"{path}: speaker stats have no {part}.{name}") from None
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                raise DataError(f"{path}: speaker stats {part}.{name} is not a finite number: {value!r}")
            if name == "std" and value <= 0:
                raise DataError(f"{path}: speaker stats {part}.std must be positive, got {value!r}")
            values.append(value)
    return SpeakerStats(*values)
