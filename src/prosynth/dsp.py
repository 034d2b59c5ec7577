"""Vocoder-support signal processing.

Covers the conditioning/training chain around a neural waveform generator:
256-level mu-law companding, first-order emphasis noise shaping, a
look-ahead limiter keeping de-emphasised audio 16-bit safe, silence-anchored
training-segment selection, mel-spectrogram extraction, nearest-frame
upsampling, and an autocorrelation pitch tracker for prosody statistics.

Audio is framed one way, by `_frames`, a read-only strided view that the
mel features, the pitch tracker and the limiter's block peaks share; every
stage is array ops over whole frames or blocks. The one per-sample loop
left is `deemphasis`, a recursive filter.

All functions are pure and reentrant; batch them per utterance as you like.
"""

from __future__ import annotations

import wave
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError

DEFAULT_RATE = 22050
DEFAULT_EMPHASIS = 0.85  # first-order noise-shaping coefficient
PCM16_LIMIT = 1.0 - 2.0 ** -15  # largest magnitude a 16-bit sample can carry
MULAW_LEVELS = 256
MEL_LOG_FLOOR = 1e-5


@dataclass
class AudioBuffer:
    """Mono audio: float samples nominally in [-1, 1] plus a sample rate."""

    samples: np.ndarray
    rate: int = DEFAULT_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.rate <= 0:
            raise ValueError(f"AudioBuffer: rate must be positive, got {self.rate}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("AudioBuffer: non-finite samples")


@dataclass
class MelConfig:
    """Framing and filter-bank layout for mel feature extraction. A hop or
    rate below 1, a window shorter than the hop or no channel is a
    ValueError naming the field."""

    hop: int = 256
    window: int = 1024
    channels: int = 80
    rate: int = DEFAULT_RATE

    def __post_init__(self):
        for name in ("hop", "rate"):
            if getattr(self, name) < 1:
                raise ValueError(f"MelConfig: {name} must be >= 1, got {getattr(self, name)}")
        if self.hop > self.window:
            raise ValueError(f"MelConfig: hop {self.hop} exceeds window {self.window}")
        if self.channels < 1:
            raise ValueError("MelConfig: need at least one mel channel")


# -- mu-law companding -------------------------------------------------------------


def mulaw_encode(x):
    """Compand to 256 uniform levels: mid-rise quantiser in the companded
    domain, code 128 for 0, 255 for +1, 0 for -1. Inputs beyond [-1, 1] are
    clipped with a warning."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("mulaw_encode: non-finite input")
    if np.any(np.abs(x) > 1.0):
        warnings.warn("mulaw_encode: input exceeds [-1, 1], clipping", stacklevel=2)
        x = np.clip(x, -1.0, 1.0)
    mu = MULAW_LEVELS - 1.0
    y = np.sign(x) * np.log1p(mu * np.abs(x)) / np.log(MULAW_LEVELS)
    code = np.floor((y + 1.0) / 2.0 * MULAW_LEVELS)
    return np.clip(code, 0, MULAW_LEVELS - 1).astype(np.int64)


def mulaw_decode(code):
    """Expand a code back to the centre of its companded bin."""
    code = np.asarray(code)
    if np.any(code < 0) or np.any(code > MULAW_LEVELS - 1):
        raise ValueError("mulaw_decode: code outside [0, 255]")
    return _expand((code + 0.5) / MULAW_LEVELS * 2.0 - 1.0)


def _expand(y):
    """Inverse of the mu-law compression, from [-1, 1] back to [-1, 1]."""
    return np.sign(y) * (np.power(MULAW_LEVELS, np.abs(y)) - 1.0) / (MULAW_LEVELS - 1.0)


def mulaw_max_roundtrip_error():
    """Analytic worst-case |x - decode(encode(x))| over [-1, 1]: the largest
    one-sided distance from any bin edge to that bin's decode point."""
    codes = np.arange(MULAW_LEVELS)
    lo = _expand(codes / MULAW_LEVELS * 2.0 - 1.0)
    hi = _expand(np.minimum((codes + 1.0) / MULAW_LEVELS * 2.0 - 1.0, 1.0))
    centre = mulaw_decode(codes)
    return float(np.max(np.maximum(hi - centre, centre - lo)))


# -- emphasis noise shaping ----------------------------------------------------------


def preemphasis(x, coeff=DEFAULT_EMPHASIS):
    """y[n] = x[n] - coeff * x[n-1] with zero initial state."""
    if not 0.0 <= coeff < 1.0:
        raise ValueError(f"preemphasis: coeff must be in [0, 1), got {coeff}")
    x = np.asarray(x, dtype=np.float64)
    y = x.copy()
    y[1:] -= coeff * x[:-1]
    return y


def deemphasis(x, coeff=DEFAULT_EMPHASIS):
    """Exact inverse of preemphasis: y[n] = x[n] + coeff * y[n-1]. Each
    output depends on the one before, so this is a per-sample loop."""
    if not 0.0 <= coeff < 1.0:
        raise ValueError(f"deemphasis: coeff must be in [0, 1), got {coeff}")
    y = np.asarray(x, dtype=np.float64).tolist()  # Python floats: 2.6x faster than numpy scalars
    for n in range(1, len(y)):
        y[n] += coeff * y[n - 1]
    return np.array(y, dtype=np.float64)


# -- look-ahead gain limiting ---------------------------------------------------------


def agc_limit(x, lookahead=1024, block=512):
    """Limit a signal into the 16-bit-safe range with a smooth gain curve.

    Per-block required gain is computed over the block extended `lookahead`
    samples forward, eroded with the previous block (so the curve dips before
    a peak arrives), then raised-cosine interpolated between block
    boundaries. In-range input passes through with unity gain. Non-finite
    input is a ValueError.

    Returns (limited samples, per-sample gain).
    """
    if lookahead < 0:
        raise ValueError("agc_limit: lookahead must be >= 0")
    if block < 1:
        raise ValueError("agc_limit: block must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("agc_limit: x has non-finite samples")
    n = x.size
    if n == 0 or np.max(np.abs(x)) <= PCM16_LIMIT:
        return x.copy(), np.ones(n)
    # block b's peak spans x[b * block:(b + 1) * block + lookahead]; the zero
    # padding keeps the last spans whole without raising any peak
    span = block + lookahead
    padded = np.concatenate([np.abs(x), np.zeros(span)])
    peak = _frames(padded, span, block)[:(n + block - 1) // block].max(axis=1)
    required = PCM16_LIMIT / np.maximum(peak, PCM16_LIMIT)
    # boundary control points: erode so every sample's gain stays at or
    # below its own block's required gain
    bounds = np.concatenate([required[:1], np.minimum(required[:-1], required[1:]), required[-1:]])
    b, offset = np.divmod(np.arange(n), block)
    ramp = 0.5 * (1.0 - np.cos(np.pi * (offset / block)))
    gain = bounds[b] + (bounds[b + 1] - bounds[b]) * ramp
    return x * gain, gain


# -- silence analysis -----------------------------------------------------------------


def frame_rms(x, frame):
    """Root-mean-square per non-overlapping frame (final partial included)."""
    x = np.asarray(x, dtype=np.float64)
    if frame <= 0:
        raise ValueError("frame_rms: frame must be positive")
    full = x[:x.size - x.size % frame].reshape(-1, frame)
    tail = x[full.size:]
    mean_square = (full * full).mean(axis=1)
    if tail.size:
        mean_square = np.append(mean_square, np.mean(tail * tail))
    return np.sqrt(mean_square)


def detect_silence(x, rate=DEFAULT_RATE, frame=256, rel_db=40.0, min_run_s=0.05):
    """Find silent sample ranges by short-time energy.

    A frame is silent when its RMS falls more than rel_db below the
    utterance's 0.95-quantile frame RMS. Adjacent silent frames merge;
    runs shorter than min_run_s are dropped. Returns [(start, end), ...).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return []
    rms = frame_rms(x, frame)
    threshold = max(float(np.quantile(rms, 0.95)) * 10.0 ** (-rel_db / 20.0), 1e-12)
    edges = np.diff(np.concatenate([[0], (rms < threshold).astype(np.int8), [0]]))
    lo = np.flatnonzero(edges == 1) * frame
    hi = np.minimum(np.flatnonzero(edges == -1) * frame, x.size)
    min_run = int(min_run_s * rate)
    return [(int(a), int(b)) for a, b in zip(lo, hi) if b - a >= min_run]


def select_training_segments(x, seg_len, rate=DEFAULT_RATE, frame=256, rel_db=40.0,
                             min_run_s=0.05, stride=256):
    """Offsets of training segments that begin inside silent regions.

    Every offset lies in a detected silent region and leaves room for a full
    segment. Returns an empty list (with a warning) when nothing is silent.
    A seg_len or stride below 1 is a ValueError.
    """
    for name, value in (("seg_len", seg_len), ("stride", stride)):
        if value < 1:
            raise ValueError(f"select_training_segments: {name} must be >= 1, got {value}")
    x = np.asarray(x, dtype=np.float64)
    if seg_len > x.size:
        raise ValueError(f"select_training_segments: segment {seg_len} exceeds audio {x.size}")
    regions = detect_silence(x, rate=rate, frame=frame, rel_db=rel_db, min_run_s=min_run_s)
    if not regions:
        warnings.warn("select_training_segments: no silent regions found", stacklevel=2)
        return []
    end = x.size - seg_len + 1  # one past the last offset that fits a whole segment
    return [off for lo, hi in regions for off in range(lo, min(hi, end), stride)]


# -- mel features ----------------------------------------------------------------------


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg):
    """Triangular filters on the HTK mel scale from 0 Hz to Nyquist.

    Returns (channels, window // 2 + 1) weights.
    """
    n_bins = cfg.window // 2 + 1
    freqs = np.arange(n_bins) * cfg.rate / cfg.window
    points = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(cfg.rate / 2.0), cfg.channels + 2))
    lower, centre, upper = points[:-2, None], points[1:-1, None], points[2:, None]
    up = (freqs - lower) / (centre - lower)
    down = (upper - freqs) / (upper - centre)
    return np.maximum(0.0, np.minimum(up, down))


def hann_window(n):
    """Periodic Hann window of length n: w[0] = 0, peak 1 at n // 2."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _frames(x, window, hop):
    """Read-only (frames, window) view of x's non-centred frames, one every
    hop samples; no frames when x is shorter than the window."""
    if x.size < window:
        return np.empty((0, window))
    return np.lib.stride_tricks.sliding_window_view(x, window)[::hop]


def frame_count(n_samples, cfg):
    """Non-centred framing: floor((len - window) / hop) + 1."""
    if n_samples < cfg.window:
        return 0
    return (n_samples - cfg.window) // cfg.hop + 1


def melspectrogram(x, cfg=None):
    """Log-compressed mel magnitudes, (frames, channels).

    Hann-windowed magnitude spectra of all non-centred frames, from one
    batched FFT, through the triangular bank; natural log with floor 1e-5.
    """
    cfg = cfg or MelConfig()
    x = np.asarray(x, dtype=np.float64)
    if frame_count(x.size, cfg) == 0:
        raise ValueError(f"melspectrogram: audio ({x.size} samples) shorter than window {cfg.window}")
    mag = np.abs(np.fft.rfft(_frames(x, cfg.window, cfg.hop) * hann_window(cfg.window), axis=1))
    return np.log(np.maximum(mag @ mel_filterbank(cfg).T, MEL_LOG_FLOOR))


def upsample_nearest(mel, hop):
    """Repeat each frame hop times; output length is frames * hop exactly."""
    if hop <= 0:
        raise ValueError("upsample_nearest: hop must be positive")
    return np.repeat(np.asarray(mel), hop, axis=0)


# -- pitch tracking ----------------------------------------------------------------------


def estimate_pitch(x, rate=DEFAULT_RATE, fmin=50.0, fmax=500.0, window=1024, hop=256,
                   voicing_threshold=0.5):
    """Frame-wise log-pitch via the normalised autocorrelation peak.

    A frame is voiced when acf[lag]/acf[0] peaks above voicing_threshold
    inside the lag range for [fmin, fmax]. The biased estimator's taper
    keeps the argmax on the fundamental rather than its multiples. Frames
    with (near) zero energy after mean removal are unvoiced. All frames
    share one batched FFT pair. Returns (log_pitch, voiced mask); log_pitch
    is 0 on unvoiced frames. An fmin or fmax of 0 or below is a ValueError.
    """
    x = np.asarray(x, dtype=np.float64)
    MelConfig(hop=hop, window=window, rate=rate)  # checks the framing
    for name, value in (("fmin", fmin), ("fmax", fmax)):
        if value <= 0:
            raise ValueError(f"estimate_pitch: {name} must be > 0, got {value}")
    lag_min = max(1, int(rate / fmax))
    lag_max = min(window - 1, int(np.ceil(rate / fmin)))
    if lag_max <= lag_min:
        raise ValueError("estimate_pitch: lag range is empty for this window")
    frames = _frames(x, window, hop)
    seg = frames - frames.mean(axis=1, keepdims=True)
    active = np.einsum("ij,ij->i", seg, seg) >= 1e-10
    spec = np.fft.rfft(seg[active], 2 * window, axis=1)
    acf = np.fft.irfft(spec * np.conj(spec), axis=1)[:, :window]
    lags = np.arange(lag_min, lag_max + 1)
    rho = acf[:, lags] / acf[:, :1]
    peak = rho.max(axis=1) > voicing_threshold
    voiced = active.copy()
    voiced[active] = peak
    log_pitch = np.zeros(len(frames))
    log_pitch[voiced] = np.log(rate / lags[np.argmax(rho[peak], axis=1)])
    return log_pitch, voiced


# -- WAV I/O -------------------------------------------------------------------------------


def save_wav(path, samples, rate=DEFAULT_RATE):
    """Write mono 16-bit little-endian PCM. Non-finite samples are a
    ValueError."""
    samples = np.asarray(samples, dtype=np.float64)
    if not np.all(np.isfinite(samples)):
        raise ValueError("save_wav: samples has non-finite values")
    pcm = np.rint(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(pcm.tobytes())


def load_wav(path, expect_rate=None):
    """Read mono 16-bit PCM into an AudioBuffer, scaled to [-1, 1]."""
    try:
        with wave.open(str(path), "rb") as fh:
            if fh.getnchannels() != 1:
                raise DataError(f"{path}: expected mono, got {fh.getnchannels()} channels")
            if fh.getsampwidth() != 2:
                raise DataError(f"{path}: expected 16-bit PCM, got {fh.getsampwidth() * 8}-bit")
            rate = fh.getframerate()
            raw = fh.readframes(fh.getnframes())
    except wave.Error as exc:
        raise DataError(f"{path}: malformed WAV ({exc})") from exc
    if expect_rate is not None and rate != expect_rate:
        raise DataError(f"{path}: sample rate {rate} does not match configured {expect_rate}")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32767.0
    return AudioBuffer(samples, rate)
