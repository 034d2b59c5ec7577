"""DSP chain tests with analytic and constructed-fixture oracles, and the
loops that the array stages replaced, kept as references."""

import warnings

import numpy as np
import pytest

from prosynth import dsp
from prosynth.errors import DataError


# -- mu-law -----------------------------------------------------------------------


def test_mulaw_anchor_codes():
    assert dsp.mulaw_encode(0.0) == 128
    assert dsp.mulaw_encode(1.0) == 255
    assert dsp.mulaw_encode(-1.0) == 0


def test_mulaw_decode_255():
    # direct evaluation of the expansion formula at the top bin centre
    y = (255 + 0.5) / 256 * 2 - 1
    expected = (256.0 ** y - 1) / 255.0
    assert dsp.mulaw_decode(255) == pytest.approx(expected, abs=1e-15)
    assert dsp.mulaw_decode(255) == pytest.approx(0.97849, abs=1e-5)


def test_mulaw_zero_roundtrip_within_bin():
    err = abs(float(dsp.mulaw_decode(dsp.mulaw_encode(0.0))))
    assert err < 2.0 / 255.0


def test_mulaw_roundtrip_scan_matches_analytic_bound():
    bound = dsp.mulaw_max_roundtrip_error()
    x = np.linspace(-1.0, 1.0, 1_000_000)
    err = np.abs(x - dsp.mulaw_decode(dsp.mulaw_encode(x)))
    assert float(err.max()) <= bound + 1e-12
    assert float(err.max()) >= bound - 1e-5  # the scan actually reaches the bound


def test_mulaw_monotone():
    x = np.linspace(-1.0, 1.0, 40001)
    codes = dsp.mulaw_encode(x)
    assert (np.diff(codes) >= 0).all()


def test_mulaw_rejects_nonfinite():
    with pytest.raises(ValueError):
        dsp.mulaw_encode(np.array([0.1, np.nan]))


def test_mulaw_clips_with_warning():
    with pytest.warns(UserWarning):
        assert dsp.mulaw_encode(1.5) == 255


def test_mulaw_decode_range_check():
    with pytest.raises(ValueError):
        dsp.mulaw_decode(256)


# -- emphasis ----------------------------------------------------------------------


def test_preemphasis_impulse():
    out = dsp.preemphasis(np.array([1.0, 0.0, 0.0]), 0.85)
    assert np.allclose(out, [1.0, -0.85, 0.0])


def test_preemphasis_zero_coeff_identity():
    x = np.array([0.3, -0.2, 0.9])
    assert np.allclose(dsp.preemphasis(x, 0.0), x)


def test_preemphasis_dc():
    out = dsp.preemphasis(np.ones(6), 0.85)
    assert np.allclose(out, [1.0, 0.15, 0.15, 0.15, 0.15, 0.15])


def test_deemphasis_impulse_response():
    out = dsp.deemphasis(np.eye(1, 8, 0).ravel(), 0.85)
    assert np.allclose(out, 0.85 ** np.arange(8))


def test_deemphasis_zero_coeff_identity():
    x = np.array([0.3, -0.2, 0.9])
    assert np.allclose(dsp.deemphasis(x, 0.0), x)


@pytest.mark.parametrize("coeff", [0.0, 0.5, 0.85, 0.97, 0.99])
def test_emphasis_inversion(coeff):
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=10_000)
    back = dsp.deemphasis(dsp.preemphasis(x, coeff), coeff)
    assert np.abs(back - x).max() < 1e-10


def test_emphasis_coeff_validation():
    with pytest.raises(ValueError):
        dsp.preemphasis(np.zeros(4), 1.0)
    with pytest.raises(ValueError):
        dsp.deemphasis(np.zeros(4), -0.1)


# -- AGC limiter -------------------------------------------------------------------


def test_agc_identity_on_in_range():
    rng = np.random.default_rng(1)
    x = rng.uniform(-0.9, 0.9, size=4096)
    y, gain = dsp.agc_limit(x)
    assert np.array_equal(y, x)
    assert np.array_equal(gain, np.ones_like(x))


def test_agc_single_spike():
    x = np.zeros(4096)
    x[2000] = 1.5
    y, gain = dsp.agc_limit(x)
    assert abs(y[2000]) <= dsp.PCM16_LIMIT
    assert gain[2000] <= 2.0 / 3.0 + 1e-9


def test_agc_random_overrange_property():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n = int(rng.integers(600, 5000))
        x = rng.uniform(-1, 1, size=n) * rng.uniform(1.0, 3.0)
        y, gain = dsp.agc_limit(x)
        assert np.abs(y).max() <= dsp.PCM16_LIMIT + 1e-12
        assert (gain > 0).all() and (gain <= 1.0).all()


def test_agc_gain_curve_smooth():
    rng = np.random.default_rng(3)
    x = rng.uniform(-2, 2, size=8000)
    _, gain = dsp.agc_limit(x, lookahead=1024, block=512)
    max_delta = np.abs(np.diff(gain)).max()
    assert max_delta <= np.pi / (2 * 512) + 1e-12


def test_agc_empty():
    y, gain = dsp.agc_limit(np.array([]))
    assert y.size == 0 and gain.size == 0


# -- silence and segment selection ----------------------------------------------------


def test_detect_silence_all_zero():
    x = np.zeros(22050)
    regions = dsp.detect_silence(x)
    assert regions == [(0, 22050)]


def test_detect_silence_loud_tone():
    t = np.arange(22050) / 22050
    x = 0.5 * np.sin(2 * np.pi * 220 * t)
    assert dsp.detect_silence(x) == []


def test_detect_silence_ends():
    rate = 22050
    gap = np.zeros(rate // 2)
    t = np.arange(rate) / rate
    tone = 0.4 * np.sin(2 * np.pi * 220 * t)
    x = np.concatenate([gap, tone, gap])
    regions = dsp.detect_silence(x, rate=rate, frame=256)
    assert len(regions) == 2
    (s0, e0), (s1, e1) = regions
    assert s0 == 0 and abs(e0 - rate // 2) <= 256
    assert abs(s1 - (rate // 2 + rate)) <= 256 and e1 == x.size


def test_segments_leading_silence_only():
    rate = 22050
    t = np.arange(rate) / rate
    x = np.concatenate([np.zeros(rate // 2), 0.4 * np.sin(2 * np.pi * 220 * t)])
    offsets = dsp.select_training_segments(x, seg_len=rate // 4, rate=rate)
    assert offsets
    assert all(off < rate // 2 + 256 for off in offsets)


def test_segments_all_silent():
    x = np.zeros(22050)
    offsets = dsp.select_training_segments(x, seg_len=2205)
    assert offsets
    assert all(0 <= off <= x.size - 2205 for off in offsets)


def test_segments_inside_detected_gaps():
    rate = 22050
    t = np.arange(rate // 2) / rate
    tone = 0.4 * np.sin(2 * np.pi * 220 * t)
    gap = np.zeros(int(0.3 * rate))
    x = np.concatenate([gap, tone, gap, tone, gap])
    regions = dsp.detect_silence(x, rate=rate)
    assert len(regions) == 3
    offsets = dsp.select_training_segments(x, seg_len=int(0.2 * rate), rate=rate)
    assert offsets
    for off in offsets:
        assert any(lo <= off < hi for lo, hi in regions)


def test_segments_no_silence_warns():
    t = np.arange(22050) / 22050
    x = 0.5 * np.sin(2 * np.pi * 220 * t)
    with pytest.warns(UserWarning):
        assert dsp.select_training_segments(x, seg_len=2205) == []


def test_segments_too_long_rejected():
    with pytest.raises(ValueError):
        dsp.select_training_segments(np.zeros(100), seg_len=200)


# -- mel features -----------------------------------------------------------------------


@pytest.mark.parametrize("n", [512, 1024])
def test_hann_window_is_periodic(n):
    w = dsp.hann_window(n)
    k = np.arange(1, n)
    assert w.shape == (n,) and w[0] == 0.0 and w[n // 2] == 1.0
    assert np.max(np.abs(w[k] - w[n - k])) < 1e-15  # symmetric about n / 2, up to cos rounding


def test_mel_silence_is_floor():
    out = dsp.melspectrogram(np.zeros(4096))
    assert np.allclose(out, np.log(1e-5))


def test_mel_frame_count_one_second():
    out = dsp.melspectrogram(np.zeros(22050))
    assert out.shape == (83, 80)  # floor((22050 - 1024) / 256) + 1


def test_mel_tone_argmax_channel():
    cfg = dsp.MelConfig()
    # layout oracle: channel whose triangle is tallest at 1 kHz, from the
    # mel-scale formulas directly
    mel = lambda f: 2595.0 * np.log10(1.0 + f / 700.0)
    imel = lambda m: 700.0 * (10.0 ** (m / 2595.0) - 1.0)
    pts = imel(np.linspace(mel(0.0), mel(cfg.rate / 2.0), cfg.channels + 2))
    weights = [
        max(0.0, min((1000.0 - pts[m]) / (pts[m + 1] - pts[m]),
                     (pts[m + 2] - 1000.0) / (pts[m + 2] - pts[m + 1])))
        for m in range(cfg.channels)
    ]
    expected_channel = int(np.argmax(weights))

    t = np.arange(22050) / cfg.rate
    out = dsp.melspectrogram(0.5 * np.sin(2 * np.pi * 1000.0 * t), cfg)
    argmaxes = out.argmax(axis=1)
    assert (argmaxes == expected_channel).all()


def test_mel_energy_monotone_in_scale():
    rng = np.random.default_rng(4)
    x = rng.uniform(-0.4, 0.4, size=4096)
    lo = dsp.melspectrogram(x)
    hi = dsp.melspectrogram(2.0 * x)
    mask = lo > np.log(1e-5) + 1e-12
    assert mask.any()
    assert (hi[mask] > lo[mask]).all()
    assert np.allclose(hi[mask] - lo[mask], np.log(2.0), atol=1e-9)


def test_mel_too_short_rejected():
    with pytest.raises(ValueError):
        dsp.melspectrogram(np.zeros(512))


def test_mel_config_validation():
    with pytest.raises(ValueError):
        dsp.MelConfig(hop=2048, window=1024)
    with pytest.raises(ValueError):
        dsp.MelConfig(channels=0)


# -- upsampling ----------------------------------------------------------------------------


def test_upsample_repeat():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = dsp.upsample_nearest(m, 3)
    assert np.array_equal(out, np.array([[1, 2], [1, 2], [1, 2], [3, 4], [3, 4], [3, 4]]))


def test_upsample_hop_one_identity():
    m = np.arange(12.0).reshape(4, 3)
    assert np.array_equal(dsp.upsample_nearest(m, 1), m)


def test_upsample_length_exact():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(7, 5))
    for hop in (1, 2, 256):
        assert dsp.upsample_nearest(m, hop).shape == (7 * hop, 5)


# -- pitch tracking -----------------------------------------------------------------------


def test_pitch_on_tone():
    rate = 22050
    t = np.arange(rate) / rate
    x = 0.5 * np.sin(2 * np.pi * 200.0 * t)
    log_pitch, voiced = dsp.estimate_pitch(x, rate)
    assert voiced.all()
    hz = np.exp(log_pitch[voiced])
    within = np.abs(hz - 200.0) / 200.0 < 0.03
    assert within.mean() >= 0.95


def test_pitch_on_noise():
    rng = np.random.default_rng(6)
    x = rng.normal(scale=0.3, size=22050)
    _, voiced = dsp.estimate_pitch(x)
    assert voiced.mean() <= 0.20


def test_pitch_on_silence():
    _, voiced = dsp.estimate_pitch(np.zeros(22050))
    assert not voiced.any()


# -- WAV I/O -------------------------------------------------------------------------------


def test_wav_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    grid = np.rint(rng.uniform(-1, 1, size=2048) * 32767.0) / 32767.0
    path = tmp_path / "x.wav"
    dsp.save_wav(path, grid, rate=22050)
    buf = dsp.load_wav(path)
    assert buf.rate == 22050
    assert np.array_equal(buf.samples, grid)


def test_wav_rate_validation(tmp_path):
    path = tmp_path / "x.wav"
    dsp.save_wav(path, np.zeros(128), rate=16000)
    with pytest.raises(DataError):
        dsp.load_wav(path, expect_rate=22050)


def test_wav_malformed(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"this is not a wav file")
    with pytest.raises(DataError):
        dsp.load_wav(path)


def test_audio_buffer_validation():
    with pytest.raises(ValueError):
        dsp.AudioBuffer(np.array([np.inf]))
    with pytest.raises(ValueError):
        dsp.AudioBuffer(np.zeros(4), rate=0)


# -- unusable arguments ---------------------------------------------------------------------


@pytest.mark.parametrize("call, name", [
    (lambda: dsp.MelConfig(hop=0), "hop"),
    (lambda: dsp.MelConfig(hop=-4, window=-2), "hop"),
    (lambda: dsp.MelConfig(window=0), "window"),
    (lambda: dsp.MelConfig(rate=0), "rate"),
    (lambda: dsp.MelConfig(rate=-22050), "rate"),
    (lambda: dsp.melspectrogram(np.zeros(4096), dsp.MelConfig(hop=0)), "hop"),
    (lambda: dsp.agc_limit(np.array([0.5, np.nan, 2.0])), "x"),
    (lambda: dsp.agc_limit(np.array([0.5, np.inf, 0.2])), "x"),
    (lambda: dsp.select_training_segments(np.zeros(22050), 2205, stride=0), "stride"),
    (lambda: dsp.select_training_segments(np.zeros(22050), 2205, stride=-256), "stride"),
    (lambda: dsp.select_training_segments(np.zeros(22050), 0), "seg_len"),
    (lambda: dsp.estimate_pitch(np.zeros(22050), fmin=0.0), "fmin"),
    (lambda: dsp.estimate_pitch(np.zeros(22050), fmax=0.0), "fmax"),
    (lambda: dsp.estimate_pitch(np.zeros(22050), fmax=-500.0), "fmax"),
    (lambda: dsp.estimate_pitch(np.zeros(22050), hop=0), "hop"),
], ids=["mel_hop_0", "mel_hop_negative", "mel_window_0", "mel_rate_0", "mel_rate_negative",
        "melspectrogram_hop_0", "agc_nan", "agc_inf", "segments_stride_0", "segments_stride_negative",
        "segments_seg_len_0", "pitch_fmin_0", "pitch_fmax_0", "pitch_fmax_negative", "pitch_hop_0"])
def test_unusable_argument_is_a_value_error_naming_it(call, name):
    with pytest.raises(ValueError, match=rf"\b{name} "):
        call()


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_save_wav_rejects_non_finite_samples(tmp_path, value):
    path = tmp_path / "x.wav"
    with pytest.raises(ValueError, match="samples"):
        dsp.save_wav(path, np.array([0.1, value, -0.2]))
    assert not path.exists()


# -- array stages against the loops they replaced -------------------------------------------
#
# Each reference below is the per-frame, per-block or per-channel loop that
# dsp ran before its stages became array ops. The arithmetic of every stage
# but melspectrogram is unchanged, so those must match bit for bit;
# melspectrogram's filter-bank product now sums in matrix order, so it
# matches to 1e-14 absolute (float64 rounding on log-mel values of order 10).


def _ref_expand(y):
    return np.sign(y) * (np.power(256, np.abs(y)) - 1.0) / 255.0


def _ref_mulaw_decode(code):
    return _ref_expand((np.asarray(code) + 0.5) / 256 * 2.0 - 1.0)


def _ref_mulaw_max_roundtrip_error():
    codes = np.arange(256)
    lo = _ref_expand(codes / 256 * 2.0 - 1.0)
    hi = _ref_expand(np.minimum((codes + 1.0) / 256 * 2.0 - 1.0, 1.0))
    centre = _ref_mulaw_decode(codes)
    return float(np.max(np.maximum(hi - centre, centre - lo)))


def _ref_agc_limit(x, lookahead, block):
    n = x.size
    gain = np.ones(n)
    if n == 0 or np.max(np.abs(x)) <= dsp.PCM16_LIMIT:
        return x.copy(), gain
    n_blocks = (n + block - 1) // block
    required = np.ones(n_blocks)
    for b in range(n_blocks):
        peak = np.max(np.abs(x[b * block:(b + 1) * block + lookahead]))
        if peak > dsp.PCM16_LIMIT:
            required[b] = dsp.PCM16_LIMIT / peak
    bounds = np.empty(n_blocks + 1)
    bounds[0] = required[0]
    bounds[-1] = required[-1]
    bounds[1:-1] = np.minimum(required[:-1], required[1:])
    for b in range(n_blocks):
        lo = b * block
        hi = min(lo + block, n)
        u = (np.arange(lo, hi) - lo) / block
        ramp = 0.5 * (1.0 - np.cos(np.pi * u))
        gain[lo:hi] = bounds[b] + (bounds[b + 1] - bounds[b]) * ramp
    return x * gain, gain


def _ref_frame_rms(x, frame):
    out = []
    for start in range(0, x.size, frame):
        seg = x[start:start + frame]
        out.append(float(np.sqrt(np.mean(seg * seg))))
    return np.asarray(out)


def _ref_detect_silence(x, rate=22050, frame=256, rel_db=40.0, min_run_s=0.05):
    if x.size == 0:
        return []
    rms = _ref_frame_rms(x, frame)
    threshold = max(float(np.quantile(rms, 0.95)) * 10.0 ** (-rel_db / 20.0), 1e-12)
    silent = rms < threshold
    min_run = int(min_run_s * rate)
    regions = []
    start = None
    for i, s in enumerate(np.append(silent, False)):
        if s and start is None:
            start = i
        elif not s and start is not None:
            lo, hi = start * frame, min(i * frame, x.size)
            if hi - lo >= min_run:
                regions.append((lo, hi))
            start = None
    return regions


def _ref_select_training_segments(x, seg_len, stride):
    last_valid = x.size - seg_len
    offsets = []
    for lo, hi in _ref_detect_silence(x):
        for off in range(lo, hi, stride):
            if off <= last_valid:
                offsets.append(off)
    return offsets


def _ref_mel_filterbank(cfg):
    n_bins = cfg.window // 2 + 1
    freqs = np.arange(n_bins) * cfg.rate / cfg.window
    points = dsp.mel_to_hz(np.linspace(dsp.hz_to_mel(0.0), dsp.hz_to_mel(cfg.rate / 2.0), cfg.channels + 2))
    fb = np.zeros((cfg.channels, n_bins))
    for m in range(cfg.channels):
        lower, centre, upper = points[m], points[m + 1], points[m + 2]
        up = (freqs - lower) / (centre - lower)
        down = (upper - freqs) / (upper - centre)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
    return fb


def _ref_melspectrogram(x, cfg):
    frames = dsp.frame_count(x.size, cfg)
    win = dsp.hann_window(cfg.window)
    fb = _ref_mel_filterbank(cfg)
    out = np.empty((frames, cfg.channels))
    for t in range(frames):
        seg = x[t * cfg.hop:t * cfg.hop + cfg.window]
        out[t] = fb @ np.abs(np.fft.rfft(seg * win))
    return np.log(np.maximum(out, 1e-5))


def _ref_estimate_pitch(x, rate=22050, fmin=50.0, fmax=500.0, window=1024, hop=256, voicing_threshold=0.5):
    frames = dsp.frame_count(x.size, dsp.MelConfig(hop=hop, window=window, rate=rate))
    log_pitch = np.zeros(frames)
    voiced = np.zeros(frames, dtype=bool)
    lag_min = max(1, int(rate / fmax))
    lag_max = min(window - 1, int(np.ceil(rate / fmin)))
    for t in range(frames):
        seg = x[t * hop:t * hop + window]
        seg = seg - seg.mean()
        if float(seg @ seg) < 1e-10:
            continue
        spec = np.fft.rfft(seg, 2 * window)
        acf = np.fft.irfft(spec * np.conj(spec))[:window].real
        lags = np.arange(lag_min, lag_max + 1)
        rho = acf[lags] / acf[0]
        k = int(np.argmax(rho))
        if rho[k] > voicing_threshold:
            voiced[t] = True
            log_pitch[t] = np.log(rate / lags[k])
    return log_pitch, voiced


def _signals():
    rate = 22050
    t = np.arange(rate) / rate
    rng = np.random.default_rng(12)
    tone = 0.5 * np.sin(2 * np.pi * 200.0 * t)
    spike = np.zeros(4096)  # a whole number of 512-sample blocks
    spike[2000] = 1.5
    return {
        "tone": tone,
        "noise": rng.normal(scale=0.3, size=rate),
        "zeros": np.zeros(rate),
        # silence at both ends, and a 600-sample gap: whole silent frames,
        # but shorter than min_run_s
        "gapped": np.concatenate([np.zeros(rate // 2), tone[:rate // 2], np.zeros(600),
                                  tone[:rate // 3], np.zeros(rate // 4 + 77)]),
        "over_range": 2.5 * rng.uniform(-1.0, 1.0, size=rate) * np.sin(np.pi * t) ** 2,
        "spike": spike,
        "short": 0.3 * np.sin(2 * np.pi * 300.0 * t[:700]),
        "empty": np.zeros(0),
    }


SIGNALS = _signals()


def test_mulaw_expansion_matches_reference():
    codes = np.arange(256)
    assert np.array_equal(dsp.mulaw_decode(codes), _ref_mulaw_decode(codes))
    assert dsp.mulaw_max_roundtrip_error() == _ref_mulaw_max_roundtrip_error()


@pytest.mark.parametrize("cfg", [dsp.MelConfig(), dsp.MelConfig(hop=160, window=400, channels=40, rate=16000),
                                 dsp.MelConfig(channels=1)], ids=["default", "16k", "one_channel"])
def test_mel_filterbank_matches_loop(cfg):
    assert np.array_equal(dsp.mel_filterbank(cfg), _ref_mel_filterbank(cfg))


@pytest.mark.parametrize("name", list(SIGNALS))
@pytest.mark.parametrize("frame", [1, 256, 777])
def test_frame_rms_matches_loop(name, frame):
    # 22050 and 4096 are no multiple of 777: a partial last frame
    x = SIGNALS[name]
    assert np.array_equal(dsp.frame_rms(x, frame), _ref_frame_rms(x, frame))


@pytest.mark.parametrize("name", list(SIGNALS))
def test_detect_silence_matches_loop(name):
    x = SIGNALS[name]
    regions = dsp.detect_silence(x)
    assert regions == _ref_detect_silence(x)
    assert all(type(v) is int for pair in regions for v in pair)


@pytest.mark.parametrize("name", [n for n in SIGNALS if SIGNALS[n].size >= 2205])
@pytest.mark.parametrize("seg_len, stride", [(2205, 256), (4000, 100), (1, 1)])
def test_select_training_segments_matches_loop(name, seg_len, stride):
    x = SIGNALS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no silence: test_segments_no_silence_warns
        offsets = dsp.select_training_segments(x, seg_len, stride=stride)
    assert offsets == _ref_select_training_segments(x, seg_len, stride)


@pytest.mark.parametrize("name", list(SIGNALS))
@pytest.mark.parametrize("lookahead, block", [(1024, 512), (0, 512), (100, 1), (300, 700)])
def test_agc_limit_matches_loop(name, lookahead, block):
    x = SIGNALS[name]
    y, gain = dsp.agc_limit(x, lookahead=lookahead, block=block)
    ref_y, ref_gain = _ref_agc_limit(x, lookahead, block)
    assert np.array_equal(y, ref_y) and np.array_equal(gain, ref_gain)


@pytest.mark.parametrize("name", [n for n in SIGNALS if SIGNALS[n].size >= 1024])
def test_melspectrogram_matches_loop(name):
    x = SIGNALS[name]
    out = dsp.melspectrogram(x)
    ref = _ref_melspectrogram(x, dsp.MelConfig())
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-14


@pytest.mark.parametrize("name", list(SIGNALS))
def test_estimate_pitch_matches_loop(name):
    x = SIGNALS[name]
    log_pitch, voiced = dsp.estimate_pitch(x)
    ref_pitch, ref_voiced = _ref_estimate_pitch(x)
    assert np.array_equal(log_pitch, ref_pitch) and np.array_equal(voiced, ref_voiced)
