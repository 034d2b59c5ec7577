"""DSP chain tests with analytic and constructed-fixture oracles."""

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
