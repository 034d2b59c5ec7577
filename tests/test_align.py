"""Alignment post-processing tests; expected values from direct evaluation
of the scoring/selection formulas (independent of the module code)."""

import math

import numpy as np
import pytest

from prosynth import align
from prosynth import autodiff as ad

from oracle_decoder import fused_augmented_step


def onehot(n, k):
    v = np.zeros(n)
    v[k] = 1.0
    return v


def flat(n):
    return np.full(n, 1.0 / n)


def random_simplex(rng, n):
    return rng.dirichlet(np.ones(n))


def unimodal_at(rng, n, k):
    tau = rng.uniform(0.2, 4.0)
    p = np.exp(-np.abs(np.arange(n) - k) / tau)
    return p / p.sum()


def augmented(b_t, b_prev, alpha, beta):
    """The augmented step's value alone."""
    return align.augmented_step(b_t, b_prev, alpha, beta)[0]


# -- oracle values computed directly from the formulas ---------------------------


def oracle_f1(c):
    return 0.1 * math.log(np.exp(10.0 * np.asarray(c)).sum())


def oracle_f2(c):
    c = np.asarray(c)
    n = c.size
    if n == 1:
        return 1.0
    return min(1.67 * (n * float(c @ c) - 1.0) / (n - 1), 1.0)


def oracle_metric(c):
    raw = oracle_f1(c) * oracle_f2(c)
    return 0.0 if raw <= 0.12 else min(raw, 1.0)


# -- shift ------------------------------------------------------------------------


def test_shift_pure():
    assert np.allclose(align.shift_sticky(onehot(5, 2)), onehot(5, 3))


def test_shift_sticky_boundary():
    assert np.allclose(align.shift_sticky(onehot(5, 4)), onehot(5, 4))


def test_shift_explicit_three():
    out = align.shift_sticky(np.array([0.5, 0.3, 0.2]))
    assert np.allclose(out, [0.0, 0.5, 0.5])
    assert abs(out.sum() - 1.0) < 1e-12


def test_shift_rejects_empty():
    with pytest.raises(ValueError):
        align.shift_sticky(np.array([]))


def test_shift_sticky_keeps_unit_mass():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 30))
        assert abs(np.sum(align.shift_sticky(random_simplex(rng, n))) - 1.0) < 1e-6


# -- scoring ----------------------------------------------------------------------


def test_f1_flat_ten():
    assert align.f1(flat(10)) == pytest.approx(0.1 * (math.log(10) + 1), abs=1e-12)
    assert align.f1(flat(10)) == pytest.approx(0.330259, abs=1e-6)


def test_f1_onehot_ten():
    expected = 0.1 * math.log(math.e ** 10 + 9)  # 1.0000408...
    assert align.f1(onehot(10, 3)) == pytest.approx(expected, abs=1e-12)


def test_f1_twopeak_ten():
    v = np.zeros(10)
    v[0] = v[1] = 0.5
    assert align.f1(v) == pytest.approx(0.1 * math.log(2 * math.e ** 5 + 8), abs=1e-12)
    assert align.f1(v) == pytest.approx(0.571974, abs=1e-6)


@pytest.mark.parametrize("n", [2, 5, 10, 64])
def test_f2_flat_is_zero(n):
    assert align.f2(flat(n)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 5, 10, 64])
def test_f2_onehot_is_one(n):
    assert align.f2(onehot(n, n // 2)) == 1.0


def test_f2_twopeak_ten():
    v = np.zeros(10)
    v[0] = v[1] = 0.5
    assert align.f2(v) == pytest.approx(1.67 * 4.0 / 9.0, abs=1e-12)
    assert align.f2(v) == pytest.approx(0.742222, abs=1e-6)


def test_f2_single_symbol():
    assert align.f2(np.array([1.0])) == 1.0


def test_metric_flat_zero():
    assert align.structure_metric(flat(10))[0] == 0.0


def test_metric_onehot_one():
    assert align.structure_metric(onehot(10, 0))[0] == 1.0


def test_metric_twopeak_value():
    v = np.zeros(10)
    v[0] = v[1] = 0.5
    expected = oracle_f1(v) * oracle_f2(v)
    assert align.structure_metric(v)[0] == pytest.approx(expected, abs=1e-12)
    assert align.structure_metric(v)[0] == pytest.approx(0.424534, abs=1e-5)


def test_metric_bounds_random():
    rng = np.random.default_rng(1)
    for _ in range(500):
        n = int(rng.integers(2, 80))
        s = align.structure_metric(random_simplex(rng, n))[0]
        assert 0.0 <= s <= 1.0


def test_metric_threshold_exact_zero():
    rng = np.random.default_rng(2)
    checked = 0
    for _ in range(3000):
        n = int(rng.integers(2, 40))
        v = random_simplex(rng, n)
        raw = align.f1(v) * align.f2(v)
        if raw <= 0.12:
            assert align.structure_metric(v)[0] == 0.0
            checked += 1
    assert checked > 100  # the sweep actually exercised the threshold


def test_metric_monotone_under_sharpening():
    for n in (4, 16, 64):
        prev = -1.0
        for p in np.linspace(0.0, 1.0, 101):
            v = p * onehot(n, n // 2) + (1 - p) * flat(n)
            s = align.structure_metric(v)[0]
            assert s >= prev - 1e-12
            prev = s


def test_metric_gradient_flow_above_threshold():
    # differentiable where the raw score clears the threshold; the metric's
    # gradient reaches b_t through gamma = metric(b_t) * (1 - metric(d)) in
    # the augmented step, with d scoring 0 so that gamma = metric(b_t)
    base = 0.55 * onehot(8, 3) + 0.45 * flat(8)
    x = ad.parameter(base, name="x")
    raw = align.f1(base) * align.f2(base)
    assert raw > 0.12 + 0.05
    b_prev = flat(8)
    assert align.structure_metric(align.stage1_select(b_prev, 0.5)[0])[0] == 0.0
    w = ad.Tensor(np.linspace(-1.0, 1.0, 8))
    half = ad.Tensor(0.5)

    def build():
        return ad.matmul(fused_augmented_step(x, ad.Tensor(b_prev), half, half), w)

    err = ad.finite_diff_check(build, x, step=1e-6)
    assert err < 1e-4


# -- selection stages --------------------------------------------------------------


def test_stage1_alpha_zero_identity():
    b = np.array([0.2, 0.5, 0.3])
    assert np.allclose(align.stage1_select(b, 0.0)[0], b)


def test_stage1_alpha_one_pure_shift():
    assert np.allclose(align.stage1_select(onehot(6, 3), 1.0)[0], onehot(6, 4))


def test_stage1_alpha_half():
    out = align.stage1_select(onehot(6, 3), 0.5)[0]
    assert np.allclose(out, [0, 0, 0, 0.5, 0.5, 0])


def test_stage1_rejects_out_of_range():
    with pytest.raises(ValueError):
        align.stage1_select(flat(4), 1.5)
    with pytest.raises(ValueError):
        align.stage1_select(flat(4), -0.1)


def test_stage2_prefers_structured_d():
    d = onehot(10, 4)  # f = 1
    b_t = flat(10)  # f = 0 -> gamma = 0
    out = align.stage2_select(d, b_t, 0.7)[0]
    assert np.allclose(out, d)


def test_stage2_prefers_structured_bt():
    d = flat(10)  # f = 0
    b_t = onehot(10, 2)  # f = 1 -> gamma = 1
    out = align.stage2_select(d, b_t, 0.3)[0]
    assert np.allclose(out, b_t)


def test_stage2_equal_inputs_any_beta():
    rng = np.random.default_rng(4)
    v = random_simplex(rng, 12)
    for beta in (0.1, 0.5, 0.9):
        assert np.allclose(align.stage2_select(v, v, beta)[0], v)


def test_stage2_length_mismatch():
    with pytest.raises(ValueError):
        align.stage2_select(flat(4), flat(5), 0.5)


def test_augmented_support_algebra():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(3, 20))
        k = int(rng.integers(0, n - 1))
        out = augmented(onehot(n, k), onehot(n, k), rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99))
        support = np.nonzero(out > 1e-15)[0]
        assert set(support) <= {k, k + 1}


def test_augmented_distribution_closure():
    rng = np.random.default_rng(6)
    for _ in range(2000):
        n = int(rng.integers(2, 40))
        out = augmented(
            random_simplex(rng, n),
            random_simplex(rng, n),
            rng.uniform(1e-6, 1 - 1e-6),
            rng.uniform(1e-6, 1 - 1e-6),
        )
        assert (out >= -1e-12).all()
        assert abs(out.sum() - 1.0) < 1e-6


def test_stage2_structure_preservation_sweep():
    # candidates describing the same attention target: co-peaked unimodal pairs
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        k = int(rng.integers(0, n))
        d = unimodal_at(rng, n, k)
        b_t = unimodal_at(rng, n, k)
        out = align.stage2_select(d, b_t, rng.uniform(1e-6, 1 - 1e-6))[0]
        floor = min(align.structure_metric(d)[0], align.structure_metric(b_t)[0])
        assert align.structure_metric(out)[0] >= floor - 1e-9


def test_monotone_support_drift():
    # iterating with alpha near 1 advances the argmax by at most one per step
    for alpha in (0.99, 0.999):
        a = onehot(9, 0)
        prev_peak = 0
        for _ in range(15):
            a = augmented(a, a, alpha, 0.5)
            peak = int(np.argmax(a))
            assert peak - prev_peak in (0, 1)
            prev_peak = peak
        assert prev_peak == 8  # reached and stayed at the last symbol


# -- as a graph node -----------------------------------------------------------------


def test_augmented_gradient_flows_to_weights():
    # both candidates score inside (0.12, 1) so gamma is interior and both
    # selection weights carry real gradient
    n = 8
    b_t = ad.Tensor(0.7 * onehot(n, 3) + 0.3 * flat(n))
    b_prev = ad.Tensor(0.8 * onehot(n, 3) + 0.2 * flat(n))
    alpha = ad.parameter(0.4, name="alpha")
    beta = ad.parameter(0.6, name="beta")

    def build():
        out = fused_augmented_step(b_t, b_prev, alpha, beta)
        return ad.sum_(ad.mul(out, out))

    # one node, wired straight to the weights
    out = fused_augmented_step(b_t, b_prev, alpha, beta)
    assert out._parents == (alpha, beta)
    for p in (alpha, beta):
        err = ad.finite_diff_check(build, p, step=1e-6)
        assert err < 1e-4


# -- entropy diagnostics -------------------------------------------------------------


def test_entropy_onehot():
    assert align.entropy(onehot(12, 3)) == 0.0


def test_entropy_flat_ten():
    assert align.entropy(flat(10)) == pytest.approx(math.log(10), abs=1e-12)


def test_entropy_two_point():
    assert align.entropy(np.array([0.5, 0.5])) == pytest.approx(math.log(2), abs=1e-12)


def test_mean_entropy_onehot_columns():
    m = np.stack([onehot(10, i % 10) for i in range(6)], axis=1)
    assert align.mean_entropy([m]) == 0.0


def test_mean_entropy_flat_columns():
    m = np.stack([flat(10)] * 4, axis=1)
    assert align.mean_entropy([m]) == pytest.approx(math.log(10), abs=1e-12)


def test_mean_entropy_mixed():
    m1 = np.stack([onehot(10, 2)] * 3, axis=1)
    m2 = np.stack([flat(10)] * 3, axis=1)
    assert align.mean_entropy([m1, m2]) == pytest.approx(math.log(10) / 2, abs=1e-12)
    assert align.mean_entropy([m1, m2]) == pytest.approx(1.151293, abs=1e-6)


def test_mean_entropy_rejects_empty():
    with pytest.raises(ValueError):
        align.mean_entropy([])


# -- exports --------------------------------------------------------------------------


def test_alignment_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    m = np.stack([random_simplex(rng, 6) for _ in range(4)], axis=1)  # N=6, T=4
    path = tmp_path / "align.csv"
    align.save_alignment_csv(m, path)
    rows = [line.split(",") for line in path.read_text().strip().split("\n")]
    assert len(rows) == 4 and len(rows[0]) == 6  # T rows x N columns
    parsed = np.array([[float(x) for x in row] for row in rows]).T
    assert np.array_equal(parsed, m)  # full precision via repr


def test_alignment_pgm_dimensions(tmp_path):
    rng = np.random.default_rng(11)
    n, t = 5, 9
    m = np.stack([random_simplex(rng, n) for _ in range(t)], axis=1)
    path = tmp_path / "align.pgm"
    align.save_alignment_pgm(m, path)
    blob = path.read_bytes()
    header, rest = blob.split(b"\n", 1)
    assert header == b"P5"
    dims, rest = rest.split(b"\n", 1)
    w, h = (int(x) for x in dims.split())
    assert (h, w) == (n, t)
    maxval, pix = rest.split(b"\n", 1)
    assert maxval == b"255"
    img = np.frombuffer(pix, dtype=np.uint8).reshape(n, t)
    assert np.array_equal(img, np.rint(m * 255).astype(np.uint8))
