"""Engine tests: every primitive op against central finite differences,
and the same for the test-side ops in oracle_ops.py that the fused-node
oracle is built from."""

import threading

import numpy as np
import pytest

from prosynth import autodiff as ad
from prosynth.errors import ShapeError

import oracle_ops as ops

RTOL = 1e-4  # gradient-check budget for randomized fixtures
STEP = 1e-5


def rand(rng, *shape):
    return rng.uniform(-2.0, 2.0, size=shape)


def check_grads(build, params, tol=RTOL, step=STEP):
    for p in params:
        err = ad.finite_diff_check(build, p, step=step)
        assert err < tol, f"param {p.name}: rel err {err:.3e} >= {tol}"


# -- trivial forward contracts ---------------------------------------------------


def test_identity_graph():
    x = ad.Tensor([1.0, 2.0])
    assert np.array_equal(x.data, [1.0, 2.0])


def test_matmul_identity():
    v = ad.Tensor([3.0, -1.0])
    eye = ad.Tensor(np.eye(2))
    out = ad.matmul(eye, v)
    assert np.allclose(out.data, v.data)


def test_softmax_symmetry():
    out = ops.softmax(ad.Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3])
    assert abs(out.data.sum() - 1.0) < 1e-9
    assert (out.data >= 0).all()


def test_softmax_distribution_property():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        out = ops.softmax(ad.Tensor(rand(rng, n) * 10))
        assert abs(out.data.sum() - 1.0) < 1e-9
        assert (out.data >= 0).all()


def test_square_derivative_at_3():
    x = ad.parameter(3.0)
    y = ad.mul(x, x)
    y.backward()
    assert np.allclose(x.grad, 6.0)


def test_tanh_derivative_at_0():
    x = ad.parameter(np.zeros(5))
    ad.sum_(ad.tanh(x)).backward()
    assert np.allclose(x.grad, np.ones(5))


def test_backward_rejects_nonscalar():
    x = ad.parameter([1.0, 2.0])
    with pytest.raises(ShapeError):
        ad.tanh(x).backward()


def test_gradient_zero_for_unused_parameter():
    x = ad.parameter([1.0, 2.0], name="x")
    unused = ad.parameter([5.0], name="unused")
    ad.sum_(ad.mul(x, x)).backward()
    assert unused.grad is None  # untouched leaves stay at zero


def test_determinism_same_seed():
    def run():
        rng = np.random.default_rng(42)
        w = ad.parameter(rand(rng, 4, 3))
        x = ad.Tensor(rand(rng, 4))
        loss = ad.sum_(ad.tanh(ad.matmul(x, w)))
        loss.backward()
        return loss.data.copy(), w.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2) and np.array_equal(g1, g2)


# -- finite-difference oracle suite ----------------------------------------------


def test_matmul_sigmoid_chain_matches_fd():
    rng = np.random.default_rng(0)
    w = ad.parameter(rand(rng, 5, 4), name="w")
    b = ad.parameter(rand(rng, 4), name="b")
    x = ad.Tensor(rand(rng, 3, 5))

    def build():
        return ad.sum_(ops.sigmoid(ad.add(ad.matmul(x, w), b)))

    check_grads(build, [w, b])


def test_linear_layer_tight_fd():
    rng = np.random.default_rng(1)
    w = ad.parameter(rand(rng, 3, 2), name="w")
    x = ad.Tensor(rand(rng, 3))

    def build():
        return ad.sum_(ad.matmul(x, w))

    err = ad.finite_diff_check(build, w, step=STEP)
    assert err < 1e-6


def test_constant_graph_zero_error():
    p = ad.parameter([1.0, 2.0], name="p")

    def build():
        return ad.sum_(ad.Tensor([4.0]))

    assert ad.finite_diff_check(build, p, step=STEP) == 0.0


def test_logsumexp_fd_generic():
    rng = np.random.default_rng(2)
    x = ad.parameter(rand(rng, 8), name="x")

    def build():
        return ops.logsumexp(x)

    check_grads(build, [x])


def test_logsumexp_fd_scaled_distribution():
    # the soft-max scoring path: probability vector times 10
    rng = np.random.default_rng(2)
    p = rng.dirichlet(np.ones(8))
    x = ad.parameter(p, name="x")

    def build():
        return ops.logsumexp(ad.mul(x, 10.0))

    err = ad.finite_diff_check(build, x, step=STEP)
    assert err < 1e-5


def test_logsumexp_overflow_safe():
    out = ops.logsumexp(ad.Tensor([1000.0, 999.0, 0.0]))
    assert np.isfinite(out.data)
    assert abs(float(out.data) - (1000.0 + np.log(1 + np.e ** -1 + np.exp(-1000.0)))) < 1e-9


@pytest.mark.parametrize(
    "op",
    [ad.tanh, ops.sigmoid, ad.softplus],
)
def test_elementwise_ops_fd(op):
    rng = np.random.default_rng(3)
    x = ad.parameter(rand(rng, 6), name="x")

    def build():
        return ad.sum_(op(x))

    check_grads(build, [x])


def test_relu_fd_away_from_kink():
    rng = np.random.default_rng(4)
    vals = rand(rng, 10)
    vals[np.abs(vals) < 0.05] += 0.1
    x = ad.parameter(vals, name="x")

    def build():
        return ad.sum_(ad.relu(x))

    check_grads(build, [x])


def test_div_fd():
    rng = np.random.default_rng(5)
    x = ad.parameter(rng.uniform(0.5, 2.0, size=6), name="x")
    y = ad.parameter(rng.uniform(0.5, 2.0, size=6), name="y")
    s = ad.parameter(rng.uniform(0.5, 2.0), name="s")  # scalar divisor, as in the oracle's renormalisation
    w = ad.Tensor(rand(rng, 6))

    def build():
        return ad.add(ad.matmul(ops.div(x, y), w), ad.matmul(ops.div(x, s), w))

    check_grads(build, [x, y, s])


def test_softmax_fd():
    rng = np.random.default_rng(6)
    x = ad.parameter(rand(rng, 7), name="x")
    w = ad.Tensor(rand(rng, 7))

    def build():
        return ad.matmul(ops.softmax(x), w)

    check_grads(build, [x])


def test_concat_slice_reshape_fd():
    rng = np.random.default_rng(8)
    a = ad.parameter(rand(rng, 3), name="a")
    b = ad.parameter(rand(rng, 4), name="b")

    def build():
        joined = ad.concat([a, b])
        mid = joined[1:6]
        rect = ad.reshape(mid, (5, 1))
        return ad.sum_(ad.tanh(rect))

    check_grads(build, [a, b])


def test_concat_axis1_fd():
    rng = np.random.default_rng(9)
    a = ad.parameter(rand(rng, 3, 2), name="a")
    b = ad.parameter(rand(rng, 3, 1), name="b")

    def build():
        joined = ad.concat([a, b], axis=1)
        return ad.sum_(ad.mul(joined, joined))

    check_grads(build, [a, b])


def test_index_rows_fd():
    rng = np.random.default_rng(10)
    table = ad.parameter(rand(rng, 5, 3), name="table")
    ids = np.array([0, 2, 2, 4])

    def build():
        return ad.sum_(ad.tanh(ad.index_rows(table, ids)))

    check_grads(build, [table])


def test_conv1d_fd():
    rng = np.random.default_rng(11)
    x = ad.parameter(rand(rng, 9, 2), name="x")
    w = ad.parameter(rand(rng, 5, 2, 3) * 0.4, name="w")
    b = ad.parameter(rand(rng, 3), name="b")

    def build():
        return ad.sum_(ad.tanh(ad.conv1d(x, w, b)))

    check_grads(build, [x, w, b])


def test_conv_grads_match_per_tap_loop():
    # the windowed matmuls against one small matmul per kernel tap; the sums
    # run in another order, so equal to rounding
    rng = np.random.default_rng(11)
    for t, k, cin, cout in ((9, 7, 2, 8), (6, 5, 4, 3), (1, 3, 2, 2), (2, 7, 2, 4)):
        x, w, g = rand(rng, t, cin), rand(rng, k, cin, cout), rand(rng, t, cout)
        _, xp = ad._conv_same(x, w)
        gxp, gw_ref = np.zeros_like(xp), np.empty_like(w)
        for j in range(k):
            gxp[j:j + t] += g @ w[j].T
            gw_ref[j] = xp[j:j + t].T @ g
        gx, gw = ad._conv_same_grads(g, xp, w)
        assert np.allclose(gx, gxp[k // 2:k // 2 + t], rtol=0, atol=1e-13)
        assert np.allclose(gw, gw_ref, rtol=0, atol=1e-13)


def test_lstm_step_fd():
    # three steps share wx and wh, so each weight sums three factor pairs;
    # the last step reads both outputs, so every input of every step,
    # the cell state included, has a gradient path
    rng = np.random.default_rng(12)
    hid = 4
    wx = ad.parameter(rand(rng, 3, 4 * hid) * 0.4, name="wx")
    wh = ad.parameter(rand(rng, hid, 4 * hid) * 0.4, name="wh")
    b = ad.parameter(rand(rng, 4 * hid) * 0.1, name="b")
    h0 = ad.parameter(rand(rng, hid) * 0.5, name="h0")
    c0 = ad.parameter(rand(rng, hid) * 0.5, name="c0")
    xs = [ad.parameter(x, name=f"x{t}") for t, x in enumerate(rand(rng, 3, 3))]
    w = ad.Tensor(rand(rng, 2 * hid))

    def build():
        h, c = h0, c0
        for x in xs:
            h, c = ad.lstm_step(x, h, c, wx, wh, b)
        return ad.matmul(ad.concat([h, c]), w)

    check_grads(build, [wx, wh, b, h0, c0, *xs])


def test_lstm_step_gates_match_separate_logistics():
    # one tanh over all four gates gives bit for bit what a logistic per
    # gate, 0.5 * (1 + tanh(z / 2)), and a tanh on g give
    rng = np.random.default_rng(13)
    hid = 5
    x, h, c = rand(rng, 3) * 3.0, rand(rng, hid) * 3.0, rand(rng, hid)
    wx, wh, b = rand(rng, 3, 4 * hid), rand(rng, hid, 4 * hid), rand(rng, 4 * hid)
    z = x @ wx + h @ wh + b
    i, f, o = (0.5 * (1.0 + np.tanh(0.5 * z[k * hid:(k + 1) * hid])) for k in (0, 1, 3))
    c_ref = f * c + i * np.tanh(z[2 * hid:3 * hid])
    h_new, c_new = ad.lstm_step(x, h, c, *(ad.Tensor(w) for w in (wx, wh, b)))
    assert np.array_equal(c_new.data, c_ref)
    assert np.array_equal(h_new.data, o * np.tanh(c_ref))


def test_lstm_step_parts_fd():
    # an input built by concatenating parts of sizes 3, 1, 2: the gradient
    # of each part is its own slice of the input's gradient
    rng = np.random.default_rng(14)
    sizes, hid = (3, 1, 2), 4
    parts = [ad.parameter(rand(rng, n), name=f"x{k}") for k, n in enumerate(sizes)]
    h = ad.parameter(rand(rng, hid) * 0.5, name="h")
    c = ad.parameter(rand(rng, hid) * 0.5, name="c")
    wx = ad.parameter(rand(rng, sum(sizes), 4 * hid) * 0.4, name="wx")
    wh = ad.parameter(rand(rng, hid, 4 * hid) * 0.4, name="wh")
    b = ad.parameter(rand(rng, 4 * hid) * 0.1, name="b")
    w = ad.Tensor(rand(rng, 2 * hid))

    def build():
        h_new, c_new = ad.lstm_step(ad.concat(parts), h, c, wx, wh, b)
        return ad.matmul(ad.concat([h_new, c_new]), w)

    check_grads(build, [*parts, h, c, wx, wh, b])


def test_stack_fd():
    rng = np.random.default_rng(16)
    rows = [ad.parameter(rand(rng, 3), name=f"row{k}") for k in range(4)]
    w = ad.Tensor(rand(rng, 4, 3))

    def build():
        out = ad.stack(rows)
        return ad.sum_(ad.mul(ad.mul(out, out), w))

    check_grads(build, rows)


def test_stack_rejects_non_vectors():
    with pytest.raises(ShapeError, match="stack"):
        ad.stack([ad.Tensor(np.ones((2, 2))), ad.Tensor(np.ones((2, 2)))])


def test_mean_clamp_threshold_fd():
    rng = np.random.default_rng(13)
    vals = rand(rng, 8)
    vals[np.abs(vals - 0.5) < 0.05] += 0.2  # stay away from both kinks
    vals[np.abs(vals - 1.0) < 0.05] += 0.2
    x = ad.parameter(vals, name="x")

    def build():
        return ad.mean_(ops.threshold_keep(ops.clamp_max(x, 1.0), 0.5))

    check_grads(build, [x])


def test_detach_blocks_gradient():
    x = ad.parameter([1.0, 2.0], name="x")
    y = ad.sum_(ad.mul(x.detach(), x))
    y.backward()
    assert np.allclose(x.grad, [1.0, 2.0])  # only the live path contributes


# -- no_grad ---------------------------------------------------------------------------


def _lstm_inputs(rng):
    x = ad.Tensor(rand(rng, 3))
    h, c = ad.Tensor(rand(rng, 2)), ad.Tensor(rand(rng, 2))
    wx, wh, b = (ad.parameter(rand(rng, *shape), name=n) for n, shape in
                 (("wx", (3, 8)), ("wh", (2, 8)), ("b", (8,))))
    return x, h, c, wx, wh, b


def _next_id():
    return ad.Tensor(0.0)._id


def test_no_grad_results_are_constants():
    rng = np.random.default_rng(21)
    inputs = _lstm_inputs(rng)
    wx = inputs[3]
    start = _next_id()
    h_ref, c_ref = ad.lstm_step(*inputs)
    ids_with_grad = _next_id() - start
    wx.grad = np.full_like(wx.data, 7.0)
    with ad.no_grad():
        start = _next_id()
        h, c = ad.lstm_step(*inputs)
        ids_without = _next_id() - start
        loss = ad.sum_(ad.mul(ad.tanh(h), c))
        loss.backward()
    assert ids_without == ids_with_grad  # nodes keep their numbering
    assert np.array_equal(h.data, h_ref.data) and np.array_equal(c.data, c_ref.data)
    for t in (h, c, loss):
        assert t._parents == () and t._backward is None and not t.requires_grad
    assert np.array_equal(wx.grad, np.full_like(wx.data, 7.0))  # untouched


def test_no_grad_nests_and_restores_on_exception():
    w = ad.parameter([1.0, 2.0], name="w")

    def builds_graph():
        return ad.mul(w, 2.0)._parents == (w,)

    with ad.no_grad():
        with ad.no_grad():
            assert not builds_graph()
        assert not builds_graph()  # leaving the inner block keeps the outer one's mode
        with pytest.raises(KeyError):
            with ad.no_grad():
                raise KeyError("inner")
        assert not builds_graph()
    assert builds_graph()
    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("boom")
    assert builds_graph()


def test_no_grad_is_per_thread():
    entered, release = threading.Event(), threading.Event()
    seen = {}

    def held_in_no_grad():
        with ad.no_grad():
            entered.set()
            release.wait(timeout=10)
            seen["parents"] = ad.mul(ad.parameter([1.0]), 2.0)._parents

    worker = threading.Thread(target=held_in_no_grad)
    worker.start()
    try:
        assert entered.wait(timeout=10)
        w = ad.parameter([1.0, -2.0], name="w")
        ad.sum_(ad.mul(ad.tanh(w), 3.0)).backward()
        assert w.grad is not None
        assert np.allclose(w.grad, 3.0 * (1.0 - np.tanh([1.0, -2.0]) ** 2))
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert seen["parents"] == ()

    # a thread started inside no_grad builds graphs: the mode is not inherited
    with ad.no_grad():
        fresh = threading.Thread(target=lambda: seen.update(fresh=ad.mul(ad.parameter([1.0]), 2.0)._parents))
        fresh.start()
        fresh.join(timeout=10)
    assert not fresh.is_alive()
    assert len(seen["fresh"]) == 1


def test_bias_add_shapes():
    m = ad.Tensor(np.ones((3, 2)))
    b = ad.Tensor(np.ones(2))
    assert ad.add(m, b).shape == (3, 2)
    with pytest.raises(ShapeError):
        ad.add(m, ad.Tensor(np.ones(3)))


def test_shape_error_names_op():
    with pytest.raises(ShapeError, match="matmul"):
        ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))


def test_nonfinite_reported_not_clipped():
    x = ad.parameter([900.0], name="x")

    def build():
        return ad.sum_(ad.mul(x, 1e306))  # overflows to inf

    with pytest.raises(FloatingPointError):
        ad.finite_diff_check(build, x)


def test_finite_diff_check_rejects_scalar_data():
    # a NumPy scalar cannot be perturbed in place, so every difference
    # would read 0 and a correct gradient would score 1.0
    p = ad.parameter(0.5, name="p")
    p.data = p.data + 0.25
    assert not isinstance(p.data, np.ndarray)
    with pytest.raises(TypeError, match="numpy array"):
        ad.finite_diff_check(lambda: ad.mul(p, p), p)


def test_finite_diff_check_perturbs_non_contiguous_data():
    rng = np.random.default_rng(23)
    p = ad.parameter(np.zeros((3, 2)), name="p")
    p.data = rand(rng, 2, 3).T
    assert not p.data.flags.c_contiguous
    w = ad.Tensor(rand(rng, 3, 2))
    assert ad.finite_diff_check(lambda: ad.sum_(ad.mul(ad.mul(p, p), w)), p) < 1e-8


def test_sgd_momentum_step():
    p = ad.parameter([1.0], name="p")
    opt = ad.SGD({"p": p}, lr=0.1, momentum=0.5)
    for expected in [1.0 - 0.2, 1.0 - 0.2 - 0.3]:
        opt.zero_grad()
        ad.sum_(ad.mul(p, ad.Tensor([2.0]))).backward()
        opt.step()
        assert np.allclose(p.data, [expected])


def test_sgd_step_keeps_0d_parameters_arrays():
    p = ad.parameter(0.5, name="p")
    opt = ad.SGD({"p": p}, lr=0.1)
    ad.mul(p, p).backward()
    opt.step()
    assert isinstance(p.data, np.ndarray) and p.data.shape == ()
    assert ad.finite_diff_check(lambda: ad.mul(p, p), p) < 1e-8


# -- gradient routing ------------------------------------------------------------


# op name -> (call, input shapes, positions that must be Tensors, nodes made)
ROUTING_CASES = {
    "add": (lambda a, b: ad.add(a, b), [(3,), (3,)], (), 1),
    "add_bias": (lambda a, b: ad.add(a, b), [(2, 3), (3,)], (), 1),
    "add_scalar": (lambda a, b: ad.add(a, b), [(), (3,)], (), 1),
    "mul": (lambda a, b: ad.mul(a, b), [(3,), (3,)], (), 1),
    "mul_scalar": (lambda a, b: ad.mul(a, b), [(3,), (1,)], (), 1),
    "matmul_2x2": (lambda a, b: ad.matmul(a, b), [(2, 3), (3, 4)], (), 1),
    "matmul_1x2": (lambda a, b: ad.matmul(a, b), [(3,), (3, 4)], (), 1),
    "matmul_2x1": (lambda a, b: ad.matmul(a, b), [(2, 3), (3,)], (), 1),
    "matmul_1x1": (lambda a, b: ad.matmul(a, b), [(3,), (3,)], (), 1),
    "tanh": (ad.tanh, [(3,)], (), 1),
    "sigmoid": (ops.sigmoid, [(3,)], (), 1),
    "relu": (ad.relu, [(3,)], (), 1),
    "softplus": (ad.softplus, [(3,)], (), 1),
    "sum_": (ad.sum_, [(2, 3)], (), 1),
    "mean_": (ad.mean_, [(2, 3)], (), 1),
    "concat": (lambda a, b: ad.concat([a, b]), [(2,), (3,)], (), 1),
    "concat_axis1": (lambda a, b: ad.concat([a, b], axis=1), [(2, 2), (2, 3)], (), 1),
    "stack": (lambda a, b: ad.stack([a, b]), [(3,), (3,)], (), 1),
    "narrow": (lambda x: ad.narrow(x, slice(1, 3)), [(4,)], (), 1),
    "reshape": (lambda x: ad.reshape(x, (3, 2)), [(2, 3)], (), 1),
    "index_rows": (lambda x: ad.index_rows(x, [0, 2, 2]), [(4, 3)], (), 1),
    "conv1d": (lambda x, w: ad.conv1d(x, w), [(5, 2), (3, 2, 4)], (), 1),
    "conv1d_bias": (lambda x, w, b: ad.conv1d(x, w, b), [(5, 2), (3, 2, 4), (4,)], (), 1),
    "lstm_step": (ad.lstm_step, [(3,), (2,), (2,), (3, 8), (2, 8), (8,)], (3, 4, 5), 3),
    "location_attention": (ops.attention_node, [(4,), (5, 6), (5,), (5,), (3, 2, 2), (2, 6), (4, 6), (6,)], (), 1),
}
ROUTING_PARAMS = [(name, k) for name, case in ROUTING_CASES.items() for k in range(len(case[1]))]


@pytest.mark.parametrize("name, k", ROUTING_PARAMS, ids=[f"{n}-input{k}" for n, k in ROUTING_PARAMS])
def test_gradient_reaches_only_the_parameter(made_nodes, name, k):
    """With input k a parameter and every other input a constant Tensor or
    a plain array, the op makes its nodes, wires its node to the parameter
    alone, and backward fills only the parameter's .grad, in its shape."""
    call, shapes, tensor_only, node_count = ROUTING_CASES[name]
    rng = np.random.default_rng(5)
    values = [rng.uniform(0.1, 1.0, size=s) for s in shapes]
    param = ad.parameter(values[k])
    constants = {j: ad.Tensor(v) for j, v in enumerate(values) if j != k and (j % 2 == 0 or j in tensor_only)}
    args = [param if j == k else constants.get(j, v) for j, v in enumerate(values)]
    out = call(*args)
    assert len(made_nodes) == node_count
    assert made_nodes[0]._parents == (param,)
    outs = out if isinstance(out, tuple) else (out,)
    loss = ad.sum_(ad.concat([ad.reshape(ad.mul(o, 1.5), (o.data.size,)) for o in outs]))
    loss.backward()
    assert param.grad is not None and param.grad.shape == param.data.shape
    assert all(c.grad is None for c in constants.values())


def test_repeated_input_accumulates_both_paths():
    x = ad.parameter([1.0, -2.0, 3.0])
    ad.sum_(ad.mul(x, x)).backward()
    assert np.array_equal(x.grad, [2.0, -4.0, 6.0])
    y = ad.parameter([0.5, 2.0])
    ad.sum_(ad.concat([y, ad.narrow(y, slice(1, 2)), y])).backward()
    assert np.array_equal(y.grad, [2.0, 3.0])


def test_fused_gradients_take_their_input_shapes():
    s = ad.parameter(0.5)
    v = ad.parameter([[1.0, 2.0]])
    out = ad.fused(np.array(3.0), (s, v, np.ones(2)), lambda g: (2.0, [3.0, 4.0], None))
    assert out._parents == (s, v)
    out.backward()
    assert isinstance(s.grad, np.ndarray) and s.grad.shape == () and s.grad == 2.0
    assert v.grad.shape == (1, 2) and np.array_equal(v.grad, [[3.0, 4.0]])


# -- weight gradients as factor pairs ----------------------------------------------


def test_outer_gradients_add_up_per_parameter():
    """W's gradient arrives as factor pairs from five 1-D @ W products and
    one W @ v product, and as a full matrix from X @ W: the sum equals the
    hand-summed terms."""
    rng = np.random.default_rng(20)
    w = ad.parameter(rand(rng, 3, 4), name="w")
    xs, cs = rand(rng, 5, 3), rand(rng, 5, 4)
    big_x, big_c = rand(rng, 2, 3), rand(rng, 2, 4)
    u, v = rand(rng, 3), rand(rng, 4)
    terms = [ad.sum_(ad.mul(ad.matmul(x, w), ad.Tensor(c))) for x, c in zip(xs, cs)]
    terms.append(ad.sum_(ad.mul(ad.matmul(ad.Tensor(big_x), w), ad.Tensor(big_c))))
    terms.append(ad.sum_(ad.mul(ad.matmul(w, ad.Tensor(v)), ad.Tensor(u))))
    ad.sum_(ad.concat([ad.reshape(t, (1,)) for t in terms])).backward()
    expected = sum(np.outer(x, c) for x, c in zip(xs, cs)) + big_x.T @ big_c + np.outer(u, v)
    assert np.max(np.abs(w.grad - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_outer_gradient_reaches_interior_operand():
    """A second operand that is itself a node, reshape(V), sums its factor
    pairs when the pass reaches it and passes the sum on to V."""
    rng = np.random.default_rng(21)
    flat = ad.parameter(rand(rng, 12), name="flat")
    x, c, v = rand(rng, 3), rand(rng, 4), rand(rng, 4)
    w = ad.reshape(flat, (3, 4))
    loss = ad.add(ad.sum_(ad.mul(ad.matmul(ad.Tensor(x), w), ad.Tensor(c))), ad.sum_(ad.matmul(w, ad.Tensor(v))))
    loss.backward()
    expected = np.outer(x, c) + np.outer(np.ones(3), v)
    assert np.allclose(flat.grad, expected.reshape(12), rtol=0.0, atol=1e-14)


def test_second_backward_doubles_outer_gradients():
    """Without zero_grad, a second pass over a rebuilt graph adds exactly
    the first pass's sum of pairs again."""
    rng = np.random.default_rng(22)
    hid = 3
    wx = ad.parameter(rand(rng, 2, 4 * hid) * 0.4, name="wx")
    wh = ad.parameter(rand(rng, hid, 4 * hid) * 0.4, name="wh")
    w = ad.parameter(rand(rng, hid, 2), name="w")
    b = ad.Tensor(np.zeros(4 * hid))
    xs = rand(rng, 4, 2)

    def build():
        h, c = ad.Tensor(np.zeros(hid)), ad.Tensor(np.zeros(hid))
        outs = []
        for x in xs:
            h, c = ad.lstm_step(x, h, c, wx, wh, b)
            outs.append(ad.matmul(h, w))
        return ad.sum_(ad.mul(ad.concat(outs), ad.concat(outs)))

    build().backward()
    once = {p.name: p.grad.copy() for p in (wx, wh, w)}
    build().backward()
    for p in (wx, wh, w):
        assert np.array_equal(p.grad, 2.0 * once[p.name]), p.name


def test_second_backward_on_one_graph_adds_the_same_again():
    """Interior nodes start each pass from no gradient: a second backward
    over the same graph adds one pass's gradient to the leaf again, and
    leaves the interior gradients as one pass made them."""
    w = ad.parameter([1.0, 2.0], name="w")
    prod = ad.mul(ad.tanh(w), ad.tanh(w))
    loss = ad.sum_(prod)
    loss.backward()
    once, prod_once = w.grad.copy(), prod.grad.copy()
    loss.backward()
    assert np.allclose(w.grad, 2.0 * once, rtol=1e-15, atol=0.0)
    assert np.array_equal(prod.grad, prod_once)
