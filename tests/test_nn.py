"""Network layers, hand-derived backpropagation, training loop, serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readmitlab.errors import DataError, NumericError
from readmitlab.models import NetworkClassifier
from readmitlab.optim import Adam
from readmitlab.nn import (
    ARCHITECTURES,
    AsSequence,
    Conv1d,
    Dense,
    Dropout,
    Flatten,
    LastStep,
    MaxPool1d,
    Network,
    Parallel,
    RecurrentTanh,
    Relu,
    build_network,
    load_network_params,
    predict_logits,
    save_network,
    softmax,
    softmax_cross_entropy,
    train_network,
)

from helpers import fd_max_rel_err, gradient_check_suite


def single_channel(values):
    """One row of values as a (batch 1, length, channels 1) sequence."""
    return np.asarray(values, dtype=np.float64).reshape(1, -1, 1)


class TestConv1d:
    def test_pass_through_kernel(self):
        rng = np.random.default_rng(0)
        conv = Conv1d(1, 1, 2, rng)
        conv.w[:] = np.array([[[1.0, 0.0]]])
        conv.b[:] = 0.0
        out = conv.forward(single_channel([1, 2, 3, 4]))
        assert out.reshape(-1).tolist() == [1.0, 2.0, 3.0]

    def test_hand_convolution(self):
        rng = np.random.default_rng(0)
        conv = Conv1d(1, 1, 2, rng)
        conv.w[:] = np.array([[[1.0, 1.0]]])
        conv.b[:] = 0.0
        out = conv.forward(single_channel([1, 2, 3, 4]))
        assert out.reshape(-1).tolist() == [3.0, 5.0, 7.0]

    def test_bias_added_per_output_channel(self):
        rng = np.random.default_rng(0)
        conv = Conv1d(1, 2, 1, rng)
        conv.w[:] = np.array([[[1.0]], [[0.0]]])
        conv.b[:] = np.array([10.0, -1.0])
        out = conv.forward(single_channel([2, 3]))
        assert out[0, :, 0].tolist() == [12.0, 13.0]
        assert out[0, :, 1].tolist() == [-1.0, -1.0]

    def test_input_shorter_than_kernel_rejected(self):
        rng = np.random.default_rng(0)
        conv = Conv1d(1, 1, 4, rng)
        with pytest.raises(DataError):
            conv.forward(single_channel([1, 2, 3]))


class TestMaxPool:
    def test_window_two_stride_two(self):
        pool = MaxPool1d(2)
        out = pool.forward(single_channel([3, 1, 4, 1]))
        assert out.reshape(-1).tolist() == [3.0, 4.0]

    def test_backward_routes_to_argmax_only(self):
        pool = MaxPool1d(2)
        pool.forward(single_channel([3, 1, 4, 1]))
        grad = pool.backward(single_channel([1.0, 2.0]))
        assert grad.reshape(-1).tolist() == [1.0, 0.0, 2.0, 0.0]

    def test_tie_goes_to_first_position(self):
        pool = MaxPool1d(2)
        pool.forward(single_channel([5, 5, 2, 7]))
        grad = pool.backward(single_channel([1.0, 1.0]))
        assert grad.reshape(-1).tolist() == [1.0, 0.0, 0.0, 1.0]


# plain-loop references for the window layers: one output position at a time,
# on (batch, length, channels) inputs


def conv_reference(x, w, b, d_out):
    """(y, dw, db, dx) of a valid stride-1 cross-correlation, by direct loops."""
    batch, _, c_in = x.shape
    c_out, _, kernel = w.shape
    n_out = d_out.shape[1]
    y = np.zeros((batch, n_out, c_out))
    dw, db, dx = np.zeros_like(w), np.zeros_like(b), np.zeros_like(x)
    for i in range(batch):
        for o in range(c_out):
            for l in range(n_out):
                db[o] += d_out[i, l, o]
                y[i, l, o] = b[o]
                for c in range(c_in):
                    for t in range(kernel):
                        y[i, l, o] += w[o, c, t] * x[i, l + t, c]
                        dw[o, c, t] += d_out[i, l, o] * x[i, l + t, c]
                        dx[i, l + t, c] += d_out[i, l, o] * w[o, c, t]
    return y, dw, db, dx


def pool_reference(x, window, d_out):
    """(y, dx) of max pooling over non-overlapping windows. y folds np.maximum
    over each window in order; the gradient goes to the position np.argmax
    picks: the first NaN if there is one, else the first maximum."""
    batch, _, channels = x.shape
    n_out = d_out.shape[1]
    y = np.zeros((batch, n_out, channels), dtype=x.dtype)
    dx = np.zeros_like(x)
    for i in range(batch):
        for c in range(channels):
            for l in range(n_out):
                start = window * l
                best, value = start, x[i, start, c]
                for pos in range(start + 1, start + window):
                    value = np.maximum(value, x[i, pos, c])
                    if np.isnan(x[i, best, c]):
                        continue
                    if np.isnan(x[i, pos, c]) or x[i, pos, c] > x[i, best, c]:
                        best = pos
                y[i, l, c] = value
                dx[i, best, c] += d_out[i, l, c]
    return y, dx


def assert_close(got, want, tol=1e-12):
    """Max abs difference within tol of the larger array's largest magnitude."""
    assert got.shape == want.shape
    scale = max(np.abs(want).max(initial=0.0), np.abs(got).max(initial=0.0), 1.0)
    assert np.abs(got - want).max(initial=0.0) <= tol * scale


SPECIAL_VALUES = (np.nan, np.inf, -np.inf, 0.0, -0.0)


def float_arrays(draw, shape, kind):
    """Normal-range floats; small integers, so that equal values are common;
    or small integers mixed with NaN, +-inf and +-0."""
    n = int(np.prod(shape))
    if kind == "ties":
        values = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    elif kind == "special":
        values = draw(st.lists(st.integers(-2, 2) | st.sampled_from(SPECIAL_VALUES),
                               min_size=n, max_size=n))
    else:
        values = draw(st.lists(st.floats(-10, 10, allow_nan=False), min_size=n, max_size=n))
    return np.array(values, dtype=np.float64).reshape(shape)


@st.composite
def window_problems(draw, kinds=("floats", "ties")):
    """(x, width, output channels, seed) with x of shape (batch, length,
    channels) at least one window long."""
    width = draw(st.integers(1, 5))
    batch = draw(st.integers(1, 3))
    channels = draw(st.integers(1, 4))
    length = draw(st.integers(width, 3 * width + 4))
    x = float_arrays(draw, (batch, length, channels), draw(st.sampled_from(kinds)))
    return x, width, draw(st.integers(1, 4)), draw(st.integers(0, 2**16))


class TestWindowLayersAgainstLoops:
    @settings(max_examples=200, deadline=None)
    @given(window_problems())
    def test_conv_matches_the_loop_reference(self, problem):
        x, kernel, c_out, seed = problem
        rng = np.random.default_rng(seed)
        conv = Conv1d(x.shape[2], c_out, kernel, rng)
        net = Network([conv])  # the network stores the gradients
        conv.b[:] = rng.normal(size=c_out)
        y = net.forward(x)
        d_out = rng.normal(size=y.shape)
        dx = net.backward(d_out)
        want_y, want_dw, want_db, want_dx = conv_reference(x, conv.w, conv.b, d_out)
        assert y.shape[1] == conv.out_length(x.shape[1])
        assert_close(y, want_y)
        assert_close(conv.dw, want_dw)
        assert_close(conv.db, want_db)
        assert_close(dx, want_dx)

    @settings(max_examples=300, deadline=None)
    @given(window_problems(kinds=("floats", "ties", "special")))
    def test_pool_matches_the_loop_reference(self, problem):
        self.check_pool(problem, np.float64)

    @settings(max_examples=300, deadline=None)
    @given(window_problems(kinds=("floats", "ties", "special")))
    def test_pool_matches_the_loop_reference_at_float32(self, problem):
        self.check_pool(problem, np.float32)

    @staticmethod
    def check_pool(problem, dtype):
        # integer inputs plant ties; special ones NaN, +-inf and +-0, whose
        # bytes (a zero's sign, which NaN) the forward must keep
        x, window, _, seed = problem
        x = x.astype(dtype)
        pool = MaxPool1d(window)
        y = pool.forward(x)
        d_out = np.random.default_rng(seed).normal(size=y.shape).astype(dtype)
        dx = pool.backward(d_out)
        want_y, want_dx = pool_reference(x, window, d_out)
        assert y.shape[1] == x.shape[1] // window
        assert y.dtype == dx.dtype == dtype
        assert y.tobytes() == want_y.tobytes()
        assert dx.tobytes() == want_dx.tobytes()


def channel_major_logits(arch, net, rows):
    """Inference logits of a cnn2 or cnn2_multibranch network, recomputed from
    net.params() by plain loops on one (channels, length) row at a time and
    flattened channel-major, the order of saved network files."""
    params = net.params()

    def conv(h, w, b):
        c_out, _, kernel = w.shape
        n_out = h.shape[1] - kernel + 1
        out = np.empty((c_out, n_out))
        for o in range(c_out):
            for l in range(n_out):
                out[o, l] = b[o] + np.sum(w[o] * h[:, l : l + kernel])
        return np.maximum(out, 0.0)

    def convs(h, keys):
        for key in keys:
            h = conv(h, params[f"{key}.w"], params[f"{key}.b"])
        return h

    if arch == "cnn2":
        stem, head = (lambda h: convs(h, ("l1", "l3", "l5"))), ("l9", "l12", "l15")
    else:
        def stem(h):
            branches = [convs(h, (f"l1.b{j}.l0", f"l1.b{j}.l2")) for j in (0, 1)]
            keep = min(branch.shape[1] for branch in branches)
            return np.concatenate([branch[:, :keep] for branch in branches])
        head = ("l4", "l7", "l10")
    logits = []
    for row in rows:
        h = stem(row[None, :])
        n_out = h.shape[1] // 2
        pooled = np.array([[max(h[c, 2 * l], h[c, 2 * l + 1]) for l in range(n_out)]
                           for c in range(h.shape[0])])
        z = pooled.reshape(-1)
        for i, dense in enumerate(head):
            z = z @ params[f"{dense}.w"] + params[f"{dense}.b"]
            if i < len(head) - 1:
                z = np.maximum(z, 0.0)
        logits.append(z)
    return np.array(logits)


class TestWholeNetworkAgainstLoops:
    @pytest.mark.parametrize("arch", ["cnn2", "cnn2_multibranch"])
    @pytest.mark.parametrize("n_features", [13, 30])
    def test_channel_major_reference_gives_the_same_logits(self, arch, n_features):
        net = build_network(arch, n_features, rng=np.random.default_rng(n_features))
        rows = np.random.default_rng(1).normal(size=(5, n_features))
        assert_close(predict_logits(net, rows), channel_major_logits(arch, net, rows))


class TestCrossEntropy:
    def test_uniform_logits_give_log3(self):
        logits = np.zeros((1, 3))
        loss, _ = softmax_cross_entropy(logits, np.array([1]))
        assert loss == pytest.approx(math.log(3.0), abs=1e-12)

    def test_saturated_correct_class_is_zero(self):
        logits = np.array([[30.0, 0.0, 0.0]])
        loss, _ = softmax_cross_entropy(logits, np.array([0]))
        assert loss < 1e-12

    def test_hand_value_on_1_2_3(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        loss, _ = softmax_cross_entropy(logits, np.array([2]))
        assert loss == pytest.approx(math.log(1 + math.exp(-1) + math.exp(-2)), abs=1e-12)

    def test_gradient_is_softmax_minus_onehot_over_batch(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 2])
        _, d_logits = softmax_cross_entropy(logits, labels)
        expected = softmax(logits)
        expected[np.arange(4), labels] -= 1.0
        assert np.allclose(d_logits, expected / 4, atol=1e-15)

    def test_huge_logits_do_not_overflow(self):
        logits = np.array([[1000.0, 0.0, -1000.0]])
        loss, grad = softmax_cross_entropy(logits, np.array([0]))
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        probs = softmax(rng.normal(scale=50, size=(20, 3)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_duplicated_batch_keeps_mean_loss(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(6, 3))
        labels = rng.integers(0, 3, size=6)
        loss_once, _ = softmax_cross_entropy(logits, labels)
        loss_twice, _ = softmax_cross_entropy(np.vstack([logits, logits]),
                                              np.concatenate([labels, labels]))
        assert loss_twice == pytest.approx(loss_once, abs=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_the_two_pass_formula(self, dtype):
        # the gradient reuses the loss's exponentials; the formula below takes
        # softmax's shift and exponentials a second time
        rng = np.random.default_rng(6)
        for batch in (1, 7, 64):
            for scale in (1e-3, 1.0, 1e3):
                logits = (rng.normal(size=(batch, 3)) * scale).astype(dtype)
                labels = rng.integers(0, 3, size=batch)
                rows = np.arange(batch)
                shifted = logits - logits.max(axis=1, keepdims=True)
                log_z = np.log(np.exp(shifted).sum(axis=1))
                want_loss = float((log_z - shifted[rows, labels]).mean())
                want_grad = softmax(logits)
                want_grad[rows, labels] -= 1.0
                want_grad = want_grad / batch
                loss, grad = softmax_cross_entropy(logits, labels)
                assert loss == want_loss
                assert grad.dtype == want_grad.dtype == dtype
                assert grad.tobytes() == want_grad.tobytes()

    def test_label_out_of_range_errors(self):
        with pytest.raises(IndexError):
            softmax_cross_entropy(np.zeros((1, 3)), np.array([3]))


class TestBackwardIdentities:
    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(6)
        net = Network([Dense(4, 5, rng), Relu(), Dense(5, 3, rng)])
        out = net.forward(rng.normal(size=(2, 4)))
        net.backward(np.zeros_like(out))
        assert all(np.all(g == 0.0) for g in net.grads().values())

    def test_single_dense_gradient_closed_form(self):
        rng = np.random.default_rng(7)
        net = Network([Dense(4, 3, rng)])
        x = rng.normal(size=(5, 4))
        net.forward(x)
        d_out = rng.normal(size=(5, 3))
        net.backward(d_out)
        assert np.array_equal(net.grads()["l0.w"], x.T @ d_out)
        assert np.array_equal(net.grads()["l0.b"], d_out.sum(axis=0))

    def test_spot_finite_difference_dense_relu(self):
        rng = np.random.default_rng(8)
        net = Network([Dense(5, 6, rng), Relu(), Dense(6, 3, rng)])
        x = rng.normal(size=(3, 5))
        labels = rng.integers(0, 3, size=3)
        assert fd_max_rel_err(net, x, labels) <= 1e-5

    def test_full_gradient_suite(self):
        results = gradient_check_suite()
        worst_name, worst = max(results, key=lambda r: r[1])
        assert worst <= 1e-5, f"{worst_name}: rel err {worst:.3e}"


def relu_reference(x, d_out):
    """Relu's forward and backward, element by element: x and d_out pass
    where x > 0 and are +0.0 elsewhere. So NaN, -inf and -0.0 inputs give
    +0.0, +inf passes, and a gradient passes with its own bits (a NaN's
    payload, a zero's sign). Elements are taken as numpy scalars of x's
    dtype, so no bits change on the way."""
    keep = [v > 0 for v in x.ravel()]
    forward = [v if k else 0.0 for v, k in zip(x.ravel(), keep)]
    backward = [d if k else 0.0 for d, k in zip(d_out.ravel(), keep)]
    return (np.array(forward, dtype=x.dtype).reshape(x.shape),
            np.array(backward, dtype=x.dtype).reshape(x.shape))


@st.composite
def relu_problems(draw, dtype=np.float64):
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)))
    n = int(np.prod(shape))
    values = st.floats(width=8 * np.dtype(dtype).itemsize) | st.sampled_from(SPECIAL_VALUES)
    x = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)
    d_out = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)
    return x.reshape(shape), d_out.reshape(shape)


class TestRelu:
    """Pins the bytes of today's np.where rule, so that a faster rule must
    give the same bytes for NaN, +-inf and +-0."""

    def test_special_values(self):
        layer = Relu()
        x = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 2.5, -1.0])
        d_out = np.array([-0.0, np.nan, 3.0, 4.0, 5.0, -0.0, 7.0])
        assert layer.forward(x).tobytes() == np.array(
            [0.0, np.inf, 0.0, 0.0, 0.0, 2.5, 0.0]).tobytes()
        assert layer.backward(d_out).tobytes() == np.array(
            [0.0, np.nan, 0.0, 0.0, 0.0, -0.0, 0.0]).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(relu_problems())
    def test_bytes_match_the_elementwise_rule(self, problem):
        self.check_bytes(*problem)

    @settings(max_examples=300, deadline=None)
    @given(relu_problems(np.float32))
    def test_bytes_match_the_elementwise_rule_at_float32(self, problem):
        self.check_bytes(*problem)

    @staticmethod
    def check_bytes(x, d_out):
        layer = Relu()
        want_y, want_dx = relu_reference(x, d_out)
        y, dx = layer.forward(x), layer.backward(d_out)
        assert y.dtype == dx.dtype == x.dtype
        assert y.tobytes() == want_y.tobytes()
        assert dx.tobytes() == want_dx.tobytes()


class TestDropout:
    def test_inference_is_identity(self):
        layer = Dropout(0.5)
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(layer.forward(x), x)

    def test_inverted_scaling(self):
        layer = Dropout(0.25)
        x = np.ones((4, 50))
        out = layer.forward(x, np.random.default_rng(9))
        kept = out[out != 0.0]
        assert np.allclose(kept, 1.0 / 0.75, atol=1e-12)
        assert 0.0 < (out == 0.0).mean() < 1.0

    def test_invalid_rate_rejected(self):
        for rate in (-0.1, 1.0):
            with pytest.raises(ValueError):
                Dropout(rate)


class TestRecurrent:
    def test_zero_weights_emit_output_bias(self):
        rng = np.random.default_rng(10)
        rnn = RecurrentTanh(1, 4, rng)
        rnn.wx[:] = 0.0
        rnn.wh[:] = 0.0
        rnn.b[:] = 0.0
        head = Dense(4, 3, rng)
        head.w[:] = rng.normal(size=(4, 3))
        head.b[:] = np.array([0.5, -1.0, 2.0])
        net = Network([AsSequence(), rnn, LastStep(), head])
        out = net.forward(np.random.default_rng(0).normal(size=(3, 6)))
        assert np.allclose(out, np.tile(head.b, (3, 1)), atol=1e-15)

    def test_bptt_matches_finite_differences_on_length_6(self):
        rng = np.random.default_rng(11)
        net = Network([AsSequence(), RecurrentTanh(1, 5, rng), LastStep(), Dense(5, 3, rng)])
        x = rng.normal(size=(2, 6))
        labels = rng.integers(0, 3, size=2)
        assert fd_max_rel_err(net, x, labels) <= 1e-5

    def test_deep_variant_stacks_four_recurrences(self):
        net = build_network("rnn_deep", 10, rng=np.random.default_rng(0))
        stacked = [l for l in net.layers if isinstance(l, RecurrentTanh)]
        assert len(stacked) == 4

    def test_simple_variant_has_one_recurrence(self):
        net = build_network("rnn_simple", 10, rng=np.random.default_rng(0))
        stacked = [l for l in net.layers if isinstance(l, RecurrentTanh)]
        assert len(stacked) == 1


class TestBuildNetwork:
    def test_all_architectures_emit_three_logits(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(5, 16))
        for tag in ARCHITECTURES:
            net = build_network(tag, 16, rng=np.random.default_rng(1))
            assert net.forward(x).shape == (5, 3), tag

    def test_wide_head_dense_widths(self):
        net = build_network("cnn2_wide", 20, rng=np.random.default_rng(2))
        widths = [l.w.shape for l in _walk_dense(net)]
        assert widths[-3][1] == 2560
        assert widths[-2] == (2560, 1280)
        assert widths[-1] == (1280, 3)

    def test_vanilla_parameter_count_closed_form(self):
        n = 58
        net = build_network("vanilla", n, rng=np.random.default_rng(3))
        # conv(1->8,k2) + conv(8->16,k2) + pool(2) + dense(->128,->64,->3)
        after_convs = n - 1 - 1
        flat = 16 * (after_convs // 2)
        expected = (8 * 1 * 2 + 8) + (16 * 8 * 2 + 16) \
            + (flat * 128 + 128) + (128 * 64 + 64) + (64 * 3 + 3)
        assert net.theta.size == expected == 66219

    def test_parameter_count_deterministic_in_features(self):
        a = build_network("cnn2", 24, rng=np.random.default_rng(4))
        b = build_network("cnn2", 24, rng=np.random.default_rng(99))
        assert a.theta.size == b.theta.size

    def test_kernel_size_sweep_values_build(self):
        for kernel in (1, 2, 4, 6):
            net = build_network("cnn2", 20, rng=np.random.default_rng(5),
                                kernel_size=kernel)
            assert net.forward(np.zeros((1, 20))).shape == (1, 3)

    def test_input_too_short_rejected(self):
        with pytest.raises(DataError):
            build_network("cnn2", 3, rng=np.random.default_rng(6))

    # the shortest row each conv stem takes: vanilla's two convs leave n - 2(k - 1)
    # values and cnn2's three leave n - 3(k - 1); the size-2 pool needs 2 of them.
    # cnn2_multibranch's longer branch (kernel 5) leaves n - 8.
    @pytest.mark.parametrize("arch, kernel, shortest", [
        *(("vanilla", k, 2 * k) for k in range(1, 6)),
        *(("cnn2", k, 3 * k - 1) for k in range(1, 6)),
        *(("cnn2_wide", k, 3 * k - 1) for k in range(1, 6)),
        ("cnn2_multibranch", None, 10),
    ])
    def test_shortest_valid_row_builds_and_one_fewer_is_rejected(self, arch, kernel,
                                                                 shortest):
        net = build_network(arch, shortest, rng=np.random.default_rng(0), kernel_size=kernel)
        assert net.forward(np.zeros((2, shortest))).shape == (2, 3)
        with pytest.raises(DataError, match=f"^{arch}: input of {shortest - 1} features"):
            build_network(arch, shortest - 1, rng=np.random.default_rng(0),
                          kernel_size=kernel)

    @pytest.mark.parametrize("arch", ["vanilla", "cnn2", "cnn2_wide"])
    def test_a_kernel_wider_than_the_input_fails_before_any_weight_is_drawn(self, arch):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(DataError, match=f"^{arch}: input of 6 features is too short: "
                                            "input length 6 shorter than kernel 10{12}$"):
            build_network(arch, 6, rng=rng, kernel_size=10**12)
        assert rng.bit_generator.state == before

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            build_network("mystery", 16, rng=np.random.default_rng(7))


def _walk_dense(net):
    out = []
    for layer in net.layers:
        if isinstance(layer, Dense):
            out.append(layer)
        elif isinstance(layer, Network):
            out.extend(_walk_dense(layer))
    return out


class TestNetworkSettings:
    @pytest.mark.parametrize("field, value", [
        ("epochs", 2.5), ("epochs", True), ("epochs", "3"), ("batch_size", 8.5),
        ("batch_size", None)])
    def test_a_count_that_is_not_an_integer_fails_when_built(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1, got {value!r}"):
            NetworkClassifier(**{field: value})

    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    def test_a_count_below_one_fails_when_built(self, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1, got 0"):
            NetworkClassifier(**{field: 0})

    @pytest.mark.parametrize("kernel", [2.0, True, 0])
    def test_a_kernel_width_must_be_an_integer_of_at_least_one(self, kernel):
        with pytest.raises(ValueError, match="kernel must be"):
            Conv1d.check_kernel(kernel)

    @pytest.mark.parametrize("rate", [True, False, "0.1", None])
    def test_a_learning_rate_that_is_not_a_real_number_fails_when_built(self, rate):
        with pytest.raises(ValueError, match="learning_rate must be positive"):
            NetworkClassifier(learning_rate=rate)

    @pytest.mark.parametrize("rate", [False, True, "0.5", None])
    def test_a_dropout_rate_that_is_not_a_real_number_fails(self, rate):
        with pytest.raises(ValueError, match=r"dropout rate must be in \[0, 1\)"):
            Dropout(rate)

    def test_of_two_bad_settings_the_architecture_is_reported(self):
        with pytest.raises(ValueError, match="unknown architecture 'bogus'"):
            NetworkClassifier("bogus", epochs=0)

    def test_each_setting_is_kept_under_its_own_name(self):
        net = NetworkClassifier("vanilla", epochs=3, learning_rate=0.5, batch_size=8,
                                optimizer="sgd", dropout=0.25, seed=4)
        assert net.settings() == {"arch": "vanilla", "epochs": 3, "learning_rate": 0.5,
                                  "batch_size": 8, "optimizer": "sgd", "kernel_size": None,
                                  "dropout": 0.25, "seed": 4}
        assert all(getattr(net, name) == value for name, value in net.settings().items())


class TestTraining:
    def test_same_seed_twice_is_bitwise_identical(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(40, 16))
        y = rng.integers(0, 3, size=40)
        config = {"epochs": 3, "learning_rate": 1e-3, "batch_size": 16, "optimizer": "adam"}

        def run():
            build_rng = np.random.default_rng(21)
            net = build_network("cnn2", 16, rng=build_rng)
            history = train_network(net, X, y, build_rng, **config)
            return history, {k: v.copy() for k, v in net.params().items()}

        hist_a, params_a = run()
        hist_b, params_b = run()
        assert hist_a == hist_b
        assert all(np.array_equal(params_a[k], params_b[k]) for k in params_a)

    def test_linearly_separable_toy_reaches_full_accuracy(self):
        # 60 points, 3 classes on distinct rays; signal in the first two
        # columns, zero padding so the convolution stack has room
        rng = np.random.default_rng(14)
        centers = np.array([[4.0, 0.0], [0.0, 4.0], [-4.0, -4.0]])
        y = np.repeat([0, 1, 2], 20)
        X2 = centers[y] + rng.normal(scale=0.4, size=(60, 2))
        X = np.hstack([X2, np.zeros((60, 6))])
        build_rng = np.random.default_rng(15)
        net = build_network("vanilla", 8, rng=build_rng)
        train_network(net, X, y, build_rng, epochs=200, learning_rate=1e-3, batch_size=64,
                      optimizer="adam")
        assert np.array_equal(predict_logits(net, X).argmax(axis=1), y)

    def test_history_length_and_partial_batch(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(10, 8))
        y = rng.integers(0, 3, size=10)
        net = build_network("vanilla", 8, rng=np.random.default_rng(17))
        before = {k: v.copy() for k, v in net.params().items()}
        history = train_network(net, X, y, np.random.default_rng(18), epochs=2,
                                learning_rate=1e-3, batch_size=64, optimizer="adam")
        assert len(history) == 2
        # 10 < batch_size, so only the "partial" batch exists; it must train
        assert any(not np.array_equal(before[k], v) for k, v in net.params().items())

    def test_divergent_training_raises_numeric_error(self):
        # an absurd learning rate blows the weights up within a few epochs;
        # the loop must stop with a diagnosis instead of training on NaNs
        rng = np.random.default_rng(19)
        X = rng.normal(size=(30, 8)) * 10
        y = np.array([0, 1, 2] * 10)
        net = build_network("vanilla", 8, rng=np.random.default_rng(19))
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="non-finite"):
            train_network(net, X, y, np.random.default_rng(20), epochs=20, learning_rate=1e10,
                          batch_size=10, optimizer="sgd")

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            NetworkClassifier(epochs=0)
        with pytest.raises(ValueError):
            NetworkClassifier(batch_size=0)
        with pytest.raises(ValueError):
            NetworkClassifier(learning_rate=0.0)


class TestParameterVector:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_views_tile_the_vectors(self, arch):
        net = build_network(arch, 16, rng=np.random.default_rng(0))
        for views, vector in ((net.params(), net.theta), (net.grads(), net.grad)):
            assert all(np.shares_memory(view, vector) for view in views.values())
            # each element of the vector is read by exactly one view
            vector[...] = np.arange(vector.size)
            seen = np.concatenate([view.ravel() for view in views.values()])
            assert np.array_equal(np.sort(seen), np.arange(vector.size))
        assert net.theta.size == sum(view.size for view in net.params().values())

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_writing_theta_moves_every_layer(self, arch):
        net = build_network(arch, 16, rng=np.random.default_rng(1))
        x = np.random.default_rng(2).normal(size=(4, 16))
        before = predict_logits(net, x)
        net.theta[...] = 0.0
        assert all(not value.any() for value in net.params().values())
        assert not np.array_equal(predict_logits(net, x), before)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_backward_overwrites_the_gradient(self, arch):
        rng = np.random.default_rng(3)
        net = build_network(arch, 16, rng=rng)
        x = rng.normal(size=(4, 16))
        _, d_logits = softmax_cross_entropy(net.forward(x), rng.integers(0, 3, size=4))
        net.backward(d_logits)
        first = net.grad.copy()
        net.backward(d_logits)
        assert first.any()
        assert np.array_equal(net.grad, first)


class TestSerialization:
    def test_round_trip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(12, 16))
        net = build_network("cnn2", 16, rng=np.random.default_rng(22))
        path = tmp_path / "net.params"
        save_network(net, path)
        clone = build_network("cnn2", 16, rng=np.random.default_rng(99))
        clone.load_params(load_network_params(path))
        assert np.array_equal(predict_logits(net, X), predict_logits(clone, X))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.params"
        path.write_bytes(b"NOPE!" + b"\x00" * 32)
        with pytest.raises(DataError) as err:
            load_network_params(path)
        assert str(path) in str(err.value)

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(23)
        net = Network([Dense(4, 3, rng)])
        path = tmp_path / "net.params"
        save_network(net, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(DataError) as err:
            load_network_params(path)
        assert str(path) in str(err.value)

    def test_trailing_garbage_rejected(self, tmp_path):
        rng = np.random.default_rng(24)
        net = Network([Dense(4, 3, rng)])
        path = tmp_path / "net.params"
        save_network(net, path)
        path.write_bytes(path.read_bytes() + b"JUNK")
        with pytest.raises(DataError, match="trailing bytes") as err:
            load_network_params(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_save_load_save_is_byte_identical(self, arch, tmp_path):
        first, second = tmp_path / "first.params", tmp_path / "second.params"
        save_network(build_network(arch, 16, rng=np.random.default_rng(25)), first)
        clone = build_network(arch, 16, rng=np.random.default_rng(26))
        clone.load_params(load_network_params(first))
        save_network(clone, second)
        assert first.read_bytes() == second.read_bytes()

    def test_branch_weights_keep_their_keys(self):
        net = build_network("cnn2_multibranch", 16, rng=np.random.default_rng(27))
        assert sorted(net.params()) == [
            "l1.b0.l0.b", "l1.b0.l0.w", "l1.b0.l2.b", "l1.b0.l2.w",
            "l1.b1.l0.b", "l1.b1.l0.w", "l1.b1.l2.b", "l1.b1.l2.w",
            "l10.b", "l10.w", "l4.b", "l4.w", "l7.b", "l7.w",
        ]

    def test_file_is_one_npy_record_of_float64_fields(self, tmp_path):
        net = Network([Dense(4, 3, np.random.default_rng(28))])
        path = tmp_path / "net.params"
        save_network(net, path)
        record = np.load(path, allow_pickle=False)
        assert record.shape == ()
        assert record.dtype == np.dtype([("l0.b", "<f8", (3,)), ("l0.w", "<f8", (4, 3))])
        assert record["l0.w"].tobytes() == net.params()["l0.w"].tobytes()

    @pytest.mark.parametrize("write, message", [
        (lambda fh: np.save(fh, np.arange(5.0)), "no 0-d record"),
        (lambda fh: np.save(fh, np.zeros(2, [("l0.b", "<f8", (3,))])), "no 0-d record"),
        (lambda fh: np.save(fh, np.zeros((), [("l0.b", "<f4", (3,))])),
         "l0.b is float32, not float64"),
        (lambda fh: np.save(fh, np.zeros((), [("l0.b", ">f8", (3,))])),
         "l0.b is >f8, not float64"),
        (lambda fh: np.savez(fh, **{"l0.b": np.zeros(3), "l0.w": np.zeros((4, 3))}),
         "no 0-d record"),
        (lambda fh: np.save(fh, np.array([{"l0.b": np.zeros(3)}], dtype=object),
                            allow_pickle=True), "Object arrays cannot be loaded"),
    ], ids=["float64-vector", "record-vector", "float32-field", "big-endian-field",
            "npz-archive", "pickled-object-array"])
    def test_file_that_is_not_one_weight_record_rejected(self, tmp_path, write, message):
        path = tmp_path / "net.params"
        with open(path, "wb") as fh:
            write(fh)
        with pytest.raises(DataError, match=message) as err:
            load_network_params(path)
        assert str(path) in str(err.value)

    def test_corrupted_header_byte_rejected(self, tmp_path):
        path = tmp_path / "net.params"
        save_network(Network([Dense(4, 3, np.random.default_rng(29))]), path)
        blob = bytearray(path.read_bytes())
        blob[10] = 0xFF  # the header dict's opening brace, after magic, version, length
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError) as err:
            load_network_params(path)
        assert str(path) in str(err.value)


def _layers(layers):
    """Every layer of a layer list, those inside Parallel branches too."""
    for layer in layers:
        yield layer
        if isinstance(layer, Parallel):
            for branch in layer.branches:
                yield from _layers(branch)


class TestFloat32:
    """A network built in float32 computes in float32 from its input to its
    optimizer state; float64 stays the reference path."""

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_every_layer_and_the_optimizer_stay_float32(self, arch):
        rng = np.random.default_rng(31)
        net = build_network(arch, 16, rng=rng, dtype=np.float32)
        h = rng.normal(size=(6, 16)).astype(np.float32)
        for layer in net.layers:
            h = layer.forward(h, rng)
            assert h.dtype == np.float32, f"{type(layer).__name__} forward"
        _, d = softmax_cross_entropy(h, rng.integers(0, 3, size=6))
        assert d.dtype == np.float32
        for layer in reversed(net.layers):
            d = layer.backward(d)
            assert d.dtype == np.float32, f"{type(layer).__name__} backward"
        assert net.theta.dtype == net.grad.dtype == np.float32
        assert all(g.dtype == np.float32 for g in net.grads().values())
        optimizer = Adam(np.float64(1e-3))  # a float64 scalar must not widen the step
        optimizer.step({"theta": net.theta}, {"theta": net.grad})
        assert net.theta.dtype == np.float32
        assert [a.dtype for a in optimizer._state["theta"]] == [np.float32] * 4

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_training_on_float64_rows_keeps_the_network_float32(self, arch):
        rng = np.random.default_rng(32)
        X, y = rng.normal(size=(20, 16)), rng.integers(0, 3, size=20)
        net = build_network(arch, 16, rng=rng, dtype=np.float32)
        history = train_network(net, X, y, rng, epochs=2, learning_rate=1e-2, batch_size=8,
                                optimizer="adam")
        assert np.isfinite(history).all()
        assert net.theta.dtype == np.float32
        assert predict_logits(net, X).dtype == np.float32

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_float32_logits_agree_with_float64(self, arch):
        x = np.random.default_rng(33).normal(size=(50, 30))
        reference = build_network(arch, 30, rng=np.random.default_rng(34))
        net = build_network(arch, 30, rng=np.random.default_rng(34), dtype=np.float32)
        # both dtypes draw the same weights, rounded once
        assert net.theta.tobytes() == reference.theta.astype(np.float32).tobytes()
        # float32 rounds the weights, the input and every sum (unit roundoff
        # 6e-8); the measured worst case is about 1e-6 of the largest logit
        assert_close(predict_logits(net, x).astype(np.float64), predict_logits(reference, x),
                     tol=1e-5)

    def test_a_float32_network_round_trips_its_float64_file_exactly(self, tmp_path):
        net = build_network("cnn2", 16, rng=np.random.default_rng(35), dtype=np.float32)
        path = tmp_path / "net.params"
        save_network(net, path)
        stored = load_network_params(path)
        assert all(stored[key].tobytes() == value.astype(np.float64).tobytes()
                   for key, value in net.params().items())
        clone = build_network("cnn2", 16, rng=np.random.default_rng(36), dtype=np.float32)
        clone.load_params(stored)
        assert clone.theta.tobytes() == net.theta.tobytes()

    def test_a_float64_file_loads_rounded_into_a_float32_network(self, tmp_path):
        path = tmp_path / "net.params"
        reference = build_network("cnn2", 16, rng=np.random.default_rng(37))
        save_network(reference, path)
        net = build_network("cnn2", 16, rng=np.random.default_rng(38), dtype=np.float32)
        net.load_params(load_network_params(path))
        assert net.theta.tobytes() == reference.theta.astype(np.float32).tobytes()


def rebuilding_backward(self, d_out):
    """Conv1d.backward as it was before a training forward kept its columns:
    it builds the im2col matrix again from the layer's input."""
    batch, n_out, _ = d_out.shape
    d_rows = d_out.reshape(batch * n_out, self.c_out)
    self.db[...] = d_rows.sum(axis=0)
    np.matmul(d_rows.T, self._columns(self._x), out=self.dw.reshape(self.c_out, -1))
    d_cols = (d_rows @ self.w.reshape(self.c_out, -1)).reshape(batch, n_out, -1, self.kernel)
    dx = np.zeros(self._x.shape)
    for offset in reversed(range(self.kernel)):
        dx[:, offset : offset + n_out] += d_cols[..., offset]
    return dx


class TestConvColumns:
    @pytest.mark.parametrize("arch", ["cnn2", "cnn2_multibranch"])
    def test_kept_columns_train_to_the_bytes_of_rebuilt_ones(self, arch, monkeypatch):
        rng = np.random.default_rng(39)
        X, y = rng.normal(size=(150, 30)), rng.integers(0, 3, size=150)
        config = {"epochs": 2, "learning_rate": 1e-2, "batch_size": 64, "optimizer": "adam"}

        def train():
            build_rng = np.random.default_rng(40)
            net = build_network(arch, 30, rng=build_rng)
            history = train_network(net, X, y, build_rng, **config)
            return net.theta.tobytes(), history

        kept = train()
        monkeypatch.setattr(Conv1d, "backward", rebuilding_backward)
        assert train() == kept

    @pytest.mark.parametrize("arch", ["vanilla", "cnn2", "cnn2_multibranch"])
    def test_every_forward_keeps_its_batch_columns(self, arch):
        rng = np.random.default_rng(41)
        net = build_network(arch, 16, rng=rng, dtype=np.float32)
        convs = [layer for layer in _layers(net.layers) if isinstance(layer, Conv1d)]
        assert convs
        x = rng.normal(size=(8, 16))
        for rows, forward in ((5, lambda: net.forward(x[:5].astype(np.float32), rng)),
                              (8, lambda: predict_logits(net, x))):
            forward()
            for conv in convs:
                assert conv._x.shape[0] == rows
                assert np.array_equal(conv._cols, conv._columns(conv._x))
