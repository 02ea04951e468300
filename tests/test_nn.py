"""Network layers, hand-derived backpropagation, training loop, serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from readmitlab.errors import DataError, NumericError
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
    RecurrentTanh,
    Relu,
    TrainConfig,
    build_network,
    load_network_params,
    predict_classes,
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
    y = np.zeros((batch, n_out, channels))
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
        conv.b[:] = rng.normal(size=c_out)
        y = conv.forward(x)
        d_out = rng.normal(size=y.shape)
        dx = conv.backward(d_out)
        want_y, want_dw, want_db, want_dx = conv_reference(x, conv.w, conv.b, d_out)
        assert y.shape[1] == conv.out_length(x.shape[1])
        assert_close(y, want_y)
        assert_close(conv.dw, want_dw)
        assert_close(conv.db, want_db)
        assert_close(dx, want_dx)

    @settings(max_examples=300, deadline=None)
    @given(window_problems(kinds=("floats", "ties", "special")))
    def test_pool_matches_the_loop_reference(self, problem):
        # integer inputs plant ties; special ones NaN, +-inf and +-0, whose
        # bytes (a zero's sign, which NaN) the forward must keep
        x, window, _, seed = problem
        pool = MaxPool1d(window)
        y = pool.forward(x)
        d_out = np.random.default_rng(seed).normal(size=y.shape)
        dx = pool.backward(d_out)
        want_y, want_dx = pool_reference(x, window, d_out)
        assert y.shape[1] == x.shape[1] // window
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
        dense = Dense(4, 3, rng)
        x = rng.normal(size=(5, 4))
        dense.forward(x)
        d_out = rng.normal(size=(5, 3))
        dense.backward(d_out)
        assert np.array_equal(dense.grads()["w"], x.T @ d_out)
        assert np.array_equal(dense.grads()["b"], d_out.sum(axis=0))

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


class TestDropout:
    def test_inference_is_identity(self):
        layer = Dropout(0.5)
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(layer.forward(x), x)

    def test_train_without_rng_rejected(self):
        with pytest.raises(ValueError):
            Dropout(0.5).forward(np.ones((1, 2)), train=True)

    def test_inverted_scaling(self):
        layer = Dropout(0.25)
        x = np.ones((4, 50))
        out = layer.forward(x, train=True, rng=np.random.default_rng(9))
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
        assert net.count_params() == expected == 66219

    def test_parameter_count_deterministic_in_features(self):
        a = build_network("cnn2", 24, rng=np.random.default_rng(4))
        b = build_network("cnn2", 24, rng=np.random.default_rng(99))
        assert a.count_params() == b.count_params()

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


class TestTraining:
    def test_same_seed_twice_is_bitwise_identical(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(40, 16))
        y = rng.integers(0, 3, size=40)
        config = TrainConfig(epochs=3, learning_rate=1e-3, batch_size=16)

        def run():
            build_rng = np.random.default_rng(21)
            net = build_network("cnn2", 16, rng=build_rng)
            history = train_network(net, X, y, config, build_rng)
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
        config = TrainConfig(epochs=200, learning_rate=1e-3, batch_size=64)
        train_network(net, X, y, config, build_rng)
        assert np.array_equal(predict_classes(net, X), y)

    def test_history_length_and_partial_batch(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(10, 8))
        y = rng.integers(0, 3, size=10)
        net = build_network("vanilla", 8, rng=np.random.default_rng(17))
        before = {k: v.copy() for k, v in net.params().items()}
        config = TrainConfig(epochs=2, learning_rate=1e-3, batch_size=64)
        history = train_network(net, X, y, config, np.random.default_rng(18))
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
        config = TrainConfig(epochs=20, learning_rate=1e10, batch_size=10,
                             optimizer="sgd")
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="non-finite"):
            train_network(net, X, y, config, np.random.default_rng(20))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)


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
        with pytest.raises(DataError):
            load_network_params(path)

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(23)
        net = Network([Dense(4, 3, rng)])
        path = tmp_path / "net.params"
        save_network(net, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(DataError):
            load_network_params(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        rng = np.random.default_rng(24)
        net = Network([Dense(4, 3, rng)])
        path = tmp_path / "net.params"
        save_network(net, path)
        path.write_bytes(path.read_bytes() + b"JUNK")
        with pytest.raises(DataError):
            load_network_params(path)
