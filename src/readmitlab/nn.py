"""Small feed-forward networks with hand-written backpropagation.

Everything is numpy, batch-first, in one float dtype per network: that of
its parameter vector, float64 unless build_network is asked for another.
Every layer computes in its input's dtype, so a float32 network stays
float32 from its input to its gradient, and float64 is the reference path of
the gradient checks. forward(x, rng) is a training forward when given an rng
and a prediction without one. Layers cache what their backward pass needs
during forward; backward() must follow a forward() on the same batch. Every
sequence layer takes and returns (batch, length, channels): an input row of
n features enters as (batch, n, 1). Conv1d is a valid, stride-1
cross-correlation computed as one matmul of its im2col columns, which every
forward keeps for backward. MaxPool1d takes non-overlapping windows by
reshaping the length axis. Flatten emits channel-major rows, so the first
Dense layer's weights keep one row order. Dropout is inverted and draws its
masks from the rng of a training forward.

A Network owns the weights of every layer it holds, those inside Parallel
branches too: one parameter vector, theta, and one gradient vector, grad. A
weighted layer only names its weights in PARAMS; each weight `w` is a
reshaped view into theta and its gradient `dw` one into grad, which backward
overwrites in place. An optimizer step on theta therefore moves every layer,
and params()/grads() key the same views. A parameter file is NumPy's own .npy
format holding one 0-d record, one float64 field per weight key
(save_network, load_network_params).

Architectures are built by name through build_network(); see ARCHITECTURES.
"""

from __future__ import annotations

import numpy as np

from .errors import UNREADABLE, DataError, NumericError, check_choice, check_count, is_real
from .optim import make_optimizer

# ---------------------------------------------------------------------------
# initialization


def kaiming_uniform(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# layers


class Layer:
    """Forward/backward protocol. A layer with weights names them in PARAMS;
    the Network holding it stores weight `w` and its gradient `dw`."""

    PARAMS: tuple[str, ...] = ()

    def forward(self, x: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
        raise NotImplementedError

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Dense(Layer):
    PARAMS = ("w", "b")

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.w = kaiming_uniform((n_in, n_out), n_in, rng)
        self.b = np.zeros(n_out)
        self._x = None

    def forward(self, x, rng=None):
        self._x = x
        out = x @ self.w
        out += self.b
        return out

    def backward(self, d_out):
        np.matmul(self._x.T, d_out, out=self.dw)
        self.db[...] = d_out.sum(axis=0)
        return d_out @ self.w.T


class Conv1d(Layer):
    """Valid stride-1 cross-correlation over (batch, length, channels) inputs.

    Weights are (c_out, c_in, kernel). Forward is one matmul of the im2col
    columns, (batch * n_out, c_in * kernel), with the weights flattened to
    (c_in * kernel, c_out).
    """

    PARAMS = ("w", "b")

    def __init__(self, c_in: int, c_out: int, kernel: int, rng: np.random.Generator):
        self.check_kernel(kernel)
        self.c_out, self.kernel = c_out, kernel
        self.w = kaiming_uniform((c_out, c_in, kernel), c_in * kernel, rng)
        self.b = np.zeros(c_out)
        self._x = None
        self._cols = None

    @staticmethod
    def check_kernel(kernel: int) -> None:
        check_count("kernel", kernel, 1)

    def out_length(self, length: int) -> int:
        return self.valid_length(length, self.kernel)

    @staticmethod
    def valid_length(length: int, kernel: int) -> int:
        """The output length of a width-`kernel` convolution over `length`
        positions; an input shorter than the kernel is a DataError."""
        if length < kernel:
            raise DataError(f"input length {length} shorter than kernel {kernel}")
        return length - kernel + 1

    def _columns(self, x: np.ndarray) -> np.ndarray:
        """im2col of x: row (i, l) holds window l of row i, channel by channel.
        Every forward keeps it for backward until the next forward."""
        n_out = self.out_length(x.shape[1])
        windows = [x[:, offset : offset + n_out] for offset in range(self.kernel)]
        return np.stack(windows, axis=3).reshape(-1, x.shape[2] * self.kernel)

    def forward(self, x, rng=None):
        self._x, self._cols = x, self._columns(x)
        out = self._cols @ self.w.reshape(self.c_out, -1).T
        out += self.b
        return out.reshape(x.shape[0], -1, self.c_out)

    def backward(self, d_out):
        batch, n_out, _ = d_out.shape
        d_rows = d_out.reshape(batch * n_out, self.c_out)
        # adds the rows in order, as d_rows.sum(axis=0) does for two or more
        # channels, without its per-row overhead on the batch * n_out rows
        np.einsum("ij->j", d_rows, out=self.db)
        np.matmul(d_rows.T, self._cols, out=self.dw.reshape(self.c_out, -1))
        d_cols = (d_rows @ self.w.reshape(self.c_out, -1)).reshape(batch, n_out, -1, self.kernel)
        dx = np.zeros(self._x.shape, dtype=d_cols.dtype)
        # offsets run last to first, so every input position sums its
        # windows' terms in window order
        for offset in reversed(range(self.kernel)):
            dx[:, offset : offset + n_out] += d_cols[..., offset]
        return dx


def _keep_bits(condition: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """-1 where condition holds, else 0, as the signed integer as wide as the
    float `dtype` (int64 for float64, int32 for float32). ANDed with an array
    of that dtype's bits it gives np.where(condition, values, 0.0)'s bytes
    without a branch: a value's own bits (a NaN's payload, a zero's sign) or
    +0.0."""
    return np.subtract(0, condition, dtype=f"i{np.dtype(dtype).itemsize}")


def _and_bits(values: np.ndarray, keep: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the float `values` into `out` with only the bits `keep` sets."""
    np.bitwise_and(values.view(keep.dtype), keep, out=out.view(keep.dtype))
    return out


class Relu(Layer):
    def __init__(self):
        self._keep = None

    def forward(self, x, rng=None):
        self._keep = _keep_bits(x > 0, x.dtype)
        return _and_bits(x, self._keep, np.empty(x.shape, dtype=x.dtype))

    def backward(self, d_out):
        return _and_bits(d_out, self._keep, np.empty(d_out.shape, dtype=d_out.dtype))


class MaxPool1d(Layer):
    """Max over non-overlapping windows of the length axis; a tail shorter
    than one window is dropped. The gradient goes to each window's first
    maximum, or to its first NaN, the position np.argmax picks."""

    def __init__(self, window: int):
        self.window = window
        self._x = None
        self._out = None

    def out_length(self, length: int) -> int:
        if length < self.window:
            raise DataError(f"input length {length} shorter than pool window {self.window}")
        return length // self.window

    def _split(self, x: np.ndarray) -> np.ndarray:
        """(batch, n_out, window, channels) view of x's whole windows;
        splitting the length axis needs no copy."""
        n_out = self.out_length(x.shape[1])
        return x[:, : n_out * self.window].reshape(x.shape[0], n_out, self.window, -1)

    def forward(self, x, rng=None):
        windows = self._split(x)
        out = windows[:, :, 0]
        for offset in range(1, self.window):
            out = np.maximum(out, windows[:, :, offset])
        self._x, self._out = x, out
        return out

    def backward(self, d_out):
        windows, out = self._split(self._x), self._out
        dx = np.zeros(self._x.shape, dtype=d_out.dtype)
        dx_windows = self._split(dx)
        # the gradient no tap has taken yet; + 0.0 stores what a sum into
        # zeros would, so a -0.0 gradient lands as 0.0
        rest = d_out + 0.0
        rest_bits = rest.view(f"i{rest.itemsize}")
        for offset in range(self.window - 1):
            # a tap equal to the maximum, or NaN, takes what is left: only the
            # window's first such tap finds any, as taking leaves +0.0 bits
            tap = windows[:, :, offset]
            taken = _and_bits(rest, _keep_bits((tap == out) | (tap != tap), dx.dtype),
                              out=dx_windows[:, :, offset])
            np.bitwise_xor(rest_bits, taken.view(rest_bits.dtype), out=rest_bits)
        dx_windows[:, :, -1] = rest
        return dx


class Flatten(Layer):
    """(batch, length, channels) -> (batch, channels * length), channel-major."""

    def __init__(self):
        self._shape = None

    def forward(self, x, rng=None):
        self._shape = x.shape
        return x.transpose(0, 2, 1).reshape(x.shape[0], -1)

    def backward(self, d_out):
        batch, length, channels = self._shape
        return d_out.reshape(batch, channels, length).transpose(0, 2, 1)


class AsSequence(Layer):
    """(batch, features) -> (batch, features, 1): one channel, one feature per
    position, the input of every conv and recurrent stem."""

    def forward(self, x, rng=None):
        return x[:, :, None]

    def backward(self, d_out):
        return d_out[:, :, 0]


AsChannels = AsSequence  # a public name that bench/spans.py traces


class Dropout(Layer):
    """Inverted dropout; the identity in a forward without an rng."""

    def __init__(self, rate: float):
        self.check_rate(rate)
        self.rate = rate
        self._scale_mask = None

    @staticmethod
    def check_rate(rate: float) -> None:
        if not (is_real(rate) and 0.0 <= rate < 1.0):
            raise ValueError("dropout rate must be in [0, 1)")

    def forward(self, x, rng=None):
        if rng is None or self.rate == 0.0:
            self._scale_mask = None
            return x
        keep = rng.random(x.shape) >= self.rate
        self._scale_mask = np.divide(keep, 1.0 - self.rate, dtype=x.dtype)
        return x * self._scale_mask

    def backward(self, d_out):
        if self._scale_mask is None:
            return d_out
        return d_out * self._scale_mask


class RecurrentTanh(Layer):
    """Single tanh recurrence over (batch, time, features); emits all hiddens.

    h_t = tanh(x_t Wx + h_{t-1} Wh + b), h_0 = 0. Backward runs full
    backpropagation through time.
    """

    PARAMS = ("wx", "wh", "b")

    def __init__(self, n_in: int, n_hidden: int, rng: np.random.Generator):
        self.wx = kaiming_uniform((n_in, n_hidden), n_in, rng)
        self.wh = kaiming_uniform((n_hidden, n_hidden), n_hidden, rng)
        self.b = np.zeros(n_hidden)
        self._x = None
        self._h = None

    def forward(self, x, rng=None):
        batch, steps, _ = x.shape
        h = np.zeros((batch, steps, self.b.size), dtype=x.dtype)
        prev = np.zeros((batch, self.b.size), dtype=x.dtype)
        for t in range(steps):
            prev = np.tanh(x[:, t] @ self.wx + prev @ self.wh + self.b)
            h[:, t] = prev
        self._x, self._h = x, h
        return h

    def backward(self, d_out):
        x, h = self._x, self._h
        batch, steps, _ = x.shape
        for grad in (self.dwx, self.dwh, self.db):
            grad[...] = 0.0
        dx = np.empty_like(x)
        carry = np.zeros((batch, self.b.size), dtype=d_out.dtype)
        for t in range(steps - 1, -1, -1):
            da = (d_out[:, t] + carry) * (1.0 - h[:, t] ** 2)
            self.dwx += x[:, t].T @ da
            self.db += da.sum(axis=0)
            if t > 0:
                self.dwh += h[:, t - 1].T @ da
            carry = da @ self.wh.T
            dx[:, t] = da @ self.wx.T
        return dx


class LastStep(Layer):
    """(batch, time, features) -> final time step (batch, features)."""

    def __init__(self):
        self._shape = None

    def forward(self, x, rng=None):
        self._shape = x.shape
        return x[:, -1]

    def backward(self, d_out):
        dx = np.zeros(self._shape, dtype=d_out.dtype)
        dx[:, -1] = d_out
        return dx


def _forward(layers: list[Layer], x, rng=None):
    for layer in layers:
        x = layer.forward(x, rng)
    return x


def _backward(layers: list[Layer], d_out):
    for layer in reversed(layers):
        d_out = layer.backward(d_out)
    return d_out


def _slots(layers: list[Layer], prefix: str = "l"):
    """(key, layer, name) for every weight of a layer list, in theta's order:
    'l{i}.{name}' for layer i, 'l{i}.b{j}.l{k}.{name}' for layer k of branch
    j of a Parallel layer i."""
    for i, layer in enumerate(layers):
        for name in layer.PARAMS:
            yield f"{prefix}{i}.{name}", layer, name
        if isinstance(layer, Parallel):
            for j, branch in enumerate(layer.branches):
                yield from _slots(branch, f"{prefix}{i}.b{j}.l")


class Network:
    """Sequential stack and the owner of its layers' weights.

    theta holds every weight and grad every gradient, in _slots order; the
    layers' weights and gradients are views into them. A layer taken into a
    Network stores its weights there from then on, rounded to `dtype`, the
    dtype the network computes in.
    """

    def __init__(self, layers: list[Layer], dtype=np.float64):
        self.layers = list(layers)
        slots = [(layer, name, getattr(layer, name)) for _, layer, name in _slots(self.layers)]
        self.theta = np.concatenate([np.zeros(0)] + [value.ravel() for *_, value in slots],
                                    dtype=dtype)
        self.grad = np.zeros_like(self.theta)
        end = 0
        for layer, name, value in slots:
            start, end = end, end + value.size
            setattr(layer, name, self.theta[start:end].reshape(value.shape))
            setattr(layer, "d" + name, self.grad[start:end].reshape(value.shape))

    def forward(self, x, rng=None):
        return _forward(self.layers, x, rng)

    def backward(self, d_out):
        return _backward(self.layers, d_out)

    def params(self) -> dict[str, np.ndarray]:
        """Every weight by key, as a view into theta."""
        return {key: getattr(layer, name) for key, layer, name in _slots(self.layers)}

    def grads(self) -> dict[str, np.ndarray]:
        """Every gradient by its weight's key, as a view into grad."""
        return {key: getattr(layer, "d" + name) for key, layer, name in _slots(self.layers)}

    def load_params(self, values: dict[str, np.ndarray]) -> None:
        """Copy every weight in, cast to the network's dtype."""
        current = self.params()
        if set(values) != set(current):
            missing = sorted(set(current) - set(values))
            extra = sorted(set(values) - set(current))
            raise DataError(f"parameter key mismatch: missing {missing}, unexpected {extra}")
        for key, arr in values.items():
            if arr.shape != current[key].shape:
                raise DataError(
                    f"parameter {key}: stored shape {arr.shape} != expected {current[key].shape}"
                )
            current[key][...] = arr


class Parallel(Layer):
    """Run branches, each a list of layers, on the same input and concatenate
    their channel axes.

    Branch outputs may differ in length (different kernel sizes); all are
    truncated to the shortest before concatenation, and the backward pass
    routes zero gradient into the truncated tail.
    """

    def __init__(self, branches: list[list[Layer]]):
        self.branches = [list(branch) for branch in branches]
        self._shapes = None

    def forward(self, x, rng=None):
        outs = [_forward(branch, x, rng) for branch in self.branches]
        self._shapes = [o.shape for o in outs]
        keep = min(shape[1] for shape in self._shapes)
        return np.concatenate([o[:, :keep] for o in outs], axis=2)

    def backward(self, d_out):
        keep = d_out.shape[1]
        dx = None
        offset = 0
        for branch, shape in zip(self.branches, self._shapes):
            d_branch = np.zeros(shape, dtype=d_out.dtype)
            d_branch[:, :keep] = d_out[:, :, offset : offset + shape[2]]
            offset += shape[2]
            piece = _backward(branch, d_branch)
            dx = piece if dx is None else dx + piece
        return dx


# ---------------------------------------------------------------------------
# loss


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise class probabilities of score columns, each row shifted by its
    maximum so that exp cannot overflow."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits.

    Computed through log-sum-exp so large logits cannot overflow; the
    gradient, softmax minus the one-hot labels, reuses the same exponentials.
    """
    batch = logits.shape[0]
    rows = np.arange(batch)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=1)
    loss = float((np.log(z) - shifted[rows, labels]).mean())
    e /= z[:, None]
    e[rows, labels] -= 1.0
    e /= batch
    return loss, e


# ---------------------------------------------------------------------------
# architectures


# each architecture, with the build_network settings it reads: the vanilla
# head has no dropout layers, the multibranch stem fixes its kernel widths (3
# and 5), and the recurrent networks have neither
ARCHITECTURE_SETTINGS = {
    "vanilla": ("kernel_size",), "cnn2": ("kernel_size", "dropout"),
    "cnn2_wide": ("kernel_size", "dropout"), "cnn2_multibranch": ("dropout",),
    "rnn_simple": (), "rnn_deep": ()}
ARCHITECTURES = tuple(ARCHITECTURE_SETTINGS)

DEFAULT_DROPOUT = 0.2
RNN_HIDDEN = 32


def _conv_head(flat: int, rng, *, dropout: float, wide: bool) -> list[Layer]:
    sizes = (2560, 1280) if wide else (128, 64)
    layers: list[Layer] = [Flatten()]
    n_in = flat
    for n_out in sizes:
        layers += [Dense(n_in, n_out, rng), Relu()]
        if dropout > 0.0:
            layers.append(Dropout(dropout))
        n_in = n_out
    layers.append(Dense(n_in, 3, rng))
    return layers


def _convs(channels: tuple[int, ...], kernel: int, rng, length: int) -> list[Layer]:
    """A Conv1d of width `kernel` and a ReLU for each step between
    consecutive channel counts. The first one's length rule is applied to
    its input `length` before any weight is drawn, so a kernel wider than the
    input draws nothing."""
    Conv1d.check_kernel(kernel)
    Conv1d.valid_length(length, kernel)
    return [layer for c_in, c_out in zip(channels, channels[1:])
            for layer in (Conv1d(c_in, c_out, kernel, rng), Relu())]


def build_network(arch: str, n_features: int, *, rng: np.random.Generator,
                  kernel_size: int | None = None,
                  dropout: float = DEFAULT_DROPOUT, dtype=np.float64) -> Network:
    """Construct a named architecture for rows of n_features values.

    kernel_size applies to vanilla (default 2), cnn2 and cnn2_wide (default
    4); dropout to the cnn2 family; ARCHITECTURE_SETTINGS lists them. A
    conv architecture's stem (convolutions and pooling) is built first; its
    flattened width, found by a zero-row pass, sizes the dense head. Rows too
    short for the stem raise DataError naming the architecture. The weights
    are drawn in float64 and rounded to `dtype`, the network's dtype, so
    every dtype draws the same numbers from rng.
    """
    check_choice("architecture", arch, ARCHITECTURES)

    if arch in ("rnn_simple", "rnn_deep"):
        depth = 1 if arch == "rnn_simple" else 4
        layers = [AsSequence()]
        n_in = 1
        for _ in range(depth):
            layers.append(RecurrentTanh(n_in, RNN_HIDDEN, rng))
            n_in = RNN_HIDDEN
        layers += [LastStep(), Dense(RNN_HIDDEN, 3, rng)]
        return Network(layers, dtype)

    kernel = (2 if arch == "vanilla" else 4) if kernel_size is None else kernel_size
    try:
        if arch == "cnn2_multibranch":
            convs: list[Layer] = [Parallel([_convs((1, 8, 16), k, rng, n_features)
                                            for k in (3, 5)])]
        elif arch == "vanilla":
            convs = _convs((1, 8, 16), kernel, rng, n_features)
            dropout = 0.0  # the vanilla head has no dropout layers
        else:
            convs = _convs((1, 8, 16, 32), kernel, rng, n_features)
        stem = [AsSequence(), *convs, MaxPool1d(2)]
        # the head's width, from one zero row through the stem, so each
        # layer's out_length stays the only length rule
        width = _forward(stem, np.zeros((1, n_features))).size
    except DataError as exc:
        raise DataError(f"{arch}: input of {n_features} features is too short: {exc}") from None
    head = _conv_head(width, rng, dropout=dropout, wide=(arch == "cnn2_wide"))
    return Network(stem + head, dtype)


# ---------------------------------------------------------------------------
# training


def _in_dtype(net: Network, features: np.ndarray) -> np.ndarray:
    """features cast to the network's dtype; a value beyond that dtype's
    range, which the cast would turn into inf, is a DataError."""
    with np.errstate(over="ignore"):
        cast = np.asarray(features, dtype=net.theta.dtype)
    if not np.isfinite(cast).all():
        limit = np.finfo(cast.dtype).max
        raise DataError(f"feature values beyond the {cast.dtype} range (|x| <= {limit:.4g}) "
                        "cannot go through the network; scale them (drop --no-normalize)")
    return cast


def train_network(net: Network, features: np.ndarray, labels: np.ndarray,
                  rng: np.random.Generator, *, epochs: int, learning_rate: float,
                  batch_size: int, optimizer: str) -> list[float]:
    """Mini-batch training in the network's dtype; returns the mean training
    loss per epoch.

    The settings are taken as given: models.NetworkClassifier checks them,
    and make_optimizer checks the optimizer's name. Rows are reshuffled every
    epoch; a short final batch is still trained. A non-finite loss aborts
    with NumericError rather than training on.
    """
    features = _in_dtype(net, features)
    optimizer = make_optimizer(optimizer, learning_rate)
    params, grads = {"theta": net.theta}, {"theta": net.grad}
    n = features.shape[0]
    history = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        total, seen = 0.0, 0
        for start in range(0, n, batch_size):
            take = order[start : start + batch_size]
            logits = net.forward(features[take], rng)
            loss, d_logits = softmax_cross_entropy(logits, labels[take])
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite training loss at epoch {epoch + 1}; "
                    "reduce the learning rate"
                )
            net.backward(d_logits)
            optimizer.step(params, grads)
            total += loss * take.size
            seen += take.size
        history.append(total / seen)
    return history


# Rows per inference forward, and part of the byte contract rather than a
# speed knob: the float32 logits of cnn2, cnn2_wide and cnn2_multibranch
# change with the chunk size, and so do the labels and reports drawn from them.
PREDICT_BATCH = 512


def predict_logits(net: Network, features: np.ndarray) -> np.ndarray:
    """Inference logits, computed in the network's dtype, PREDICT_BATCH rows
    at a time; zero rows give zero rows of the three class logits."""
    features = _in_dtype(net, features)
    pieces = [net.forward(features[s : s + PREDICT_BATCH])
              for s in range(0, features.shape[0], PREDICT_BATCH)]
    return np.vstack(pieces) if pieces else np.zeros((0, 3), net.theta.dtype)


# ---------------------------------------------------------------------------
# parameter serialization

def save_network(net: Network, path) -> None:
    """Write all parameters as one 0-d NumPy record (.npy): one
    little-endian float64 field per weight key, in sorted key order, shaped
    like its weight. A float32 network widens to float64 exactly, and
    load_params rounds back."""
    params = net.params()
    record = np.zeros((), [(key, "<f8", params[key].shape) for key in sorted(params)])
    for key, value in params.items():
        record[key] = value
    with open(path, "wb") as fh:  # a file object, so np.save adds no .npy suffix
        np.save(fh, record, allow_pickle=False)


def load_network_params(path) -> dict[str, np.ndarray]:
    """The float64 weights save_network wrote, by key; anything else at path,
    bytes after the record included, is a DataError."""
    try:
        with open(path, "rb") as fh:
            record = np.load(fh, allow_pickle=False)
            trailing = fh.read(1)
    except UNREADABLE as exc:
        raise DataError(f"{path}: not a network state file ({exc})") from None
    if not isinstance(record, np.ndarray) or record.shape != () or record.dtype.names is None:
        raise DataError(f"{path}: not a network state file (no 0-d record of weights)")
    if trailing:
        raise DataError(f"{path}: trailing bytes after network state")
    out = {}
    for key in record.dtype.names:
        if record.dtype[key].base != np.dtype("<f8"):
            raise DataError(f"{path}: parameter {key} is {record.dtype[key].base}, not float64")
        out[key] = np.array(record[key])
    return out
