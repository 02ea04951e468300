"""Small feed-forward networks with hand-written backpropagation.

Everything is float64 numpy, batch-first. Layers cache what their backward
pass needs during forward; backward() must follow a forward() on the same
batch. Every sequence layer takes and returns (batch, length, channels): an
input row of n features enters as (batch, n, 1). Conv1d is a valid, stride-1
cross-correlation computed as one matmul of its im2col columns. MaxPool1d
takes non-overlapping windows by reshaping the length axis. Flatten emits
channel-major rows, so the first Dense layer's weights keep one row order.
Dropout is inverted, active only when forward() is called with train=True and
an rng to draw masks from.

A Network owns the weights of every layer it holds, those inside Parallel
branches too: one parameter vector, theta, and one gradient vector, grad. A
weighted layer only names its weights in PARAMS; each weight `w` is a
reshaped view into theta and its gradient `dw` one into grad, which backward
overwrites in place. An optimizer step on theta therefore moves every layer,
and params()/grads() key the same views for parameter files.

Architectures are built by name through build_network(); see ARCHITECTURES.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
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

    def forward(self, x: np.ndarray, *, train: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        raise NotImplementedError

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Dense(Layer):
    PARAMS = ("w", "b")

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.w = kaiming_uniform((n_in, n_out), n_in, rng)
        self.b = np.zeros(n_out)
        self._x = None

    def forward(self, x, *, train=False, rng=None):
        self._x = x
        return x @ self.w + self.b

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

    @staticmethod
    def check_kernel(kernel: int) -> None:
        if kernel < 1:
            raise ValueError("kernel must be >= 1")

    def out_length(self, length: int) -> int:
        if length < self.kernel:
            raise DataError(f"input length {length} shorter than kernel {self.kernel}")
        return length - self.kernel + 1

    def _columns(self, x: np.ndarray) -> np.ndarray:
        """im2col of x: row (i, l) holds window l of row i, channel by channel.
        Forward and backward each build it, so no layer keeps the copy, which
        is kernel times the size of its input."""
        n_out = self.out_length(x.shape[1])
        windows = [x[:, offset : offset + n_out] for offset in range(self.kernel)]
        return np.stack(windows, axis=3).reshape(-1, x.shape[2] * self.kernel)

    def forward(self, x, *, train=False, rng=None):
        self._x = x
        out = self._columns(x) @ self.w.reshape(self.c_out, -1).T + self.b
        return out.reshape(x.shape[0], -1, self.c_out)

    def backward(self, d_out):
        batch, n_out, _ = d_out.shape
        d_rows = d_out.reshape(batch * n_out, self.c_out)
        self.db[...] = d_rows.sum(axis=0)
        np.matmul(d_rows.T, self._columns(self._x), out=self.dw.reshape(self.c_out, -1))
        d_cols = (d_rows @ self.w.reshape(self.c_out, -1)).reshape(batch, n_out, -1, self.kernel)
        dx = np.zeros(self._x.shape)
        # offsets run last to first, so every input position sums its
        # windows' terms in window order
        for offset in reversed(range(self.kernel)):
            dx[:, offset : offset + n_out] += d_cols[..., offset]
        return dx


class Relu(Layer):
    def __init__(self):
        self._mask = None

    def forward(self, x, *, train=False, rng=None):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, d_out):
        return np.where(self._mask, d_out, 0.0)


class MaxPool1d(Layer):
    """Max over non-overlapping windows of the length axis; a tail shorter
    than one window is dropped. The gradient goes to each window's first
    maximum, or to its first NaN, the position np.argmax picks."""

    def __init__(self, window: int):
        self.window = window
        self._shape = None
        self._first = None

    def out_length(self, length: int) -> int:
        if length < self.window:
            raise DataError(f"input length {length} shorter than pool window {self.window}")
        return length // self.window

    def _split(self, x: np.ndarray) -> np.ndarray:
        """(batch, n_out, window, channels) view of x's whole windows;
        splitting the length axis needs no copy."""
        n_out = self.out_length(x.shape[1])
        return x[:, : n_out * self.window].reshape(x.shape[0], n_out, self.window, -1)

    def forward(self, x, *, train=False, rng=None):
        windows = self._split(x)
        out = windows[:, :, 0]
        for offset in range(1, self.window):
            out = np.maximum(out, windows[:, :, offset])
        # `first` counts the taps before each window's gradient tap: those
        # that are numbers other than the window's maximum
        first = np.zeros(out.shape, dtype=np.intp)
        before = np.ones(out.shape, dtype=bool)
        for offset in range(self.window - 1):
            tap = windows[:, :, offset]
            before &= (tap != out) & (tap == tap)
            first += before
        self._shape, self._first = x.shape, first
        return out

    def backward(self, d_out):
        dx = np.zeros(self._shape)
        # + 0.0 stores what a sum into zeros would: a -0.0 gradient lands as 0.0
        np.put_along_axis(self._split(dx), self._first[:, :, None], d_out[:, :, None] + 0.0, axis=2)
        return dx


class Flatten(Layer):
    """(batch, length, channels) -> (batch, channels * length), channel-major."""

    def __init__(self):
        self._shape = None

    def forward(self, x, *, train=False, rng=None):
        self._shape = x.shape
        return x.transpose(0, 2, 1).reshape(x.shape[0], -1)

    def backward(self, d_out):
        batch, length, channels = self._shape
        return d_out.reshape(batch, channels, length).transpose(0, 2, 1)


class AsSequence(Layer):
    """(batch, features) -> (batch, features, 1): one channel, one feature per
    position, the input of every conv and recurrent stem."""

    def forward(self, x, *, train=False, rng=None):
        return x[:, :, None]

    def backward(self, d_out):
        return d_out[:, :, 0]


AsChannels = AsSequence  # a public name that bench/spans.py traces


class Dropout(Layer):
    """Inverted dropout; identity outside training."""

    def __init__(self, rate: float):
        self.check_rate(rate)
        self.rate = rate
        self._scale_mask = None

    @staticmethod
    def check_rate(rate: float) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")

    def forward(self, x, *, train=False, rng=None):
        if not train or self.rate == 0.0:
            self._scale_mask = None
            return x
        if rng is None:
            raise ValueError("training forward through Dropout needs an rng")
        keep = rng.random(x.shape) >= self.rate
        self._scale_mask = keep / (1.0 - self.rate)
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

    def forward(self, x, *, train=False, rng=None):
        batch, steps, _ = x.shape
        h = np.zeros((batch, steps, self.b.size))
        prev = np.zeros((batch, self.b.size))
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
        carry = np.zeros((batch, self.b.size))
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

    def forward(self, x, *, train=False, rng=None):
        self._shape = x.shape
        return x[:, -1]

    def backward(self, d_out):
        dx = np.zeros(self._shape)
        dx[:, -1] = d_out
        return dx


def _forward(layers: list[Layer], x, train, rng):
    for layer in layers:
        x = layer.forward(x, train=train, rng=rng)
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
    Network stores its weights there from then on.
    """

    def __init__(self, layers: list[Layer]):
        self.layers = list(layers)
        slots = [(layer, name, getattr(layer, name)) for _, layer, name in _slots(self.layers)]
        self.theta = np.concatenate([np.zeros(0)] + [value.ravel() for *_, value in slots])
        self.grad = np.zeros_like(self.theta)
        end = 0
        for layer, name, value in slots:
            start, end = end, end + value.size
            setattr(layer, name, self.theta[start:end].reshape(value.shape))
            setattr(layer, "d" + name, self.grad[start:end].reshape(value.shape))

    def forward(self, x, *, train=False, rng=None):
        return _forward(self.layers, x, train, rng)

    def backward(self, d_out):
        return _backward(self.layers, d_out)

    def params(self) -> dict[str, np.ndarray]:
        """Every weight by key, as a view into theta."""
        return {key: getattr(layer, name) for key, layer, name in _slots(self.layers)}

    def grads(self) -> dict[str, np.ndarray]:
        """Every gradient by its weight's key, as a view into grad."""
        return {key: getattr(layer, "d" + name) for key, layer, name in _slots(self.layers)}

    def count_params(self) -> int:
        return self.theta.size

    def load_params(self, values: dict[str, np.ndarray]) -> None:
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

    def forward(self, x, *, train=False, rng=None):
        outs = [_forward(branch, x, train, rng) for branch in self.branches]
        self._shapes = [o.shape for o in outs]
        keep = min(shape[1] for shape in self._shapes)
        return np.concatenate([o[:, :keep] for o in outs], axis=2)

    def backward(self, d_out):
        keep = d_out.shape[1]
        dx = None
        offset = 0
        for branch, shape in zip(self.branches, self._shapes):
            d_branch = np.zeros(shape)
            d_branch[:, :keep] = d_out[:, :, offset : offset + shape[2]]
            offset += shape[2]
            piece = _backward(branch, d_branch)
            dx = piece if dx is None else dx + piece
        return dx


# ---------------------------------------------------------------------------
# loss


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient w.r.t. the logits.

    Computed through log-sum-exp so large logits cannot overflow.
    """
    batch = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    loss = float((log_z - shifted[np.arange(batch), labels]).mean())
    d_logits = softmax(logits)
    d_logits[np.arange(batch), labels] -= 1.0
    return loss, d_logits / batch


# ---------------------------------------------------------------------------
# architectures


ARCHITECTURES = ("vanilla", "cnn2", "cnn2_wide", "cnn2_multibranch",
                 "rnn_simple", "rnn_deep")

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


def _stem_width(arch: str, n_features: int, stem: list[Layer]) -> int:
    """Width of the stem's flattened output, found by passing one zero row
    through it, so each layer's out_length stays the only length rule."""
    try:
        return _forward(stem, np.zeros((1, n_features)), False, None).size
    except DataError as exc:
        raise DataError(f"{arch}: input of {n_features} features is too short: {exc}") from None


def check_architecture(arch: str) -> None:
    if arch not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch!r}; expected one of {ARCHITECTURES}")


def build_network(arch: str, n_features: int, *, rng: np.random.Generator,
                  kernel_size: int | None = None,
                  dropout: float = DEFAULT_DROPOUT) -> Network:
    """Construct a named architecture for rows of n_features values.

    kernel_size applies to vanilla (default 2) and the cnn2 family (default
    4); dropout applies to every architecture that has dropout layers. A
    conv architecture's stem (convolutions and pooling) is built first; its
    flattened width, found by a zero-row pass, sizes the dense head. Rows too
    short for the stem raise DataError naming the architecture.
    """
    check_architecture(arch)

    if arch in ("rnn_simple", "rnn_deep"):
        depth = 1 if arch == "rnn_simple" else 4
        layers = [AsSequence()]
        n_in = 1
        for _ in range(depth):
            layers.append(RecurrentTanh(n_in, RNN_HIDDEN, rng))
            n_in = RNN_HIDDEN
        layers += [LastStep(), Dense(RNN_HIDDEN, 3, rng)]
        return Network(layers)

    if arch == "vanilla":
        k = 2 if kernel_size is None else kernel_size
        stem = [AsSequence(),
                Conv1d(1, 8, k, rng), Relu(),
                Conv1d(8, 16, k, rng), Relu(),
                MaxPool1d(2)]
        dropout = 0.0  # the vanilla head has no dropout layers
    elif arch == "cnn2_multibranch":
        branches = [[Conv1d(1, 8, k, rng), Relu(), Conv1d(8, 16, k, rng), Relu()]
                    for k in (3, 5)]
        stem = [AsSequence(), Parallel(branches), MaxPool1d(2)]
    else:
        k = 4 if kernel_size is None else kernel_size
        stem = [AsSequence(),
                Conv1d(1, 8, k, rng), Relu(),
                Conv1d(8, 16, k, rng), Relu(),
                Conv1d(16, 32, k, rng), Relu(),
                MaxPool1d(2)]
    head = _conv_head(_stem_width(arch, n_features, stem), rng, dropout=dropout,
                      wide=(arch == "cnn2_wide"))
    return Network(stem + head)


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    learning_rate: float = 1e-4
    batch_size: int = 64
    optimizer: str = "adam"

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        make_optimizer(self.optimizer, self.learning_rate)  # an unknown name fails here


def train_network(net: Network, features: np.ndarray, labels: np.ndarray,
                  config: TrainConfig, rng: np.random.Generator) -> list[float]:
    """Mini-batch training; returns the mean training loss per epoch.

    Rows are reshuffled every epoch; a short final batch is still trained.
    A non-finite loss aborts with NumericError rather than training on.
    """
    optimizer = make_optimizer(config.optimizer, config.learning_rate)
    params, grads = {"theta": net.theta}, {"theta": net.grad}
    n = features.shape[0]
    history = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total, seen = 0.0, 0
        for start in range(0, n, config.batch_size):
            take = order[start : start + config.batch_size]
            logits = net.forward(features[take], train=True, rng=rng)
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


def predict_logits(net: Network, features: np.ndarray, batch_size: int = 512) -> np.ndarray:
    pieces = [net.forward(features[s : s + batch_size])
              for s in range(0, features.shape[0], batch_size)]
    return np.vstack(pieces)


def predict_classes(net: Network, features: np.ndarray, batch_size: int = 512) -> np.ndarray:
    """Argmax class per row; logit ties resolve to the lower class id."""
    return predict_logits(net, features, batch_size).argmax(axis=1)


# ---------------------------------------------------------------------------
# parameter serialization

_MAGIC = b"RLNN1"


def save_network(net: Network, path) -> None:
    """Write all parameters as little-endian float64 with shape headers."""
    params = net.params()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(params)))
        for key in sorted(params):
            arr = params[key]
            raw = key.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_network_params(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(_MAGIC)] != _MAGIC:
        raise DataError(f"{path}: not a network state file (bad magic)")
    view = memoryview(blob)[len(_MAGIC):]

    def take(n: int) -> memoryview:
        nonlocal view
        if len(view) < n:
            raise DataError(f"{path}: truncated network state file")
        chunk, view = view[:n], view[n:]
        return chunk

    (count,) = struct.unpack("<I", take(4))
    out = {}
    for _ in range(count):
        (key_len,) = struct.unpack("<H", take(2))
        try:
            key = bytes(take(key_len)).decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: parameter key is not UTF-8") from None
        if key in out:
            raise DataError(f"{path}: parameter {key} stored twice")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        size = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(take(8 * size), dtype="<f8").reshape(shape).astype(np.float64)
        out[key] = arr
    if len(view):
        raise DataError(f"{path}: trailing bytes after network state")
    return out
