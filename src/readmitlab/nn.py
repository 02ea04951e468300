"""Small feed-forward networks with hand-written backpropagation.

Everything is float64 numpy, batch-first. Layers cache what their backward
pass needs during forward; backward() must follow a forward() on the same
batch. Convolutions are valid-only (no padding). Conv1d and MaxPool1d both
read one sliding-window view of their input, (batch, channels, windows,
taps): the convolution is a tensordot of that view with its weights, pooling
a max over its last axis. Dropout is inverted, active only when forward() is
called with train=True and an rng to draw masks from.

Architectures are built by name through build_network(); see ARCHITECTURES.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, NumericError
from .optim import make_optimizer

# ---------------------------------------------------------------------------
# initialization


def kaiming_uniform(shape: tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# layers


def _window_view(x: np.ndarray, width: int, stride: int) -> np.ndarray:
    """(batch, channels, n_out, width) view of x's windows along its length
    axis; window l starts at position stride * l."""
    return sliding_window_view(x, width, axis=2)[:, :, ::stride]


def _add_window_grads(d_windows: np.ndarray, shape: tuple[int, ...], stride: int) -> np.ndarray:
    """The adjoint of _window_view: each window's gradient summed back into an
    input of `shape`, one strided slice-add per window offset. Offsets run
    last to first, so every input position sums its windows' terms in
    window order."""
    dx = np.zeros(shape)
    n_out, width = d_windows.shape[2:]
    span = stride * (n_out - 1) + 1
    for offset in reversed(range(width)):
        dx[:, :, offset : offset + span : stride] += d_windows[:, :, :, offset]
    return dx


class Layer:
    """Forward/backward protocol. Subclasses with weights override params/grads."""

    def forward(self, x: np.ndarray, *, train: bool = False,
                rng: np.random.Generator | None = None) -> np.ndarray:
        raise NotImplementedError

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def grads(self) -> dict[str, np.ndarray]:
        return {}


class Dense(Layer):
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.w = kaiming_uniform((n_in, n_out), n_in, rng)
        self.b = np.zeros(n_out)
        self._x = None
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)

    def forward(self, x, *, train=False, rng=None):
        self._x = x
        return x @ self.w + self.b

    def backward(self, d_out):
        self.dw = self._x.T @ d_out
        self.db = d_out.sum(axis=0)
        return d_out @ self.w.T

    def params(self):
        return {"w": self.w, "b": self.b}

    def grads(self):
        return {"w": self.dw, "b": self.db}


class Conv1d(Layer):
    """Valid cross-correlation over (batch, channels, length) inputs."""

    def __init__(self, c_in: int, c_out: int, kernel: int, rng: np.random.Generator,
                 stride: int = 1):
        if kernel < 1 or stride < 1:
            raise ValueError("kernel and stride must be >= 1")
        self.c_in, self.c_out, self.kernel, self.stride = c_in, c_out, kernel, stride
        self.w = kaiming_uniform((c_out, c_in, kernel), c_in * kernel, rng)
        self.b = np.zeros(c_out)
        self._x = None
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)

    def out_length(self, length: int) -> int:
        if length < self.kernel:
            raise DataError(f"input length {length} shorter than kernel {self.kernel}")
        return (length - self.kernel) // self.stride + 1

    def forward(self, x, *, train=False, rng=None):
        self.out_length(x.shape[2])
        self._x = x
        out = np.tensordot(_window_view(x, self.kernel, self.stride), self.w, axes=([1, 3], [1, 2]))
        return out.transpose(0, 2, 1) + self.b[:, None]

    def backward(self, d_out):
        x = self._x
        self.db = d_out.sum(axis=(0, 2))
        self.dw = np.tensordot(d_out, _window_view(x, self.kernel, self.stride),
                               axes=([0, 2], [0, 2]))
        d_windows = np.tensordot(d_out, self.w, axes=([1], [0])).transpose(0, 2, 1, 3)
        return _add_window_grads(d_windows, x.shape, self.stride)

    def params(self):
        return {"w": self.w, "b": self.b}

    def grads(self):
        return {"w": self.dw, "b": self.db}


class Relu(Layer):
    def __init__(self):
        self._mask = None

    def forward(self, x, *, train=False, rng=None):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, d_out):
        return np.where(self._mask, d_out, 0.0)


class MaxPool1d(Layer):
    """Valid max pooling over the length axis; ties keep the first position."""

    def __init__(self, window: int, stride: int | None = None):
        self.window = window
        self.stride = window if stride is None else stride
        self._shape = None
        self._argmax = None

    def out_length(self, length: int) -> int:
        if length < self.window:
            raise DataError(f"input length {length} shorter than pool window {self.window}")
        return (length - self.window) // self.stride + 1

    def forward(self, x, *, train=False, rng=None):
        self.out_length(x.shape[2])
        windows = _window_view(x, self.window, self.stride)
        self._shape = x.shape
        self._argmax = windows.argmax(axis=3)
        # the same values as windows.max(axis=3), which reduces the view's
        # short, strided last axis element by element and is many times slower
        return functools.reduce(np.maximum, np.moveaxis(windows, 3, 0))

    def backward(self, d_out):
        taps = np.arange(self.window)
        d_windows = np.where(self._argmax[..., None] == taps, d_out[..., None], 0.0)
        return _add_window_grads(d_windows, self._shape, self.stride)


class Flatten(Layer):
    def __init__(self):
        self._shape = None

    def forward(self, x, *, train=False, rng=None):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, d_out):
        return d_out.reshape(self._shape)


class AsChannels(Layer):
    """(batch, features) -> (batch, 1, features) so conv layers can consume rows."""

    def forward(self, x, *, train=False, rng=None):
        return x[:, None, :]

    def backward(self, d_out):
        return d_out[:, 0, :]


class AsSequence(Layer):
    """(batch, features) -> (batch, features, 1): one scalar per time step."""

    def forward(self, x, *, train=False, rng=None):
        return x[:, :, None]

    def backward(self, d_out):
        return d_out[:, :, 0]


class Dropout(Layer):
    """Inverted dropout; identity outside training."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self._scale_mask = None

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

    def __init__(self, n_in: int, n_hidden: int, rng: np.random.Generator):
        self.wx = kaiming_uniform((n_in, n_hidden), n_in, rng)
        self.wh = kaiming_uniform((n_hidden, n_hidden), n_hidden, rng)
        self.b = np.zeros(n_hidden)
        self._x = None
        self._h = None
        self.dwx = np.zeros_like(self.wx)
        self.dwh = np.zeros_like(self.wh)
        self.db = np.zeros_like(self.b)

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
        self.dwx = np.zeros_like(self.wx)
        self.dwh = np.zeros_like(self.wh)
        self.db = np.zeros_like(self.b)
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

    def params(self):
        return {"wx": self.wx, "wh": self.wh, "b": self.b}

    def grads(self):
        return {"wx": self.dwx, "wh": self.dwh, "b": self.db}


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


def _prefixed(prefix: str, parts: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Merge per-part dicts, keying part i's entry `name` as '{prefix}{i}.{name}'."""
    return {f"{prefix}{i}.{name}": value
            for i, part in enumerate(parts) for name, value in part.items()}


class Network(Layer):
    """Sequential stack; parameter keys are 'l{i}.{name}' per owning layer."""

    def __init__(self, layers: list[Layer]):
        self.layers = list(layers)

    def forward(self, x, *, train=False, rng=None):
        for layer in self.layers:
            x = layer.forward(x, train=train, rng=rng)
        return x

    def backward(self, d_out):
        for layer in reversed(self.layers):
            d_out = layer.backward(d_out)
        return d_out

    def params(self):
        return _prefixed("l", [layer.params() for layer in self.layers])

    def grads(self):
        return _prefixed("l", [layer.grads() for layer in self.layers])

    def count_params(self) -> int:
        return sum(v.size for v in self.params().values())

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
    """Run branches on the same input and concatenate their channel axes.

    Branch outputs may differ in length (different kernel sizes); all are
    truncated to the shortest before concatenation, and the backward pass
    routes zero gradient into the truncated tail.
    """

    def __init__(self, branches: list[Network]):
        self.branches = list(branches)
        self._lengths = None
        self._channels = None

    def forward(self, x, *, train=False, rng=None):
        outs = [branch.forward(x, train=train, rng=rng) for branch in self.branches]
        self._lengths = [o.shape[2] for o in outs]
        self._channels = [o.shape[1] for o in outs]
        keep = min(self._lengths)
        return np.concatenate([o[:, :, :keep] for o in outs], axis=1)

    def backward(self, d_out):
        keep = d_out.shape[2]
        dx = None
        offset = 0
        for branch, c, length in zip(self.branches, self._channels, self._lengths):
            d_branch = np.zeros((d_out.shape[0], c, length))
            d_branch[:, :, :keep] = d_out[:, offset : offset + c]
            offset += c
            piece = branch.backward(d_branch)
            dx = piece if dx is None else dx + piece
        return dx

    def params(self):
        return _prefixed("b", [branch.params() for branch in self.branches])

    def grads(self):
        return _prefixed("b", [branch.grads() for branch in self.branches])


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
        return Network(stem).forward(np.zeros((1, n_features))).size
    except DataError as exc:
        raise DataError(f"{arch}: input of {n_features} features is too short: {exc}") from None


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
    if arch not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch!r}; expected one of {ARCHITECTURES}")

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
        stem = [AsChannels(),
                Conv1d(1, 8, k, rng), Relu(),
                Conv1d(8, 16, k, rng), Relu(),
                MaxPool1d(2)]
        dropout = 0.0  # the vanilla head has no dropout layers
    elif arch == "cnn2_multibranch":
        branches = [Network([Conv1d(1, 8, k, rng), Relu(), Conv1d(8, 16, k, rng), Relu()])
                    for k in (3, 5)]
        stem = [AsChannels(), Parallel(branches), MaxPool1d(2)]
    else:
        k = 4 if kernel_size is None else kernel_size
        stem = [AsChannels(),
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


def train_network(net: Network, features: np.ndarray, labels: np.ndarray,
                  config: TrainConfig, rng: np.random.Generator) -> list[float]:
    """Mini-batch training; returns the mean training loss per epoch.

    Rows are reshuffled every epoch; a short final batch is still trained.
    A non-finite loss aborts with NumericError rather than training on.
    """
    optimizer = make_optimizer(config.optimizer, config.learning_rate)
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
            optimizer.step(net.params(), net.grads())
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
        key = bytes(take(key_len)).decode("utf-8")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        size = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(take(8 * size), dtype="<f8").reshape(shape).astype(np.float64)
        out[key] = arr
    if len(view):
        raise DataError(f"{path}: trailing bytes after network state")
    return out
