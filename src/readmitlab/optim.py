"""Parameter-update rules: plain SGD and two adaptive-moment methods.

Adam and AdaBelief share one update path and differ only in the quantity fed
to the second-moment accumulator: Adam tracks the squared gradient, AdaBelief
tracks the squared deviation of the gradient from its running mean (plus a
small constant folded into the accumulator). Parameters are updated in place,
in their own dtype: the hyperparameters are Python floats, which NumPy never
lets widen a float32 array.
"""

from __future__ import annotations

import numpy as np

from .errors import check_choice

_PARAMS = dict[str, np.ndarray]


class Sgd:
    """w <- w - lr * g."""

    def __init__(self, learning_rate: float):
        self.learning_rate = float(learning_rate)

    def step(self, params: _PARAMS, grads: _PARAMS) -> None:
        for key, p in params.items():
            p -= self.learning_rate * grads[key]


class _AdaptiveMoment:
    """Bias-corrected first/second moment update, estimand pluggable.

    Each parameter key keeps one state record (m, v, a, b), made on its first
    step: the two moments and two scratch arrays. The estimand is written
    into b, and the moments and the update are computed in place, with the
    same operations in the same order as
    m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) e(g, m);
    p -= lr (m / c1) / (sqrt(v / c2) + eps),
    so the bytes equal that formula's. A step allocates nothing."""

    def __init__(self, learning_rate: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._t = 0
        self._state: dict[str, tuple[np.ndarray, ...]] = {}

    def second_moment_estimand(self, grad: np.ndarray, mean: np.ndarray,
                               out: np.ndarray) -> np.ndarray:
        """e(g, m); `out`, a scratch array shaped like g, may hold it."""
        raise NotImplementedError

    def step(self, params: _PARAMS, grads: _PARAMS) -> None:
        self._t += 1
        c1 = 1.0 - self.beta1**self._t
        c2 = 1.0 - self.beta2**self._t
        for key, p in params.items():
            g = grads[key]
            if key not in self._state:
                self._state[key] = tuple(np.zeros_like(p) for _ in range(4))
            m, v, a, b = self._state[key]
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=a)
            v *= self.beta2
            v += np.multiply(self.second_moment_estimand(g, m, b), 1.0 - self.beta2, out=a)
            np.divide(m, c1, out=a)
            a *= self.learning_rate
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p -= a


class Adam(_AdaptiveMoment):
    """Second moment accumulates g**2."""

    def second_moment_estimand(self, grad, mean, out):
        return np.multiply(grad, grad, out=out)


class AdaBelief(_AdaptiveMoment):
    """Second moment accumulates (g - m)**2, with eps added each step so the
    accumulator never collapses to zero faster than the gradient variance."""

    def second_moment_estimand(self, grad, mean, out):
        diff = np.subtract(grad, mean, out=out)
        diff *= diff
        diff += self.eps / (1.0 - self.beta2)
        return diff


OPTIMIZERS = {"sgd": Sgd, "adam": Adam, "adabelief": AdaBelief}


def make_optimizer(name: str, learning_rate: float):
    check_choice("optimizer", name, OPTIMIZERS)
    return OPTIMIZERS[name](learning_rate)
