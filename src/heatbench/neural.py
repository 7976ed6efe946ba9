"""Minimal dense feed-forward network with hand-rolled backpropagation.

Serves both the one-step transition model and the Q-network.  Hidden
layers use tanh or relu, the output layer is always linear.  Training
minimises a masked mean squared error: the mask selects which output
units of which samples receive gradient, which is how Q-learning trains
only the taken action's head.

Everything is plain numpy.  The parameters are one vector, laid out layer
by layer with each (fan_in, fan_out) weight matrix before its bias
vector; the per-layer weights and biases are views into it.  The
gradient and the optimizer moments share that layout, so each update is
a handful of whole-vector operations.  The network follows its
parameters' dtype, float64 or float32, in forward passes and in training:
the loss casts its inputs to that dtype and Adam keeps its moments in it.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass

import numpy as np

from .ranges import check_ranges, ranged

__all__ = [
    "MlpSpec",
    "MlpParams",
    "AdamOptimizer",
    "Normalizer",
    "forward",
    "forward_batch",
    "train_minibatch",
    "fit_normalizer",
]

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class MlpSpec:
    layer_sizes: tuple[int, ...] = ranged(MISSING, "[1, inf)")
    activation: str = ranged("tanh", ACTIVATIONS)
    init_seed: int = ranged(0, "[0, inf)")

    def __post_init__(self):
        check_ranges(self)
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output layers")


def _layer_views(sizes: tuple[int, ...], vec: np.ndarray):
    """Per-layer weight and bias views into a vector in the parameter layout."""
    weights, biases, pos = [], [], 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        weights.append(vec[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out))
        pos += fan_in * fan_out
        biases.append(vec[pos:pos + fan_out])
        pos += fan_out
    if pos != vec.size:
        raise ValueError(f"parameter vector has {vec.size} entries, the spec needs {pos}")
    return weights, biases


class MlpParams:
    """Parameters of an MlpSpec, mutated in place by training.

    `theta` is the one vector that holds them; `weights[i]` and `biases[i]`
    are read-write views into it.
    """

    def __init__(self, spec: MlpSpec, theta):
        theta = np.asarray(theta)  # a float32 vector stays float32, anything else float64
        theta = np.array(theta, dtype=np.float32 if theta.dtype == np.float32 else float)
        if theta.ndim != 1:
            raise ValueError("theta must be a 1-D vector")
        self.weights, self.biases = _layer_views(spec.layer_sizes, theta)
        if not np.isfinite(theta).all():
            raise ValueError("parameters must be finite")
        self.spec = spec
        self.theta = theta

    @classmethod
    def init(cls, spec: MlpSpec) -> "MlpParams":
        """Fan-in-scaled uniform weights, zero biases, seeded."""
        rng = np.random.default_rng(spec.init_seed)
        sizes = spec.layer_sizes
        theta = np.zeros(sum((fan_in + 1) * fan_out
                             for fan_in, fan_out in zip(sizes, sizes[1:])))
        for w in _layer_views(sizes, theta)[0]:
            limit = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-limit, limit, size=w.shape)
        return cls(spec, theta)

    def copy(self) -> "MlpParams":
        return MlpParams(self.spec, self.theta)


def _layer_outputs(params: MlpParams, x: np.ndarray) -> list[np.ndarray]:
    """The input followed by every layer's output; hidden layers activated."""
    outputs = [x]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = outputs[-1] @ w
        h += b
        if i < last:
            if params.spec.activation == "relu":
                np.maximum(h, 0.0, out=h)
            else:
                np.tanh(h, out=h)
        outputs.append(h)
    return outputs


def forward_batch(params: MlpParams, inputs: np.ndarray) -> np.ndarray:
    """Forward pass on a (batch, in_dim) matrix; returns (batch, out_dim)."""
    x = np.asarray(inputs, dtype=params.theta.dtype)
    if x.ndim != 2 or x.shape[1] != params.spec.layer_sizes[0]:
        raise ValueError(f"expected inputs of width {params.spec.layer_sizes[0]}")
    return _layer_outputs(params, x)[-1]


def forward(params: MlpParams, input_vec) -> np.ndarray:
    """Forward pass on a single input vector."""
    vec = np.asarray(input_vec, dtype=params.theta.dtype)
    if vec.ndim != 1:
        raise ValueError("forward expects a 1-D input vector")
    return forward_batch(params, vec[None, :])[0]


def _loss_and_grads(params: MlpParams, inputs: np.ndarray, targets: np.ndarray,
                    mask: np.ndarray | None) -> tuple[float, np.ndarray]:
    """Masked MSE (mean over masked entries) and its gradient in theta's layout."""
    x = np.asarray(inputs, dtype=params.theta.dtype)
    t = np.asarray(targets, dtype=params.theta.dtype)
    if x.ndim != 2 or t.shape != (x.shape[0], params.spec.layer_sizes[-1]):
        raise ValueError("inputs/targets shape mismatch")
    m = None if mask is None else np.asarray(mask, dtype=params.theta.dtype)
    if m is not None and m.shape != t.shape:
        raise ValueError("mask shape must match targets")
    denom = float(t.size) if m is None else m.sum()
    if denom <= 0.0:
        raise ValueError("mask selects no outputs")

    post = _layer_outputs(params, x)
    diff = post[-1] - t
    err = diff if m is None else diff * m
    loss = float((err * diff).sum() / denom)

    delta = 2.0 * err / denom
    grad = np.empty_like(params.theta)
    grad_w, grad_b = _layer_views(params.spec.layer_sizes, grad)
    for i in range(len(params.weights) - 1, -1, -1):
        np.matmul(post[i].T, delta, out=grad_w[i])
        np.sum(delta, axis=0, out=grad_b[i])
        if i > 0:
            # times the activation's derivative from its output: relu a > 0 iff
            # z > 0, tanh 1 - a^2 (post[i] is not read again)
            a = post[i]
            delta = delta @ params.weights[i].T
            delta *= (a > 0.0 if params.spec.activation == "relu"
                      else np.subtract(1.0, np.square(a, out=a), out=a))
    return loss, grad


class AdamOptimizer:
    """Adaptive-moment gradient descent with bias correction."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # the moments' decay rates; the step's guard

    def __init__(self, learning_rate: float = 1e-3):
        if not 0.0 < learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and > 0")
        self.learning_rate = learning_rate
        self._state: np.ndarray | None = None  # rows: moments m and v, two scratch vectors
        self._t = 0

    def step(self, params: MlpParams, grad: np.ndarray) -> None:
        if self._state is None:
            self._state = np.zeros((4, grad.size), dtype=grad.dtype)
        m, v, a, b = self._state
        self._t += 1
        # a Python float, so that it does not upcast float32 moments
        lr_t = self.learning_rate * float(np.sqrt(1.0 - self.BETA2 ** self._t)
                                          / (1.0 - self.BETA1 ** self._t))
        m *= self.BETA1
        m += np.multiply(grad, 1.0 - self.BETA1, out=a)
        v *= self.BETA2
        v += np.multiply(np.multiply(grad, 1.0 - self.BETA2, out=a), grad, out=a)
        # theta -= lr_t * m / (sqrt(v) + eps), in that order, so the bits do not change
        np.multiply(m, lr_t, out=a)
        a /= np.add(np.sqrt(v, out=b), self.EPS, out=b)
        params.theta -= a


def train_minibatch(params: MlpParams, inputs, targets, optimizer,
                    mask=None) -> tuple[MlpParams, float]:
    """One optimizer step on the masked MSE; returns (params, pre-step loss).

    Raises ValueError when gradients are non-finite (divergent training).
    """
    loss, grad = _loss_and_grads(params, inputs, targets, mask)
    if not np.isfinite(grad).all():
        raise ValueError("non-finite gradient; lower the learning rate or check inputs")
    optimizer.step(params, grad)
    return params, loss


@dataclass(frozen=True, eq=False)
class Normalizer:
    """Per-feature shift and scale; scale is clamped strictly positive."""

    shift: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        if len(self.shift) != len(self.scale):
            raise ValueError("shift/scale length mismatch")
        if any(not s > 0.0 for s in self.scale):
            raise ValueError("scales must be > 0")

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """(vec - shift) / scale, in the dtype of shift."""
        return (np.asarray(vec, dtype=self.shift.dtype) - self.shift) / self.scale


_MIN_SCALE = 1e-6


def fit_normalizer(samples) -> Normalizer:
    """Mean/stddev normalizer fitted on a (n_samples, n_features) matrix."""
    mat = np.asarray(samples, dtype=float)
    if mat.ndim != 2 or mat.shape[0] < 2:
        raise ValueError("need at least 2 samples to fit a normalizer")
    shift = mat.mean(axis=0)
    scale = np.maximum(mat.std(axis=0), _MIN_SCALE)
    return Normalizer(shift, scale)
