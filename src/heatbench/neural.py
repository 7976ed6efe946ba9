"""Minimal dense feed-forward network with hand-rolled backpropagation.

Serves both the one-step transition model and the Q-network.  Hidden
layers use tanh or relu, the output layer is always linear.  Training
minimises a masked mean squared error: the mask selects which output
units of which samples receive gradient, which is how Q-learning trains
only the taken action's head.

Everything is plain numpy; parameters are lists of (fan_in, fan_out)
weight matrices plus bias vectors, with a flattened view for the
finite-difference gradient check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MlpSpec",
    "MlpParams",
    "SgdOptimizer",
    "AdamOptimizer",
    "Normalizer",
    "forward",
    "forward_batch",
    "train_minibatch",
    "gradient_check",
    "fit_normalizer",
]

_ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class MlpSpec:
    layer_sizes: tuple[int, ...]
    activation: str = "tanh"
    init_seed: int = 0

    def __post_init__(self):
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output layers")
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError("all layer sizes must be >= 1")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"activation must be one of {_ACTIVATIONS}")


class MlpParams:
    """Weights and biases for an MlpSpec; mutated in place by training."""

    def __init__(self, spec: MlpSpec, weights: list[np.ndarray], biases: list[np.ndarray]):
        sizes = spec.layer_sizes
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (sizes[i], sizes[i + 1]) or b.shape != (sizes[i + 1],):
                raise ValueError(f"layer {i} shapes inconsistent with spec")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError("parameters must be finite")
        self.spec = spec
        self.weights = weights
        self.biases = biases

    @classmethod
    def init(cls, spec: MlpSpec) -> "MlpParams":
        """Fan-in-scaled uniform weights, zero biases, seeded."""
        rng = np.random.default_rng(spec.init_seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(spec.layer_sizes, spec.layer_sizes[1:]):
            limit = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(spec, weights, biases)

    def copy(self) -> "MlpParams":
        return MlpParams(self.spec, [w.copy() for w in self.weights],
                         [b.copy() for b in self.biases])

    def param_count(self) -> int:
        return sum((fan_in + 1) * fan_out for fan_in, fan_out
                   in zip(self.spec.layer_sizes, self.spec.layer_sizes[1:]))

    def flat(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b.ravel())
        return np.concatenate(parts)

    def set_flat(self, vec: np.ndarray) -> None:
        if vec.size != self.param_count():
            raise ValueError("flat vector size mismatch")
        pos = 0
        for w, b in zip(self.weights, self.biases):
            w[...] = vec[pos:pos + w.size].reshape(w.shape)
            pos += w.size
            b[...] = vec[pos:pos + b.size]
            pos += b.size


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    return np.maximum(z, 0.0) if kind == "relu" else np.tanh(z)


def _activate_grad(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    return (z > 0.0).astype(float) if kind == "relu" else 1.0 - a * a


def forward_batch(params: MlpParams, inputs: np.ndarray) -> np.ndarray:
    """Forward pass on a (batch, in_dim) matrix; returns (batch, out_dim)."""
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.spec.layer_sizes[0]:
        raise ValueError(f"expected inputs of width {params.spec.layer_sizes[0]}")
    n_layers = len(params.weights)
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        x = x @ w + b
        if i < n_layers - 1:
            x = _activate(x, params.spec.activation)
    return x


def forward(params: MlpParams, input_vec) -> np.ndarray:
    """Forward pass on a single input vector."""
    vec = np.asarray(input_vec, dtype=float)
    if vec.ndim != 1:
        raise ValueError("forward expects a 1-D input vector")
    return forward_batch(params, vec[None, :])[0]


def _loss_and_grads(params: MlpParams, inputs: np.ndarray, targets: np.ndarray,
                    mask: np.ndarray | None):
    """Masked MSE (mean over masked entries) and its parameter gradients."""
    x = np.asarray(inputs, dtype=float)
    t = np.asarray(targets, dtype=float)
    if x.ndim != 2 or t.shape != (x.shape[0], params.spec.layer_sizes[-1]):
        raise ValueError("inputs/targets shape mismatch")
    if mask is None:
        m = np.ones_like(t)
    else:
        m = np.asarray(mask, dtype=float)
        if m.shape != t.shape:
            raise ValueError("mask shape must match targets")
    denom = m.sum()
    if denom <= 0.0:
        raise ValueError("mask selects no outputs")

    kind = params.spec.activation
    n_layers = len(params.weights)
    pre, post = [], [x]
    h = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w + b
        pre.append(z)
        h = _activate(z, kind) if i < n_layers - 1 else z
        post.append(h)

    err = (post[-1] - t) * m
    loss = float((err * (post[-1] - t)).sum() / denom)

    delta = 2.0 * err / denom
    grads_w = [np.empty_like(w) for w in params.weights]
    grads_b = [np.empty_like(b) for b in params.biases]
    for i in range(n_layers - 1, -1, -1):
        grads_w[i] = post[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ params.weights[i].T) * _activate_grad(pre[i - 1], post[i], kind)
    return loss, grads_w, grads_b


class SgdOptimizer:
    """Plain gradient descent."""

    def __init__(self, learning_rate: float = 1e-3):
        self.learning_rate = learning_rate

    def step(self, params: MlpParams, grads_w, grads_b) -> None:
        for w, b, gw, gb in zip(params.weights, params.biases, grads_w, grads_b):
            w -= self.learning_rate * gw
            b -= self.learning_rate * gb


class AdamOptimizer:
    """Adaptive-moment gradient descent with bias correction."""

    def __init__(self, learning_rate: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None
        self._t = 0

    def step(self, params: MlpParams, grads_w, grads_b) -> None:
        grads = list(grads_w) + list(grads_b)
        tensors = list(params.weights) + list(params.biases)
        if self._m is None:
            self._m = [np.zeros_like(g) for g in grads]
            self._v = [np.zeros_like(g) for g in grads]
        self._t += 1
        lr_t = self.learning_rate * (np.sqrt(1.0 - self.beta2 ** self._t)
                                     / (1.0 - self.beta1 ** self._t))
        for tensor, g, m, v in zip(tensors, grads, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            tensor -= lr_t * m / (np.sqrt(v) + self.eps)


def train_minibatch(params: MlpParams, inputs, targets, optimizer,
                    mask=None) -> tuple[MlpParams, float]:
    """One optimizer step on the masked MSE; returns (params, pre-step loss).

    Raises ValueError when gradients are non-finite (divergent training).
    """
    loss, grads_w, grads_b = _loss_and_grads(params, inputs, targets, mask)
    for g in grads_w + grads_b:
        if not np.isfinite(g).all():
            raise ValueError("non-finite gradient; lower the learning rate or check inputs")
    optimizer.step(params, grads_w, grads_b)
    return params, loss


def gradient_check(params: MlpParams, input_vec, target, mask=None,
                   eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relu networks should be probed at inputs away from activation kinks.
    """
    x = np.atleast_2d(np.asarray(input_vec, dtype=float))
    t = np.atleast_2d(np.asarray(target, dtype=float))
    m = None if mask is None else np.atleast_2d(np.asarray(mask, dtype=float))

    _, grads_w, grads_b = _loss_and_grads(params, x, t, m)
    # flat() interleaves (w, b) per layer; lay the analytic gradient out the same way
    analytic = np.concatenate(
        [np.concatenate([gw.ravel(), gb.ravel()]) for gw, gb in zip(grads_w, grads_b)])

    probe = params.copy()
    theta = probe.flat()
    numeric = np.empty_like(theta)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + eps
        probe.set_flat(theta)
        hi, _, _ = _loss_and_grads(probe, x, t, m)
        theta[i] = orig - eps
        probe.set_flat(theta)
        lo, _, _ = _loss_and_grads(probe, x, t, m)
        theta[i] = orig
        numeric[i] = (hi - lo) / (2.0 * eps)
    probe.set_flat(theta)

    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / scale))


@dataclass(frozen=True)
class Normalizer:
    """Per-feature shift and scale; scale is clamped strictly positive."""

    shift: tuple[float, ...]
    scale: tuple[float, ...]

    def __post_init__(self):
        if len(self.shift) != len(self.scale):
            raise ValueError("shift/scale length mismatch")
        if any(not s > 0.0 for s in self.scale):
            raise ValueError("scales must be > 0")

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return (np.asarray(vec, dtype=float) - np.asarray(self.shift)) / np.asarray(self.scale)


_MIN_SCALE = 1e-6


def fit_normalizer(samples) -> Normalizer:
    """Mean/stddev normalizer fitted on a (n_samples, n_features) matrix."""
    mat = np.asarray(samples, dtype=float)
    if mat.ndim != 2 or mat.shape[0] < 2:
        raise ValueError("need at least 2 samples to fit a normalizer")
    shift = mat.mean(axis=0)
    scale = np.maximum(mat.std(axis=0), _MIN_SCALE)
    return Normalizer(tuple(shift), tuple(scale))

