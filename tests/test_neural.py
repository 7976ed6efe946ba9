import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatbench.neural import (AdamOptimizer, MlpParams, MlpSpec, fit_normalizer, forward,
                              forward_batch, train_minibatch)


class SgdOptimizer:
    """Plain gradient descent: the reference optimizer whose steps the tests
    below compute by hand."""

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def step(self, params: MlpParams, grad: np.ndarray) -> None:
        params.theta -= self.learning_rate * grad


class _GradientRecorder:
    """An optimizer whose step keeps the gradient and leaves theta alone."""

    def step(self, params: MlpParams, grad: np.ndarray) -> None:
        self.grad = grad


def gradient_check(params: MlpParams, input_vec, target, mask=None,
                   eps: float = 1e-5) -> float:
    """Max relative error between the gradient train_minibatch steps with and
    central differences of the pre-step loss it returns.

    Relu networks should be probed at inputs away from activation kinks.
    """
    x = np.atleast_2d(np.asarray(input_vec, dtype=float))
    t = np.atleast_2d(np.asarray(target, dtype=float))
    m = None if mask is None else np.atleast_2d(np.asarray(mask, dtype=float))
    recorder = _GradientRecorder()

    train_minibatch(params, x, t, recorder, m)
    analytic = recorder.grad
    probe = params.copy()
    numeric = np.empty_like(analytic)
    for i in range(probe.theta.size):
        orig = probe.theta[i]
        probe.theta[i] = orig + eps
        _, hi = train_minibatch(probe, x, t, recorder, m)
        probe.theta[i] = orig - eps
        _, lo = train_minibatch(probe, x, t, recorder, m)
        probe.theta[i] = orig
        numeric[i] = (hi - lo) / (2.0 * eps)

    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / scale))


def zero_params(spec: MlpSpec) -> MlpParams:
    params = MlpParams.init(spec)
    params.theta[...] = 0.0
    return params


def test_forward_zero_network_outputs_zero():
    params = zero_params(MlpSpec((3, 4, 2)))
    assert np.all(forward(params, [1.0, -2.0, 0.5]) == 0.0)


def test_forward_identity_linear_layer():
    params = zero_params(MlpSpec((3, 3)))
    for i in range(3):
        params.weights[0][i, i] = 1.0
    x = np.array([0.3, -1.2, 4.0])
    assert forward(params, x) == pytest.approx(x)


def test_forward_deterministic():
    params = MlpParams.init(MlpSpec((5, 16, 3), "relu", init_seed=42))
    x = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    assert np.array_equal(forward(params, x), forward(params, x))


def test_forward_rejects_shape_mismatch():
    params = MlpParams.init(MlpSpec((3, 2)))
    with pytest.raises(ValueError):
        forward(params, [1.0, 2.0])


def test_train_no_gradient_when_targets_match():
    params = MlpParams.init(MlpSpec((2, 8, 1), init_seed=1))
    x = np.array([[0.5, -0.5]])
    y = forward_batch(params, x)
    before = params.theta.copy()
    _, mse = train_minibatch(params, x, y, SgdOptimizer(0.1))
    assert mse == 0.0
    assert np.array_equal(params.theta, before)


def test_single_weight_gradient_step_hand_computed():
    # one-parameter linear model y = w*x with w=0: d/dw (w-1)^2 = 2(w-1) = -2,
    # so one plain gradient step at lr 0.1 moves w to 0.2
    params = zero_params(MlpSpec((1, 1)))
    _, mse = train_minibatch(params, [[1.0]], [[1.0]], SgdOptimizer(0.1))
    assert mse == pytest.approx(1.0)
    assert params.weights[0][0, 0] == pytest.approx(0.2)


def test_repeated_steps_do_not_increase_loss():
    params = MlpParams.init(MlpSpec((2, 8, 1), init_seed=3))
    x = np.array([[0.2, 0.8], [-0.4, 0.1], [0.9, -0.7]])
    y = np.array([[0.5], [-0.1], [0.3]])
    opt = SgdOptimizer(1e-3)
    losses = [train_minibatch(params, x, y, opt)[1] for _ in range(100)]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_masked_training_only_updates_selected_head():
    params = MlpParams.init(MlpSpec((2, 4, 3), init_seed=5))
    x = np.array([[0.3, -0.3]])
    before = forward(params, x[0])
    targets = np.array([[9.0, before[1], before[2]]])
    mask = np.array([[1.0, 0.0, 0.0]])
    train_minibatch(params, x, targets, SgdOptimizer(0.05), mask)
    after = forward(params, x[0])
    assert after[0] != pytest.approx(before[0])


def test_non_finite_gradient_rejected():
    params = MlpParams.init(MlpSpec((1, 1)))
    with pytest.raises(ValueError):
        train_minibatch(params, [[1.0]], [[float("inf")]], SgdOptimizer(0.1))


def test_adam_moves_toward_target():
    params = zero_params(MlpSpec((1, 1)))
    opt = AdamOptimizer(learning_rate=0.1)
    for _ in range(200):
        train_minibatch(params, [[1.0]], [[1.0]], opt)
    assert forward(params, [1.0])[0] == pytest.approx(1.0, abs=1e-2)


@pytest.mark.parametrize("rate", [float("nan"), -1e-3, 0.0, float("inf")])
def test_adam_rejects_non_positive_or_non_finite_rates(rate):
    with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
        AdamOptimizer(rate)

def test_gradient_check_default_architectures():
    rng = np.random.default_rng(1)
    for spec in (MlpSpec((6, 32, 32, 1), "tanh", init_seed=1),
                 MlpSpec((5, 64, 64, 6), "relu", init_seed=1)):
        params = MlpParams.init(spec)
        # probe away from relu kinks: random non-zero inputs
        x = rng.uniform(0.1, 1.0, size=spec.layer_sizes[0])
        t = rng.uniform(-1.0, 1.0, size=spec.layer_sizes[-1])
        assert gradient_check(params, x, t) < 1e-4


def test_gradient_check_masked_loss():
    params = MlpParams.init(MlpSpec((4, 16, 3), "tanh", init_seed=2))
    mask = np.array([[1.0, 0.0, 1.0]])
    err = gradient_check(params, [0.2, -0.4, 0.6, 0.1], [[0.5, 0.0, -0.5]], mask)
    assert err < 1e-4


def test_gradient_check_zero_network_zero_target():
    params = zero_params(MlpSpec((2, 4, 1), "tanh"))
    assert gradient_check(params, [0.5, 0.5], [[0.0]]) == 0.0


def test_linearly_realizable_converges_below_1e6():
    params = zero_params(MlpSpec((1, 1)))
    x = np.linspace(-1, 1, 8)[:, None]
    y = 2.0 * x - 1.0
    opt = SgdOptimizer(0.2)
    mse = None
    for _ in range(500):
        _, mse = train_minibatch(params, x, y, opt)
    assert mse < 1e-6


@given(sizes=st.lists(st.integers(1, 12), min_size=2, max_size=4))
def test_param_count_formula(sizes):
    spec = MlpSpec(tuple(sizes))
    params = MlpParams.init(spec)
    expected = sum((a + 1) * b for a, b in zip(sizes, sizes[1:]))
    assert params.theta.shape == (expected,)
    with pytest.raises(ValueError):
        MlpParams(spec, np.zeros(expected + 1))


def test_theta_layout_and_views_write_through():
    params = MlpParams.init(MlpSpec((2, 3, 1), init_seed=4))
    # layer by layer, the row-major weight matrix before its bias vector
    layout = np.concatenate([params.weights[0].ravel(), params.biases[0],
                             params.weights[1].ravel(), params.biases[1]])
    assert np.array_equal(params.theta, layout)
    x = np.array([0.3, -0.7])
    before = forward(params, x)

    params.theta[-1] += 0.5  # the output layer's one bias
    assert params.biases[1][0] == layout[-1] + 0.5
    assert forward(params, x)[0] == pytest.approx(before[0] + 0.5)

    params.weights[0][1, 2] = 7.0  # row 1, column 2 of the first matrix
    assert params.theta[1 * 3 + 2] == 7.0
    assert not np.array_equal(forward(params, x), before + 0.5)


def test_copy_shares_no_memory():
    params = MlpParams.init(MlpSpec((3, 4, 2), init_seed=6))
    dup = params.copy()
    assert np.array_equal(dup.theta, params.theta)
    assert not np.shares_memory(dup.theta, params.theta)
    for mine, theirs in zip(dup.weights + dup.biases, params.weights + params.biases):
        assert not np.shares_memory(mine, theirs)


def test_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec((4,))
    with pytest.raises(ValueError):
        MlpSpec((4, 0, 2))
    with pytest.raises(ValueError):
        MlpSpec((4, 2), activation="sigmoid")


def test_normalizer_fit_and_clamp():
    norm = fit_normalizer(np.array([[0.0, 5.0], [2.0, 5.0]]))
    assert norm.shift[0] == pytest.approx(1.0)
    assert norm.scale[0] == pytest.approx(1.0)
    assert norm.scale[1] == pytest.approx(1e-6)  # constant feature clamped
    assert norm.apply(np.array([1.0, 5.0]))[1] == 0.0


def test_normalizer_requires_two_samples():
    with pytest.raises(ValueError):
        fit_normalizer(np.array([[1.0, 2.0]]))


# --- the training step as it was before it ran in place, kept as the reference ---

def _reference_loss_and_grads(params, x, t, mask):
    """Masked MSE and its gradient, computed the way the out-of-place step did."""
    m = np.ones_like(t) if mask is None else mask
    denom = m.sum()
    post = [x]
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = post[-1] @ w
        h += b
        if i < len(params.weights) - 1:
            if params.spec.activation == "relu":
                np.maximum(h, 0.0, out=h)
            else:
                np.tanh(h, out=h)
        post.append(h)
    err = (post[-1] - t) * m
    loss = float((err * (post[-1] - t)).sum() / denom)
    delta = 2.0 * err / denom
    grad = MlpParams(params.spec, np.zeros_like(params.theta))  # views in theta's layout
    for i in range(len(params.weights) - 1, -1, -1):
        np.matmul(post[i].T, delta, out=grad.weights[i])
        np.sum(delta, axis=0, out=grad.biases[i])
        if i > 0:
            a = post[i]
            slope = (a > 0.0).astype(a.dtype) if params.spec.activation == "relu" else 1.0 - a * a
            delta = (delta @ params.weights[i].T) * slope
    return loss, grad.theta


class _ReferenceAdam:
    def __init__(self, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate, self.beta1, self.beta2, self.eps = learning_rate, beta1, beta2, eps
        self._m = self._v = None
        self._t = 0

    def step(self, params, grad):
        if self._m is None:
            self._m = np.zeros_like(grad)
            self._v = np.zeros_like(grad)
        self._t += 1
        lr_t = self.learning_rate * float(np.sqrt(1.0 - self.beta2 ** self._t)
                                           / (1.0 - self.beta1 ** self._t))
        self._m *= self.beta1
        self._m += (1.0 - self.beta1) * grad
        self._v *= self.beta2
        self._v += (1.0 - self.beta2) * grad * grad
        params.theta -= lr_t * self._m / (np.sqrt(self._v) + self.eps)


def _mask(kind, rng, shape):
    if kind == "none":
        return None
    if kind == "one_hot":  # one output per sample, as Q-learning trains the taken action
        mask = np.zeros(shape)
        mask[np.arange(shape[0]), rng.integers(shape[1], size=shape[0])] = 1.0
        return mask
    mask = (rng.random(shape) < 0.5).astype(float)
    mask.flat[rng.integers(mask.size)] = 1.0  # selects at least one output
    return mask


class _RecordingAdam(AdamOptimizer):
    """AdamOptimizer that keeps the dtype of every gradient it is given."""

    def step(self, params, grad):
        self.grad_dtypes = getattr(self, "grad_dtypes", set()) | {grad.dtype}
        super().step(params, grad)


@settings(max_examples=120, deadline=None)
@given(sizes=st.lists(st.integers(1, 9), min_size=2, max_size=4), batch=st.integers(1, 40),
       activation=st.sampled_from(["relu", "tanh"]),
       mask_kind=st.sampled_from(["none", "one_hot", "partial"]),
       rate=st.sampled_from([1e-3, 1e-2, 0.3]), steps=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from([np.float64, np.float32]))
def test_train_minibatch_is_bit_identical_to_the_out_of_place_step(sizes, batch, activation,
                                                                   mask_kind, rate, steps,
                                                                   seed, dtype):
    """float64 parameters step exactly as the out-of-place step did; float32
    ones keep theta, the gradient and Adam's state in float32 and equal that
    step computed in float32 (float64 inputs cast once to float32)."""
    rng = np.random.default_rng(seed)
    spec = MlpSpec(tuple(sizes), activation, init_seed=seed % 1000)
    params = MlpParams(spec, MlpParams.init(spec).theta.astype(dtype))
    reference = params.copy()
    optimizer, reference_optimizer = _RecordingAdam(rate), _ReferenceAdam(rate)
    for _ in range(steps):
        x = rng.normal(size=(batch, sizes[0]))
        t = rng.normal(size=(batch, sizes[-1]))
        mask = _mask(mask_kind, rng, t.shape)
        _, loss = train_minibatch(params, x, t, optimizer, mask)
        cast = None if mask is None else mask.astype(dtype)
        reference_loss, grad = _reference_loss_and_grads(reference, x.astype(dtype),
                                                         t.astype(dtype), cast)
        reference_optimizer.step(reference, grad)
        assert np.float64(loss).tobytes() == np.float64(reference_loss).tobytes()
        assert params.theta.tobytes() == reference.theta.tobytes()
    state = [v for v in vars(optimizer).values() if isinstance(v, np.ndarray)]
    assert params.theta.dtype == dtype and optimizer.grad_dtypes == {np.dtype(dtype)}
    assert state and all(v.dtype == dtype for v in state)


def test_the_network_follows_its_parameters_dtype():
    spec = MlpSpec((4, 8, 2), "tanh", init_seed=2)
    params = MlpParams.init(spec)
    x = np.random.default_rng(0).normal(size=(5, 4))
    # float64 parameters compute in float64, whatever the input's dtype
    assert params.theta.dtype == np.float64
    assert forward_batch(params, x.astype(np.float32)).dtype == np.float64
    assert fit_normalizer(x).apply(x.astype(np.float32)).dtype == np.float64
    for theta in (params.theta.astype(np.float16), params.theta.tolist()):
        assert MlpParams(spec, theta).theta.dtype == np.float64
    # a float32 copy keeps float32 through every step: no float64 scalar upcasts it
    copy = MlpParams(spec, params.theta.astype(np.float32))
    assert copy.theta.dtype == copy.copy().theta.dtype == np.float32
    assert forward_batch(copy, x).dtype == np.float32
    assert forward(copy, x[0]).dtype == np.float32
    assert np.max(np.abs(forward_batch(copy, x) - forward_batch(params, x))) < 1e-5
