import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from emofuse.errors import StateError
from emofuse.nn.layers import (
    BatchNorm,
    Dense,
    Dropout,
    PReLU,
    softmax,
    softmax_cross_entropy,
    sparse_ce,
)
from emofuse.nn.recurrent import Gru, Lstm

from conftest import float_values
from oracles import (
    assert_same_bits,
    batchnorm_np_var,
    dropout_float_mask,
    max_rel_err,
    numeric_gradient,
    prelu_select,
)

FD_TOL = 1e-4


def upstream_loss(layer, x, weights, rng_seed=None):
    """Scalar probe loss sum(forward(x) * weights) of a training forward with a
    reproducible rng."""
    rng = None if rng_seed is None else np.random.default_rng(rng_seed)
    return float((layer.forward(x, training=True, rng=rng) * weights).sum())


def check_layer_gradients(make_layer, x_shape, trials, use_rng=False):
    """Finite-difference check of dx and every parameter gradient of a training forward."""
    for trial in range(trials):
        rng = np.random.default_rng(1000 + trial)
        layer = make_layer(rng)
        x = rng.standard_normal(x_shape)
        w_up = rng.standard_normal(x_shape[:-1] + (out_dim(layer, x_shape),))
        seed = 77 + trial if use_rng else None

        lrng = None if seed is None else np.random.default_rng(seed)
        y = layer.forward(x, training=True, rng=lrng)
        dx = layer.backward(np.broadcast_to(w_up, y.shape).astype(y.dtype))

        num_dx = numeric_gradient(lambda v: upstream_loss(layer, v, w_up, seed), x.copy())
        assert max_rel_err(dx, num_dx) < FD_TOL

        for pname, param in layer.params.items():
            analytic = layer_grad(layer, x, w_up, pname, seed)
            num = numeric_gradient(make_param_loss(layer, x, w_up, pname, seed), param.copy())
            assert max_rel_err(analytic, num) < FD_TOL, pname


def out_dim(layer, x_shape):
    if isinstance(layer, Dense):
        return layer.out_dim
    return x_shape[-1]


def layer_grad(layer, x, w_up, pname, seed):
    lrng = None if seed is None else np.random.default_rng(seed)
    y = layer.forward(x, training=True, rng=lrng)
    layer.backward(np.broadcast_to(w_up, y.shape).astype(y.dtype))
    return layer.grads[pname]


def make_param_loss(layer, x, w_up, pname, seed):
    original = layer.params[pname]

    def f(value):
        layer.params[pname] = value
        try:
            return upstream_loss(layer, x, w_up, seed)
        finally:
            layer.params[pname] = original

    return f


class TestDense:
    def test_identity(self):
        rng = np.random.default_rng(0)
        layer = Dense(4, 4, rng, dtype=np.float64)
        layer.params["W"][...] = np.eye(4)
        layer.params["b"][...] = 0.0
        x = rng.standard_normal((3, 4))
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_sequence_input_per_timestep(self):
        rng = np.random.default_rng(0)
        layer = Dense(4, 2, rng, dtype=np.float64)
        x = rng.standard_normal((3, 5, 4))
        y = layer.forward(x)
        assert y.shape == (3, 5, 2)
        np.testing.assert_allclose(y[1, 2], layer.forward(x[1, 2][None])[0], atol=1e-12)

    def test_backward_without_forward_is_state_error(self):
        layer = Dense(4, 2, np.random.default_rng(0))
        with pytest.raises(StateError):
            layer.backward(np.zeros((3, 2)))
        layer.forward(np.zeros((3, 4)), training=True)
        layer.backward(np.zeros((3, 2)))
        with pytest.raises(StateError):  # cache is single-use
            layer.backward(np.zeros((3, 2)))

    def test_gradients(self):
        check_layer_gradients(
            lambda rng: Dense(6, 4, rng, dtype=np.float64), (5, 6), trials=8
        )
        check_layer_gradients(
            lambda rng: Dense(3, 7, rng, dtype=np.float64), (2, 4, 3), trials=8
        )


class TestPReLU:
    def test_definition_at_negative_two(self):
        layer = PReLU(1, alpha0=0.25, dtype=np.float64)
        assert layer.forward(np.array([[-2.0]]))[0, 0] == -0.5

    def test_positive_passthrough(self):
        layer = PReLU(3, dtype=np.float64)
        x = np.array([[1.0, 2.0, 0.5]])
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_gradients(self):
        check_layer_gradients(lambda rng: PReLU(6, dtype=np.float64), (9, 6), trials=8)
        check_layer_gradients(
            lambda rng: PReLU(4, alpha0=0.1, dtype=np.float64), (2, 5, 4), trials=8
        )


class TestDropout:
    def test_inference_is_identity(self):
        layer = Dropout(0.25)
        x = np.random.default_rng(0).standard_normal((4, 6))
        assert layer.forward(x, training=False) is x

    def test_training_preserves_expectation(self):
        layer = Dropout(0.25)
        rng = np.random.default_rng(42)
        x = np.ones((100_000, 8))
        y = layer.forward(x, training=True, rng=rng)
        np.testing.assert_allclose(y.mean(axis=0), 1.0, rtol=0.01)

    def test_survivors_scaled(self):
        layer = Dropout(0.25)
        rng = np.random.default_rng(0)
        y = layer.forward(np.ones((10, 10)), training=True, rng=rng)
        assert set(np.unique(y)) <= {0.0, 1.0 / 0.75}

    def test_gradients_fixed_mask(self):
        check_layer_gradients(
            lambda rng: Dropout(0.25), (6, 5), trials=8, use_rng=True
        )


class TestBatchNorm:
    def test_inference_identity_at_unit_stats(self):
        layer = BatchNorm(4, dtype=np.float64, eps=1e-12)
        x = np.random.default_rng(0).standard_normal((6, 4))
        np.testing.assert_allclose(layer.forward(x, training=False), x, atol=1e-9)

    def test_training_normalizes_batch(self):
        layer = BatchNorm(3, dtype=np.float64)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((200, 3)) * 5 + 2
        y = layer.forward(x, training=True)
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.var(axis=0), 1.0, atol=1e-4)  # off by var/(var+eps)

    def test_sequence_axes_normalized_per_channel(self):
        layer = BatchNorm(3, dtype=np.float64)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 50, 3)) * 3 - 1
        y = layer.forward(x, training=True)
        np.testing.assert_allclose(y.reshape(-1, 3).mean(axis=0), 0.0, atol=1e-10)

    def test_running_stats_blend(self):
        layer = BatchNorm(2, momentum=0.9, dtype=np.float64)
        x = np.array([[1.0, 2.0], [3.0, 6.0]])
        layer.forward(x, training=True)
        np.testing.assert_allclose(layer.running_mean, 0.9 * 0 + 0.1 * np.array([2.0, 4.0]))
        np.testing.assert_allclose(layer.running_var, 0.9 * 1 + 0.1 * np.array([1.0, 4.0]))

    def test_gradients_training_mode(self):
        check_layer_gradients(
            lambda rng: BatchNorm(5, dtype=np.float64), (8, 5), trials=8
        )
        check_layer_gradients(
            lambda rng: BatchNorm(3, dtype=np.float64), (3, 6, 3), trials=6
        )


# --------------------------------------------------------------------------
# The layer contract: only a training forward leaves a cache for backward
# --------------------------------------------------------------------------

CACHING_LAYERS = {
    "Dense": lambda rng: Dense(4, 3, rng),
    "PReLU": lambda rng: PReLU(4),
    "BatchNorm": lambda rng: BatchNorm(4),
    "Dropout": lambda rng: Dropout(0.5),
    "Gru": lambda rng: Gru(4, 3, rng),
    "Lstm": lambda rng: Lstm(4, 3, rng),
}


@pytest.mark.parametrize("kind", sorted(CACHING_LAYERS))
def test_backward_after_inference_forward_is_state_error(kind):
    rng = np.random.default_rng(0)
    layer = CACHING_LAYERS[kind](rng)
    y = layer.forward(rng.standard_normal((2, 5, 4)).astype(np.float32))
    assert layer._cache is None
    with pytest.raises(StateError):
        layer.backward(np.ones_like(y))


@pytest.mark.parametrize("kind", sorted(CACHING_LAYERS))
def test_inference_forward_drops_a_stale_training_cache(kind):
    rng = np.random.default_rng(1)
    layer = CACHING_LAYERS[kind](rng)
    x = rng.standard_normal((2, 5, 4)).astype(np.float32)
    layer.forward(x, training=True, rng=rng)
    assert layer._cache is not None
    layer.forward(x)
    assert layer._cache is None


class TestSoftmaxAndLoss:
    def test_uniform_at_zero_logits(self):
        p = softmax(np.zeros(8))
        np.testing.assert_allclose(p, 1.0 / 8.0, atol=1e-15)
        loss = sparse_ce(p[None], np.array([3]))[0]
        assert loss == pytest.approx(np.log(8.0), rel=1e-12)

    def test_rows_sum_to_one_and_lie_inside_unit_interval(self):
        # float64 saturates to exactly 0/1 once logit gaps exceed ~36, so
        # the open-interval property is asserted over the representable range
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((50, 8)) * 10
        p = softmax(logits)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert (p > 0).all() and (p < 1).all()

    def test_confident_logit_loss_value(self):
        # -log(e^10 / (e^10 + 7)) evaluated directly
        logits = np.zeros(8)
        logits[0] = 10.0
        expected = float(np.log1p(7.0 * np.exp(-10.0)))
        loss = sparse_ce(softmax(logits)[None], np.array([0]))[0]
        assert loss == pytest.approx(expected, rel=1e-12)
        assert loss == pytest.approx(3.1775e-4, rel=1e-4)

    def test_combined_gradient_is_probs_minus_onehot(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((4, 8))
        labels = rng.integers(0, 8, size=4)
        _, dlogits, probs = softmax_cross_entropy(logits, labels, np.ones(4))
        onehot = np.eye(8)[labels]
        np.testing.assert_allclose(dlogits, (probs - onehot) / 4.0, atol=1e-12)

    def test_combined_gradient_finite_difference(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            logits = rng.standard_normal((3, 8))
            labels = rng.integers(0, 8, size=3)
            _, dlogits, _ = softmax_cross_entropy(logits, labels, np.ones(3))

            def f(v):
                loss, _, _ = softmax_cross_entropy(v, labels, np.ones(3))
                return loss

            num = numeric_gradient(f, logits.copy(), eps=1e-6)
            assert max_rel_err(dlogits, num, atol=1e-10) < 1e-6

    def test_mask_drops_positions(self):
        logits = np.zeros((1, 4, 8))
        labels = np.zeros((1, 4), dtype=np.int64)
        mask = np.array([[1.0, 1.0, 0.0, 0.0]])
        loss, dlogits, _ = softmax_cross_entropy(logits, labels, mask)
        assert loss == pytest.approx(np.log(8.0))
        np.testing.assert_array_equal(dlogits[0, 2:], 0.0)


# --------------------------------------------------------------------------
# The in-place kernels against their first, out-of-place formulas
# --------------------------------------------------------------------------

FLOATS = st.sampled_from([np.float32, np.float64])
SHAPES = st.one_of(
    st.tuples(st.integers(1, 6), st.integers(1, 4)),
    st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)),
)


def array(draw, dtype, shape, elements=None):
    return draw(hnp.arrays(dtype, shape, elements=float_values(dtype) if elements is None else elements))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), x_dtype=FLOATS, dtype=FLOATS, shape=SHAPES)
def test_prelu_equals_select(data, x_dtype, dtype, shape):
    slopes = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 0.25, -0.5, -3.0, 2.5]),
        st.floats(-4, 4, width=np.dtype(dtype).itemsize * 8),
    )
    alpha = array(data.draw, dtype, shape[-1:], slopes)
    x = array(data.draw, x_dtype, shape)
    dy = array(data.draw, np.result_type(x_dtype, dtype), shape)
    layer = PReLU(shape[-1], dtype=dtype)
    layer.params["alpha"][...] = alpha
    with np.errstate(all="ignore"):
        y = layer.forward(x, training=True)
        dx = layer.backward(dy)
        y0, dx0, dalpha0 = prelu_select(x, alpha, dy)
    assert_same_bits(y, y0)
    assert_same_bits(dx, dx0)
    assert_same_bits(layer.grads["alpha"], dalpha0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(), x_dtype=FLOATS, dtype=FLOATS, shape=SHAPES, training=st.booleans(),
    momentum=st.sampled_from([0.99, 0.9, 0.0]),
)
def test_batchnorm_equals_np_var(data, x_dtype, dtype, shape, training, momentum):
    c = shape[-1:]
    gamma, beta, mean = (array(data.draw, dtype, c, float_values(dtype, -3, 3)) for _ in range(3))
    var = array(data.draw, dtype, c, st.floats(0, 4, width=np.dtype(dtype).itemsize * 8))
    x = array(data.draw, x_dtype, shape)
    layer = BatchNorm(shape[-1], momentum=momentum, dtype=dtype)
    layer.params["gamma"][...], layer.params["beta"][...] = gamma, beta
    layer.running_mean, layer.running_var = mean.copy(), var.copy()
    with np.errstate(all="ignore"):
        y = layer.forward(x, training=training)
        dy = array(data.draw, y.dtype, shape)
        want = batchnorm_np_var(x, gamma, beta, mean, var, momentum, layer.eps, training, dy)
        got = [y, None, None, None, layer.running_mean, layer.running_var]
        if training:  # only a training forward has a backward
            got[1:4] = layer.backward(dy), layer.grads["gamma"], layer.grads["beta"]
    for new, old in zip(got, want):
        if new is not None:
            assert_same_bits(new, old)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(), dtype=FLOATS, shape=SHAPES, rate=st.sampled_from([0.25, 0.9]),
    seed=st.integers(0, 2**32 - 1),
)
def test_dropout_equals_float_mask(data, dtype, shape, rate, seed):
    x = array(data.draw, dtype, shape, float_values(dtype, None, None))
    dy = array(data.draw, dtype, shape)
    rng, rng0 = np.random.default_rng(seed), np.random.default_rng(seed)
    layer = Dropout(rate)
    with np.errstate(all="ignore"):
        y = layer.forward(x, training=True, rng=rng)
        dx = layer.backward(dy)
        y0, dx0 = dropout_float_mask(x, rate, rng0, dy)
    assert_same_bits(y, y0)
    assert_same_bits(dx, dx0)
    assert rng.random() == rng0.random()  # the mask took the same draws
