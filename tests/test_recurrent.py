import numpy as np
import pytest

from emofuse.errors import ShapeError
from emofuse.nn.recurrent import Gru, Lstm, _sigmoid

from oracles import gru_forward_direct, lstm_forward_direct, max_rel_err, numeric_gradient

FD_TOL = 1e-4


GATES = {Gru: "zrh", Lstm: "ifog"}


def zero_params(layer):
    for p in layer.params.values():
        p[...] = 0.0


def per_gate(layer):
    """Row views of the stacked params named per gate (``Wz``, ``Uz``, ``bz``, ...),
    the form the scalar and unit-by-unit oracles take."""
    H = layer.hidden_dim
    return {
        kind + g: layer.params[kind][k * H : (k + 1) * H]
        for k, g in enumerate(GATES[type(layer)])
        for kind in "WUb"
    }


def scalar_gru_oracle(x_seq, Wz, Uz, bz, Wr, Ur, br, Wh, Uh, bh):
    """Hand evaluation of the scalar recurrence, one float at a time."""

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    h = 0.0
    out = []
    for x in x_seq:
        z = sig(Wz * x + Uz * h + bz)
        r = sig(Wr * x + Ur * h + br)
        hc = np.tanh(Wh * x + Uh * (r * h) + bh)
        h = (1 - z) * h + z * hc
        out.append(h)
    return np.array(out)


class TestGruForward:
    def test_zero_parameters_give_zero_states(self):
        layer = Gru(3, 4, np.random.default_rng(0), dtype=np.float64)
        zero_params(layer)
        x = np.random.default_rng(1).standard_normal((1, 6, 3))
        np.testing.assert_array_equal(layer.forward(x), np.zeros((1, 6, 4)))

    def test_scalar_hand_oracle_single_step(self):
        layer = Gru(1, 1, np.random.default_rng(0), dtype=np.float64)
        zero_params(layer)
        layer.params["b"][0] = 10.0  # z ~ 1
        layer.params["W"][2] = 1.0  # the candidate's input weight
        h = layer.forward(np.array([[[0.5]]]))
        expected = _sigmoid(np.array(10.0)) * np.tanh(0.5)
        assert h[0, 0, 0] == pytest.approx(float(expected), rel=1e-12)

    def test_scalar_hand_oracle_multi_step(self):
        rng = np.random.default_rng(5)
        layer = Gru(1, 1, rng, dtype=np.float64)
        gates = per_gate(layer)
        vals = {k: float(rng.standard_normal()) for k in gates}
        for k, v in vals.items():
            gates[k][...] = v
        x_seq = rng.standard_normal(7)
        got = layer.forward(x_seq[None, :, None])[0, :, 0]
        want = scalar_gru_oracle(
            x_seq,
            vals["Wz"], vals["Uz"], vals["bz"],
            vals["Wr"], vals["Ur"], vals["br"],
            vals["Wh"], vals["Uh"], vals["bh"],
        )
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_output_shapes(self):
        rng = np.random.default_rng(0)
        layer = Gru(5, 3, rng, dtype=np.float64)
        assert layer.forward(rng.standard_normal((2, 7, 5))).shape == (2, 7, 3)

    def test_input_dim_checked(self):
        layer = Gru(5, 3, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 7, 4)))


def check_recurrent_gradients(cls, trials, T_max=5, dim_max=7):
    for trial in range(trials):
        rng = np.random.default_rng(9000 + trial)
        T = int(rng.integers(1, T_max + 1))
        in_dim = int(rng.integers(1, dim_max + 1))
        hid = int(rng.integers(1, dim_max + 1))
        B = int(rng.integers(1, 3))
        layer = cls(in_dim, hid, rng, dtype=np.float64)
        x = rng.standard_normal((B, T, in_dim))
        w_up = rng.standard_normal((B, T, hid))

        layer.forward(x, training=True)
        dx = layer.backward(w_up)
        assert dx.shape == x.shape
        analytic = {k: v.copy() for k, v in layer.grads.items()}

        num_dx = numeric_gradient(lambda v: float((layer.forward(v) * w_up).sum()), x.copy())
        assert max_rel_err(dx, num_dx) < FD_TOL, f"dx trial {trial}"

        for pname, param in layer.params.items():
            def loss_of(value, _p=pname, _orig=param):
                layer.params[_p] = value
                try:
                    return float((layer.forward(x) * w_up).sum())
                finally:
                    layer.params[_p] = _orig

            num = numeric_gradient(loss_of, param.copy())
            assert max_rel_err(analytic[pname], num) < FD_TOL, f"{pname} trial {trial}"


class TestGruBackward:
    def test_finite_difference_all_parameters(self):
        check_recurrent_gradients(Gru, trials=6)

    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(0)
        layer = Gru(3, 4, rng, dtype=np.float64)
        layer.forward(rng.standard_normal((2, 5, 3)), training=True)
        dx = layer.backward(np.zeros((2, 5, 4)))
        assert (dx == 0).all()
        assert all((g == 0).all() for g in layer.grads.values())


class TestLstm:
    def test_zero_parameters_give_zero_states(self):
        layer = Lstm(3, 4, np.random.default_rng(0), dtype=np.float64)
        zero_params(layer)
        x = np.random.default_rng(1).standard_normal((1, 6, 3))
        np.testing.assert_array_equal(layer.forward(x), np.zeros((1, 6, 4)))

    def test_single_step_gate_arithmetic(self):
        # with h0 = c0 = 0: h1 = sigmoid(bo) * tanh(sigmoid(Wi x) * tanh(Wg x))
        layer = Lstm(1, 1, np.random.default_rng(0), dtype=np.float64)
        zero_params(layer)
        layer.params["W"][[0, 3]] = [[2.0], [1.0]]  # input gate, candidate
        layer.params["b"][2] = 0.5  # output gate
        x = 0.3
        got = layer.forward(np.array([[[x]]]))[0, 0, 0]
        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        want = sig(0.5) * np.tanh(sig(2.0 * x) * np.tanh(x))
        assert got == pytest.approx(want, rel=1e-12)

    def test_output_shapes(self):
        rng = np.random.default_rng(0)
        layer = Lstm(5, 3, rng, dtype=np.float64)
        assert layer.forward(rng.standard_normal((2, 7, 5))).shape == (2, 7, 3)

    def test_finite_difference_all_parameters(self):
        check_recurrent_gradients(Lstm, trials=5)


class TestSigmoid:
    def test_float32_close_to_float64_reference(self):
        x = np.linspace(-40, 40, 4001).astype(np.float32)
        got = _sigmoid(x)
        assert got.dtype == np.float32
        want = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-7)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_floating_point_error_at_extremes(self, dtype):
        with np.errstate(all="raise"):
            got = _sigmoid(np.array([-1e4, 0.0, 1e4], dtype=dtype))
        np.testing.assert_array_equal(got, [0.0, 0.5, 1.0])


@pytest.mark.parametrize("cls, oracle", [(Gru, gru_forward_direct), (Lstm, lstm_forward_direct)])
def test_multi_unit_forward_matches_unit_by_unit_oracle(cls, oracle):
    # H > 1 with distinct values in every gate: a swapped or misaligned
    # gate slice changes the output, which the H=1 oracles cannot see
    rng = np.random.default_rng(21)
    layer = cls(3, 5, rng, dtype=np.float64)
    for value in layer.params.values():
        value[...] = rng.standard_normal(value.shape) * 0.8
    x = rng.standard_normal((2, 4, 3))
    np.testing.assert_allclose(layer.forward(x), oracle(x, per_gate(layer)), rtol=1e-12)


@pytest.mark.parametrize("cls", [Gru, Lstm])
@pytest.mark.parametrize("x_shape", [(2, 6, 4)])
def test_input_grad_false_skips_only_dx(cls, x_shape):
    rng = np.random.default_rng(4)
    layer = cls(4, 3, rng, dtype=np.float32)
    x = rng.standard_normal(x_shape).astype(np.float32)
    dy = rng.standard_normal((*x.shape[:-1], 3)).astype(np.float32)
    layer.forward(x, training=True)
    dx = layer.backward(dy)
    full = {k: v.copy() for k, v in layer.grads.items()}
    layer.forward(x, training=True)
    skipped = layer.backward(dy, input_grad=False)
    assert dx.shape == x.shape and skipped is None
    assert layer.grads.keys() == full.keys() == layer.params.keys()
    for name, g in full.items():
        np.testing.assert_array_equal(layer.grads[name], g)


@pytest.mark.parametrize("cls", [Gru, Lstm])
def test_initial_weights_drawn_per_gate_in_checkpoint_order(cls):
    # the stacked params hold exactly the draws of per-gate initialization:
    # for each gate in turn, a Glorot W, an orthogonal U and a zero b
    from emofuse.nn.layers import glorot_uniform, orthogonal

    layer = cls(5, 3, np.random.default_rng(12))
    rng = np.random.default_rng(12)
    want = {"W": [], "U": [], "b": []}
    for _ in GATES[cls]:
        want["W"].append(glorot_uniform((3, 5), rng, np.float32))
        want["U"].append(orthogonal((3, 3), rng, np.float32))
        want["b"].append(np.zeros(3, dtype=np.float32))
    assert list(layer.params) == list(want)
    for name, blocks in want.items():
        np.testing.assert_array_equal(layer.params[name], np.concatenate(blocks))


@pytest.mark.parametrize("cls", [Gru, Lstm])
def test_no_rng_builds_zero_weights(cls):
    layer = cls(5, 3, None, dtype=np.float64)
    G = 3 * len(GATES[cls])
    assert {k: v.shape for k, v in layer.params.items()} == {"W": (G, 5), "U": (G, 3), "b": (G,)}
    assert all((p == 0).all() and p.dtype == np.float64 for p in layer.params.values())


@pytest.mark.parametrize("cls", [Gru, Lstm])
def test_in_place_param_updates_reach_the_stacked_storage(cls):
    rng = np.random.default_rng(8)
    layer = cls(4, 3, rng, dtype=np.float64)
    x = rng.standard_normal((2, 5, 4))
    before = layer.forward(x)
    layer.params["U"][:3] += 0.5  # the first gate's block, in place as RMSProp updates
    after = layer.forward(x)
    assert not np.allclose(before, after)
    np.testing.assert_allclose(after, (gru_forward_direct if cls is Gru else lstm_forward_direct)(
        x, per_gate(layer)), rtol=1e-12)


@pytest.mark.parametrize("cls, name", [(Gru, "Uz"), (Gru, "Wh"), (Lstm, "Uf"), (Lstm, "bg")])
def test_rebound_param_takes_effect_on_next_forward(cls, name):
    # rebinding a stacked param to a new array whose block for one gate differs
    rng = np.random.default_rng(6)
    layer = cls(4, 3, rng, dtype=np.float64)
    x = rng.standard_normal((2, 5, 4))
    kind, k = name[0], GATES[cls].index(name[1])
    original = layer.params[kind]
    base = layer.forward(x)
    rebound_value = original.copy()
    rebound_value[k * 3 : (k + 1) * 3] += rng.standard_normal(rebound_value[:3].shape)
    layer.params[kind] = rebound_value
    rebound = layer.forward(x, training=True)
    oracle = gru_forward_direct if cls is Gru else lstm_forward_direct
    np.testing.assert_allclose(rebound, oracle(x, per_gate(layer)), rtol=1e-12)
    assert not np.allclose(rebound, base)
    layer.backward(np.ones_like(rebound))  # backward uses the rebound value too
    assert layer.grads[kind].shape == original.shape
    layer.params[kind] = original
    np.testing.assert_array_equal(layer.forward(x), base)


@pytest.mark.parametrize("cls", [Gru, Lstm])
def test_forward_does_not_write_its_input_or_weights(cls):
    rng = np.random.default_rng(2)
    layer = cls(4, 3, rng, dtype=np.float32)
    x = rng.standard_normal((3, 6, 4)).astype(np.float32)
    saved = (x.copy(), {k: p.copy() for k, p in layer.params.items()})
    layer.forward(x)
    np.testing.assert_array_equal(x, saved[0])
    for k, before in saved[1].items():
        np.testing.assert_array_equal(layer.params[k], before)


@pytest.mark.parametrize("cls", [Gru, Lstm])
def test_input_is_batched_and_starts_from_zero(cls):
    # a single [T,in] sequence and an initial state are not part of the interface
    rng = np.random.default_rng(3)
    layer = cls(4, 3, rng)
    with pytest.raises(ShapeError, match=r"\[B,T,4\]"):
        layer.forward(np.zeros((6, 4), dtype=np.float32))
    with pytest.raises(TypeError):
        layer.forward(np.zeros((1, 6, 4), dtype=np.float32), h0=np.zeros(3, dtype=np.float32))
