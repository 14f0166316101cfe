import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from emofuse.errors import SchemaError
from emofuse.nn.optim import EPS, RHO, RmsProp

from conftest import float_values
from oracles import assert_same_bits, rmsprop_out_of_place


class TestRmsProp:
    def test_first_step_hand_computed(self):
        # acc = 0.1, delta = -1e-4 / sqrt(0.1 + 1e-7)
        opt = RmsProp(learning_rate=1e-4)
        params = {"w": np.array([1.0])}
        opt.step(params, {"w": np.array([1.0])})
        expected_delta = -1e-4 / np.sqrt(0.1 + 1e-7)
        assert params["w"][0] == pytest.approx(1.0 + expected_delta, rel=1e-12)
        assert expected_delta == pytest.approx(-3.1623e-4, rel=1e-4)
        assert opt.acc["w"][0] == pytest.approx(0.1)

    def test_zero_gradient_is_identity(self):
        opt = RmsProp()
        params = {"w": np.arange(5, dtype=np.float64)}
        before = params["w"].copy()
        for _ in range(3):
            opt.step(params, {"w": np.zeros(5)})
        np.testing.assert_array_equal(params["w"], before)

    def test_accumulator_stays_nonnegative(self):
        rng = np.random.default_rng(0)
        opt = RmsProp(learning_rate=1e-3)
        params = {"w": rng.standard_normal(20)}
        for _ in range(50):
            opt.step(params, {"w": rng.standard_normal(20) * 10})
            assert (opt.acc["w"] >= 0).all()

    def test_accumulator_recurrence(self):
        opt = RmsProp()
        params = {"w": np.array([0.0])}
        opt.step(params, {"w": np.array([2.0])})
        opt.step(params, {"w": np.array([4.0])})
        # acc = 0.9*(0.9*0 + 0.1*4) + 0.1*16
        assert opt.acc["w"][0] == pytest.approx(0.9 * 0.4 + 0.1 * 16.0)

    def test_updates_in_place(self):
        opt = RmsProp()
        w = np.ones(3, dtype=np.float32)
        params = {"w": w}
        opt.step(params, {"w": np.ones(3, dtype=np.float32)})
        assert params["w"] is w
        assert w.dtype == np.float32

    def test_state_roundtrip(self):
        opt = RmsProp()
        params = {"w": np.ones(3)}
        opt.step(params, {"w": np.ones(3)})
        clone = RmsProp()
        clone.load_state(opt.state_arrays())
        np.testing.assert_array_equal(clone.acc["w"], opt.acc["w"])


@pytest.mark.parametrize("field, value", [
    ("learning_rate", 0.0), ("learning_rate", -1.0), ("learning_rate", float("nan")),
    ("learning_rate", float("inf")), ("learning_rate", "x"), ("learning_rate", True),
])
def test_hyperparameter_outside_its_domain_is_schema_error(field, value):
    with pytest.raises(SchemaError, match=f"^{field} must be"):
        RmsProp(**{field: value})


@pytest.mark.parametrize("field", ["rho", "eps"])
def test_rho_and_eps_are_constants(field):
    # the paper trains with one RMSProp; a checkpoint stores neither value
    with pytest.raises(TypeError):
        RmsProp(**{field: 0.5})
    assert (RHO, EPS) == (0.9, 1e-7)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    dtypes=st.lists(st.sampled_from([np.float32, np.float64]), min_size=1, max_size=3),
    steps=st.integers(1, 3),
    learning_rate=st.sampled_from([1e-4, 1e-3, 0.5]),
    resumed=st.booleans(),
)
def test_in_place_step_equals_out_of_place(data, dtypes, steps, learning_rate, resumed):
    # one dtype per parameter, shared by its grads and its accumulator: a layer's
    # grads have its params' dtype, and load_checkpoint casts the accumulators to it
    shapes = [data.draw(hnp.array_shapes(max_dims=2, max_side=4)) for _ in dtypes]
    params = {
        f"p{i}": data.draw(hnp.arrays(dt, shape, elements=float_values(dt)))
        for i, (dt, shape) in enumerate(zip(dtypes, shapes))
    }
    params0 = {k: v.copy() for k, v in params.items()}
    opt, acc0 = RmsProp(learning_rate), {}
    if resumed:
        for k, v in params.items():
            acc0[k] = data.draw(hnp.arrays(v.dtype, v.shape, elements=st.floats(0, 4, width=32)))
        opt.load_state(acc0)
    for _ in range(steps):
        grads = {
            f"p{i}": data.draw(hnp.arrays(dt, shape, elements=float_values(dt)))
            for i, (dt, shape) in enumerate(zip(dtypes, shapes))
        }
        with np.errstate(all="ignore"):
            opt.step(params, grads)
            rmsprop_out_of_place(params0, grads, acc0, learning_rate, RHO, EPS)
        for k in params:
            assert_same_bits(params[k], params0[k])
            assert_same_bits(opt.acc[k], acc0[k])
