"""Autograd engine tests: gradient checks for every primitive, layers, optim."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import (
    MLP,
    Adam,
    LayerNorm,
    Linear,
    SGD,
    Tensor,
    clip_grad_norm,
    concat,
    exp,
    gather_rows,
    gradcheck,
    leaky_relu,
    log,
    log_mse_loss,
    matmul,
    mean,
    mse_loss,
    mul,
    pow_scalar,
    relu,
    scatter_add,
    sigmoid,
    tanh,
    tensor_sum,
    where_rows,
)

RNG = np.random.default_rng(12345)


class TestPrimitiveGradients:
    """Numerical gradient checks, one per primitive op."""

    def test_add_broadcast(self):
        b = RNG.normal(size=(1, 4))
        assert gradcheck(lambda t: mean((t + Tensor(b)) * (t + Tensor(b))),
                         RNG.normal(size=(3, 4)))

    def test_mul_broadcast(self):
        b = RNG.normal(size=(4,))
        assert gradcheck(lambda t: mean(mul(t, Tensor(b))), RNG.normal(size=(3, 4)))

    def test_matmul(self):
        W = RNG.normal(size=(4, 2))
        assert gradcheck(lambda t: mean(matmul(t, Tensor(W))), RNG.normal(size=(3, 4)))

    def test_pow_scalar(self):
        x = np.abs(RNG.normal(size=(3, 3))) + 0.5
        assert gradcheck(lambda t: mean(pow_scalar(t, 1.7)), x)

    def test_relu(self):
        x = RNG.normal(size=(5, 3)) + 0.05  # keep away from the kink
        assert gradcheck(lambda t: mean(relu(t) * relu(t)), x)

    def test_leaky_relu(self):
        x = RNG.normal(size=(5, 3)) + 0.05
        assert gradcheck(lambda t: mean(leaky_relu(t)), x)

    def test_tanh_sigmoid_exp_log(self):
        x = np.abs(RNG.normal(size=(4, 2))) + 0.3
        assert gradcheck(lambda t: mean(tanh(t)), x)
        assert gradcheck(lambda t: mean(sigmoid(t)), x)
        assert gradcheck(lambda t: mean(exp(t)), x)
        assert gradcheck(lambda t: mean(log(t)), x)

    def test_sum_axes(self):
        x = RNG.normal(size=(3, 4))
        assert gradcheck(lambda t: mean(tensor_sum(t, axis=0) * 2.0), x)
        assert gradcheck(lambda t: mean(tensor_sum(t, axis=1, keepdims=True)), x)
        assert gradcheck(lambda t: tensor_sum(t), x)

    def test_concat(self):
        other = RNG.normal(size=(3, 2))
        assert gradcheck(
            lambda t: mean(concat([t, Tensor(other)], axis=-1)), RNG.normal(size=(3, 4))
        )

    def test_gather_rows(self):
        idx = np.array([0, 2, 2, 1])
        assert gradcheck(
            lambda t: mean(gather_rows(t, idx) * gather_rows(t, idx)),
            RNG.normal(size=(3, 4)),
        )

    def test_scatter_add(self):
        idx = np.array([0, 1, 1, 2, 0])
        assert gradcheck(
            lambda t: mean(scatter_add(t, idx, 3) * 1.5), RNG.normal(size=(5, 4))
        )

    def test_where_rows(self):
        mask = np.array([True, False, True])
        other = RNG.normal(size=(3, 4))
        assert gradcheck(
            lambda t: mean(where_rows(mask, t, Tensor(other))), RNG.normal(size=(3, 4))
        )

    def test_layernorm(self):
        layer = LayerNorm(6)
        assert gradcheck(lambda t: mean(layer(t) * layer(t)), RNG.normal(size=(4, 6)))

    def test_composite_gnn_step(self):
        """Gather → scatter → matmul → relu: the message-passing core."""
        W = RNG.normal(size=(4, 4))
        src = np.array([0, 0, 1, 2, 2])
        dst = np.array([1, 2, 2, 0, 1])

        def build(t):
            h = relu(matmul(t, Tensor(W)))
            msgs = gather_rows(h, src)
            agg = scatter_add(msgs, dst, 3)
            return mean(agg * agg)

        assert gradcheck(build, RNG.normal(size=(3, 4)))


class TestBackwardMechanics:
    def test_grad_accumulation(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = x * 2.0 + x * 3.0
        mean(y).backward()
        assert np.allclose(x.grad, 5.0 / 4.0)

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.ones(4), requires_grad=True)
        h = x
        for _ in range(5000):
            h = h * 1.0
        mean(h).backward()
        assert np.allclose(x.grad, 0.25)

    def test_no_tape_for_constant_ops(self):
        a = Tensor(np.ones(3))
        b = a * 2.0
        assert b._backward is None  # no gradient bookkeeping needed

    def test_detach(self):
        x = Tensor(np.ones(3), requires_grad=True)
        d = x.detach()
        assert not d.requires_grad


class TestModules:
    def test_linear_shapes(self):
        layer = Linear(5, 3)
        out = layer(Tensor(np.zeros((7, 5))))
        assert out.shape == (7, 3)

    def test_mlp_parameter_registry(self):
        mlp = MLP(4, [8, 8], 2)
        assert len(mlp.parameters()) == 6  # 3 layers x (W, b)
        assert mlp.n_parameters() == 4 * 8 + 8 + 8 * 8 + 8 + 8 * 2 + 2

    def test_state_dict_roundtrip(self):
        mlp = MLP(4, [8], 2, rng=np.random.default_rng(0))
        mlp2 = MLP(4, [8], 2, rng=np.random.default_rng(99))
        mlp2.load_state_dict(mlp.state_dict())
        x = Tensor(RNG.normal(size=(3, 4)))
        assert np.allclose(mlp(x).data, mlp2(x).data)

    def test_train_eval_mode_dropout(self):
        mlp = MLP(4, [32], 2, dropout_p=0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((1, 4)))
        mlp.eval()
        out1 = mlp(x).data
        out2 = mlp(x).data
        assert np.allclose(out1, out2)  # dropout disabled in eval

    def test_fit_linear_function(self):
        rng = np.random.default_rng(0)
        mlp = MLP(2, [16], 1, rng=rng)
        opt = Adam(mlp.parameters(), lr=1e-2)
        X = rng.uniform(-1, 1, size=(256, 2))
        y = (2 * X[:, :1] - 3 * X[:, 1:]) + 1.0
        for _ in range(500):
            opt.zero_grad()
            loss = mse_loss(mlp(Tensor(X)), Tensor(y))
            loss.backward()
            opt.step()
        assert loss.item() < 1e-2


class TestOptim:
    def test_sgd_descends(self):
        x = Tensor(np.array([5.0]), requires_grad=True)
        opt = SGD([x], lr=0.1)
        for _ in range(100):
            opt.zero_grad()
            loss = mean(x * x)
            loss.backward()
            opt.step()
        assert abs(x.data[0]) < 1e-3

    def test_adam_descends(self):
        x = Tensor(np.array([5.0]), requires_grad=True)
        opt = Adam([x], lr=0.3)
        for _ in range(200):
            opt.zero_grad()
            loss = mean(x * x)
            loss.backward()
            opt.step()
        assert abs(x.data[0]) < 1e-2

    def test_clip_grad_norm(self):
        # the float32 case squares to inf in float32: it must be scaled
        # down to max_norm, not zeroed by a 0 scale
        for dtype, value in ((np.float64, 10.0), (np.float32, 1e20)):
            x = Tensor(np.ones(4, dtype=dtype), requires_grad=True)
            x.grad = np.full(4, value, dtype=dtype)
            norm = clip_grad_norm([x], max_norm=1.0)
            assert norm == pytest.approx(2 * value)
            assert np.linalg.norm(x.grad) == pytest.approx(1.0)

    def test_weight_decay_shrinks(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([x], lr=0.1, weight_decay=1.0)
        for _ in range(50):
            opt.zero_grad()
            loss = mean(x * 0.0)  # zero loss: only decay acts
            loss.backward()
            opt.step()
        assert abs(x.data[0]) < 1.0


class TestLosses:
    def test_log_mse_perfect_prediction(self):
        pred = Tensor(np.log(np.array([[2.0], [4.0]])))
        loss = log_mse_loss(pred, np.array([[2.0], [4.0]]))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    @given(
        arrays(np.float64, (4, 1), elements=st.floats(-2, 2)),
    )
    @settings(max_examples=20, deadline=None)
    def test_mse_nonnegative(self, values):
        pred = Tensor(values, requires_grad=True)
        loss = mse_loss(pred, Tensor(np.zeros((4, 1))))
        assert loss.item() >= 0.0
        loss.backward()
        assert pred.grad.shape == (4, 1)
