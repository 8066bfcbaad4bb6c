import math

import numpy as np
import pytest

from projtune.baselines import BaseOnlyOptimizer, Sgd
from projtune.errors import ConfigError, StateError
from projtune.ftp import make_managed
from projtune.hyperlr import ALPHA_FLOOR, HyperLrState, HyperSgd, hyper_sgd_lr_step
from projtune.model import Batch, MlpSpec, backward, init_params
from projtune.numerics import SeededRng


def quadratic_setup(seed=0, dim=4):
    # L(w) = mean_b |w x_b - y_b|^2 via a single linear layer
    spec = MlpSpec(widths=(dim, 2), loss="mse")
    rng = SeededRng(seed)
    values = init_params(spec, rng.derive(0))
    params = make_managed(values)
    batch = Batch(rng.derive(1).normal((12, dim)), rng.derive(2).normal((12, 2)))
    return spec, params, batch


def assign_grads(spec, params, batch):
    values = {name: p.value for name, p in params.items()}
    loss, grads = backward(spec, values, batch)
    for name, p in params.items():
        p.grad = grads[name]
    return loss


class TestAlphaUpdate:
    def make_params(self, g):
        params = make_managed({"w": np.zeros(len(g))})
        params["w"].grad = np.asarray(g, dtype=np.float64)
        return params

    def test_aligned_gradients_grow_alpha(self):
        state = HyperLrState(alpha=0.5, kappa_lr=0.1, prev_grad=np.array([1.0, 2.0]))
        hyper_sgd_lr_step(state, self.make_params([2.0, 1.0]))
        assert state.alpha == pytest.approx(0.9)  # dot = 4

    def test_orthogonal_gradients_keep_alpha(self):
        state = HyperLrState(alpha=0.5, kappa_lr=0.1, prev_grad=np.array([1.0, 0.0]))
        hyper_sgd_lr_step(state, self.make_params([0.0, 3.0]))
        assert state.alpha == 0.5

    def test_opposed_gradients_shrink_alpha(self):
        state = HyperLrState(alpha=0.5, kappa_lr=0.1, prev_grad=np.array([2.0, 2.0]))
        hyper_sgd_lr_step(state, self.make_params([-1.0, -1.0]))
        assert state.alpha == pytest.approx(0.1)  # dot = -4

    def test_alpha_floored(self):
        state = HyperLrState(alpha=0.01, kappa_lr=1.0, prev_grad=np.array([10.0]))
        hyper_sgd_lr_step(state, self.make_params([-10.0]))
        assert state.alpha == ALPHA_FLOOR

    def test_first_step_skips_alpha_update(self):
        state = HyperLrState(alpha=0.25, kappa_lr=0.1)
        params = self.make_params([1.0, 1.0])
        hyper_sgd_lr_step(state, params)
        assert state.alpha == 0.25
        np.testing.assert_allclose(params["w"].value, [-0.25, -0.25])
        assert state.prev_grad is not None

    def test_missing_grad_is_state_error(self):
        state = HyperLrState(alpha=0.1, kappa_lr=0.0)
        params = make_managed({"w": np.zeros(2)})
        with pytest.raises(StateError):
            hyper_sgd_lr_step(state, params)

    def test_nonpositive_alpha0_rejected(self):
        with pytest.raises(ConfigError):
            HyperLrState(alpha=0.0, kappa_lr=0.1)

    @pytest.mark.parametrize("alpha, kappa", [
        (math.inf, 0.1), (0.1, math.nan), (0.1, math.inf), (0.1, -5.0),
    ], ids=["alpha-inf", "kappa-nan", "kappa-inf", "kappa-negative"])
    def test_non_finite_alpha_or_bad_kappa_rejected(self, alpha, kappa):
        with pytest.raises(ConfigError, match="hyper.alpha0" if kappa == 0.1 else "hyper.kappa"):
            HyperLrState(alpha=alpha, kappa_lr=kappa)


class TestSignLaw:
    def test_strict_increase_iff_positive_dot(self):
        rng = SeededRng(123)
        state = HyperLrState(alpha=0.3, kappa_lr=0.01)
        params = make_managed({"w": np.zeros(5)})
        prev = None
        for t in range(1000):
            g = rng.normal((5,))
            params["w"].grad = g.copy()
            alpha_before = state.alpha
            hyper_sgd_lr_step(state, params)
            if prev is not None:
                dot = float(np.dot(g, prev))
                assert (state.alpha > alpha_before) == (dot > 0), t
            prev = g

    def test_kappa_zero_matches_fixed_lr_sgd_bitwise(self):
        spec, params_a, batch = quadratic_setup(seed=5)
        _, params_b, _ = quadratic_setup(seed=5)
        hyper = HyperSgd(params_a, alpha0=0.05, kappa=0.0)
        plain = BaseOnlyOptimizer(params_b, Sgd(lr=0.05))
        for _ in range(50):
            assign_grads(spec, params_a, batch)
            assign_grads(spec, params_b, batch)
            hyper.step()
            plain.step()
        assert hyper.alpha == 0.05
        for name in params_a:
            np.testing.assert_array_equal(params_a[name].value, params_b[name].value)

    def test_block_step_matches_the_reference_step_bitwise(self):
        spec = MlpSpec(widths=(4, 6, 3), activations=("tanh",), loss="softmax_ce")
        rng = SeededRng(11)
        values = init_params(spec, rng.derive(0))
        batches = [Batch(rng.derive(1 + i).normal((8, 4)),
                         np.asarray(rng.derive(9 + i).integers(0, 3, size=8))) for i in range(5)]
        params = make_managed(values)
        clone = make_managed(values)
        opt = HyperSgd(params, alpha0=0.05, kappa=1e-3)
        state = HyperLrState(alpha=0.05, kappa_lr=1e-3)
        assert set(opt.grad_views) == set(params)
        alphas = set()
        for t in range(50):
            batch = batches[t % len(batches)]
            _, grads = backward(spec, {n: p.value for n, p in params.items()}, batch,
                                out=opt.grad_views)
            for name, p in params.items():
                p.grad = grads[name]
            assign_grads(spec, clone, batch)
            opt.step()
            hyper_sgd_lr_step(state, clone)
            assert opt.alpha == state.alpha, t
            for name in params:
                assert params[name].value.tobytes() == clone[name].value.tobytes(), (t, name)
            alphas.add(opt.alpha)
        assert len(alphas) > 2  # the rate moved


class TestConvexQuadratic:
    def test_alpha_stabilizes_and_loss_decreases(self):
        for seed in range(5):
            spec, params, batch = quadratic_setup(seed=100 + seed)
            opt = HyperSgd(params, alpha0=0.02, kappa=1e-4)
            losses, alphas = [], []
            for _ in range(120):
                losses.append(assign_grads(spec, params, batch))
                opt.step()
                alphas.append(opt.alpha)
            # monotone nonincreasing loss after a short burn-in
            tail = losses[10:]
            assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:])), seed
            # alpha settles: late-window variation is tiny vs its scale
            late = np.array(alphas[-20:])
            assert np.ptp(late) <= 0.05 * late.mean(), seed


def stepped_hyper_sgd():
    """HyperSgd after two steps, so its state holds a prev_grad."""
    spec, params, batch = quadratic_setup(seed=5)
    opt = HyperSgd(params, alpha0=0.02, kappa=1e-3)
    for _ in range(2):
        assign_grads(spec, params, batch)
        opt.step()
    return opt


@pytest.mark.parametrize("damage", [
    lambda state: state["tensors"].update(
        {"hyper/prev_grad": state["tensors"]["hyper/prev_grad"][:-1]}),
    lambda state: state.pop("alpha"),
    lambda state: state.update(alpha=-1.0),
    lambda state: state.update(alpha=math.inf),
], ids=["prev-grad-size", "missing-alpha", "negative-alpha", "infinite-alpha"])
def test_set_state_rejects_a_state_that_does_not_fit_and_loads_nothing(damage):
    opt = stepped_hyper_sgd()
    state = opt.get_state()
    damage(state)
    fresh = stepped_hyper_sgd()
    before = fresh.get_state()
    with pytest.raises(StateError, match="hyper-sgd"):
        fresh.set_state(state)
    after = fresh.get_state()
    assert after["alpha"] == before["alpha"]
    assert after["tensors"]["hyper/prev_grad"] is before["tensors"]["hyper/prev_grad"]

