import itertools

import numpy as np
import pytest

from projtune.baselines import (
    AdamW,
    BaseOnlyOptimizer,
    MarsSpOptimizer,
    Sgd,
    TpgmOptimizer,
    freeze_mask,
    l2_sp_grad,
    make_base_optimizer,
    wise_interpolate,
    wise_interpolate_params,
)
from projtune.errors import ConfigError, DomainError, StateError
from projtune.ftp import FtpOptimizer, make_managed
from projtune.hyperlr import HyperSgd
from projtune.model import Batch, MlpSpec, backward, init_params
from projtune.numerics import SeededRng
from projtune.projection import project_rows, row_displacement


class TestSgd:
    def test_plain_step(self):
        opt = Sgd(lr=0.1)
        w = opt.step("w", np.array([1.0]), np.array([2.0]))
        np.testing.assert_allclose(w, [0.8])

    def test_momentum_two_step_recursion(self):
        opt = Sgd(lr=0.1, momentum=0.9)
        w = np.array([1.0])
        w = opt.step("w", w, np.array([1.0]))
        np.testing.assert_allclose(w, [0.9])
        w = opt.step("w", w, np.array([1.0]))
        np.testing.assert_allclose(w, [0.71])  # velocity 1.9 after two unit grads

    def test_zero_grad_no_decay_unchanged(self):
        opt = Sgd(lr=0.5)
        w = np.array([1.0, -2.0])
        np.testing.assert_array_equal(opt.step("w", w, np.zeros(2)), w)

    def test_nesterov_differs_from_heavy_ball(self):
        g = np.array([1.0])
        plain = Sgd(lr=0.1, momentum=0.9)
        nest = Sgd(lr=0.1, momentum=0.9, nesterov=True)
        w_p = plain.step("w", np.array([1.0]), g)
        w_n = nest.step("w", np.array([1.0]), g)
        np.testing.assert_allclose(w_n, [1.0 - 0.1 * 1.9])
        assert w_n[0] != w_p[0]

    def test_coupled_weight_decay(self):
        opt = Sgd(lr=0.1, weight_decay=0.5)
        w = opt.step("w", np.array([2.0]), np.array([0.0]))
        np.testing.assert_allclose(w, [2.0 - 0.1 * 1.0])

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            Sgd(lr=0.0)
        with pytest.raises(ConfigError):
            Sgd(lr=0.1, nesterov=True)

    def test_state_roundtrip(self):
        opt = Sgd(lr=0.1, momentum=0.9)
        opt.step("w", np.array([1.0]), np.array([1.0]))
        clone = Sgd(lr=0.1, momentum=0.9)
        clone.set_state(opt.get_state())
        a = opt.step("w", np.array([0.9]), np.array([1.0]))
        b = clone.step("w", np.array([0.9]), np.array([1.0]))
        np.testing.assert_array_equal(a, b)


class TestAdamW:
    def test_first_step_size(self):
        opt = AdamW(lr=0.01)
        w = opt.step("w", np.array([0.0]), np.array([1.0]))
        assert w[0] == pytest.approx(-0.01, rel=1e-6)

    def test_decoupled_decay(self):
        opt = AdamW(lr=0.01, weight_decay=0.1)
        w = opt.step("w", np.array([1.0]), np.array([1.0]))
        assert w[0] == pytest.approx(0.989, abs=1e-6)

    def test_zero_grads_keep_weights(self):
        opt = AdamW(lr=0.01)
        w = np.array([1.0, 2.0])
        for _ in range(5):
            w = opt.step("w", w, np.zeros(2))
        np.testing.assert_array_equal(w, [1.0, 2.0])

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            AdamW(lr=0.01).step("w", np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_steps_match_the_textbook_formula_bitwise(self, weight_decay):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = AdamW(lr=lr, weight_decay=weight_decay)
        rng = SeededRng(7)
        w = w_ref = rng.derive(0).normal((8, 5))
        m = v = np.zeros_like(w)
        for t in range(1, 6):
            g = rng.derive(t).normal((8, 5))
            w = opt.step("w", w, g)
            if weight_decay:
                w_ref = w_ref * (1 - lr * weight_decay)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            w_ref = w_ref - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert w.tobytes() == w_ref.tobytes(), t

    def test_factory(self):
        assert isinstance(make_base_optimizer("sgd", 0.1), Sgd)
        assert isinstance(make_base_optimizer("adamw", 0.1), AdamW)
        with pytest.raises(ConfigError):
            make_base_optimizer("lars", 0.1)


@pytest.mark.parametrize("build", [
    lambda params: BaseOnlyOptimizer(params, Sgd(lr=0.1)).step,
    lambda params: MarsSpOptimizer(params, Sgd(lr=0.1), gamma=0.5).step,
    lambda params: TpgmOptimizer(params, Sgd(lr=0.1), None, [[]], inner_iters=0).step,
    lambda params: FtpOptimizer(params, Sgd(lr=0.1)).step,
    lambda params: HyperSgd(params, alpha0=0.1, kappa=0.0).step,
], ids=["base-only", "mars-sp", "tpgm", "ftp", "hyper-sgd"])
def test_missing_gradient_is_state_error_before_any_update(build):
    params = make_managed({"w": np.ones((2, 2)), "b": np.ones(2)})
    params["w"].grad = np.ones((2, 2))
    before = params["w"].value
    with pytest.raises(StateError):
        build(params)()
    assert params["w"].value is before


@pytest.mark.parametrize("build", [
    lambda params: BaseOnlyOptimizer(params, Sgd(lr=0.1, momentum=0.9)),
    lambda params: MarsSpOptimizer(params, AdamW(lr=0.1), gamma=0.5),
    lambda params: TpgmOptimizer(params, Sgd(lr=0.1, momentum=0.9), None, itertools.repeat([]),
                                 inner_iters=0),
    lambda params: FtpOptimizer(params, AdamW(lr=0.1)),
    lambda params: HyperSgd(params, alpha0=0.1, kappa=0.5),
], ids=["base-only", "mars-sp", "tpgm", "ftp", "hyper-sgd"])
def test_optimizer_state_round_trips_and_rejects_another_kind(build):
    def stepped():
        params = make_managed({"w": np.ones((2, 2)), "b": np.ones(2)})
        opt = build(params)
        for t in range(2):
            for p in params.values():
                p.grad = np.full(p.value.shape, 0.5 + t)
            opt.step()
        return opt

    state = stepped().get_state()
    assert state["tensors"]
    fresh = build(make_managed({"w": np.ones((2, 2)), "b": np.ones(2)}))
    fresh.set_state(state)
    again = fresh.get_state()
    assert {k: v for k, v in again.items() if k != "tensors"} == \
        {k: v for k, v in state.items() if k != "tensors"}
    assert again["tensors"].keys() == state["tensors"].keys()
    for key, arr in state["tensors"].items():
        assert again["tensors"][key].tobytes() == arr.tobytes(), key
    for other in ("sgd", "adamw", "hyper-sgd", None):
        if other != state["kind"]:
            with pytest.raises(StateError, match="kind"):
                fresh.set_state({**state, "kind": other})


@pytest.mark.parametrize("build", [
    lambda: Sgd(lr=0.1, momentum=0.9),
    lambda: Sgd(lr=0.1, momentum=0.9, nesterov=True, weight_decay=0.01),
    lambda: AdamW(lr=0.1, weight_decay=0.01),
], ids=["sgd-momentum", "sgd-nesterov", "adamw"])
def test_stepping_after_set_state_leaves_the_state_unchanged(build):
    source = build()
    source.step("w", np.ones((3, 2)), np.full((3, 2), 0.5))
    state = source.get_state()
    kept = {key: arr.copy() for key, arr in state["tensors"].items()}
    opt = build()
    opt.set_state(state)
    for _ in range(2):
        opt.step("w", np.ones((3, 2)), np.full((3, 2), -0.25))
    for key, arr in state["tensors"].items():
        assert arr.tobytes() == kept[key].tobytes(), key


def toy_problem(seed=0, widths=(3, 4, 2)):
    spec = MlpSpec(widths=widths, activations=("tanh",) * (len(widths) - 2), loss="softmax_ce")
    rng = SeededRng(seed)
    values = init_params(spec, rng.derive(0))
    params = make_managed(values)
    x = rng.derive(1).normal((6, widths[0]))
    y = np.asarray(rng.derive(2).integers(0, widths[-1], size=6))
    return spec, params, Batch(x, y)


def assign_grads(spec, params, batch):
    values = {name: p.value for name, p in params.items()}
    loss, grads = backward(spec, values, batch)
    for name, p in params.items():
        p.grad = grads[name]
    return loss


class TestMarsSp:
    def test_infinite_gamma_matches_vanilla(self):
        spec, params_a, batch = toy_problem(1)
        _, params_b, _ = toy_problem(1)
        opt_a = MarsSpOptimizer(params_a, Sgd(lr=0.05, momentum=0.9), gamma=np.inf)
        opt_b = BaseOnlyOptimizer(params_b, Sgd(lr=0.05, momentum=0.9))
        for _ in range(10):
            assign_grads(spec, params_a, batch)
            assign_grads(spec, params_b, batch)
            opt_a.step()
            opt_b.step()
        for name in params_a:
            np.testing.assert_array_equal(params_a[name].value, params_b[name].value)

    def test_zero_gamma_pins_to_anchor(self):
        spec, params, batch = toy_problem(2)
        anchors = {n: p.anchor.copy() for n, p in params.items()}
        opt = MarsSpOptimizer(params, Sgd(lr=0.5), gamma=0.0)
        for _ in range(5):
            assign_grads(spec, params, batch)
            opt.step()
        for name, p in params.items():
            np.testing.assert_allclose(p.value, anchors[name], atol=1e-15)

    def test_projection_matches_oracle(self):
        # one step that lands at displacement [3, -4] must project to [6/7, -8/7]
        params = make_managed({"w": np.zeros((1, 2))})
        opt = MarsSpOptimizer(params, Sgd(lr=1.0), gamma=2.0)
        params["w"].grad = np.array([[-3.0, 4.0]])
        opt.step()
        np.testing.assert_allclose(params["w"].value, [[6.0 / 7.0, -8.0 / 7.0]])

    def test_constraint_holds_along_trajectory(self):
        spec, params, batch = toy_problem(3)
        opt = MarsSpOptimizer(params, Sgd(lr=0.3), gamma=0.15)
        for _ in range(20):
            assign_grads(spec, params, batch)
            opt.step()
            for name, p in params.items():
                view = opt.views[name]
                _, d = row_displacement(view.to_2d(p.value), view.to_2d(p.anchor))
                assert d.max() <= 0.15 + 1e-9

    def test_negative_gamma_rejected(self):
        params = make_managed({"w": np.zeros((1, 2))})
        with pytest.raises(ConfigError):
            MarsSpOptimizer(params, Sgd(lr=0.1), gamma=-1.0)
        with pytest.raises(ConfigError):
            MarsSpOptimizer(params, Sgd(lr=0.1), gamma=float("nan"))


class TestTpgm:
    def make(self, seed=4, inner_iters=1, lr=0.05, n_val=None, steps=None):
        """TPGM whose stream gives each of ``steps`` steps (default: every step)
        ``n_val`` (default: ``inner_iters``) copies of the training batch."""
        spec, params, batch = toy_problem(seed)
        calls = {"n": 0}

        def grad_fn(values, b):
            calls["n"] += 1
            return backward(spec, values, b)

        per_step = [batch] * (inner_iters if n_val is None else n_val)
        stream = itertools.repeat(per_step) if steps is None else [per_step] * steps
        opt = TpgmOptimizer(params, Sgd(lr=lr), grad_fn, stream, inner_iters=inner_iters)
        return spec, params, batch, opt, calls

    def test_zero_inner_iterations_is_pure_projection(self):
        spec, params, batch, opt, _ = self.make(inner_iters=0)
        assign_grads(spec, params, batch)
        base_clone = Sgd(lr=0.05)
        expected = {}
        for name, p in params.items():
            w_tilde = base_clone.step(name, p.value.copy(), p.grad)
            view = opt.views[name]
            expected[name] = project_rows(
                view.to_2d(w_tilde), view.to_2d(p.anchor), opt.gammas[name].gamma
            ).reshape(view.source_shape)
        opt.step()
        for name in params:
            np.testing.assert_array_equal(params[name].value, expected[name])

    def test_zero_validation_gradient_keeps_gamma(self):
        spec, params, batch, opt, _ = self.make()

        def zero_grad_fn(values, b):
            return 0.0, {name: np.zeros_like(v) for name, v in values.items()}

        opt.grad_fn = zero_grad_fn
        gammas_before = {n: gs.gamma for n, gs in opt.gammas.items()}
        assign_grads(spec, params, batch)
        opt.step()
        for name, gs in opt.gammas.items():
            assert gs.gamma == pytest.approx(gammas_before[name], abs=1e-15)

    def test_consumes_one_extra_pass_per_inner_iteration(self):
        for k in (1, 3):
            spec, params, batch, opt, calls = self.make(inner_iters=k)
            for _ in range(4):
                assign_grads(spec, params, batch)
                opt.step()
            assert calls["n"] == 4 * k

    def test_too_few_validation_batches_rejected(self):
        spec, params, batch, opt, _ = self.make(inner_iters=2, n_val=1)
        assign_grads(spec, params, batch)
        with pytest.raises(ConfigError):
            opt.step()

    def test_an_exhausted_validation_stream_is_config_error_before_any_update(self):
        spec, params, batch, opt, calls = self.make(steps=2)
        for _ in range(2):
            assign_grads(spec, params, batch)
            opt.step()
        values = {name: p.value.copy() for name, p in params.items()}
        gammas = {name: gs.gamma for name, gs in opt.gammas.items()}
        assign_grads(spec, params, batch)
        with pytest.raises(ConfigError, match="validation"):
            opt.step()
        assert calls["n"] == 2
        assert {name: gs.gamma for name, gs in opt.gammas.items()} == gammas
        for name, p in params.items():
            assert p.value.tobytes() == values[name].tobytes(), name

    def test_constraint_holds_along_trajectory(self):
        spec, params, batch, opt, _ = self.make(seed=6)
        for _ in range(15):
            assign_grads(spec, params, batch)
            opt.step()
            for name, gs in opt.gammas.items():
                view = opt.views[name]
                _, d = row_displacement(view.to_2d(params[name].value),
                                        view.to_2d(params[name].anchor))
                assert d.max() <= gs.gamma + 1e-9

    def test_gamma_update_direction_agrees_with_reused_gradient(self):
        # with a vanishing model step, the validation-loop constraint gradient
        # at W_tilde_t and the reused-gradient form at W_tilde_{t-1} see the
        # same geometry and must agree in sign
        from projtune.ftp import hyper_gradient

        for seed in (20, 21, 22, 23, 24):
            spec, params, batch = toy_problem(seed)
            opt = MarsSpOptimizer(params, Sgd(lr=0.2), gamma=0.05)
            for _ in range(3):  # move off the anchor so displacements are meaningful
                assign_grads(spec, params, batch)
                opt.step()
            gamma = 0.05
            values = {n: p.value for n, p in params.items()}
            _, grads = backward(spec, values, batch)
            tiny = Sgd(lr=1e-10)
            w_tilde = {n: tiny.step(n, p.value, grads[n]) for n, p in params.items()}
            for name, p in params.items():
                view = opt.views[name]
                # FTP form: gradient at W_{t-1} chained through the cached
                # previous displacement (here: prev step's unconstrained weights)
                ftp_grad = hyper_gradient(
                    view.to_2d(grads[name]), view.to_2d(p.prev_unconstrained),
                    view.to_2d(p.anchor), gamma,
                )
                # validation-loop form: gradient of the same batch at the
                # projected model, chained through the fresh W_tilde_t
                probe = dict(values)
                probe[name] = project_rows(
                    view.to_2d(w_tilde[name]), view.to_2d(p.anchor), gamma
                ).reshape(view.source_shape)
                _, val_grads = backward(spec, probe, batch)
                tpgm_grad = hyper_gradient(
                    view.to_2d(val_grads[name]), view.to_2d(w_tilde[name]),
                    view.to_2d(p.anchor), gamma,
                )
                if abs(ftp_grad) > 1e-8 or abs(tpgm_grad) > 1e-8:
                    assert np.sign(ftp_grad) == np.sign(tpgm_grad), (seed, name)


class TestRegularizers:
    def test_l2_sp_zero_at_anchor(self):
        w = SeededRng(0).normal((3, 3))
        np.testing.assert_array_equal(l2_sp_grad(w, w, 0.7), np.zeros((3, 3)))

    def test_l2_sp_zero_lambda(self):
        rng = SeededRng(1)
        np.testing.assert_array_equal(
            l2_sp_grad(rng.normal((2, 2)), rng.normal((2, 2)), 0.0), np.zeros((2, 2))
        )

    def test_l2_sp_hand_value(self):
        got = l2_sp_grad(np.array([2.0, -2.0]), np.zeros(2), 0.5)
        np.testing.assert_allclose(got, [1.0, -1.0])

    def test_l2_sp_negative_lambda_rejected(self):
        with pytest.raises(ConfigError):
            l2_sp_grad(np.zeros(2), np.zeros(2), -0.1)

    def test_wise_endpoints_and_midpoint(self):
        w0 = np.zeros((2, 2))
        wf = np.full((2, 2), 2.0)
        np.testing.assert_array_equal(wise_interpolate(wf, w0, 0.0), w0)
        np.testing.assert_array_equal(wise_interpolate(wf, w0, 1.0), wf)
        np.testing.assert_array_equal(wise_interpolate(wf, w0, 0.5), np.ones((2, 2)))

    def test_wise_ratio_validated(self):
        with pytest.raises(ConfigError):
            wise_interpolate(np.zeros(2), np.zeros(2), 1.5)

    def test_wise_self_composition(self):
        rng = SeededRng(2)
        wf, w0 = rng.normal((3, 3)), rng.normal((3, 3))
        r = 0.3
        once = wise_interpolate(wf, w0, r)
        again = wise_interpolate(once, w0, 1.0)
        np.testing.assert_array_equal(again, once)

    def test_wise_params_shape_check(self):
        with pytest.raises(DomainError):
            wise_interpolate_params({"a": np.zeros(2)}, {"b": np.zeros(2)}, 0.5)


class TestFreezeMask:
    def test_freeze_all_stops_motion(self):
        spec, params, batch = toy_problem(5)
        before = {n: p.value.copy() for n, p in params.items()}
        opt = BaseOnlyOptimizer(params, Sgd(lr=0.5, momentum=0.9))
        for _ in range(5):
            assign_grads(spec, params, batch)
            freeze_mask(params, [])
            opt.step()
        for name, p in params.items():
            np.testing.assert_array_equal(p.value, before[name])

    def test_freeze_none_matches_unmasked(self):
        spec, params_a, batch = toy_problem(6)
        _, params_b, _ = toy_problem(6)
        opt_a = BaseOnlyOptimizer(params_a, Sgd(lr=0.1))
        opt_b = BaseOnlyOptimizer(params_b, Sgd(lr=0.1))
        for _ in range(5):
            assign_grads(spec, params_a, batch)
            freeze_mask(params_a, list(params_a))
            opt_a.step()
            assign_grads(spec, params_b, batch)
            opt_b.step()
        for name in params_a:
            np.testing.assert_array_equal(params_a[name].value, params_b[name].value)

    def test_freeze_all_but_head_only_moves_head(self):
        spec, params, batch = toy_problem(7)
        before = {n: p.value.copy() for n, p in params.items()}
        head = ["layer1.weight", "layer1.bias"]
        opt = BaseOnlyOptimizer(params, Sgd(lr=0.1))
        for _ in range(10):
            assign_grads(spec, params, batch)
            freeze_mask(params, head)
            opt.step()
        for name, p in params.items():
            if name in head:
                assert np.abs(p.value - before[name]).max() > 0
            else:
                np.testing.assert_array_equal(p.value, before[name])

    def test_unknown_name_rejected(self):
        _, params, _ = toy_problem(8)
        with pytest.raises(ConfigError):
            freeze_mask(params, ["nope.weight"])
