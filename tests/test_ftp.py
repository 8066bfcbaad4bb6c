import math

import numpy as np
import pytest

from projtune.baselines import BaseOnlyOptimizer, Sgd
from projtune.errors import ConfigError, DomainError, StateError
from projtune.ftp import (
    GAMMA_INIT,
    FtpOptimizer,
    GammaState,
    ManagedParam,
    adam_update_gamma,
    anneal_gradient,
    hyper_gradient,
    make_managed,
    rebase_anchor,
)
from projtune.model import Batch, MlpSpec, backward, evaluate_loss, init_params
from projtune.numerics import SeededRng, mars_norm
from projtune.projection import project_rows


class TestHyperGradient:
    def test_single_row_hand_value(self):
        g = np.array([[1.0, 0.0]])
        delta = np.array([[2.0, -2.0]])
        assert hyper_gradient(g, delta, np.zeros((1, 2)), 1e-8) == pytest.approx(0.5)

    def test_symmetric_cancellation(self):
        g = np.array([[1.0, 1.0]])
        delta = np.array([[2.0, -2.0]])
        assert hyper_gradient(g, delta, np.zeros((1, 2)), 1e-8) == 0.0

    def test_two_rows_sum(self):
        g = np.array([[1.0, 0.0], [0.0, 1.0]])
        prev = np.array([[2.0, -2.0], [1.0, 1.0]])
        assert hyper_gradient(g, prev, np.zeros((2, 2)), 1e-8) == pytest.approx(1.0)

    def test_inactive_rows_contribute_zero(self):
        g = np.array([[1.0, 0.0], [0.0, 1.0]])
        prev = np.array([[2.0, -2.0], [1.0, 1.0]])
        # row displacements are 4 and 2; raising gamma silences rows inside the ball
        assert hyper_gradient(g, prev, np.zeros((2, 2)), 3.0) == pytest.approx(0.5)
        assert hyper_gradient(g, prev, np.zeros((2, 2)), 5.0) == 0.0

    def test_tiny_displacement_contributes_zero(self):
        g = np.array([[1.0, 1.0]])
        prev = np.full((1, 2), 1e-14)
        assert hyper_gradient(g, prev, np.zeros((1, 2)), 0.0) == 0.0

    def test_missing_cache_is_state_error(self):
        with pytest.raises(StateError):
            hyper_gradient(np.zeros((1, 2)), None, np.zeros((1, 2)), 0.0)

    def test_matches_finite_differences_of_projected_loss(self):
        # phi(gamma) = loss(project(w_tilde, anchor, gamma)); with all rows
        # active the analytic constraint gradient must match central
        # differences of phi.
        failures = 0
        for trial in range(50):
            rng = SeededRng(5000 + trial)
            spec = MlpSpec(widths=(4, 3), loss="mse")
            anchor = init_params(spec, rng.derive(0))
            w_tilde = {n: v + rng.derive(1, i).normal(v.shape, stddev=0.3)
                       for i, (n, v) in enumerate(anchor.items())}
            batch = Batch(rng.derive(2).normal((6, 4)), rng.derive(3).normal((6, 3)))
            name = "layer0.weight"
            disp = np.abs(w_tilde[name] - anchor[name]).sum(axis=1)
            gamma = 0.5 * disp.min()

            def phi(g):
                probe = dict(w_tilde)
                probe[name] = project_rows(w_tilde[name], anchor[name], g)
                return evaluate_loss(spec, probe, batch)

            projected = dict(w_tilde)
            projected[name] = project_rows(w_tilde[name], anchor[name], gamma)
            _, grads = backward(spec, projected, batch)
            analytic = hyper_gradient(grads[name], w_tilde[name], anchor[name], gamma)
            h = 1e-6 * disp.min()
            fd = (phi(gamma + h) - phi(gamma - h)) / (2 * h)
            if abs(analytic - fd) > 1e-4 * max(abs(fd), 1e-8):
                failures += 1
        assert failures == 0


class TestAnnealGradient:
    def test_positive_scaled(self):
        assert anneal_gradient(0.5, 0.5) == 0.25

    def test_negative_untouched(self):
        for kappa in (0.0, 0.3, 1.0):
            assert anneal_gradient(-0.5, kappa) == -0.5

    def test_full_annealing(self):
        assert anneal_gradient(0.7, 0.0) == 0.0

    def test_kappa_out_of_range(self):
        with pytest.raises(ConfigError):
            anneal_gradient(0.5, 1.5)
        with pytest.raises(ConfigError):
            anneal_gradient(0.5, -0.1)


class TestAdamUpdateGamma:
    def test_negative_gradient_opens_constraint(self):
        gs = GammaState(gamma=1e-8)
        raw = adam_update_gamma(gs, -0.5)
        assert gs.gamma == pytest.approx(0.01000001, abs=1e-7)
        assert raw == gs.gamma

    def test_positive_gradient_clamped_at_zero(self):
        gs = GammaState(gamma=1e-8)
        raw = adam_update_gamma(gs, 0.5)
        assert raw == pytest.approx(-0.00999999, abs=1e-7)
        assert gs.gamma == 0.0

    def test_zero_gradient_from_zero_state(self):
        gs = GammaState(gamma=0.123)
        adam_update_gamma(gs, 0.0)
        assert gs.gamma == 0.123

    def test_matches_transcribed_recurrence(self):
        # direct transcription of the Adam recurrences, no clamp
        rng = SeededRng(77)
        grads = rng.normal((100,), stddev=0.8)
        gs = GammaState(gamma=0.05)
        m = v = 0.0
        gamma_ref = 0.05
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9**t)
            v_hat = v / (1 - 0.999**t)
            gamma_ref = gamma_ref - 1e-2 * m_hat / (math.sqrt(v_hat) + 1e-8)
            raw = adam_update_gamma(gs, float(g))
            assert abs(raw - gamma_ref) < 1e-12
            # the live state clamps, the reference does not
            gs.gamma = gamma_ref

    def test_step_size_never_exceeds_forty_mu(self):
        # |m_hat| / sqrt(v_hat) is bounded for any gradient sequence
        for seed in range(20):
            gs = GammaState(gamma=5.0, mu=1e-2)
            grads = SeededRng(seed).normal((200,), stddev=3.0)
            prev = gs.gamma
            for g in grads:
                raw = adam_update_gamma(gs, float(g))
                assert abs(raw - prev) <= 40 * gs.mu
                prev = gs.gamma

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_gradient_rejected_before_state_changes(self, bad):
        gs = GammaState(gamma=0.2)
        adam_update_gamma(gs, -0.3)
        before = GammaState(**vars(gs))
        with pytest.raises(DomainError):
            adam_update_gamma(gs, bad)
        assert gs == before

    def test_kappa_validated_on_state(self):
        with pytest.raises(ConfigError):
            GammaState(kappa=2.0)


def toy_setup(seed=0, widths=(3, 4, 2), batch_n=6):
    spec = MlpSpec(widths=widths, activations=("tanh",) * (len(widths) - 2), loss="softmax_ce")
    rng = SeededRng(seed)
    values = init_params(spec, rng.derive(0))
    params = make_managed(values)
    x = rng.derive(1).normal((batch_n, widths[0]))
    y = np.asarray(rng.derive(2).integers(0, widths[-1], size=batch_n))
    return spec, params, Batch(x, y)


def assign_grads(spec, params, batch):
    values = {name: p.value for name, p in params.items()}
    loss, grads = backward(spec, values, batch)
    for name, p in params.items():
        p.grad = grads[name]
    return loss


class TestFtpOptimizer:
    def test_first_step_stays_within_initial_radius(self):
        spec, params, batch = toy_setup(1)
        opt = FtpOptimizer(params, Sgd(lr=0.1))
        assign_grads(spec, params, batch)
        opt.step()
        for name, view in opt.views.items():
            d = mars_norm(view.to_2d(params[name].value) - view.to_2d(params[name].anchor))
            assert d <= GAMMA_INIT + 1e-9

    def test_constraint_invariant_along_trajectory(self):
        spec, params, batch = toy_setup(2)
        opt = FtpOptimizer(params, Sgd(lr=0.1, momentum=0.9), k=1.0)
        for _ in range(60):
            assign_grads(spec, params, batch)
            opt.step()
            for name, gs in opt.gammas.items():
                view = opt.views[name]
                d = mars_norm(view.to_2d(params[name].value) - view.to_2d(params[name].anchor))
                assert d <= gs.gamma + 1e-9

    def test_exclude_all_matches_base_exactly(self):
        spec, params_a, batch = toy_setup(3)
        _, params_b, _ = toy_setup(3)
        ftp = FtpOptimizer(params_a, Sgd(lr=0.05, momentum=0.9, weight_decay=1e-4),
                           exclude_set=list(params_a))
        plain = BaseOnlyOptimizer(params_b, Sgd(lr=0.05, momentum=0.9, weight_decay=1e-4))
        for _ in range(25):
            assign_grads(spec, params_a, batch)
            assign_grads(spec, params_b, batch)
            ftp.step()
            plain.step()
        for name in params_a:
            np.testing.assert_array_equal(params_a[name].value, params_b[name].value)
        assert not ftp.views

    def test_kappa_zero_gamma_nondecreasing(self):
        spec, params, batch = toy_setup(4)
        opt = FtpOptimizer(params, Sgd(lr=0.1), k=0.0)
        history = {name: [] for name in opt.gammas}
        for _ in range(100):
            assign_grads(spec, params, batch)
            opt.step()
            for name, gs in opt.gammas.items():
                history[name].append(gs.gamma)
        for name, hist in history.items():
            diffs = np.diff(np.array(hist))
            assert (diffs >= 0).all(), name

    def test_gamma_grows_from_init(self):
        spec, params, batch = toy_setup(5)
        opt = FtpOptimizer(params, Sgd(lr=0.1))
        for _ in range(20):
            assign_grads(spec, params, batch)
            opt.step()
        assert any(gs.gamma > 1e-4 for gs in opt.gammas.values())

    def test_missing_grads_is_state_error(self):
        spec, params, batch = toy_setup(6)
        opt = FtpOptimizer(params, Sgd(lr=0.1))
        with pytest.raises(StateError):
            opt.step()

    def test_unknown_exclude_name_rejected(self):
        spec, params, _ = toy_setup(7)
        with pytest.raises(ConfigError):
            FtpOptimizer(params, Sgd(lr=0.1), exclude_set=["ghost.weight"])

    def test_shape_drift_rejected(self):
        spec, params, batch = toy_setup(14)
        opt = FtpOptimizer(params, Sgd(lr=0.1))
        assign_grads(spec, params, batch)
        first = next(iter(params))
        params[first].grad = np.zeros((1, 1))
        with pytest.raises(DomainError):
            opt.step()

    def test_non_finite_radius_gradient_leaves_no_trace(self):
        params = make_managed({"a": np.ones((2, 2)), "b": np.ones((2, 2))})
        base = Sgd(lr=1.0, momentum=0.9)
        opt = FtpOptimizer(params, base)
        for p in params.values():
            p.grad = np.ones((2, 2))
        opt.step()  # both tensors leave their balls, so every row is active
        params["a"].grad = np.ones((2, 2))
        params["b"].grad = np.array([[np.nan, 1.0], [1.0, 1.0]])
        before = {n: (p.value.copy(), p.prev_unconstrained.copy()) for n, p in params.items()}
        gammas = {n: vars(gs).copy() for n, gs in opt.gammas.items()}
        velocity = {n: v.copy() for n, v in base.velocity.items()}
        with pytest.raises(DomainError, match="non-finite"):
            opt.step()
        for name, p in params.items():
            assert p.value.tobytes() == before[name][0].tobytes(), name
            assert p.prev_unconstrained.tobytes() == before[name][1].tobytes(), name
        assert {n: vars(gs) for n, gs in opt.gammas.items()} == gammas
        assert base.velocity.keys() == velocity.keys()
        for name, buf in velocity.items():
            assert base.velocity[name].tobytes() == buf.tobytes(), name

    def test_one_gradient_consumed_per_step(self):
        spec, params, batch = toy_setup(8)
        opt = FtpOptimizer(params, Sgd(lr=0.1))
        assign_grads(spec, params, batch)
        opt.step()
        assert all(p.grad is None for p in params.values())

    def test_gamma_smoothness_on_trajectory(self):
        spec, params, batch = toy_setup(9)
        opt = FtpOptimizer(params, Sgd(lr=0.2), k=1.0)
        prev = {n: gs.gamma for n, gs in opt.gammas.items()}
        for _ in range(80):
            assign_grads(spec, params, batch)
            opt.step()
            for name, gs in opt.gammas.items():
                assert abs(gs.gamma - prev[name]) <= 40 * gs.mu
                prev[name] = gs.gamma


class TestRebaseAnchor:
    def run_steps(self, opt, spec, params, batch, n):
        for _ in range(n):
            assign_grads(spec, params, batch)
            opt.step()

    def test_rebase_resets_state(self):
        spec, params, batch = toy_setup(10)
        opt = FtpOptimizer(params, Sgd(lr=0.1))
        self.run_steps(opt, spec, params, batch, 10)
        rebase_anchor(params, opt.gammas)
        for name, p in params.items():
            np.testing.assert_array_equal(p.anchor, p.value)
            assert p.prev_unconstrained is None
        for gs in opt.gammas.values():
            assert (gs.gamma, gs.m, gs.v, gs.t) == (GAMMA_INIT, 0.0, 0.0, 0)

    def test_projection_is_noop_right_after_rebase(self):
        spec, params, batch = toy_setup(11)
        opt = FtpOptimizer(params, Sgd(lr=0.1))
        self.run_steps(opt, spec, params, batch, 5)
        opt.rebase_anchor()
        for name, p in params.items():
            view = opt.views[name]
            out = project_rows(view.to_2d(p.value), view.to_2d(p.anchor), GAMMA_INIT)
            np.testing.assert_array_equal(out, view.to_2d(p.value))

    def test_double_rebase_idempotent(self):
        spec, params, batch = toy_setup(12)
        opt = FtpOptimizer(params, Sgd(lr=0.1))
        self.run_steps(opt, spec, params, batch, 5)
        opt.rebase_anchor()
        snap = {n: (p.value.copy(), p.anchor.copy()) for n, p in params.items()}
        opt.rebase_anchor()
        for name, p in params.items():
            np.testing.assert_array_equal(p.value, snap[name][0])
            np.testing.assert_array_equal(p.anchor, snap[name][1])

    def test_constraints_hold_against_new_anchor(self):
        spec, params, batch = toy_setup(13)
        opt = FtpOptimizer(params, Sgd(lr=0.1))
        self.run_steps(opt, spec, params, batch, 10)
        old_anchors = {n: p.anchor.copy() for n, p in params.items()}
        opt.rebase_anchor()
        self.run_steps(opt, spec, params, batch, 1)
        for name, gs in opt.gammas.items():
            p = params[name]
            view = opt.views[name]
            d_new = mars_norm(view.to_2d(p.value) - view.to_2d(p.anchor))
            assert d_new <= gs.gamma + 1e-9
            # the original anchor no longer bounds the trajectory
            assert not np.array_equal(p.anchor, old_anchors[name])


class TestManagedParam:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            ManagedParam("w", np.zeros((2, 2)), np.zeros((2, 3)))

    def test_make_managed_defaults_anchor_to_value(self):
        values = {"w": SeededRng(0).normal((2, 2))}
        params = make_managed(values)
        np.testing.assert_array_equal(params["w"].anchor, values["w"])
        assert params["w"].anchor is not values["w"]
