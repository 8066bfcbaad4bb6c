"""The displacement each projecting optimizer measures once per update.

FTP, TPGM and MARS-SP measure ``(delta, dist)`` of every projected tensor
once and hand it to ``project_rows`` and ``hyper_gradient``; the run loop's
constraint check reads it too. These tests hold that path to the public
functions called without cached arrays, bit for bit, including after the
state the measurement describes has been replaced.
"""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from projtune import ftp as ftp_module
from projtune.baselines import AdamW, MarsSpOptimizer, Sgd, TpgmOptimizer
from projtune.bench.run import _constraint_excess
from projtune.errors import DomainError
from projtune.ftp import (
    FtpOptimizer,
    adam_update_gamma,
    anneal_gradient,
    hyper_gradient,
    make_managed,
    rebase_anchor,
)
from projtune.numerics import SeededRng, mars_norm
from projtune.projection import (
    Displacement,
    canonicalize,
    project_rows,
    row_displacement,
)

SHAPES = {"w": (6, 4), "b": (4,), "conv": (3, 2, 2, 2), "head": (2, 6)}


def smooth_problem(seed):
    """Managed params plus the gradient of sum(C * sin(W)), a smooth loss of every tensor."""
    rng = SeededRng(seed)
    values = {n: rng.derive(0, i).normal(s, stddev=0.5) for i, (n, s) in enumerate(SHAPES.items())}
    # rows pulled with strengths spread over two decades: some leave the ball, some stay
    coef = {}
    for i, (n, s) in enumerate(SHAPES.items()):
        strength = np.geomspace(0.03, 3.0, s[0]).reshape((-1,) + (1,) * (len(s) - 1))
        coef[n] = rng.derive(1, i).normal(s) * strength

    def grads_at(vals, scale=1.0):
        return {n: scale * coef[n] * np.cos(v) for n, v in vals.items()}

    return make_managed(values), grads_at


def clone(params):
    return make_managed({n: p.value for n, p in params.items()},
                        anchors={n: p.anchor for n, p in params.items()})


def make_base(kind):
    return Sgd(lr=0.3, momentum=0.9) if kind == "sgd" else AdamW(lr=0.05)


def reference_ftp_step(params, base, views, gammas):
    """FtpOptimizer.step written with the public functions and no cached arrays."""
    for name, p in params.items():
        gs = gammas.get(name)
        if gs is None:
            p.value = base.step(name, p.value, p.grad)
        else:
            view = views[name]
            if p.prev_unconstrained is not None:
                raw = hyper_gradient(view.to_2d(p.grad), view.to_2d(p.prev_unconstrained),
                                     view.to_2d(p.anchor), gs.gamma)
                adam_update_gamma(gs, anneal_gradient(raw, gs.kappa))
            w_tilde = base.step(name, p.value, p.grad)
            p.prev_unconstrained = w_tilde
            p.value = view.from_2d(project_rows(view.to_2d(w_tilde), view.to_2d(p.anchor),
                                                gs.gamma))
        p.grad = None


def reference_tpgm_step(params, base, views, gammas, grad_fn, val_batches):
    """TpgmOptimizer.step written with the public functions and no cached arrays."""
    w_tilde = {name: base.step(name, p.value, p.grad) for name, p in params.items()}

    def projected():
        out = dict(w_tilde)
        for name, view in views.items():
            out[name] = view.from_2d(project_rows(view.to_2d(w_tilde[name]),
                                                  view.to_2d(params[name].anchor),
                                                  gammas[name].gamma))
        return out

    for batch in val_batches:
        _, val_grads = grad_fn(projected(), batch)
        for name, gs in gammas.items():
            view = views[name]
            adam_update_gamma(gs, hyper_gradient(view.to_2d(val_grads[name]),
                                                 view.to_2d(w_tilde[name]),
                                                 view.to_2d(params[name].anchor), gs.gamma))
    final = projected()
    for name, p in params.items():
        if name in views:
            p.prev_unconstrained = w_tilde[name]
        p.value = final[name]
        p.grad = None


def assign_grads(params, grads_at):
    grads = grads_at({n: p.value for n, p in params.items()})
    for name, p in params.items():
        p.grad = grads[name]


def full_excess(opt, params):
    """The constraint check measured from every row of the stored weights."""
    gammas = opt.gamma_values()
    return max(
        mars_norm(view.to_2d(params[n].value) - view.to_2d(params[n].anchor)) - gammas[n]
        for n, view in opt.views.items()
    )


def assert_same_state(params, ref, opt, ref_gammas, base, ref_base):
    for name, p in params.items():
        q = ref[name]
        assert p.value.tobytes() == q.value.tobytes(), name
        assert p.anchor.tobytes() == q.anchor.tobytes(), name
        if q.prev_unconstrained is None:
            assert p.prev_unconstrained is None, name
        else:
            assert p.prev_unconstrained.tobytes() == q.prev_unconstrained.tobytes(), name
    assert {n: asdict(g) for n, g in opt.gammas.items()} == {
        n: asdict(g) for n, g in ref_gammas.items()
    }
    state, ref_state = base.get_state(), ref_base.get_state()
    tensors, ref_tensors = state.pop("tensors"), ref_state.pop("tensors")
    assert state == ref_state
    assert tensors.keys() == ref_tensors.keys()
    for key, buf in tensors.items():
        assert buf.tobytes() == ref_tensors[key].tobytes(), key


def restore_as_checkpoint(params, shift):
    """Replace every array a checkpoint restore replaces, with moved values."""
    for p in params.values():
        p.value = p.value + shift
        p.anchor = p.anchor - shift
        if p.prev_unconstrained is not None:
            p.prev_unconstrained = p.prev_unconstrained + shift


@pytest.mark.parametrize("base_kind", ["sgd", "adamw"])
@pytest.mark.parametrize("method", ["ftp", "tpgm"])
@pytest.mark.parametrize("event", ["none", "rebase", "restore"])
def test_cached_steps_match_uncached_reference(method, base_kind, event):
    params, grads_at = smooth_problem(7)
    ref = clone(params)
    base, ref_base = make_base(base_kind), make_base(base_kind)
    if method == "ftp":
        opt = FtpOptimizer(params, base, k=0.5, exclude_set=["head"], gamma_init=0.05)
        shadow = FtpOptimizer(ref, ref_base, k=0.5, exclude_set=["head"], gamma_init=0.05)
    else:
        opt = TpgmOptimizer(params, base, lambda v, s: (0.0, grads_at(v, s)), inner_iters=2,
                            exclude_set=["head"], gamma_init=0.05)
        shadow = TpgmOptimizer(ref, ref_base, lambda v, s: (0.0, grads_at(v, s)),
                               inner_iters=2, exclude_set=["head"], gamma_init=0.05)
    for t in range(1, 13):
        if t == 7 and event == "rebase":
            if method == "ftp":
                opt.rebase_anchor()
            else:
                rebase_anchor(params, opt.gammas)
            rebase_anchor(ref, shadow.gammas)
        if t == 7 and event == "restore":
            restore_as_checkpoint(params, 0.01)
            restore_as_checkpoint(ref, 0.01)
        assign_grads(params, grads_at)
        assign_grads(ref, grads_at)
        if method == "ftp":
            opt.step()
            reference_ftp_step(ref, ref_base, shadow.views, shadow.gammas)
        else:
            opt.step([0.5, -1.5])
            reference_tpgm_step(ref, ref_base, shadow.views, shadow.gammas,
                                shadow.grad_fn, [0.5, -1.5])
        assert_same_state(params, ref, opt, shadow.gammas, base, ref_base)
        assert _constraint_excess(opt, params) == full_excess(shadow, ref)


@pytest.mark.parametrize("gamma", [0.0, 0.3, np.inf])
def test_mars_sp_constraint_excess_is_a_full_measurement(gamma):
    params, grads_at = smooth_problem(3)
    opt = MarsSpOptimizer(params, Sgd(lr=0.3, momentum=0.9), gamma=gamma)
    for t in range(8):
        assign_grads(params, grads_at)
        opt.step()
        if t == 5:
            restore_as_checkpoint(params, 0.02)
        assert _constraint_excess(opt, params) == full_excess(opt, params)


def test_displacement_is_remeasured_when_its_arrays_are_replaced():
    view = canonicalize(np.zeros((2, 3)), name="w")
    anchor, w_tilde = np.zeros((2, 3)), np.ones((2, 3))
    first = Displacement(view, w_tilde, anchor)
    assert first.measures(w_tilde, anchor)
    assert not first.measures(w_tilde.copy(), anchor)
    assert not first.measures(w_tilde, anchor.copy())
    second = Displacement(view, w_tilde * 2.0, anchor, previous=first)
    assert second.w_anchor is first.w_anchor      # same anchor: its view is reused
    third = Displacement(view, w_tilde, anchor.copy(), previous=second)
    assert third.w_anchor is not second.w_anchor
    np.testing.assert_array_equal(third.dist, [3.0, 3.0])


def test_cached_arrays_equal_recomputed_ones_and_are_checked():
    rng = SeededRng(11)
    wt, w0, g = rng.normal((5, 4)), rng.normal((5, 4)), rng.normal((5, 4))
    delta, dist = row_displacement(wt, w0)
    for gamma in (0.0, float(np.median(dist)), 1e9):
        assert project_rows(wt, w0, gamma, delta=delta, dist=dist).tobytes() == \
            project_rows(wt, w0, gamma).tobytes()
        assert hyper_gradient(g, wt, w0, gamma, delta=delta, dist=dist) == \
            hyper_gradient(g, wt, w0, gamma)
    with pytest.raises(DomainError):
        project_rows(wt, w0, 0.5, delta=delta)
    with pytest.raises(DomainError):
        hyper_gradient(g, wt, w0, 0.5, delta=delta[:4], dist=dist[:4])


class RecordingHyperGradient:
    """Stands in for ``projtune.ftp.hyper_gradient`` and keeps each call's cache and result."""

    def __init__(self):
        self.calls = []

    def __call__(self, *args, **kwargs):
        out = hyper_gradient(*args, **kwargs)
        self.calls.append((kwargs.get("delta") is not None, out))
        return out


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(4, 3), (5,), (3, 2, 2, 2)]),
    st.integers(0, 2**31 - 1),
    st.floats(0.1, 1.4),
)
def test_cached_hyper_gradient_matches_finite_differences(shape, seed, frac):
    # matrix, bias vector (one row) and rank-4 conv kernel views
    rng = SeededRng(seed)
    anchor = rng.derive(0).normal(shape)
    step0 = rng.derive(1).normal(shape)
    coef = rng.derive(2).normal(shape)
    view = canonicalize(anchor, name="t")
    w_tilde = anchor - step0
    dist = np.abs(view.to_2d(w_tilde) - view.to_2d(anchor)).sum(axis=1)
    gamma = frac * float(np.median(dist))
    h = 1e-6 * gamma
    assume(np.abs(dist - gamma).min() > 1e3 * h)   # no row crosses the ball's edge

    def loss(w):
        return float((coef * np.sin(w)).sum())

    def loss_at(g):
        return loss(view.from_2d(project_rows(view.to_2d(w_tilde), view.to_2d(anchor), g)))

    params = make_managed({"t": anchor})
    opt = FtpOptimizer(params, Sgd(lr=1.0), gamma_init=gamma)
    params["t"].grad = step0
    opt.step()
    params["t"].grad = coef * np.cos(params["t"].value)
    spy = RecordingHyperGradient()
    original = ftp_module.hyper_gradient
    ftp_module.hyper_gradient = spy
    try:
        opt.step()
    finally:
        ftp_module.hyper_gradient = original
    [(cached, raw)] = spy.calls
    assert cached
    fd = (loss_at(gamma + h) - loss_at(gamma - h)) / (2.0 * h)
    assert raw == pytest.approx(fd, rel=1e-5, abs=1e-7)
