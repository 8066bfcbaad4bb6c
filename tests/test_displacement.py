"""The per-width blocks every projecting optimizer steps, held to per-tensor references.

FTP, TPGM, MARS-SP and base-only fine-tuning keep their tensors in one block
per row width and run the base step, the measurement of each update, the
hyper-gradient, the projection and the constraint check once per block, in
strips of rows. These tests hold that path to the public functions called
tensor by tensor without cached arrays, bit for bit, for blocks of one strip
and of several, including after the state the blocks hold has been replaced
from outside: an anchor rebase, arrays set as a checkpoint restore sets
them, and a resume into a fresh optimizer.
"""

import itertools
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from projtune import ftp as ftp_module
from projtune.baselines import (
    AdamW,
    BaseOnlyOptimizer,
    MarsSpOptimizer,
    Sgd,
    TpgmOptimizer,
    freeze_mask,
    l2_sp_grad,
)
from projtune.errors import DomainError, StateError
from projtune.ftp import (
    STRIP_BYTES,
    FtpOptimizer,
    GammaState,
    adam_update_gamma,
    anneal_gradient,
    hyper_gradient,
    make_managed,
    rebase_anchor,
)
from projtune.numerics import SeededRng, mars_norm
from projtune.projection import canonicalize, project_rows, row_displacement

# widths 4 (w and b share a block), 8 (conv) and 6 (head)
SHAPES = {"w": (6, 4), "b": (4,), "conv": (3, 2, 2, 2), "head": (2, 6)}
# the same roles in blocks of several strips, each ending in a shorter one:
# w and b 38 rows of width 2048, conv 11 rows of width 4096, and head (or,
# with nothing projected, every tensor) in the column of unprojected tensors
WIDE_SHAPES = {"w": (37, 2048), "b": (2048,), "conv": (11, 2, 32, 64), "head": (21, 2048)}
# Per-element gradients shrunk with the rows widened. AdamW moves every
# element by about its learning rate whatever the gradient, so rows wider
# than the ball leave it at once; rows with no pull stay, a third of w's and
# two thirds of conv's, so strips hold both kinds of row.
WIDE_SCALE = 1 / 2048
WIDE_STILL = {"w": np.arange(37) % 3 == 0, "conv": np.arange(11) % 3 != 0}
MARS_GAMMA = 0.3
L2_SP_LAMBDA = 0.5


def smooth_problem(seed, shapes=SHAPES, scale=1.0, still=None):
    """Managed params plus the gradient of sum(C * sin(W)), a smooth loss of every tensor.

    The rows ``still`` marks, a boolean row mask per tensor, have no gradient.
    """
    rng = SeededRng(seed)
    values = {n: rng.derive(0, i).normal(s, stddev=0.5) for i, (n, s) in enumerate(shapes.items())}
    # rows pulled with strengths spread over two decades: some leave the ball, some stay
    coef = {}
    for i, (n, s) in enumerate(shapes.items()):
        strength = np.geomspace(0.03, 3.0, s[0]) * scale
        if still and n in still:
            strength[still[n]] = 0.0
        coef[n] = rng.derive(1, i).normal(s) * strength.reshape((-1,) + (1,) * (len(s) - 1))

    def grads_at(vals, scale=1.0):
        return {n: scale * coef[n] * np.cos(v) for n, v in vals.items()}

    return make_managed(values), grads_at


def clone(params):
    return make_managed({n: p.value for n, p in params.items()},
                        anchors={n: p.anchor for n, p in params.items()})


def make_base(kind):
    return Sgd(lr=0.3, momentum=0.9) if kind == "sgd" else AdamW(lr=0.05)


def build(method, params, base, grads_at):
    """The optimizer the run loop builds for ``method``, on the smooth problem."""
    if method == "ftp":
        return FtpOptimizer(params, base, k=0.5, exclude_set=["head"], gamma_init=0.05)
    if method == "tpgm":
        return TpgmOptimizer(params, base, lambda v, s: (0.0, grads_at(v, s)),
                             itertools.repeat([0.5, -1.5]), inner_iters=2,
                             exclude_set=["head"], gamma_init=0.05)
    if method == "mars-sp":
        return MarsSpOptimizer(params, base, MARS_GAMMA, exclude_set=["head"])
    return BaseOnlyOptimizer(params, base)


def reference_base_step(params, base, views, radius):
    """A base step and a projection at ``radius(name)``, tensor by tensor."""
    for name, p in params.items():
        w_tilde = base.step(name, p.value, p.grad)
        if name in views:
            view = views[name]
            p.prev_unconstrained = w_tilde
            w_tilde = project_rows(view.to_2d(w_tilde), view.to_2d(p.anchor),
                                   radius(name)).reshape(view.source_shape)
        p.value = w_tilde
        p.grad = None


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
            p.value = project_rows(view.to_2d(w_tilde), view.to_2d(p.anchor),
                                   gs.gamma).reshape(view.source_shape)
        p.grad = None


def reference_tpgm_step(params, base, views, gammas, grad_fn, val_batches):
    """TpgmOptimizer.step written with the public functions and no cached arrays."""
    w_tilde = {name: base.step(name, p.value, p.grad) for name, p in params.items()}

    def projected():
        out = dict(w_tilde)
        for name, view in views.items():
            out[name] = project_rows(view.to_2d(w_tilde[name]), view.to_2d(params[name].anchor),
                                     gammas[name].gamma).reshape(view.source_shape)
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


def reference_step(method, params, base, shadow):
    if method == "ftp":
        reference_ftp_step(params, base, shadow.views, shadow.gammas)
    elif method == "tpgm":
        reference_tpgm_step(params, base, shadow.views, shadow.gammas, shadow.grad_fn,
                            [0.5, -1.5])
    else:
        reference_base_step(params, base, shadow.views, lambda name: MARS_GAMMA)


def assign_grads(method, t, params, grads_at, into=None):
    """The run loop's gradients for ``method`` at iteration ``t``; written into ``into``'s views."""
    grads = grads_at({n: p.value for n, p in params.items()})
    for name, p in params.items():
        g = grads[name]
        if into is not None:
            into[name][...] = g
            g = into[name]
        if method == "l2-sp":
            g = g + l2_sp_grad(p.value, p.anchor, L2_SP_LAMBDA)
        p.grad = g
    if method == "linear-probe" or (method == "lp-ft" and t <= 6):
        freeze_mask(params, ["head"])


def full_excess(opt, params):
    """The constraint check measured from every row of the stored weights, tensor by tensor."""
    gammas = opt.gamma_values()
    if not gammas:
        return None
    return max(
        mars_norm(view.to_2d(params[n].value) - view.to_2d(params[n].anchor)) - gammas[n]
        for n, view in opt.views.items()
    )


def assert_same_state(params, ref, opt, ref_gammas, ref_base):
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
    assert_same_base_state(opt.get_state(), ref_base.get_state())


def assert_same_base_state(state, ref_state):
    """Two base-optimizer states have the same entries and the same tensor bits."""
    tensors, ref_tensors = state.pop("tensors"), ref_state.pop("tensors")
    assert state == ref_state
    assert tensors.keys() == ref_tensors.keys()
    for key, buf in tensors.items():
        assert buf.shape == ref_tensors[key].shape, key
        assert buf.tobytes() == ref_tensors[key].tobytes(), key


def restore_as_checkpoint(params, shift):
    """Replace every array a checkpoint restore replaces, with moved values."""
    for p in params.values():
        p.value = p.value + shift
        p.anchor = p.anchor - shift
        if p.prev_unconstrained is not None:
            p.prev_unconstrained = p.prev_unconstrained + shift


def resume(method, params, opt, base_kind, grads_at):
    """A fresh optimizer on fresh params holding ``opt``'s state, as a resumed run builds it."""
    fresh = make_managed({n: p.value for n, p in params.items()},
                         anchors={n: p.anchor for n, p in params.items()})
    for name, p in params.items():
        if p.prev_unconstrained is not None:
            fresh[name].prev_unconstrained = p.prev_unconstrained.copy()
    again = build(method, fresh, make_base(base_kind), grads_at)
    again.set_state(opt.get_state())
    for name, gs in opt.gammas.items():
        again.gammas[name] = GammaState(**asdict(gs))
    return fresh, again


def step_with_reference(method, base_kind, event, params, grads_at, steps=12):
    """Step ``method`` and its tensor-by-tensor reference; compare every array after each step.

    ``event`` happens before step 7: an anchor rebase, a restore of moved
    arrays, a restore followed by a constraint check (which copies the
    arrays in before the step does), a resume into a fresh optimizer, or
    nothing.
    """
    ref = clone(params)
    ref_base = make_base(base_kind)
    opt = build(method, params, make_base(base_kind), grads_at)
    shadow = build(method, ref, ref_base, grads_at)
    for t in range(1, steps + 1):
        if t == 7 and event == "rebase":
            if method == "ftp":
                opt.rebase_anchor()
            else:
                rebase_anchor(params, opt.gammas)
            rebase_anchor(ref, shadow.gammas)
        if t == 7 and event in ("restore", "restore-check"):
            restore_as_checkpoint(params, 0.01)
            restore_as_checkpoint(ref, 0.01)
            if event == "restore-check":
                assert opt.constraint_excess() == full_excess(shadow, ref)
        if t == 7 and event == "resume":
            params, opt = resume(method, params, opt, base_kind, grads_at)
        # odd steps hand the gradients over in the blocks, even ones as new arrays
        assign_grads(method, t, params, grads_at, into=opt.grad_views if t % 2 else None)
        assign_grads(method, t, ref, grads_at)
        opt.step()
        reference_step(method, ref, ref_base, shadow)
        assert_same_state(params, ref, opt, shadow.gammas, ref_base)
        assert opt.constraint_excess() == full_excess(shadow, ref)


@pytest.mark.parametrize("base_kind", ["sgd", "adamw"])
@pytest.mark.parametrize("method", ["ftp", "tpgm", "mars-sp", "ft", "linear-probe", "lp-ft",
                                    "l2-sp"])
@pytest.mark.parametrize("event", ["none", "rebase", "restore", "restore-check", "resume"])
def test_cached_steps_match_uncached_reference(method, base_kind, event):
    params, grads_at = smooth_problem(7)
    step_with_reference(method, base_kind, event, params, grads_at)


def strip_heights(shapes):
    """Row count and strip height of each block :class:`ProjectedOptimizer` makes of ``shapes``."""
    blocks = {}
    for name, shape in shapes.items():
        view = canonicalize(np.zeros(shape))
        blocks[view.cols] = blocks.get(view.cols, 0) + view.rows
    return {cols: (rows, max(1, STRIP_BYTES // (8 * cols))) for cols, rows in blocks.items()}


def test_the_wide_shapes_make_blocks_of_several_strips_with_a_shorter_last_one():
    projected = {n: s for n, s in WIDE_SHAPES.items() if n != "head"}
    # the column of unprojected tensors: head alone, or every tensor
    columns = [int(np.prod(WIDE_SHAPES["head"])),
               sum(int(np.prod(s)) for s in WIDE_SHAPES.values())]
    for rows, height in [*strip_heights(projected).values(),
                         *((rows, STRIP_BYTES // 8) for rows in columns)]:
        assert rows > height and rows % height, (rows, height)


@pytest.mark.parametrize("base_kind", ["sgd", "adamw"])
@pytest.mark.parametrize("method", ["ftp", "tpgm", "mars-sp", "ft"])
@pytest.mark.parametrize("event", ["none", "restore", "resume"])
def test_blocks_of_several_strips_match_uncached_reference(method, base_kind, event):
    params, grads_at = smooth_problem(17, WIDE_SHAPES, WIDE_SCALE, WIDE_STILL)
    step_with_reference(method, base_kind, event, params, grads_at, steps=9)


@pytest.mark.parametrize("base_kind", ["sgd", "adamw"])
@pytest.mark.parametrize("method", ["ftp", "tpgm", "mars-sp"])
def test_a_radius_set_from_outside_reaches_the_next_projection_and_check(method, base_kind):
    params, grads_at = smooth_problem(9)
    ref = clone(params)
    ref_base = make_base(base_kind)
    opt = build(method, params, make_base(base_kind), grads_at)
    shadow = build(method, ref, ref_base, grads_at)
    for t in range(1, 10):
        if t in (4, 7):
            # a tighter, then a looser radius for w, as a user or a restore sets it
            for o in (opt, shadow):
                if method == "mars-sp":
                    o.fixed_gammas["w"] = 0.02 if t == 4 else 0.6
                else:
                    o.gammas["w"].gamma = 0.02 if t == 4 else 0.6
            assert opt.constraint_excess() == full_excess(shadow, ref)
        assign_grads(method, t, params, grads_at, into=opt.grad_views)
        assign_grads(method, t, ref, grads_at)
        opt.step()
        if method == "mars-sp":
            reference_base_step(ref, ref_base, shadow.views, shadow.radius)
        else:
            reference_step(method, ref, ref_base, shadow)
        assert_same_state(params, ref, opt, shadow.gammas, ref_base)
        assert opt.constraint_excess() == full_excess(shadow, ref)


BASE_KINDS = ["sgd", "momentum", "nesterov", "sgd-decay", "nesterov-decay", "adamw",
              "adamw-decay"]


def base_of(kind):
    """The base optimizer of one of :data:`BASE_KINDS`."""
    if kind.startswith("adamw"):
        return AdamW(lr=0.05, weight_decay=0.1 if "decay" in kind else 0.0)
    return Sgd(lr=0.3, momentum=0.0 if kind.startswith("sgd") else 0.9,
               nesterov=kind.startswith("nesterov"), weight_decay=0.1 if "decay" in kind else 0.0)


@pytest.mark.parametrize("kind", BASE_KINDS)
def test_a_base_step_into_out_gives_the_same_bits(kind):
    rng = SeededRng(13)
    fresh, into = base_of(kind), base_of(kind)
    value = value_into = rng.derive(0).normal((5, 3))
    buffers = [np.full((5, 3), np.nan), np.full((5, 3), np.nan)]
    for t in range(6):
        grad = rng.derive(1, t).normal((5, 3))
        value = fresh.step("w", value, grad)
        out = buffers[t % 2]
        assert into.step("w", value_into, grad, out=out) is out
        value_into = out
        assert value_into.tobytes() == value.tobytes(), t
    assert_same_base_state(into.get_state(), fresh.get_state())


@pytest.mark.parametrize("kind", BASE_KINDS)
@pytest.mark.parametrize("method", ["ft", "mars-sp"])
def test_strips_stepped_under_keys_of_their_own_give_the_whole_tensor_bits(method, kind):
    def build_on(params, base):
        if method == "ft":
            return BaseOnlyOptimizer(params, base)
        return MarsSpOptimizer(params, base, np.inf, exclude_set=["head"])

    rng = SeededRng(19)
    values = {n: rng.derive(0, i).normal(s) for i, (n, s) in enumerate(WIDE_SHAPES.items())}
    params, alone = make_managed(values), base_of(kind)
    opt = build_on(params, base_of(kind))
    assert all(len(b.strips) > 1 for b in opt._blocks)
    for t in range(6):
        for i, (name, p) in enumerate(params.items()):
            p.grad = WIDE_SCALE * rng.derive(1, t, i).normal(WIDE_SHAPES[name])
        # each whole tensor stepped alone, under its own name
        values = {name: alone.step(name, values[name], p.grad) for name, p in params.items()}
        opt.step()
        for name, p in params.items():
            assert p.value.tobytes() == values[name].tobytes(), (t, name)
    state = opt.get_state()
    if kind.startswith("adamw"):
        assert state["t_counts"] == dict.fromkeys(WIDE_SHAPES, 6)
    assert_same_base_state(opt.get_state(), alone.get_state())
    restored = build_on(make_managed(values), base_of(kind))
    restored.set_state(state)
    assert_same_base_state(restored.get_state(), alone.get_state())


@pytest.mark.parametrize("inner_iters", [1, 2])
def test_a_failed_tpgm_step_moves_no_radius_and_no_weight(inner_iters):
    params, grads_at = smooth_problem(6)
    evaluations = []

    def grad_fn(values, batch):
        evaluations.append(batch)
        grads = grads_at(values, 0.5 if batch == "bad" else batch)
        if batch == "bad":
            grads["b"] = np.full(grads["b"].shape, np.nan)
        return 0.0, grads

    good = [0.5] * inner_iters
    # three steps, a step whose last validation batch is bad, and one more step
    stream = [good] * 3 + [[0.5] * (inner_iters - 1) + ["bad"], good]
    opt = TpgmOptimizer(params, Sgd(lr=0.3, momentum=0.9), grad_fn, stream,
                        inner_iters=inner_iters, exclude_set=["head"], gamma_init=0.05)
    for t in range(1, 4):
        assign_grads("tpgm", t, params, grads_at)
        opt.step()
    gammas = {n: asdict(g) for n, g in opt.gammas.items()}
    values = {n: p.value.copy() for n, p in params.items()}
    velocity = {k: v.copy() for k, v in opt.get_state()["tensors"].items()}
    assign_grads("tpgm", 4, params, grads_at)
    # w, whose radius is updated first, has a finite gradient in every inner iteration
    with pytest.raises(DomainError, match="non-finite") as failure:
        opt.step()
    assert evaluations[-1] == "bad"
    assert {n: asdict(g) for n, g in opt.gammas.items()} == gammas
    assert "'b'" in str(failure.value)
    for name, p in params.items():
        assert p.value.tobytes() == values[name].tobytes(), name
    # documented: the base optimizer's buffers have advanced
    after = opt.get_state()["tensors"]
    assert all(after[k].tobytes() != v.tobytes() for k, v in velocity.items())
    # the next step projects at the radii as they were before the failed one
    assign_grads("tpgm", 4, params, grads_at)
    opt.step()
    assert opt.constraint_excess() == full_excess(opt, params)


@pytest.mark.parametrize("gamma", [0.0, 0.3, np.inf])
def test_mars_sp_constraint_excess_is_a_full_measurement(gamma):
    params, grads_at = smooth_problem(3)
    opt = MarsSpOptimizer(params, Sgd(lr=0.3, momentum=0.9), gamma=gamma)
    for t in range(8):
        assign_grads("mars-sp", t, params, grads_at)
        opt.step()
        if t == 5:
            restore_as_checkpoint(params, 0.02)
        assert opt.constraint_excess() == full_excess(opt, params)


def test_displacement_is_remeasured_when_its_arrays_are_replaced():
    params, grads_at = smooth_problem(5)
    opt = FtpOptimizer(params, Sgd(lr=0.3), gamma_init=0.05)
    for t in range(3):
        assign_grads("ftp", t, params, grads_at)
        opt.step()
    # a new anchor and a new cached update, as a restore sets them
    params["w"].anchor = params["w"].anchor + 0.25
    params["conv"].prev_unconstrained = params["conv"].prev_unconstrained - 0.5
    assign_grads("ftp", 3, params, grads_at)
    want = {}
    for name, view in opt.views.items():
        p = params[name]
        raw = hyper_gradient(view.to_2d(p.grad), view.to_2d(p.prev_unconstrained),
                             view.to_2d(p.anchor), opt.gammas[name].gamma)
        want[name] = anneal_gradient(raw, opt.gammas[name].kappa)
    spy = RecordingAdamUpdate()
    original = ftp_module.adam_update_gamma
    ftp_module.adam_update_gamma = spy
    try:
        opt.step()
    finally:
        ftp_module.adam_update_gamma = original
    got = {name: g for name, g in zip(opt.gammas, spy.grads)}
    assert got == want


def test_a_rebound_value_is_copied_in_and_left_alone():
    params = make_managed({"w": np.zeros((2, 3)), "b": np.zeros(3)})
    opt = MarsSpOptimizer(params, Sgd(lr=1.0), gamma=np.inf)
    for p in params.values():
        p.grad = np.ones(p.value.shape)
    opt.step()
    rebound = np.full((2, 3), 0.5)
    params["w"].value = rebound
    assert opt.constraint_excess() == -np.inf   # read from the rebound array
    params["w"].grad = np.full((2, 3), 0.25)
    params["b"].grad = np.zeros(3)
    opt.step()
    np.testing.assert_array_equal(params["w"].value, np.full((2, 3), 0.25))
    np.testing.assert_array_equal(params["b"].value, np.full(3, -1.0))
    np.testing.assert_array_equal(rebound, np.full((2, 3), 0.5))
    assert not np.shares_memory(params["w"].value, rebound)


def test_a_rebound_array_of_another_shape_is_rejected():
    params, grads_at = smooth_problem(2)
    opt = FtpOptimizer(params, Sgd(lr=0.1))
    assign_grads("ftp", 1, params, grads_at)
    opt.step()
    assign_grads("ftp", 2, params, grads_at)
    params["conv"].value = np.zeros((3, 8))     # the canonical view, not the tensor's shape
    with pytest.raises(DomainError, match="conv"):
        opt.step()


@pytest.mark.parametrize("base_kind", ["sgd", "adamw"])
def test_a_partial_optimizer_state_is_rejected(base_kind):
    params, grads_at = smooth_problem(4)
    opt = FtpOptimizer(params, make_base(base_kind))
    assign_grads("ftp", 1, params, grads_at)
    opt.step()
    state = opt.get_state()
    # w and b step together: a state for one of them alone does not fit
    partial = {**state, "tensors": {k: v for k, v in state["tensors"].items()
                                    if not k.endswith("/b")}}
    with pytest.raises(StateError, match="not all"):
        FtpOptimizer(clone(params), make_base(base_kind)).set_state(partial)
    unknown = {**state, "tensors": {**state["tensors"], "velocity/ghost": np.zeros(2)}}
    with pytest.raises(StateError, match="ghost"):
        FtpOptimizer(clone(params), make_base(base_kind)).set_state(unknown)
    if base_kind == "adamw":
        uneven = {**state, "t_counts": {**state["t_counts"], "b": 7}}
        with pytest.raises(StateError, match="t_counts"):
            FtpOptimizer(clone(params), make_base(base_kind)).set_state(uneven)


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


@pytest.mark.parametrize("seed", range(4))
def test_segmented_hyper_gradient_equals_each_tensor_alone(seed):
    # a block of three tensors of width 4, one of them a single row
    rng = SeededRng(seed)
    rows = {"a": slice(0, 5), "b": slice(5, 6), "c": slice(6, 9)}
    wt, w0, g = rng.normal((9, 4)), rng.normal((9, 4)), rng.normal((9, 4))
    delta, dist = row_displacement(wt, w0)
    for gammas in ({"a": float(np.median(dist[rows["a"]])), "b": 0.0, "c": 1e9},
                   {"a": 0.0, "b": 1e9, "c": float(dist[rows["c"]].min())}):
        radius = np.empty(9)
        for name, r in rows.items():
            radius[r] = gammas[name]
        alone = [hyper_gradient(g[r], wt[r], w0[r], gammas[name]) for name, r in rows.items()]
        segs = list(rows.values())
        assert hyper_gradient(g, wt, w0, radius, delta=delta, dist=dist, segments=segs,
                              scratch=np.empty_like(g)) == alone
        # the products may overwrite the gradient itself, as TPGM's step lets them
        assert hyper_gradient(g, wt, w0, radius, segments=segs) == alone
        g_in_place = g.copy()
        assert hyper_gradient(g_in_place, wt, w0, radius, segments=segs,
                              scratch=g_in_place) == alone


class RecordingAdamUpdate:
    """Stands in for ``projtune.ftp.adam_update_gamma`` and keeps each radius gradient."""

    def __init__(self):
        self.grads = []

    def __call__(self, state, grad):
        self.grads.append(grad)
        return adam_update_gamma(state, grad)


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
        return loss(project_rows(view.to_2d(w_tilde), view.to_2d(anchor), g)
                    .reshape(view.source_shape))

    params = make_managed({"t": anchor})
    opt = FtpOptimizer(params, Sgd(lr=1.0), gamma_init=gamma)  # k = 1: no annealing
    params["t"].grad = step0
    opt.step()
    params["t"].grad = coef * np.cos(params["t"].value)
    spy = RecordingAdamUpdate()
    original = ftp_module.adam_update_gamma
    ftp_module.adam_update_gamma = spy
    try:
        opt.step()
    finally:
        ftp_module.adam_update_gamma = original
    [raw] = spy.grads
    fd = (loss_at(gamma + h) - loss_at(gamma - h)) / (2.0 * h)
    assert raw == pytest.approx(fd, rel=1e-5, abs=1e-7)
