"""Base optimizers and the comparison fine-tuning methods.

``Sgd`` and ``AdamW`` are the plain per-tensor optimizers every wrapper here
builds on. The comparison methods cover the projection family (fixed-radius
projection; validation-loop constraint learning) and the regularization
family (anchor L2 pull, post-hoc weight interpolation, gradient freezing for
linear probing).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .ftp import (
    GAMMA_INIT,
    GammaState,
    ManagedParam,
    ProjectedOptimizer,
    state_tensors,
    tensor_group,
)
from .model import Batch

# The projection, the hyper-gradient and the radius step run in
# ProjectedOptimizer (projtune.ftp), for TPGM too; these names are kept so
# that tracing tools which wrap them here still find them.
from .ftp import adam_update_gamma, hyper_gradient  # noqa: F401
from .projection import project_rows  # noqa: F401

__all__ = [
    "AdamW",
    "BaseOnlyOptimizer",
    "MarsSpOptimizer",
    "Sgd",
    "TpgmOptimizer",
    "freeze_mask",
    "l2_sp_grad",
    "make_base_optimizer",
    "wise_interpolate",
    "wise_interpolate_params",
]


class Sgd:
    """SGD with coupled L2 weight decay and optional (Nesterov) momentum."""

    def __init__(
        self,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ):
        if not lr > 0:
            raise ConfigError(f"must be positive, got {lr}", "lr")
        for field, value in (("momentum", momentum), ("weight_decay", weight_decay)):
            if value < 0:
                raise ConfigError(f"must be nonnegative, got {value}", field)
        if nesterov and momentum == 0:
            raise ConfigError("needs momentum > 0", "nesterov")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.nesterov = bool(nesterov)
        self.velocity: dict[str, np.ndarray] = {}

    def step(self, name: str, value: np.ndarray, grad: np.ndarray, out=None) -> np.ndarray:
        """The stepped ``value``, in ``out`` (which must not overlap ``value``) if given."""
        if value.shape != grad.shape:
            raise DomainError(f"{name}: grad shape {grad.shape} != value shape {value.shape}")
        g = grad + self.weight_decay * value if self.weight_decay else grad
        if self.momentum:
            buf = self.velocity.get(name)
            if buf is None:
                buf = self.velocity[name] = g.copy()
            else:
                buf *= self.momentum
                buf += g
            g = g + self.momentum * buf if self.nesterov else buf
        # value - lr * g, computed in one array
        out = np.multiply(g, self.lr, out=out)
        return np.subtract(value, out, out=out)

    def get_state(self) -> dict:
        return {"kind": "sgd",
                "tensors": {f"velocity/{k}": v.copy() for k, v in self.velocity.items()}}

    def set_state(self, state: dict) -> None:
        self.velocity = tensor_group(state_tensors(state, "sgd"), "velocity")


class AdamW:
    """Adam with decoupled weight decay applied before the moment update."""

    def __init__(
        self,
        lr: float,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        if not lr > 0:
            raise ConfigError(f"must be positive, got {lr}", "lr")
        if weight_decay < 0:
            raise ConfigError(f"must be nonnegative, got {weight_decay}", "weight_decay")
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t: dict[str, int] = {}

    def step(self, name: str, value: np.ndarray, grad: np.ndarray, out=None) -> np.ndarray:
        """The stepped ``value``, in ``out`` (which must not overlap ``value``) if given."""
        if value.shape != grad.shape:
            raise DomainError(f"{name}: grad shape {grad.shape} != value shape {value.shape}")
        t = self.t[name] = self.t.get(name, 0) + 1
        w = value * (1.0 - self.lr * self.weight_decay) if self.weight_decay else value
        # the moments advance in place, in the operation order of
        # beta1 * m + (1 - beta1) * grad and beta2 * v + (1 - beta2) * grad * grad
        m = self.m.get(name)
        if m is None:
            m = self.m[name] = np.multiply(1.0 - self.beta1, grad)
        else:
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
        scaled = np.multiply(grad, 1.0 - self.beta2)
        scaled *= grad
        v = self.v.get(name)
        if v is None:
            v = self.v[name] = scaled.copy()
        else:
            v *= self.beta2
            v += scaled
        # w - lr * m_hat / (sqrt(v_hat) + eps): the same operations on each
        # element, in two buffers instead of five temporaries
        den = np.divide(v, 1.0 - self.beta2 ** t, out=scaled)
        np.sqrt(den, out=den)
        den += self.eps
        out = np.divide(m, 1.0 - self.beta1 ** t, out=out)
        out *= self.lr
        out /= den
        return np.subtract(w, out, out=out)

    def get_state(self) -> dict:
        tensors = {f"m/{k}": a.copy() for k, a in self.m.items()}
        tensors.update({f"v/{k}": a.copy() for k, a in self.v.items()})
        return {"kind": "adamw", "t_counts": dict(self.t), "tensors": tensors}

    def set_state(self, state: dict) -> None:
        tensors = state_tensors(state, "adamw")
        self.m = tensor_group(tensors, "m")
        self.v = tensor_group(tensors, "v")
        self.t = {k: int(n) for k, n in state.get("t_counts", {}).items()}


def make_base_optimizer(
    kind: str,
    lr: float,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
    nesterov: bool = False,
):
    if kind == "sgd":
        return Sgd(lr, momentum=momentum, weight_decay=weight_decay, nesterov=nesterov)
    if kind == "adamw":
        return AdamW(lr, weight_decay=weight_decay)
    raise ConfigError(f"unknown base optimizer {kind!r}; choose 'sgd' or 'adamw'", "kind")


class BaseOnlyOptimizer(ProjectedOptimizer):
    """Vanilla fine-tuning: every tensor gets exactly the base optimizer step."""

    def __init__(self, params: dict[str, ManagedParam], base):
        super().__init__(params, base, exclude_set=params)

    def step(self) -> None:
        self._gather()
        self._base_step()
        self._commit()


class MarsSpOptimizer(ProjectedOptimizer):
    """Base step followed by projection with fixed radii.

    ``gamma`` is either one shared radius for every layer (the usual,
    hand-tuned setting) or a per-tensor mapping, which supports replaying the
    radii another method learned. ``gamma = inf`` is an explicit sentinel for
    "never clamp", which makes the trajectory identical to the base optimizer
    alone. Nothing is learned, so ``gammas`` stays empty.
    """

    def __init__(
        self,
        params: dict[str, ManagedParam],
        base,
        gamma,
        exclude_set: Iterable[str] = (),
    ):
        super().__init__(params, base, exclude_set)
        if isinstance(gamma, dict):
            missing = set(self.views) - set(gamma)
            if missing:
                raise ConfigError(f"per-tensor radii missing for: {sorted(missing)}")
            self.fixed_gammas = {name: float(gamma[name]) for name in self.views}
        else:
            self.fixed_gammas = {name: float(gamma) for name in self.views}
        bad = {n: g for n, g in self.fixed_gammas.items() if not g >= 0}
        if bad:
            raise ConfigError(f"radii must be nonnegative, got {bad}")

    def radius(self, name: str) -> float:
        return self.fixed_gammas[name]

    step = BaseOnlyOptimizer.step


class TpgmOptimizer(ProjectedOptimizer):
    """Constraint learning with a separate validation loop for each step.

    ``val_batches`` gives each step its list of validation batches; a step
    takes the next item only when it runs, so a generator can draw them
    lazily. After the base update, the first ``inner_iters`` batches of the
    step's list refine the per-tensor radii: each inner iteration projects
    the frozen unconstrained weights with the current radii, evaluates the
    validation gradient there (one extra forward+backward), chains it
    through the projection, and moves every radius by FTP's rule, one Adam
    step each (its radii keep ``kappa = 1``, so nothing is annealed). The
    final radii then project the unconstrained weights into place. The probe
    of each projected block lives in its own array, which the validation
    gradient then overwrites.
    """

    def __init__(
        self,
        params: dict[str, ManagedParam],
        base,
        grad_fn: Callable[[dict[str, np.ndarray], Batch], tuple[float, dict[str, np.ndarray]]],
        val_batches: Iterable[Sequence[Batch]],
        inner_iters: int = 1,
        exclude_set: Iterable[str] = (),
        gamma_init: float = GAMMA_INIT,
    ):
        if inner_iters < 0:
            raise ConfigError(f"inner_iters must be nonnegative, got {inner_iters}")
        super().__init__(params, base, exclude_set)
        self.grad_fn = grad_fn
        self.val_batches = iter(val_batches)
        self.inner_iters = int(inner_iters)
        self.gammas = {name: GammaState(gamma=gamma_init) for name in self.views}
        self._probes = [np.empty_like(b.value) for b in self._projected]
        # per turn of the updates: the weights each inner iteration evaluates
        self._probe_views = tuple(
            {name: view for b in self._blocks if not b.projected
             for name, view in b.update_views[turn].items()}
            | {name: view for b, probe in zip(self._projected, self._probes)
               for name, view in b.views_of(probe).items()}
            for turn in (0, 1))

    def step(self) -> None:
        """One training step consuming the next list of validation batches.

        A list shorter than ``inner_iters`` (an exhausted stream counts as an
        empty one) is a ConfigError before anything moves. Each inner
        iteration takes every radius gradient, and checks it, before any
        radius moves, and a failed step puts back the radii that earlier
        inner iterations moved. The base optimizer's buffers (SGD's
        velocity, AdamW's moments and step counts) have already advanced
        when it raises.
        """
        val_batches = next(self.val_batches, ())
        if len(val_batches) < self.inner_iters:
            raise ConfigError(f"need {self.inner_iters} validation batches, the validation "
                              f"stream gave {len(val_batches)}")
        self._gather()
        self._base_step(project=False)
        spare = 1 - self._turn
        # what _move_radii moves, to put back if the step fails
        before = [(gs, gs.gamma, gs.m, gs.v, gs.t) for gs in self.gammas.values()]
        try:
            for batch in val_batches[:self.inner_iters]:
                for b, probe in zip(self._projected, self._probes):
                    self._project(b, spare, probe)
                _, val_grads = self.grad_fn(self._probe_views[spare], batch)
                raw = {}
                for b, probe in zip(self._projected, self._probes):
                    # the probe is spent: the gradient takes its place
                    grad = b.fill(probe, val_grads)
                    raw.update(self._hyper_gradients(b, grad, b.updates[spare], b.slices))
                self._move_radii(raw)
        except BaseException:
            for gs, gamma, m, v, t in before:
                gs.gamma, gs.m, gs.v, gs.t = gamma, m, v, t
            raise
        for b in self._projected:
            self._project(b, spare, b.value)
        self._commit()


def l2_sp_grad(param: np.ndarray, anchor: np.ndarray, lam: float) -> np.ndarray:
    """Gradient contribution pulling the tensor toward its anchor: lam * (W - W0)."""
    if lam < 0:
        raise ConfigError(f"regularization strength must be nonnegative, got {lam}")
    p = np.asarray(param, dtype=np.float64)
    a = np.asarray(anchor, dtype=np.float64)
    if p.shape != a.shape:
        raise DomainError(f"shape mismatch: {p.shape} vs {a.shape}")
    return lam * (p - a)


def wise_interpolate(w_f: np.ndarray, w_0: np.ndarray, ratio: float) -> np.ndarray:
    """Linear weight interpolation ratio*W_f + (1-ratio)*W_0."""
    if not 0.0 <= ratio <= 1.0:
        raise ConfigError(f"interpolation ratio must lie in [0, 1], got {ratio}")
    wf = np.asarray(w_f, dtype=np.float64)
    w0 = np.asarray(w_0, dtype=np.float64)
    if wf.shape != w0.shape:
        raise DomainError(f"shape mismatch: {wf.shape} vs {w0.shape}")
    return ratio * wf + (1.0 - ratio) * w0


def wise_interpolate_params(
    params_f: dict[str, np.ndarray], params_0: dict[str, np.ndarray], ratio: float
) -> dict[str, np.ndarray]:
    """Tensor-wise interpolation over whole models."""
    if set(params_f) != set(params_0):
        raise DomainError("models have different tensor names")
    return {name: wise_interpolate(params_f[name], params_0[name], ratio) for name in params_f}


def freeze_mask(params: dict[str, ManagedParam], trainable_names: Iterable[str]) -> None:
    """Zero the gradients of every tensor not listed as trainable."""
    trainable = set(trainable_names)
    unknown = trainable - set(params)
    if unknown:
        raise ConfigError(f"trainable names not in params: {sorted(unknown)}")
    for name, p in params.items():
        if name not in trainable:
            p.grad = np.zeros_like(p.value)
