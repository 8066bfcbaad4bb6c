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
from .ftp import GammaState, ManagedParam, adam_update_gamma, hyper_gradient, require_grads
from .model import Batch
from .projection import Displacement, ProjectionView, canonicalize, project_rows

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
            raise ConfigError(f"learning rate must be positive, got {lr}")
        if momentum < 0 or weight_decay < 0:
            raise ConfigError("momentum and weight_decay must be nonnegative")
        if nesterov and momentum == 0:
            raise ConfigError("nesterov momentum requires momentum > 0")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.nesterov = bool(nesterov)
        self.velocity: dict[str, np.ndarray] = {}

    def step(self, name: str, value: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if value.shape != grad.shape:
            raise DomainError(f"{name}: grad shape {grad.shape} != value shape {value.shape}")
        g = grad + self.weight_decay * value if self.weight_decay else grad
        if self.momentum:
            buf = self.velocity.get(name)
            buf = g.astype(np.float64, copy=True) if buf is None else self.momentum * buf + g
            self.velocity[name] = buf
            g = g + self.momentum * buf if self.nesterov else buf
        return value - self.lr * g

    def get_state(self) -> dict:
        return {"velocity": {k: v.copy() for k, v in self.velocity.items()}}

    def set_state(self, state: dict) -> None:
        self.velocity = {k: np.asarray(v, dtype=np.float64) for k, v in state["velocity"].items()}


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
            raise ConfigError(f"learning rate must be positive, got {lr}")
        if weight_decay < 0:
            raise ConfigError("weight_decay must be nonnegative")
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t: dict[str, int] = {}

    def step(self, name: str, value: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if value.shape != grad.shape:
            raise DomainError(f"{name}: grad shape {grad.shape} != value shape {value.shape}")
        w = value * (1.0 - self.lr * self.weight_decay) if self.weight_decay else value
        t = self.t.get(name, 0) + 1
        self.t[name] = t
        m = self.m.get(name)
        v = self.v.get(name)
        m = (1.0 - self.beta1) * grad if m is None else self.beta1 * m + (1.0 - self.beta1) * grad
        v = (
            (1.0 - self.beta2) * grad * grad
            if v is None
            else self.beta2 * v + (1.0 - self.beta2) * grad * grad
        )
        self.m[name] = m
        self.v[name] = v
        m_hat = m / (1.0 - self.beta1 ** t)
        v_hat = v / (1.0 - self.beta2 ** t)
        return w - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def get_state(self) -> dict:
        return {
            "m": {k: a.copy() for k, a in self.m.items()},
            "v": {k: a.copy() for k, a in self.v.items()},
            "t": dict(self.t),
        }

    def set_state(self, state: dict) -> None:
        self.m = {k: np.asarray(a, dtype=np.float64) for k, a in state["m"].items()}
        self.v = {k: np.asarray(a, dtype=np.float64) for k, a in state["v"].items()}
        self.t = {k: int(n) for k, n in state["t"].items()}


def make_base_optimizer(
    kind: str,
    lr: float,
    momentum: float = 0.0,
    weight_decay: float = 0.0,
    nesterov: bool = False,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
):
    if kind == "sgd":
        return Sgd(lr, momentum=momentum, weight_decay=weight_decay, nesterov=nesterov)
    if kind == "adamw":
        return AdamW(lr, betas=betas, eps=eps, weight_decay=weight_decay)
    raise ConfigError(f"unknown base optimizer {kind!r}; choose 'sgd' or 'adamw'")


class BaseOnlyOptimizer:
    """Vanilla fine-tuning: every tensor gets exactly the base optimizer step."""

    def __init__(self, params: dict[str, ManagedParam], base):
        self.params = params
        self.base = base
        self.gammas: dict[str, GammaState] = {}

    def step(self) -> None:
        require_grads(self.params)
        for name, p in self.params.items():
            p.value = self.base.step(name, p.value, p.grad)
            p.grad = None


class MarsSpOptimizer:
    """Base step followed by projection with fixed radii.

    ``gamma`` is either one shared radius for every layer (the usual,
    hand-tuned setting) or a per-tensor mapping, which supports replaying the
    radii another method learned. ``gamma = inf`` is an explicit sentinel for
    "never clamp", which makes the trajectory identical to the base optimizer
    alone.
    """

    def __init__(
        self,
        params: dict[str, ManagedParam],
        base,
        gamma,
        exclude_set: Iterable[str] = (),
    ):
        self.params = params
        self.base = base
        self.exclude = frozenset(exclude_set)
        unknown = self.exclude - set(params)
        if unknown:
            raise ConfigError(f"exclude_set names not in params: {sorted(unknown)}")
        self.views: dict[str, ProjectionView] = {
            name: canonicalize(p.value, name=name)
            for name, p in params.items()
            if p.projectable and name not in self.exclude
        }
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
        self.gammas: dict[str, GammaState] = {}
        self.displacements: dict[str, Displacement] = {}

    def gamma_values(self) -> dict[str, float]:
        """The fixed radii, reported per tensor like the learned methods."""
        return dict(self.fixed_gammas)

    def step(self) -> None:
        require_grads(self.params)
        for name, p in self.params.items():
            w_tilde = self.base.step(name, p.value, p.grad)
            view = self.views.get(name)
            if view is None:
                p.value = w_tilde
            else:
                gamma = self.fixed_gammas[name]
                disp = Displacement(view, w_tilde, p.anchor, previous=self.displacements.get(name))
                self.displacements[name] = disp
                p.prev_unconstrained = w_tilde
                p.value = disp.projected(
                    project_rows(disp.w_tilde, disp.w_anchor, gamma,
                                 delta=disp.delta, dist=disp.dist),
                    gamma,
                )
            p.grad = None


class TpgmOptimizer:
    """Constraint learning with a separate validation loop for each step.

    After the base update, ``inner_iters`` validation batches refine the
    per-tensor radii: each inner iteration projects the frozen unconstrained
    weights with the current radii, evaluates the validation gradient there
    (one extra forward+backward), chains it through the projection, and
    applies an Adam step to every radius. The final radii then project the
    unconstrained weights into place.
    """

    def __init__(
        self,
        params: dict[str, ManagedParam],
        base,
        grad_fn: Callable[[dict[str, np.ndarray], Batch], tuple[float, dict[str, np.ndarray]]],
        inner_iters: int = 1,
        exclude_set: Iterable[str] = (),
        mu: float = 1e-2,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        gamma_init: float = 1e-8,
    ):
        if inner_iters < 0:
            raise ConfigError(f"inner_iters must be nonnegative, got {inner_iters}")
        self.params = params
        self.base = base
        self.grad_fn = grad_fn
        self.inner_iters = int(inner_iters)
        self.exclude = frozenset(exclude_set)
        unknown = self.exclude - set(params)
        if unknown:
            raise ConfigError(f"exclude_set names not in params: {sorted(unknown)}")
        self.views: dict[str, ProjectionView] = {}
        self.gammas: dict[str, GammaState] = {}
        for name, p in params.items():
            if p.projectable and name not in self.exclude:
                self.views[name] = canonicalize(p.value, name=name)
                self.gammas[name] = GammaState(
                    gamma=gamma_init, kappa=1.0, mu=mu, beta1=betas[0], beta2=betas[1], eps=eps
                )
        # this step's frozen updates, measured once for every inner
        # projection and hyper-gradient and for the final projection
        self.displacements: dict[str, Displacement] = {}

    def gamma_values(self) -> dict[str, float]:
        return {name: gs.gamma for name, gs in self.gammas.items()}

    def _projected_values(self, w_tilde: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        values = {}
        for name, wt in w_tilde.items():
            disp = self.displacements.get(name)
            if disp is None:
                values[name] = wt
            else:
                gamma = self.gammas[name].gamma
                values[name] = disp.projected(
                    project_rows(disp.w_tilde, disp.w_anchor, gamma,
                                 delta=disp.delta, dist=disp.dist),
                    gamma,
                )
        return values

    def step(self, val_batches: Sequence[Batch]) -> None:
        """One training step consuming ``inner_iters`` validation batches."""
        if len(val_batches) < self.inner_iters:
            raise ConfigError(
                f"need {self.inner_iters} validation batches, got {len(val_batches)}"
            )
        require_grads(self.params)
        w_tilde = {
            name: self.base.step(name, p.value, p.grad) for name, p in self.params.items()
        }
        self.displacements = {
            name: Displacement(view, w_tilde[name], self.params[name].anchor,
                               previous=self.displacements.get(name))
            for name, view in self.views.items()
        }
        for k in range(self.inner_iters):
            probe = self._projected_values(w_tilde)
            _, val_grads = self.grad_fn(probe, val_batches[k])
            for name, gs in self.gammas.items():
                disp = self.displacements[name]
                g = hyper_gradient(
                    disp.view.to_2d(val_grads[name]), disp.w_tilde, disp.w_anchor, gs.gamma,
                    delta=disp.delta, dist=disp.dist,
                )
                adam_update_gamma(gs, g)
        final = self._projected_values(w_tilde)
        for name, p in self.params.items():
            if name in self.views:
                p.prev_unconstrained = w_tilde[name]
            p.value = final[name]
            p.grad = None


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
