"""Fast trainable projection: per-tensor constraint learning with reused gradients.

One optimizer step does four things for every projected tensor: (1) update the
constraint radius gamma using the current loss gradient chained through the
previous step's projection (no extra forward/backward pass), (2) anneal
positive constraint gradients by kappa, (3) apply one Adam step to gamma, and
(4) run the wrapped base optimizer and project the result onto the gamma
MARS ball around the frozen anchor weights. Tensors in the exclude set only
receive the base optimizer step, bit-identically to running it standalone.

The base stepping, the measurement of each update and the projection live in
:class:`ProjectedOptimizer`, which every projecting method (and base-only
fine-tuning) extends with its own choice of radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import ConfigError, DomainError, StateError
from .projection import (
    EPS_DIV,
    Displacement,
    ProjectionView,
    canonicalize,
    project_rows,
    resolve_displacement,
)

__all__ = [
    "GAMMA_INIT",
    "FtpOptimizer",
    "GammaState",
    "ManagedParam",
    "ProjectedOptimizer",
    "adam_update_gamma",
    "anneal_gradient",
    "hyper_gradient",
    "make_managed",
    "rebase_anchor",
    "require_grads",
    "state_tensors",
    "tensor_group",
]

# Constraints start effectively closed: the first step can barely leave the anchor.
GAMMA_INIT = 1e-8


@dataclass
class ManagedParam:
    """A trainable tensor with its frozen anchor and per-step caches.

    ``value`` is the live (projected) tensor, ``anchor`` the weights toward
    which projection pulls, ``prev_unconstrained`` the cached pre-projection
    update from the previous step (absent until a step has run), and ``grad``
    the loss gradient for the upcoming step.
    """

    name: str
    value: np.ndarray
    anchor: np.ndarray
    projectable: bool = True
    prev_unconstrained: Optional[np.ndarray] = None
    grad: Optional[np.ndarray] = None

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=np.float64)
        self.anchor = np.asarray(self.anchor, dtype=np.float64)
        if self.value.shape != self.anchor.shape:
            raise DomainError(
                f"{self.name}: value shape {self.value.shape} != anchor shape {self.anchor.shape}"
            )


def make_managed(
    values: dict[str, np.ndarray],
    anchors: Optional[dict[str, np.ndarray]] = None,
    projectable: Optional[Iterable[str]] = None,
) -> dict[str, ManagedParam]:
    """Wrap plain named tensors into managed params.

    Anchors default to copies of the current values; ``projectable`` limits
    which names participate in projection (default: all).
    """
    if anchors is None:
        anchors = {name: np.array(v, copy=True) for name, v in values.items()}
    proj = set(values) if projectable is None else set(projectable)
    unknown = proj - set(values)
    if unknown:
        raise ConfigError(f"projectable names not in params: {sorted(unknown)}")
    out = {}
    for name, v in values.items():
        if name not in anchors:
            raise DomainError(f"missing anchor for {name}")
        out[name] = ManagedParam(
            name=name,
            value=np.array(v, dtype=np.float64, copy=True),
            anchor=np.array(anchors[name], dtype=np.float64, copy=True),
            projectable=name in proj,
        )
    return out


def require_grads(params: dict[str, ManagedParam]) -> None:
    """Raise StateError, before any tensor is stepped, if a param has no gradient."""
    missing = [name for name, p in params.items() if p.grad is None]
    if missing:
        raise StateError(f"gradients missing for: {missing}")


def state_tensors(state: dict, kind: str) -> dict[str, np.ndarray]:
    """The tensors of an optimizer ``state`` of ``kind``; StateError for another kind.

    Every optimizer's ``get_state`` returns ``{"kind": ..., "tensors": {...}}``
    plus its scalar entries, the form a checkpoint stores.
    """
    if state.get("kind") != kind:
        raise StateError(f"optimizer state of kind {state.get('kind')!r} does not fit {kind!r}")
    return state.get("tensors", {})


def tensor_group(tensors: dict[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    """Copies of the ``prefix/name`` entries of ``tensors``, keyed by name.

    Optimizers update their buffers in place, so a restored state never
    shares memory with the ``tensors`` it came from.
    """
    start = len(prefix) + 1
    return {key[start:]: np.array(arr, dtype=np.float64, copy=True)
            for key, arr in tensors.items() if key.startswith(prefix + "/")}


@dataclass
class GammaState:
    """One learnable constraint radius with its Adam moments.

    ``kappa`` scales positive (shrinking) constraint gradients; ``mu`` is the
    fixed Adam step size for gamma.
    """

    gamma: float = GAMMA_INIT
    m: float = 0.0
    v: float = 0.0
    t: int = 0
    kappa: float = 1.0
    mu: float = 1e-2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not 0.0 <= self.kappa <= 1.0:
            raise ConfigError(f"annealing rate must lie in [0, 1], got {self.kappa}")
        if self.gamma < 0:
            raise ConfigError(f"constraint radius must be nonnegative, got {self.gamma}")

    def reset(self, gamma: float = GAMMA_INIT) -> None:
        self.gamma = gamma
        self.m = 0.0
        self.v = 0.0
        self.t = 0


def hyper_gradient(
    grad: np.ndarray,
    prev_unconstrained: Optional[np.ndarray],
    anchor: np.ndarray,
    gamma: float,
    eps_div: float = EPS_DIV,
    *,
    delta: Optional[np.ndarray] = None,
    dist: Optional[np.ndarray] = None,
) -> float:
    """Derivative of the loss w.r.t. the constraint radius, reusing ``grad``.

    Sums, over rows whose cached displacement exceeds gamma (the rows the
    projection actually rescaled), the inner product of the loss gradient row
    with the displacement direction, divided by the row's L1 displacement.
    Clamped rows and rows with negligible displacement contribute zero.

    ``delta`` and ``dist`` are the cached :func:`~projtune.projection.row_displacement`
    of ``prev_unconstrained`` from ``anchor``; without them it is computed.
    """
    if prev_unconstrained is None:
        raise StateError("no cached unconstrained weights; run a step first")
    g = np.asarray(grad, dtype=np.float64)
    wt = np.asarray(prev_unconstrained, dtype=np.float64)
    w0 = np.asarray(anchor, dtype=np.float64)
    if not (g.shape == wt.shape == w0.shape) or g.ndim != 2:
        raise DomainError(
            f"hyper_gradient expects matching 2-D shapes, got {g.shape}/{wt.shape}/{w0.shape}"
        )
    delta, dist = resolve_displacement(wt, w0, delta, dist)
    active = (dist > gamma) & (dist >= eps_div)
    if not np.any(active):
        return 0.0
    # whole-matrix row sums, then select: the same per-row bits as summing the selected rows
    num = (g * delta).sum(axis=1)[active]
    return float((num / dist[active]).sum())


def anneal_gradient(grad: float, kappa: float) -> float:
    """Scale positive (constraint-shrinking) gradients by kappa; pass the rest through."""
    if not 0.0 <= kappa <= 1.0:
        raise ConfigError(f"annealing rate must lie in [0, 1], got {kappa}")
    return kappa * grad if grad > 0 else grad


def adam_update_gamma(state: GammaState, grad: float) -> float:
    """One Adam step on the constraint radius; floors the result at zero.

    Returns the pre-clamp radius for diagnostics; ``state.gamma`` holds the
    clamped value. A non-finite gradient raises before any field changes.
    """
    if not math.isfinite(grad):
        raise DomainError(f"non-finite constraint gradient {grad}")
    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = state.m / (1.0 - state.beta1 ** state.t)
    v_hat = state.v / (1.0 - state.beta2 ** state.t)
    raw = state.gamma - state.mu * m_hat / (math.sqrt(v_hat) + state.eps)
    state.gamma = raw if raw > 0.0 else 0.0
    return raw


def rebase_anchor(
    params: dict[str, ManagedParam],
    gammas: dict[str, GammaState],
    gamma_init: float = GAMMA_INIT,
) -> None:
    """Adopt the current weights as the new anchor and restart constraint learning.

    Used between sequential tasks: anchors become the current values, all
    gamma states reset to their initial closed radius, and cached
    unconstrained weights are dropped.
    """
    for p in params.values():
        p.anchor = np.array(p.value, copy=True)
        p.prev_unconstrained = None
    for gs in gammas.values():
        gs.reset(gamma_init)


class ProjectedOptimizer:
    """A base optimizer whose updates are projected onto per-tensor MARS balls.

    ``base`` is any object with ``step(name, value, grad) -> new_value`` and
    a ``get_state``/``set_state`` pair (e.g. :class:`projtune.baselines.Sgd`),
    whose state is this optimizer's state. Every tensor that is projectable
    and not in ``exclude_set`` is projected around its anchor; the rest
    receive only the base step, bit-identically to running it standalone.

    Subclasses differ only in how they choose each tensor's radius. Their
    ``step`` base-steps every tensor (:meth:`_base_step`), sets the radii
    (learned ones live in ``gammas``; :meth:`radius` reads them) and projects
    the updates into place (:meth:`_store`).
    """

    def __init__(self, params: dict[str, ManagedParam], base, exclude_set: Iterable[str] = ()):
        self.params = params
        self.base = base
        exclude = frozenset(exclude_set)
        unknown = exclude - set(params)
        if unknown:
            raise ConfigError(f"exclude_set names not in params: {sorted(unknown)}")
        self.views: dict[str, ProjectionView] = {
            name: canonicalize(p.value, name=name)
            for name, p in params.items()
            if p.projectable and name not in exclude
        }
        self.gammas: dict[str, GammaState] = {}
        # the latest update of each projected tensor, measured once: its
        # projection, the next step's hyper-gradient and the run loop's
        # constraint check all read it
        self.displacements: dict[str, Displacement] = {}

    def projected_names(self) -> list[str]:
        return list(self.views)

    def radius(self, name: str) -> float:
        return self.gammas[name].gamma

    def gamma_values(self) -> dict[str, float]:
        return {name: self.radius(name) for name in self.views}

    def get_state(self) -> dict:
        return self.base.get_state()

    def set_state(self, state: dict) -> None:
        self.base.set_state(state)

    def rebase_anchor(self, gamma_init: float = GAMMA_INIT) -> None:
        rebase_anchor(self.params, self.gammas, gamma_init=gamma_init)
        self.displacements.clear()

    def _measure(self, name: str, source: np.ndarray) -> Displacement:
        """The displacement of ``source`` from the anchor: the cached one while it is current."""
        p = self.params[name]
        disp = self.displacements.get(name)
        if disp is None or not disp.measures(source, p.anchor):
            disp = Displacement(self.views[name], source, p.anchor, previous=disp)
            self.displacements[name] = disp
        return disp

    def _base_step(self) -> dict[str, np.ndarray]:
        """Base-step every tensor and measure each projected update; return the updates."""
        require_grads(self.params)
        w_tilde = {name: self.base.step(name, p.value, p.grad) for name, p in self.params.items()}
        for name in self.views:
            self._measure(name, w_tilde[name])
        return w_tilde

    def _project(self, name: str) -> np.ndarray:
        """The measured update of ``name`` projected at its current radius."""
        disp = self.displacements[name]
        gamma = self.radius(name)
        return disp.projected(
            project_rows(disp.w_tilde, disp.w_anchor, gamma, delta=disp.delta, dist=disp.dist),
            gamma,
        )

    def _store(self, w_tilde: dict[str, np.ndarray]) -> None:
        """Put every update in place, projected where it is measured, and consume the gradients."""
        for name, p in self.params.items():
            if name in self.views:
                p.prev_unconstrained = w_tilde[name]
                p.value = self._project(name)
            else:
                p.value = w_tilde[name]
            p.grad = None


class FtpOptimizer(ProjectedOptimizer):
    """Wraps a base optimizer with learned per-tensor projection constraints.

    Configuration mirrors the usual optimizer keys plus ``k`` (positive-gradient
    annealing rate, in [0, 1]) and ``exclude_set`` (parameter names never
    projected).
    """

    def __init__(
        self,
        params: dict[str, ManagedParam],
        base,
        k: float = 1.0,
        exclude_set: Iterable[str] = (),
        mu: float = 1e-2,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        gamma_init: float = GAMMA_INIT,
    ):
        super().__init__(params, base, exclude_set)
        self.gammas = {
            name: GammaState(gamma=gamma_init, kappa=k, mu=mu, beta1=betas[0], beta2=betas[1],
                             eps=eps)
            for name in self.views
        }

    def step(self) -> None:
        """One optimization step; consumes the gradients stored on the params.

        Exactly one loss/gradient evaluation feeds both the model update and
        the constraint update. Every radius gradient is taken, and checked,
        before any radius or tensor moves, so a failed step leaves no trace.
        """
        require_grads(self.params)
        grads = {}
        for name, gs in self.gammas.items():
            p = self.params[name]
            if p.prev_unconstrained is not None:
                disp = self._measure(name, p.prev_unconstrained)
                raw = hyper_gradient(disp.view.to_2d(p.grad), disp.w_tilde, disp.w_anchor,
                                     gs.gamma, delta=disp.delta, dist=disp.dist)
                grads[name] = anneal_gradient(raw, gs.kappa)
        bad = [name for name, g in grads.items() if not math.isfinite(g)]
        if bad:
            raise DomainError(f"non-finite constraint gradient for {bad}")
        for name, g in grads.items():
            adam_update_gamma(self.gammas[name], g)
        self._store(self._base_step())
