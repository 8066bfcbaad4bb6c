"""A learned global learning rate updated by hyper-gradients.

The scalar step size grows when consecutive loss gradients align and shrinks
when they oppose: alpha_t = alpha_{t-1} + kappa * <g_t, g_{t-1}>, followed by
the plain gradient step W_t = W_{t-1} - alpha_t * g_t. This is the same
cache-and-reuse pattern the projection-constraint learner uses, applied to
the learning rate instead of a constraint radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .baselines import Sgd
from .errors import ConfigError, StateError
from .ftp import ManagedParam, ProjectedOptimizer, state_tensors

__all__ = ["ALPHA_FLOOR", "HyperLrState", "HyperSgd", "hyper_sgd_lr_step"]

# The update rule has no sign guard of its own; keep alpha strictly positive.
ALPHA_FLOOR = 1e-12


@dataclass
class HyperLrState:
    alpha: float
    kappa_lr: float
    prev_grad: Optional[np.ndarray] = None  # flattened gradient from the previous step

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ConfigError(f"hyper.alpha0 must be finite and positive, got {self.alpha}")
        if not (math.isfinite(self.kappa_lr) and self.kappa_lr >= 0):
            raise ConfigError(f"hyper.kappa must be finite and nonnegative, got {self.kappa_lr}")


def _advance_alpha(state: HyperLrState, g_flat: np.ndarray) -> float:
    """The rate rule: move ``state.alpha`` by kappa * <g_t, g_{t-1}>, floored; return it.

    The first step, with no previous gradient, keeps the rate.
    """
    if state.prev_grad is not None:
        alpha = state.alpha + state.kappa_lr * float(np.dot(g_flat, state.prev_grad))
        state.alpha = alpha if alpha > ALPHA_FLOOR else ALPHA_FLOOR
    return state.alpha


def hyper_sgd_lr_step(state: HyperLrState, params: dict[str, ManagedParam]) -> None:
    """One step: update alpha from the gradient alignment, then step the weights."""
    chunks = []
    for name, p in params.items():
        if p.grad is None:
            raise StateError(f"gradient missing for {name}")
        chunks.append(np.asarray(p.grad, dtype=np.float64).reshape(-1))
    g_flat = np.concatenate(chunks)
    alpha = _advance_alpha(state, g_flat)
    for p in params.values():
        p.value = p.value - alpha * p.grad
        p.grad = None
    state.prev_grad = g_flat


class HyperSgd(ProjectedOptimizer):
    """SGD whose rate follows :func:`hyper_sgd_lr_step`'s rule, in one unprojected block.

    Config keys: ``hyper.alpha0`` (initial learning rate) and ``hyper.kappa``
    (hyper learning rate; 0 reproduces fixed-lr SGD bit-for-bit). Every
    tensor is in ``exclude_set``, so the block's gradient column is the
    flattened gradient of all params, and the base :class:`Sgd` steps it at
    the current rate.
    """

    def __init__(self, params: dict[str, ManagedParam], alpha0: float, kappa: float):
        if not params:
            raise ConfigError("hyper-sgd needs at least one tensor to step")
        self.state = HyperLrState(alpha=float(alpha0), kappa_lr=float(kappa))
        super().__init__(params, Sgd(self.state.alpha), exclude_set=params)
        self._grad_flat = self._blocks[0].grad.reshape(-1)
        self._prev_grad = np.empty_like(self._grad_flat)

    @property
    def alpha(self) -> float:
        return self.state.alpha

    def get_state(self) -> dict:
        """The rate and the last gradient; the next step overwrites that array, so save it first."""
        prev = self.state.prev_grad
        return {"kind": "hyper-sgd", "alpha": self.state.alpha,
                "tensors": {} if prev is None else {"hyper/prev_grad": prev}}

    def set_state(self, state: dict) -> None:
        """Load ``state``; StateError, with nothing loaded, if it does not fit these params."""
        prev = state_tensors(state, "hyper-sgd").get("hyper/prev_grad")
        alpha = float(state.get("alpha", 0.0))
        shape = self._grad_flat.shape
        if not 0 < alpha < math.inf or (prev is not None and np.shape(prev) != shape):
            raise StateError(f"hyper-sgd state (alpha {state.get('alpha')!r}, prev_grad shape "
                             f"{np.shape(prev)}) needs a finite alpha > 0 and shape {shape}")
        self.state.alpha = alpha
        self.state.prev_grad = None if prev is None else np.asarray(prev)

    def step(self) -> None:
        self._gather()
        self.base.lr = _advance_alpha(self.state, self._grad_flat)
        np.copyto(self._prev_grad, self._grad_flat)
        self.state.prev_grad = self._prev_grad
        self._base_step()
        self._commit()
