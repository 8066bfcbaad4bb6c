"""A learned global learning rate updated by hyper-gradients.

The scalar step size grows when consecutive loss gradients align and shrinks
when they oppose: alpha_t = alpha_{t-1} + kappa * <g_t, g_{t-1}>, followed by
the plain gradient step W_t = W_{t-1} - alpha_t * g_t. This is the same
cache-and-reuse pattern the projection-constraint learner uses, applied to
the learning rate instead of a constraint radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, StateError
from .ftp import ManagedParam, state_tensors

__all__ = ["ALPHA_FLOOR", "HyperLrState", "HyperSgd", "hyper_sgd_lr_step"]

# The update rule has no sign guard of its own; keep alpha strictly positive.
ALPHA_FLOOR = 1e-12


@dataclass
class HyperLrState:
    alpha: float
    kappa_lr: float
    prev_grad: Optional[np.ndarray] = None  # flattened gradient from the previous step

    def __post_init__(self):
        if not self.alpha > 0:
            raise ConfigError(f"initial learning rate must be positive, got {self.alpha}")


def _flatten_grads(params: dict[str, ManagedParam]) -> np.ndarray:
    chunks = []
    for name, p in params.items():
        if p.grad is None:
            raise StateError(f"gradient missing for {name}")
        chunks.append(np.asarray(p.grad, dtype=np.float64).reshape(-1))
    return np.concatenate(chunks)


def hyper_sgd_lr_step(state: HyperLrState, params: dict[str, ManagedParam]) -> None:
    """One step: update alpha from the gradient alignment, then step the weights."""
    g_flat = _flatten_grads(params)
    if state.prev_grad is not None:
        dot = float(np.dot(g_flat, state.prev_grad))
        alpha = state.alpha + state.kappa_lr * dot
        state.alpha = alpha if alpha > ALPHA_FLOOR else ALPHA_FLOOR
    for p in params.values():
        p.value = p.value - state.alpha * p.grad
        p.grad = None
    state.prev_grad = g_flat


class HyperSgd:
    """Optimizer wrapper around :func:`hyper_sgd_lr_step`.

    Config keys: ``hyper.alpha0`` (initial learning rate) and ``hyper.kappa``
    (hyper learning rate; 0 reproduces fixed-lr SGD bit-for-bit).
    """

    def __init__(self, params: dict[str, ManagedParam], alpha0: float, kappa: float):
        self.params = params
        self.state = HyperLrState(alpha=float(alpha0), kappa_lr=float(kappa))
        # nothing is projected, and gradients arrive as fresh arrays
        self.gammas: dict = {}
        self.grad_views = None

    @property
    def alpha(self) -> float:
        return self.state.alpha

    def gamma_values(self) -> dict[str, float]:
        return {}

    def constraint_excess(self) -> None:
        return None

    def get_state(self) -> dict:
        prev = self.state.prev_grad
        return {"kind": "hyper-sgd", "alpha": self.state.alpha,
                "tensors": {} if prev is None else {"hyper/prev_grad": prev}}

    def set_state(self, state: dict) -> None:
        """Load ``state``; StateError, with nothing loaded, if it does not fit these params."""
        prev = state_tensors(state, "hyper-sgd").get("hyper/prev_grad")
        alpha = float(state.get("alpha", 0.0))
        size = sum(p.value.size for p in self.params.values())
        if not alpha > 0 or (prev is not None and np.shape(prev) != (size,)):
            raise StateError(f"hyper-sgd state (alpha {state.get('alpha')!r}, prev_grad shape "
                             f"{np.shape(prev)}) needs alpha > 0 and shape ({size},)")
        self.state.alpha = alpha
        self.state.prev_grad = None if prev is None else np.asarray(prev)

    def step(self) -> None:
        hyper_sgd_lr_step(self.state, self.params)
