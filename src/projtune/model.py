"""Small dense feed-forward networks with analytic and finite-difference gradients.

The model kit exists to supply honest loss gradients to the optimizers at
desk scale. Parameters are a name -> float64 array mapping with stable
iteration order ("layer0.weight", "layer0.bias", ...), weights are stored as
(fan_out, fan_in) so each row is one output unit, and every gradient the
analytic backward pass produces can be cross-checked against central finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, DomainError
from .numerics import SeededRng

__all__ = [
    "ACTIVATIONS",
    "LOSSES",
    "Batch",
    "MlpSpec",
    "NamedParams",
    "backward",
    "evaluate_loss",
    "finite_diff_grad",
    "forward",
    "init_params",
]

NamedParams = dict[str, np.ndarray]


class Batch(NamedTuple):
    inputs: np.ndarray
    targets: np.ndarray


def _relu(z, out=None):
    return np.maximum(z, 0.0, out=out)


def _drelu(a):
    return a > 0


def _tanh(z, out=None):
    return np.tanh(z, out=out)


def _dtanh(a):
    return 1.0 - a * a


def _identity(z, out=None):
    return z


def _didentity(a):
    return np.ones_like(a)


# name -> (activation, derivative w.r.t. pre-activation written in terms of
# the activation's output, so backprop needs no pre-activations); an
# activation given ``out=`` writes in place: ``out`` is always its input ``z``
ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "relu": (_relu, _drelu),
    "tanh": (_tanh, _dtanh),
    "identity": (_identity, _didentity),
}

LOSSES = ("softmax_ce", "mse")


@dataclass(frozen=True)
class MlpSpec:
    """Architecture description: layer widths, hidden activations, loss.

    ``widths`` includes the input width, so ``len(widths) - 1`` weight
    matrices exist; ``activations`` has one entry per hidden layer (the final
    layer output feeds the loss directly).
    """

    widths: tuple[int, ...]
    activations: tuple[str, ...] = ()
    loss: str = "softmax_ce"

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ConfigError("need at least one layer (input and output width)")
        if any(w <= 0 for w in self.widths):
            raise ConfigError(f"layer widths must be positive: {self.widths}")
        n_hidden = len(self.widths) - 2
        acts = self.activations
        if len(acts) != n_hidden:
            raise ConfigError(
                f"{n_hidden} hidden layers need {n_hidden} activations, got {len(acts)}"
            )
        unknown = [a for a in acts if a not in ACTIVATIONS]
        if unknown:
            raise ConfigError(f"unknown activations {unknown}; choose from {sorted(ACTIVATIONS)}")
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}; choose from {LOSSES}")

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1

    def layer_names(self) -> list[str]:
        names = []
        for i in range(self.n_layers):
            names.append(f"layer{i}.weight")
            names.append(f"layer{i}.bias")
        return names

    def canonical(self) -> dict:
        return {
            "widths": list(self.widths),
            "activations": list(self.activations),
            "loss": self.loss,
        }


def _activation_fns(spec: MlpSpec, layer: int) -> tuple[Callable, Callable]:
    name = spec.activations[layer]
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ConfigError(f"unknown activation {name!r}") from None


def init_params(spec: MlpSpec, rng: SeededRng) -> NamedParams:
    """He-style scaled Gaussian weights, zero biases."""
    params: NamedParams = {}
    for i in range(spec.n_layers):
        fan_in, fan_out = spec.widths[i], spec.widths[i + 1]
        scale = np.sqrt(2.0 / fan_in)
        params[f"layer{i}.weight"] = rng.normal((fan_out, fan_in), stddev=scale)
        params[f"layer{i}.bias"] = np.zeros(fan_out, dtype=np.float64)
    return params


def _check_params(spec: MlpSpec, params: NamedParams) -> None:
    for i in range(spec.n_layers):
        w = params.get(f"layer{i}.weight")
        b = params.get(f"layer{i}.bias")
        if w is None or b is None:
            raise DomainError(f"missing tensors for layer{i}")
        want_w = (spec.widths[i + 1], spec.widths[i])
        if tuple(w.shape) != want_w or tuple(b.shape) != (spec.widths[i + 1],):
            raise DomainError(
                f"layer{i} shapes {w.shape}/{b.shape} do not match spec widths {spec.widths}"
            )


def _check_inputs(spec: MlpSpec, params: NamedParams, inputs: np.ndarray) -> np.ndarray:
    """``inputs`` as a float64 (batch, features) matrix that fits ``spec`` and ``params``."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2:
        raise DomainError(f"inputs must be a (batch, features) matrix, got rank {x.ndim}")
    if x.shape[1] != spec.widths[0]:
        raise DomainError(
            f"input width {x.shape[1]} does not match first layer width {spec.widths[0]}"
        )
    _check_params(spec, params)
    return x


def _forward_trace(spec: MlpSpec, params: NamedParams, inputs: np.ndarray) -> list[np.ndarray]:
    """Forward pass keeping every layer's activation, the inputs first, for backprop."""
    x = _check_inputs(spec, params, inputs)
    acts = [x]
    h = x
    for i in range(spec.n_layers):
        w = params[f"layer{i}.weight"]
        b = params[f"layer{i}.bias"]
        h = h @ w.T + b
        if i < spec.n_layers - 1:
            act, _ = _activation_fns(spec, i)
            h = act(h, out=h)
        acts.append(h)
    return acts


def forward(
    spec: MlpSpec, params: NamedParams, inputs: np.ndarray, *, work: dict | None = None
) -> np.ndarray:
    """Batch outputs (logits or regression values), shape (batch, out_width).

    Hidden layers are computed in place in two alternating buffers per row
    count and width, held in ``work``; a caller that passes the same dict to
    several passes allocates them once. Only the returned output is a fresh
    array, so no result aliases a buffer. The operations and their order are
    those of ``_forward_trace``, so the output is bitwise equal to its last
    activation.
    """
    x = _check_inputs(spec, params, inputs)
    if work is None:
        work = {}
    h = x
    last = spec.n_layers - 1
    for i in range(last):
        w = params[f"layer{i}.weight"]
        key = (x.shape[0], w.shape[0], i % 2)
        buf = work.get(key)
        if buf is None:
            buf = work[key] = np.empty((x.shape[0], w.shape[0]), dtype=np.float64)
        np.matmul(h, w.T, out=buf)
        buf += params[f"layer{i}.bias"]
        act, _ = _activation_fns(spec, i)
        h = act(buf, out=buf)
    return h @ params[f"layer{last}.weight"].T + params[f"layer{last}.bias"]


def _check_targets(spec: MlpSpec, outputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    n, k = outputs.shape
    if spec.loss == "softmax_ce":
        t = np.asarray(targets)
        if not np.issubdtype(t.dtype, np.integer):
            raise DomainError("softmax_ce expects integer class labels")
        if t.shape != (n,):
            raise DomainError(f"labels must have shape ({n},), got {t.shape}")
        if t.size and (t.min() < 0 or t.max() >= k):
            raise DomainError(f"labels must lie in [0, {k}), got range [{t.min()}, {t.max()}]")
        return t.astype(np.int64)
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != outputs.shape:
        raise DomainError(f"mse targets must have shape {outputs.shape}, got {t.shape}")
    return t


def _loss_and_delta(spec: MlpSpec, outputs: np.ndarray, targets: np.ndarray):
    """Mean loss over the batch and d(loss)/d(outputs)."""
    t = _check_targets(spec, outputs, targets)
    n = outputs.shape[0]
    if spec.loss == "softmax_ce":
        shifted = outputs - outputs.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        sums = probs.sum(axis=1)
        loss = float((np.log(sums) - shifted[np.arange(n), t]).sum() / n)
        probs /= sums[:, None]
        probs[np.arange(n), t] -= 1.0
        probs /= n
        return loss, probs
    diff = outputs - t
    loss = float((diff * diff).sum(axis=1).sum() / n)
    return loss, 2.0 * diff / n


def evaluate_loss(spec: MlpSpec, params: NamedParams, batch: Batch) -> float:
    """Mean loss over the batch, forward pass only."""
    outputs = forward(spec, params, batch.inputs)
    loss, _ = _loss_and_delta(spec, outputs, batch.targets)
    return loss


def backward(
    spec: MlpSpec, params: NamedParams, batch: Batch, *, out: NamedParams | None = None
) -> tuple[float, NamedParams]:
    """Mean batch loss and analytic gradients for every named tensor.

    With ``out``, a dict holding an array of each tensor's shape under its
    name, every gradient is written into its array, and the returned dict
    holds those arrays. The result is the same bits either way.
    """
    acts = _forward_trace(spec, params, batch.inputs)
    loss, delta = _loss_and_delta(spec, acts[-1], batch.targets)
    grads: NamedParams = {name: None for name in spec.layer_names()}  # type: ignore[misc]
    for i in reversed(range(spec.n_layers)):
        w_name, b_name = f"layer{i}.weight", f"layer{i}.bias"
        grads[w_name] = np.matmul(delta.T, acts[i], out=None if out is None else out[w_name])
        grads[b_name] = delta.sum(axis=0, out=None if out is None else out[b_name])
        if i > 0:
            _, dact = _activation_fns(spec, i - 1)
            delta = delta @ params[w_name]
            delta *= dact(acts[i])
    return loss, grads


def finite_diff_grad(
    spec: MlpSpec, params: NamedParams, batch: Batch, h: float = 1e-6
) -> NamedParams:
    """Central-difference gradient oracle: (L(p+h) - L(p-h)) / 2h per coordinate.

    Independent of the analytic backward pass; quadratic losses are exact up
    to rounding. Intended for small nets only (two loss evaluations per
    scalar parameter).
    """
    if not h > 0:
        raise DomainError(f"finite-difference step must be positive, got {h}")
    grads: NamedParams = {}
    work = {name: np.array(t, dtype=np.float64, copy=True) for name, t in params.items()}
    for name, tensor in work.items():
        g = np.zeros_like(tensor)
        flat = tensor.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = evaluate_loss(spec, work, batch)
            flat[j] = orig - h
            down = evaluate_loss(spec, work, batch)
            flat[j] = orig
            gflat[j] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads
