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
from functools import cached_property, lru_cache
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


class _Layer(NamedTuple):
    """One dense layer of a spec's plan.

    ``act`` is the activation applied to the layer's output and ``dact`` its
    derivative; both are None for the top layer, whose output feeds the loss.
    """

    weight: str
    bias: str
    act: Callable | None
    dact: Callable | None


@dataclass(frozen=True)
class MlpSpec:
    """Architecture description: layer widths, hidden activations, loss.

    ``widths`` includes the input width, so ``len(widths) - 1`` weight
    matrices exist; ``activations`` has one entry per hidden layer (the final
    layer output feeds the loss directly).

    Every pass runs from the spec's plan (``_layers``, ``_shapes``), built on
    first use and kept with the spec: each layer's tensor names and shapes
    and its activation with its derivative. A pass therefore formats no name
    and looks up no activation.
    """

    widths: tuple[int, ...]
    activations: tuple[str, ...] = ()
    loss: str = "softmax_ce"

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ConfigError("need at least one layer (input and output width)")
        if any(w <= 0 for w in self.widths):
            raise ConfigError(f"layer widths must be positive: {self.widths}", "widths")
        n_hidden = len(self.widths) - 2
        acts = self.activations
        if len(acts) != n_hidden:
            raise ConfigError(
                f"{n_hidden} hidden layers need {n_hidden} activations, got {len(acts)}"
            )
        unknown = [a for a in acts if a not in ACTIVATIONS]
        if unknown:
            raise ConfigError(f"{unknown} not among {sorted(ACTIVATIONS)}", "activations")
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}; choose from {LOSSES}")

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1

    @cached_property
    def _layers(self) -> tuple[_Layer, ...]:
        fns = [ACTIVATIONS[a] for a in self.activations] + [(None, None)]
        return tuple(_Layer(f"layer{i}.weight", f"layer{i}.bias", *fns[i])
                     for i in range(self.n_layers))

    @cached_property
    def _shapes(self) -> dict[str, tuple[int, ...]]:
        """Every tensor's name -> shape, in ``layer_names`` order."""
        w = self.widths
        return {name: shape for i, layer in enumerate(self._layers)
                for name, shape in ((layer.weight, (w[i + 1], w[i])), (layer.bias, (w[i + 1],)))}

    def layer_names(self) -> list[str]:
        return list(self._shapes)

    def canonical(self) -> dict:
        return {
            "widths": list(self.widths),
            "activations": list(self.activations),
            "loss": self.loss,
        }


def init_params(spec: MlpSpec, rng: SeededRng) -> NamedParams:
    """He-style scaled Gaussian weights (two dimensions), zero biases (one)."""
    return {name: rng.normal(shape, stddev=np.sqrt(2.0 / shape[1])) if len(shape) == 2
            else np.zeros(shape, dtype=np.float64) for name, shape in spec._shapes.items()}


def _check_tensors(spec: MlpSpec, tensors: NamedParams, role: str, dtype=None) -> None:
    """Every tensor of ``spec`` is in ``tensors`` with its shape (and ``dtype``, if given)."""
    for name, shape in spec._shapes.items():
        t = tensors.get(name)
        if t is None:
            raise DomainError(f"{role} has no {name}")
        if t.shape != shape:
            raise DomainError(f"{role} {name} has shape {t.shape}; spec {spec.widths} needs {shape}")
        if dtype is not None and t.dtype != dtype:
            raise DomainError(f"{role} {name} has dtype {t.dtype}, not {np.dtype(dtype)}")


def _check_inputs(spec: MlpSpec, params: NamedParams, inputs: np.ndarray) -> np.ndarray:
    """``inputs`` as a float64 (batch, features) matrix that fits ``spec`` and ``params``."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2:
        raise DomainError(f"inputs must be a (batch, features) matrix, got rank {x.ndim}")
    if x.shape[1] != spec.widths[0]:
        raise DomainError(
            f"input width {x.shape[1]} does not match first layer width {spec.widths[0]}"
        )
    _check_tensors(spec, params, "params")
    return x


def _forward_trace(spec: MlpSpec, params: NamedParams, inputs: np.ndarray) -> list[np.ndarray]:
    """Forward pass keeping every layer's activation, the inputs first, for backprop."""
    h = _check_inputs(spec, params, inputs)
    acts = [h]
    for layer in spec._layers:
        h = h @ params[layer.weight].T + params[layer.bias]
        if layer.act is not None:
            h = layer.act(h, out=h)
        acts.append(h)
    return acts


def forward(
    spec: MlpSpec, params: NamedParams, inputs: np.ndarray, *, work: dict | None = None
) -> np.ndarray:
    """Batch outputs (logits or regression values), shape (batch, out_width).

    Hidden layers are computed in place in two alternating buffers per width,
    held in ``work``; a pass computes into the contiguous first rows of each,
    and a buffer grows only when a taller batch arrives. A caller that passes
    the same dict to several passes allocates them once. Only the returned
    output is a fresh array, so no result aliases a buffer. The operations
    and their order are those of ``_forward_trace``, so the output is bitwise
    equal to its last activation.
    """
    x = _check_inputs(spec, params, inputs)
    if work is None:
        work = {}
    h = x
    *hidden, top = spec._layers
    for i, layer in enumerate(hidden):
        w = params[layer.weight]
        key = (w.shape[0], i % 2)
        buf = work.get(key)
        if buf is None or len(buf) < len(x):
            buf = work[key] = np.empty((len(x), w.shape[0]), dtype=np.float64)
        buf = buf[:len(x)]
        np.matmul(h, w.T, out=buf)
        buf += params[layer.bias]
        h = layer.act(buf, out=buf)
    return h @ params[top.weight].T + params[top.bias]


@lru_cache(maxsize=8)
def _rows(n: int) -> np.ndarray:
    """``np.arange(n)``, read-only, kept for the last few batch sizes."""
    rows = np.arange(n)
    rows.flags.writeable = False
    return rows


def _check_targets(spec: MlpSpec, outputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    n, k = outputs.shape
    if n == 0:
        raise DomainError("the loss of an empty batch is undefined")
    if spec.loss == "softmax_ce":
        t = np.asarray(targets)
        if t.dtype.kind not in "iu":
            raise DomainError("softmax_ce expects integer class labels")
        if t.shape != (n,):
            raise DomainError(f"labels must have shape ({n},), got {t.shape}")
        if np.minimum.reduce(t) < 0 or np.maximum.reduce(t) >= k:
            raise DomainError(f"labels must lie in [0, {k}), got range [{t.min()}, {t.max()}]")
        return t
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != outputs.shape:
        raise DomainError(f"mse targets must have shape {outputs.shape}, got {t.shape}")
    return t


def _loss_and_delta(spec: MlpSpec, outputs: np.ndarray, targets: np.ndarray):
    """Mean loss over the batch and d(loss)/d(outputs).

    The reductions call ``np.add.reduce`` and ``np.maximum.reduce``, the
    ufunc reductions behind ``ndarray.sum`` and ``ndarray.max``, without the
    method wrappers.
    """
    t = _check_targets(spec, outputs, targets)
    n = outputs.shape[0]
    if spec.loss == "softmax_ce":
        rows = _rows(n)
        shifted = outputs - np.maximum.reduce(outputs, axis=1, keepdims=True)
        probs = np.exp(shifted)
        sums = np.add.reduce(probs, axis=1)
        loss = float(np.add.reduce(np.log(sums) - shifted[rows, t]) / n)
        probs /= sums[:, None]
        probs[rows, t] -= 1.0
        probs /= n
        return loss, probs
    diff = outputs - t
    loss = float(np.add.reduce(np.add.reduce(diff * diff, axis=1)) / n)
    return loss, 2.0 * diff / n


def evaluate_loss(spec: MlpSpec, params: NamedParams, batch: Batch) -> float:
    """Mean loss over the batch, forward pass only; an empty batch is a ``DomainError``."""
    outputs = forward(spec, params, batch.inputs)
    loss, _ = _loss_and_delta(spec, outputs, batch.targets)
    return loss


def backward(
    spec: MlpSpec, params: NamedParams, batch: Batch, *, out: NamedParams | None = None
) -> tuple[float, NamedParams]:
    """Mean batch loss and analytic gradients for every named tensor.

    With ``out``, a dict holding a float64 array of each tensor's shape under
    its name, every gradient is written into its array, and the returned dict
    holds those arrays. The result is the same bits either way. ``out`` is
    checked against the spec before anything runs, so a missing entry, or one
    of another shape or dtype, is a ``DomainError`` that leaves every array as
    it was. So is an empty batch, whose mean loss is undefined.
    """
    if out is not None:
        _check_tensors(spec, out, "out", np.float64)
    acts = _forward_trace(spec, params, batch.inputs)
    loss, delta = _loss_and_delta(spec, acts[-1], batch.targets)
    grads: NamedParams = dict.fromkeys(spec._shapes)  # type: ignore[arg-type]
    dst = {} if out is None else out
    layers = spec._layers
    for i in reversed(range(len(layers))):
        layer = layers[i]
        grads[layer.weight] = np.matmul(delta.T, acts[i], out=dst.get(layer.weight))
        grads[layer.bias] = np.add.reduce(delta, axis=0, out=dst.get(layer.bias))
        if i > 0:
            delta = delta @ params[layer.weight]
            delta *= layers[i - 1].dact(acts[i])
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
