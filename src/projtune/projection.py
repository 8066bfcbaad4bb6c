"""Row-wise projection onto a MARS-norm ball around anchor weights.

The projection shrinks each row of a weight update back toward its anchor row
so that the L1 displacement of every row stays within the constraint radius.
Because the MARS matrix norm is the maximum absolute row sum, bounding each
row independently bounds the whole matrix. Rows already inside the ball are
returned bit-identically unchanged (the shrink factor is clamped at 1).

``canonicalize`` decides what counts as "a row" for tensors that are not
plain weight matrices: vectors (biases) become a single row, 4-axis
convolution kernels flatten to (out_channels, rest).

An optimizer measures each update once, as a :class:`Displacement`: the
projection, the next step's hyper-gradient and the constraint check all read
its ``delta`` and ``dist`` instead of recomputing them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedShapeError

__all__ = [
    "EPS_DIV",
    "Displacement",
    "ProjectionView",
    "canonicalize",
    "project_rows",
    "resolve_displacement",
    "row_displacement",
]

# Floor on row L1 displacement to avoid 0/0 when weights sit exactly on the
# anchor (the constraint starts at 1e-8 with identical weights).
EPS_DIV = 1e-12


@dataclass(frozen=True)
class ProjectionView:
    """Mapping of a named tensor onto its canonical 2-D projection shape."""

    name: str
    source_shape: tuple[int, ...]
    rows: int
    cols: int

    def to_2d(self, tensor: np.ndarray) -> np.ndarray:
        if tuple(tensor.shape) != self.source_shape:
            raise DomainError(
                f"{self.name}: expected shape {self.source_shape}, got {tensor.shape}"
            )
        return np.ascontiguousarray(tensor, dtype=np.float64).reshape(self.rows, self.cols)

    def from_2d(self, mat: np.ndarray) -> np.ndarray:
        return np.asarray(mat, dtype=np.float64).reshape(self.source_shape)


def canonicalize(tensor, name: str = "") -> ProjectionView:
    """Build the canonical 2-D view for a tensor.

    Rules: matrices stay as-is, a length-n vector becomes one 1 x n row, and
    rank-3/4 tensors (convolution kernels) keep the leading axis as rows and
    flatten the rest. Higher ranks are unsupported.
    """
    arr = np.asarray(tensor, dtype=np.float64)
    if arr.size == 0:
        raise DomainError(f"{name or 'tensor'}: empty tensor has no projection view")
    shape = tuple(arr.shape)
    if arr.ndim == 2:
        rows, cols = shape
    elif arr.ndim == 1:
        rows, cols = 1, shape[0]
    elif arr.ndim in (3, 4):
        rows, cols = shape[0], int(np.prod(shape[1:]))
    else:
        raise UnsupportedShapeError(
            f"{name or 'tensor'}: rank-{arr.ndim} tensors have no canonical row view"
        )
    return ProjectionView(name=name, source_shape=shape, rows=rows, cols=cols)


def row_displacement(w_tilde: np.ndarray, w_anchor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(delta, dist)`` of a canonical 2-D update: ``w_tilde - w_anchor`` and its row L1 norms.

    Every consumer of the displacement computes it here, so cached and
    recomputed values are the same bits.
    """
    delta = w_tilde - w_anchor
    return delta, np.abs(delta).sum(axis=1)


def _shrink_factors(dist: np.ndarray, gamma: float, eps_div: float = EPS_DIV) -> np.ndarray:
    """Per-row factor by which :func:`project_rows` scales a row's displacement.

    Rows whose factor is 1 or more lie inside the ball and are left as they are.
    """
    return gamma / np.maximum(dist, eps_div)


def resolve_displacement(wt, w0, delta, dist) -> tuple[np.ndarray, np.ndarray]:
    """``(delta, dist)`` of 2-D ``wt`` and ``w0``: the given pair if it fits, else computed."""
    if delta is None and dist is None:
        return row_displacement(wt, w0)
    if delta is None or dist is None:
        raise DomainError("delta and dist are passed together or not at all")
    if np.shape(delta) != wt.shape or np.shape(dist) != wt.shape[:1]:
        raise DomainError(
            f"cached displacement shapes {np.shape(delta)}/{np.shape(dist)} "
            f"do not fit {wt.shape}"
        )
    return delta, dist


def project_rows(
    w_tilde, w_anchor, gamma: float, eps_div: float = EPS_DIV, *, delta=None, dist=None
) -> np.ndarray:
    """Project each row of ``w_tilde`` into the gamma L1-ball around the anchor row.

    Returns a new matrix whose rows satisfy ``|row - anchor_row|_1 <= gamma``
    (up to float rounding). Rows whose displacement is already within gamma
    are copied through untouched, so projecting twice is a no-op and an
    infinite gamma reproduces ``w_tilde`` exactly.

    ``delta`` and ``dist`` are the :func:`row_displacement` of the two
    matrices when the caller already holds it; without them it is computed.
    """
    if not gamma >= 0:
        raise DomainError(f"projection radius must be nonnegative, got {gamma}")
    wt = np.asarray(w_tilde, dtype=np.float64)
    w0 = np.asarray(w_anchor, dtype=np.float64)
    if wt.shape != w0.shape:
        raise DomainError(f"shape mismatch: {wt.shape} vs {w0.shape}")
    if wt.ndim != 2:
        raise DomainError(f"project_rows expects canonical 2-D input, got rank {wt.ndim}")
    delta, dist = resolve_displacement(wt, w0, delta, dist)

    factor = _shrink_factors(dist, gamma, eps_div)
    shrink = factor < 1.0
    if not np.any(shrink):
        return wt.copy()
    # every row computed in place and the kept rows copied back over theirs:
    # the same bits as rescaling only the shrunk rows, without gathering them
    out = np.minimum(factor, 1.0)[:, None] * delta
    out += w0
    np.copyto(out, wt, where=~shrink[:, None])
    return out


class Displacement:
    """One tensor's unconstrained update measured against its anchor, in the 2-D view.

    ``w_tilde`` and ``w_anchor`` are the 2-D views of ``source`` and
    ``anchor``; ``delta`` and ``dist`` their :func:`row_displacement`. A
    measurement stands for its arrays only while they are the very same
    objects (:meth:`measures`): state that is replaced, by a resume or an
    anchor rebase, is measured again. ``previous`` lends its anchor view when
    the anchor is unchanged, so each anchor is reshaped once.

    :meth:`projected` records the tensor the projection made of this update
    (``value``, and ``value_2d`` in the 2-D view) and its radius, from which
    :meth:`rescaled_rows` names the rows it moved.
    """

    __slots__ = ("view", "source", "anchor", "w_tilde", "w_anchor", "delta", "dist",
                 "value", "value_2d", "gamma")

    def __init__(self, view: ProjectionView, source: np.ndarray, anchor: np.ndarray,
                 previous: Displacement | None = None):
        self.view = view
        self.source = source
        self.anchor = anchor
        self.w_tilde = view.to_2d(source)
        if previous is not None and previous.anchor is anchor:
            self.w_anchor = previous.w_anchor
        else:
            self.w_anchor = view.to_2d(anchor)
        self.delta, self.dist = row_displacement(self.w_tilde, self.w_anchor)
        self.value = None
        self.value_2d = None
        self.gamma = None

    def measures(self, source, anchor) -> bool:
        return self.source is source and self.anchor is anchor

    def projected(self, out: np.ndarray, gamma: float) -> np.ndarray:
        """Record ``out``, the projection at radius ``gamma``; return it in the source shape."""
        self.value_2d = out
        self.value = self.view.from_2d(out)
        self.gamma = gamma
        return self.value

    def rescaled_rows(self) -> np.ndarray:
        """Mask of the rows the recorded projection rescaled; the rest equal ``w_tilde``."""
        return _shrink_factors(self.dist, self.gamma) < 1.0
