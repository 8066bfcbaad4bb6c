"""Row-wise projection onto a MARS-norm ball around anchor weights.

The projection shrinks each row of a weight update back toward its anchor row
so that the L1 displacement of every row stays within the constraint radius.
Because the MARS matrix norm is the maximum absolute row sum, bounding each
row independently bounds the whole matrix. Rows already inside the ball are
returned bit-identically unchanged (the shrink factor is clamped at 1).

``canonicalize`` decides what counts as "a row" for tensors that are not
plain weight matrices: vectors (biases) become a single row, 4-axis
convolution kernels flatten to (out_channels, rest).

An optimizer measures each update once with :func:`row_displacement`: the
projection and the next step's hyper-gradient both read its ``delta`` and
``dist`` instead of recomputing them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedShapeError

__all__ = [
    "EPS_DIV",
    "ProjectionView",
    "canonicalize",
    "project_rows",
    "resolve_displacement",
    "row_displacement",
]

# Floor on row L1 displacement to avoid 0/0 when weights sit exactly on the
# anchor (the constraint starts at 1e-8 with identical weights).
EPS_DIV = 1e-12

# Elements from which project_rows indexes rows instead of masking every row:
# a masked copy took 1.5 us on 352 elements and 18.5 us on 32768, indexing
# 4-5 us on either (float64, one core of a two-core KVM guest).
INDEXED_ROWS_MIN_SIZE = 4096


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




def row_displacement(
    w_tilde: np.ndarray, w_anchor: np.ndarray, *, out=None, scratch=None, dist=None
) -> tuple[np.ndarray, np.ndarray]:
    """``(delta, dist)`` of a canonical 2-D update: ``w_tilde - w_anchor`` and its row L1 norms.

    ``delta`` is written into ``out``, ``|delta|`` into ``scratch`` and the
    norms into ``dist`` when they are given; ``scratch`` may be ``out``
    itself, which then holds ``|delta|``. Every consumer of the displacement
    computes it here, so cached and recomputed values are the same bits.
    """
    delta = np.subtract(w_tilde, w_anchor, out=out)
    return delta, np.abs(delta, out=scratch).sum(axis=1, out=dist)


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


def project_rows(w_tilde, w_anchor, gamma, *, delta=None, dist=None, out=None) -> np.ndarray:
    """Project each row of ``w_tilde`` into the gamma L1-ball around the anchor row.

    Returns a matrix whose rows satisfy ``|row - anchor_row|_1 <= gamma``
    (up to float rounding). ``gamma`` is one radius for every row or a
    vector of one radius per row. Rows whose displacement is already within
    their radius are copied through untouched, so projecting twice is a
    no-op and an infinite radius reproduces ``w_tilde`` exactly.

    ``delta`` and ``dist`` are the :func:`row_displacement` of the two
    matrices when the caller already holds it; without them it is computed.
    The result is written into ``out`` when it is given, else into a new
    matrix.
    """
    wt = np.asarray(w_tilde, dtype=np.float64)
    w0 = np.asarray(w_anchor, dtype=np.float64)
    if wt.shape != w0.shape:
        raise DomainError(f"shape mismatch: {wt.shape} vs {w0.shape}")
    if wt.ndim != 2:
        raise DomainError(f"project_rows expects canonical 2-D input, got rank {wt.ndim}")
    radius = np.asarray(gamma, dtype=np.float64)
    if radius.ndim and radius.shape != wt.shape[:1]:
        raise DomainError(f"{radius.shape[0]} radii for {wt.shape[0]} rows")
    if not radius.min() >= 0:
        raise DomainError(f"projection radius must be nonnegative, got {gamma}")
    delta, dist = resolve_displacement(wt, w0, delta, dist)

    factor = radius / np.maximum(dist, EPS_DIV)
    shrink = factor < 1.0
    shrunk = np.count_nonzero(shrink)
    if not shrunk:
        if out is None:
            return wt.copy()
        np.copyto(out, wt)
        return out
    if shrunk == len(shrink):
        return np.add(np.multiply(factor[:, None], delta, out=out), w0, out=out)
    # Each row is computed with the same operations whichever rows are taken
    # apart, so the choice changes no bits. In a large array, indexing rows
    # costs less than a pass over every row: the rarer kind of row is handled
    # apart. In a small one, a masked pass costs less than indexing.
    indexed = wt.size >= INDEXED_ROWS_MIN_SIZE
    if indexed and 2 * shrunk < len(shrink):
        # every row copied, the shrunk ones rescaled and put over theirs
        rows = np.flatnonzero(shrink)
        scaled = np.multiply(factor[rows, None], delta[rows])
        scaled += w0[rows]
        if out is None:
            out = wt.copy()
        else:
            np.copyto(out, wt)
        out[rows] = scaled
        return out
    # every row rescaled in place, the kept ones copied back over theirs
    out = np.multiply(np.minimum(factor, 1.0)[:, None], delta, out=out)
    out += w0
    if indexed:
        kept = np.flatnonzero(~shrink)
        out[kept] = wt[kept]
    else:
        np.copyto(out, wt, where=~shrink[:, None])
    return out
