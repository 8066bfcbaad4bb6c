"""Fast trainable projection: per-tensor constraint learning with reused gradients.

One optimizer step does four things for every projected tensor: (1) update the
constraint radius gamma using the current loss gradient chained through the
previous step's projection (no extra forward/backward pass), (2) anneal
positive constraint gradients by kappa, (3) apply one Adam step to gamma, and
(4) run the wrapped base optimizer and project the result onto the gamma
MARS ball around the frozen anchor weights. Tensors in the exclude set only
receive the base optimizer step, bit-identically to running it standalone.

The base stepping, the measurement of each update, the projection and the
constraint check live in :class:`ProjectedOptimizer`, which every projecting
method (and base-only fine-tuning) extends with its own choice of radii, and
the learned-rate SGD of :mod:`projtune.hyperlr` with its choice of rate. It
keeps the tensors in one block per row width, so each of these runs once per
block rather than once per tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError, DomainError, StateError
from .projection import (
    EPS_DIV,
    ProjectionView,
    canonicalize,
    project_rows,
    resolve_displacement,
    row_displacement,
)

__all__ = [
    "GAMMA_INIT",
    "FtpOptimizer",
    "GammaState",
    "ManagedParam",
    "ProjectedOptimizer",
    "STRIP_BYTES",
    "adam_update_gamma",
    "anneal_gradient",
    "hyper_gradient",
    "make_managed",
    "rebase_anchor",
    "state_tensors",
    "tensor_group",
]

# Constraints start effectively closed: the first step can barely leave the anchor.
GAMMA_INIT = 1e-8

# Bytes of one array's strip (:class:`_Block`): 64 rows of 512 float64. A few
# arrays' strips, stepped together, fit a 2 MB L2 cache.
STRIP_BYTES = 256 * 1024


@dataclass
class ManagedParam:
    """A trainable tensor with its frozen anchor and per-step caches.

    ``value`` is the live (projected) tensor, ``anchor`` the weights toward
    which projection pulls, ``prev_unconstrained`` the cached pre-projection
    update from the previous step (absent until a step has run), and ``grad``
    the loss gradient for the upcoming step.

    Once a :class:`ProjectedOptimizer` has stepped it, each field is a view
    into the optimizer's blocks, which a later step may overwrite: copy what
    must outlive the step. A projected tensor's ``value`` is overwritten in
    place by every step. Its ``prev_unconstrained``, like an unprojected
    tensor's ``value``, lives in one of two buffers that steps use in turn,
    so the array a param holds after step t is overwritten by step t+2. A
    field set to a new array is copied in at the next step.
    """

    name: str
    value: np.ndarray
    anchor: np.ndarray
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
) -> dict[str, ManagedParam]:
    """Wrap plain named tensors into managed params; anchors default to copies of the values."""
    if anchors is None:
        anchors = {name: np.array(v, copy=True) for name, v in values.items()}
    out = {}
    for name, v in values.items():
        if name not in anchors:
            raise DomainError(f"missing anchor for {name}")
        out[name] = ManagedParam(
            name=name,
            value=np.array(v, dtype=np.float64, copy=True),
            anchor=np.array(anchors[name], dtype=np.float64, copy=True),
        )
    return out


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
            raise ConfigError(f"annealing rate must lie in [0, 1], got {self.kappa}", "kappa")
        if self.gamma < 0:
            raise ConfigError(f"constraint radius must be nonnegative, got {self.gamma}", "gamma")

    def reset(self) -> None:
        self.gamma = GAMMA_INIT
        self.m = 0.0
        self.v = 0.0
        self.t = 0


def hyper_gradient(
    grad: np.ndarray,
    prev_unconstrained: Optional[np.ndarray],
    anchor: np.ndarray,
    gamma: float | np.ndarray,
    *,
    delta: Optional[np.ndarray] = None,
    dist: Optional[np.ndarray] = None,
    segments: Optional[list[slice]] = None,
    scratch: Optional[np.ndarray] = None,
) -> float | list[float]:
    """Derivative of the loss w.r.t. the constraint radius, reusing ``grad``.

    Sums, over rows whose cached displacement exceeds gamma (the rows the
    projection actually rescaled), the inner product of the loss gradient row
    with the displacement direction, divided by the row's L1 displacement.
    Clamped rows and rows with negligible displacement contribute zero.

    ``delta`` and ``dist`` are the cached :func:`~projtune.projection.row_displacement`
    of ``prev_unconstrained`` from ``anchor``; without them it is computed.

    With ``segments``, a list of row slices, the rows hold several tensors
    stacked: ``gamma`` may give one radius per row, and the result is a list
    with one derivative per segment, each summed over that segment's own
    rows (a masked or zero-padded sum would add in another order and give
    other bits). ``scratch``, as wide as ``grad`` and at most as tall,
    receives the products ``grad * delta`` as many rows at a time as it has,
    so a strip of rows is summed while it is in cache; it may be ``grad``
    itself. Row sums are per row, so every strip height gives the same bits.
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
    active = (dist > gamma) & (dist >= EPS_DIV)
    if scratch is None or len(scratch) == len(g):
        num = np.multiply(g, delta, out=scratch).sum(axis=1)
    else:
        num = np.empty(len(g))
        for start in range(0, len(g), len(scratch)):
            part = num[start:start + len(scratch)]
            rows = slice(start, start + len(part))
            np.multiply(g[rows], delta[rows], out=scratch[:len(part)]).sum(axis=1, out=part)
    ratio = np.divide(num, dist, out=num, where=active)
    sums = [float(ratio[rows][active[rows]].sum())
            for rows in ([slice(None)] if segments is None else segments)]
    return sums[0] if segments is None else sums


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


def rebase_anchor(params: dict[str, ManagedParam], gammas: dict[str, GammaState]) -> None:
    """Adopt the current weights as the new anchor and restart constraint learning.

    Used between sequential tasks: anchors become the current values, all
    gamma states reset to their initial closed radius, and cached
    unconstrained weights are dropped.
    """
    for p in params.values():
        p.anchor = np.array(p.value, copy=True)
        p.prev_unconstrained = None
    for gs in gammas.values():
        gs.reset()


class _Strip(NamedTuple):
    """One strip of a block: its rows, its base-optimizer key and its views of the arrays.

    ``key`` is the block's key in a one-strip block, else the block's key and
    the strip's first row, such as ``rows512:64``. The views are built once
    with the block; ``value`` and the fields after it exist in a projected
    block only.
    """

    key: str
    rows: slice
    grad: np.ndarray
    updates: tuple
    value: Optional[np.ndarray] = None
    anchor: Optional[np.ndarray] = None
    delta: Optional[np.ndarray] = None
    dist: Optional[np.ndarray] = None
    radius: Optional[np.ndarray] = None
    scratch: Optional[np.ndarray] = None

    def measure(self, w_tilde: np.ndarray, scratch: np.ndarray) -> None:
        """Put the displacement of the strip ``w_tilde`` in ``delta`` and ``dist``.

        ``|delta|`` goes into ``scratch``.
        """
        row_displacement(w_tilde, self.anchor, out=self.delta, scratch=scratch, dist=self.dist)


class _Block:
    """Tensors that step as one array, each a run of its rows.

    A projected block holds the canonical 2-D rows of every projected tensor
    of one row width; the unprojected block holds every other tensor as a
    column, one element per row. ``layout`` maps each member to its 2-D view
    and ``slices`` to its rows; ``views`` maps a field to each member's view
    of the block's array of that name.

    A step runs through the block in ``strips`` (:class:`_Strip`), runs of
    rows of about :data:`STRIP_BYTES` per array: the base step, the
    measurement and the projection of one strip all run before the next
    strip starts, so each strip is reused while it sits in cache. A block no
    larger than that is one strip. The base optimizer steps each strip under
    a key of its own, so its buffers are strips too. Every result is
    row-wise or summed per row, so the strips give the bits of whole-block
    passes.

    The base step writes each update into the other of the two ``updates``
    buffers, whose member views (``update_views``) are built once. The
    members hold the last update as ``prev_unconstrained`` in a projected
    block, which projects it into its own ``value``, and as ``value`` in the
    unprojected one. ``delta`` and ``dist`` cache the
    :func:`~projtune.projection.row_displacement` of the last update from
    ``anchor``: the base step measures each update it writes, and the
    optimizer measures the block again when it copies in an anchor or an
    update set from outside. ``scratch``, one strip tall, holds temporaries
    that never leave a strip, ``radius`` each row's projection radius and
    ``radii`` the radius each member's rows were last set to.
    """

    __slots__ = ("layout", "slices", "strips", "projected", "value", "grad", "anchor",
                 "updates", "update_views", "views", "delta", "dist", "scratch", "radius",
                 "radii")

    def __init__(self, key: str, layout: list[ProjectionView], projected: bool):
        self.layout = {view.name: view for view in layout}
        self.slices: dict[str, slice] = {}
        rows = 0
        for view in layout:
            self.slices[view.name] = slice(rows, rows + view.rows)
            rows += view.rows
        cols = layout[0].cols
        height = max(1, STRIP_BYTES // (8 * cols))
        bounds = [slice(start, min(start + height, rows)) for start in range(0, rows, height)]
        self.projected = projected
        shape = (rows, cols)
        self.grad = np.zeros(shape)
        self.updates = (np.zeros(shape), np.zeros(shape))
        self.update_views = tuple(self.views_of(u) for u in self.updates)
        self.views = {"grad": self.views_of(self.grad)}
        if projected:
            self.value = np.zeros(shape)
            self.anchor = np.zeros(shape)
            self.delta = np.empty(shape)
            self.dist = np.empty(rows)
            self.scratch = np.empty((min(height, rows), cols))
            self.radius = np.empty(rows)
            self.radii: list = [None] * len(layout)
            self.views.update(value=self.views_of(self.value), anchor=self.views_of(self.anchor))
        self.strips = []
        for span in bounds:
            views = [self.grad[span], tuple(u[span] for u in self.updates)]
            if projected:
                views += [arr[span] for arr in (self.value, self.anchor, self.delta, self.dist,
                                                self.radius)]
                views.append(self.scratch[:span.stop - span.start])
            self.strips.append(
                _Strip(key if len(bounds) == 1 else f"{key}:{span.start}", span, *views))

    def views_of(self, arr: np.ndarray) -> dict[str, np.ndarray]:
        """Each member's rows of the block-shaped ``arr``, in the member's shape."""
        return {name: arr[rows].reshape(self.layout[name].source_shape)
                for name, rows in self.slices.items()}

    def fill(self, out: np.ndarray, arrays: dict[str, np.ndarray]) -> np.ndarray:
        """Copy each member's array of ``arrays`` into its rows of ``out``; return ``out``."""
        for name, rows in self.slices.items():
            out[rows] = self.layout[name].to_2d(arrays[name])
        return out

    def entries(self, params: dict[str, ManagedParam], field: str, arr: np.ndarray,
                views: dict[str, np.ndarray]) -> list[tuple]:
        """``(param, field, view, rows, layout, block)`` for each member's ``field`` in ``arr``.

        ``block`` is the block to measure again when a new array in ``field``
        is copied in, or None.
        """
        stale = self if field in ("anchor", "prev_unconstrained") else None
        return [(params[name], field, views[name], arr[rows], self.layout[name], stale)
                for name, rows in self.slices.items()]

    def measure(self, turn: int) -> None:
        """Measure the update in ``updates[turn]``, strip by strip, into ``delta`` and ``dist``."""
        for strip in self.strips:
            strip.measure(strip.updates[turn], strip.scratch)


class ProjectedOptimizer:
    """A base optimizer whose updates are projected onto per-tensor MARS balls.

    ``base`` is any object with ``step(key, value, grad, out=)``, which
    writes the stepped ``value`` into ``out`` and keeps its buffers per key,
    and a ``get_state``/``set_state`` pair (e.g. :class:`projtune.baselines.Sgd`),
    whose state is this optimizer's state. Every tensor not in
    ``exclude_set`` is projected around its anchor; the rest receive only
    the base step, bit-identically to running it standalone.

    The tensors live in blocks (:class:`_Block`): one per row width of the
    projected tensors, and one column for all the rest. The base step, the
    measurement of each update, the hyper-gradient, the projection and the
    constraint check run once per block, in strips of rows: once the radii
    are set, each strip is base-stepped, measured and projected before the
    next one, and the hyper-gradient and the check sum their rows a strip at
    a time. Every row-wise result is the same bits as per tensor, and each
    tensor's scalar sums run over its own rows. The base optimizer sees one
    key per strip; :meth:`get_state` and :meth:`set_state` speak per tensor.

    Subclasses differ only in how they choose each tensor's radius, or, in
    :class:`projtune.hyperlr.HyperSgd`, the base optimizer's rate. Their
    ``step`` checks the gradients and adopts the params' arrays
    (:meth:`_gather`), sets the radii (learned ones live in ``gammas``;
    :meth:`radius` reads them), base-steps and projects every block
    (:meth:`_base_step`) and puts the updates in place (:meth:`_commit`).
    Adopting an anchor or a last update set from outside measures its block
    again, so between steps each block's ``delta`` and ``dist`` describe the
    update its members hold. Learned radii move by one rule,
    :meth:`_move_radii`, and a block is projected into another array by
    :meth:`_project`.
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
            if name not in exclude
        }
        self.gammas: dict[str, GammaState] = {}
        groups: dict[str, list[ProjectionView]] = {}
        for name, p in params.items():
            view = self.views.get(name)
            groups.setdefault("flat" if view is None else f"rows{view.cols}", []).append(
                view or ProjectionView(name, p.value.shape, p.value.size, 1))
        self._blocks = [_Block(key, layout, projected=key != "flat")
                        for key, layout in groups.items()]
        self._projected = [b for b in self._blocks if b.projected]
        # backward(out=) writes the gradients straight into the blocks
        self.grad_views = {name: view for b in self._blocks
                           for name, view in b.views["grad"].items()}
        # which of each block's two update buffers holds the last update
        self._turn = 0
        # per turn: the arrays the params hold, and what a step that ends in it binds
        self._state_entries = tuple(self._entries(turn) for turn in (0, 1))
        self._bound = tuple(
            [(params[name], "prev_unconstrained" if b.projected else "value", view)
             for b in self._blocks for name, view in b.update_views[turn].items()]
            + [(p, "grad", None) for p in params.values()]
            for turn in (0, 1))

    def _entries(self, turn: int) -> list[tuple]:
        """The adoption entries (:meth:`_Block.entries`) of every field at ``turn``."""
        entries = []
        for b in self._blocks:
            last = b.updates[turn], b.update_views[turn]
            entries += b.entries(self.params, "grad", b.grad, b.views["grad"])
            if b.projected:
                entries += b.entries(self.params, "value", b.value, b.views["value"])
                entries += b.entries(self.params, "anchor", b.anchor, b.views["anchor"])
                entries += b.entries(self.params, "prev_unconstrained", *last)
            else:
                entries += b.entries(self.params, "value", *last)
        return entries

    def radius(self, name: str) -> float:
        return self.gammas[name].gamma

    def gamma_values(self) -> dict[str, float]:
        return {name: self.radius(name) for name in self.views}

    def get_state(self) -> dict:
        """The base optimizer's state, one entry per tensor, as stepping each alone leaves it.

        A block's strip buffers are joined in strip order and cut per tensor;
        a per-key count, such as AdamW's step counts, is the first strip's.
        """
        state = {}
        for entry, value in self.base.get_state().items():
            if entry == "tensors":
                tensors = {}
                for prefix in dict.fromkeys(key.partition("/")[0] for key in value):
                    for b in self._blocks:
                        parts = [value.get(f"{prefix}/{strip.key}") for strip in b.strips]
                        if parts[0] is not None:
                            tensors.update((f"{prefix}/{name}", view) for name, view
                                           in b.views_of(np.concatenate(parts)).items())
                value = tensors
            elif isinstance(value, dict):  # a per-key count, such as AdamW's step counts
                value = {name: value[b.strips[0].key] for b in self._blocks
                         if b.strips[0].key in value for name in b.slices}
            state[entry] = value
        return state

    def set_state(self, state: dict) -> None:
        """Load a per-tensor state (:meth:`get_state`'s form) into the base optimizer.

        Within a block, every tensor or none has an entry, and per-tensor
        counts agree; anything else raises StateError.
        """
        blocked = {}
        for entry, value in state.items():
            if entry == "tensors":
                groups: dict[str, dict] = {}
                for key, arr in value.items():
                    prefix, _, name = key.partition("/")
                    groups.setdefault(prefix, {})[name] = arr
                value = {}
                for prefix, arrays in groups.items():
                    for b in self._covered(arrays, prefix):
                        joined = b.fill(np.empty_like(b.grad), arrays)
                        value.update((f"{prefix}/{strip.key}", joined[strip.rows])
                                     for strip in b.strips)
            elif isinstance(value, dict):
                counts = {b: {value[name] for name in b.slices}
                          for b in self._covered(value, entry)}
                if any(len(c) > 1 for c in counts.values()):
                    raise StateError(f"{entry} differ between tensors that step together")
                value = {strip.key: n for b, (n,) in counts.items() for strip in b.strips}
            blocked[entry] = value
        self.base.set_state(blocked)

    def _covered(self, entries: dict, what: str) -> list[_Block]:
        """The blocks whose tensors have entries in ``entries``, keyed by tensor name.

        StateError for a name that is no tensor, or a block with entries for
        some of its tensors only.
        """
        unknown = set(entries) - set(self.params)
        if unknown:
            raise StateError(f"optimizer state {what} names unknown tensors {sorted(unknown)}")
        covered = []
        for b in self._blocks:
            have = [name for name in b.slices if name in entries]
            if have and len(have) < len(b.slices):
                raise StateError(f"optimizer state {what} covers {have} "
                                 f"but not all of {list(b.slices)}")
            if have:
                covered.append(b)
        return covered

    def rebase_anchor(self) -> None:
        rebase_anchor(self.params, self.gammas)

    def constraint_excess(self) -> Optional[float]:
        """Worst row distance from the anchor minus the row's radius; None if nothing projects.

        It is measured from the stored weights, so it also covers state set
        from outside. Over one tensor, ``max(d - gamma)`` is ``max(d) - gamma``
        exactly, because rounding is monotone.
        """
        if not self._projected:
            return None
        self._adopt(self._state_entries[self._turn])
        worst = -math.inf
        for b in self._projected:
            self._set_radii(b)
            # last strip first: a step ends there, so it may still be in cache
            for strip in reversed(b.strips):
                _, dist = row_displacement(strip.value, strip.anchor, out=strip.scratch,
                                           scratch=strip.scratch)
                dist -= strip.radius
                worst = max(worst, float(dist.max()))
        return worst

    def _adopt(self, entries: list[tuple]) -> None:
        """Copy in each entry's array that a param holds in place of its block view.

        Then measure each block whose anchor or last update was copied in.
        """
        stale = {}
        for p, field, view, rows, layout, block in entries:
            arr = getattr(p, field)
            if arr is view or arr is None:
                continue
            rows[...] = layout.to_2d(arr)
            setattr(p, field, view)
            if block is not None:
                stale[block] = None
        for b in stale:
            b.measure(self._turn)

    def _gather(self) -> None:
        """Check that every gradient is there, then adopt every array set from outside."""
        missing = [name for name, p in self.params.items() if p.grad is None]
        if missing:
            raise StateError(f"gradients missing for: {missing}")
        self._adopt(self._state_entries[self._turn])

    def _hyper_gradients(self, b: _Block, grad: np.ndarray, w_tilde: np.ndarray,
                         names) -> dict[str, float]:
        """:func:`hyper_gradient` of each of ``names`` for ``grad``, the gradient rows of ``b``.

        ``b`` must be measured at ``w_tilde``; the work is done once for the whole block.
        """
        self._set_radii(b)
        return dict(zip(names, hyper_gradient(
            grad, w_tilde, b.anchor, b.radius, delta=b.delta, dist=b.dist,
            segments=[b.slices[name] for name in names], scratch=b.scratch)))

    def _base_step(self, project: bool = True) -> None:
        """Base-step every gathered block into its spare buffer, strip by strip.

        Each strip of a projected block is measured right after its base
        step and, with ``project``, projected into ``value`` at the current
        radii.
        """
        turn, spare = self._turn, 1 - self._turn
        for b in self._blocks:
            if b.projected:
                self._set_radii(b)
            for strip in b.strips:
                value = strip.value if b.projected else strip.updates[turn]
                self.base.step(strip.key, value, strip.grad, out=strip.updates[spare])
                if not b.projected:
                    continue
                # before a projection, |delta| is summed in the strip's value, in rows
                # already in cache: the base step has read it and the projection overwrites it
                strip.measure(strip.updates[spare], strip.value if project else strip.scratch)
                if project:
                    project_rows(strip.updates[spare], strip.anchor, strip.radius,
                                 delta=strip.delta, dist=strip.dist, out=strip.value)

    def _set_radii(self, b: _Block) -> None:
        """Fill the rows of each member of ``b`` whose radius is not the one they hold."""
        for i, (name, rows) in enumerate(b.slices.items()):
            r = self.radius(name)
            if r is not b.radii[i]:  # an unchanged radius is the same float object
                b.radius[rows] = r
                b.radii[i] = r

    def _project(self, b: _Block, turn: int, out: np.ndarray) -> None:
        """Project the measured update in ``b.updates[turn]`` at the current radii into ``out``.

        ``out`` is block-shaped; each strip is projected into its own rows of it.
        """
        self._set_radii(b)
        for strip in b.strips:
            project_rows(strip.updates[turn], strip.anchor, strip.radius, delta=strip.delta,
                         dist=strip.dist, out=out[strip.rows])

    def _move_radii(self, raw: dict[str, float]) -> None:
        """One Adam step on each radius named in ``raw``, by its gradient annealed by its kappa.

        Every gradient is checked before any radius moves.
        """
        grads = {name: anneal_gradient(g, self.gammas[name].kappa) for name, g in raw.items()}
        bad = [name for name, g in grads.items() if not math.isfinite(g)]
        if bad:
            raise DomainError(f"non-finite constraint gradient for {bad}")
        for name, g in grads.items():
            adam_update_gamma(self.gammas[name], g)

    def _commit(self) -> None:
        """Make the updates of :meth:`_base_step` the params' arrays and consume the gradients."""
        self._turn = 1 - self._turn
        for p, field, view in self._bound[self._turn]:
            setattr(p, field, view)


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
    ):
        super().__init__(params, base, exclude_set)
        self.gammas = {name: GammaState(kappa=k) for name in self.views}

    def step(self) -> None:
        """One optimization step; consumes the gradients stored on the params.

        Exactly one loss/gradient evaluation feeds both the model update and
        the constraint update. Every radius gradient is taken, and checked,
        before any radius or tensor moves, so a failed step leaves no trace.
        """
        self._gather()
        raw = {}
        for b in self._projected:
            live = [name for name in b.slices if self.params[name].prev_unconstrained is not None]
            if live:
                raw.update(self._hyper_gradients(b, b.grad, b.updates[self._turn], live))
        self._move_radii(raw)
        self._base_step()
        self._commit()
