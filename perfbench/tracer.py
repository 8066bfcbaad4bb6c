"""In-memory span tracer that wraps projtune's public functions from outside.

A traced run replaces each public function by name in the module that calls
it (or a method on its class), records one span per call -- name, start,
end, parent span and run id -- and puts every replaced attribute back
afterwards. Spans live in flat arrays until the run ends. A span's self time
is its duration minus the time its child spans cover; a layer's self time is
the sum over the spans whose name starts with the layer.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("numerics", "model", "projection", "ftp", "baselines", "hyperlr", "audit", "bench")

# Work done after a span closes (counting rows, sizing files) is recorded as a
# child span of this name, so it is charged to neither the callee nor the caller.
HOOK_SPAN = "trace.hook"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.run_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def wrap(self, fn, name: str, hook=None):
        """``fn`` recording one span per call; ``hook(counters, args, kwargs, out)`` runs after."""
        nid = self._intern(name)
        hook_id = self._intern(HOOK_SPAN)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                hidx = self._open(hook_id)
                h0 = clock()
                try:
                    hook(self.counters, args, kwargs, out)
                finally:
                    h1 = clock()
                    self._stack.pop()
                    self.start[hidx] = h0
                    self.end[hidx] = h1
            return out

        return traced

    @contextmanager
    def installed(self, targets):
        """Replace each ``(owner, attr, span_name, hook)`` target for the duration."""
        try:
            for owner, attr, name, hook in targets:
                original = owner.__dict__[attr]
                setattr(owner, attr, self.wrap(original, name, hook))
                self._patched.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(self._patched):
                setattr(owner, attr, original)
            self._patched.clear()

    @staticmethod
    def unrestored(targets, originals) -> list[str]:
        """Targets whose attribute is not the object recorded in ``originals``."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for (owner, attr, _, _), original in zip(targets, originals)
            if owner.__dict__.get(attr) is not original
        ]

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        run = np.frombuffer(self.run, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return name_id, run, dur, dur - covered

    def aggregate(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, total seconds, self seconds)."""
        name_id, _, dur, self_time = self.arrays()
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        own = np.bincount(name_id, weights=self_time, minlength=k)
        return {n: (int(calls[i]), float(total[i]), float(own[i])) for i, n in enumerate(self.names)}

    def durations(self, name: str) -> np.ndarray:
        name_id, _, dur, _ = self.arrays()
        return dur[name_id == self._ids.get(name, -1)]

    def calls_in_runs(self, name: str, run_ids) -> int:
        name_id, run, _, _ = self.arrays()
        mask = (name_id == self._ids.get(name, -1)) & np.isin(run, list(run_ids))
        return int(mask.sum())

    def write(self, path) -> None:
        name_id, run, dur, _ = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=name_id,
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=run,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


# ---------------------------------------------------------------------------
# what a projtune run is traced at


def _backward_flops(counters, args, kwargs, out):
    spec, batch = args[0], args[2]
    n = batch.inputs.shape[0]
    w = spec.widths
    # forward and weight gradient per layer, plus the input gradient below the top
    counters["model.backward.flops"] += sum(
        2 * n * w[i] * w[i + 1] * (3 if i > 0 else 2) for i in range(len(w) - 1)
    )


def _forward_rows(counters, args, kwargs, out):
    counters["model.forward.rows"] += args[2].shape[0]


def _projected(counters, args, kwargs, out):
    wt = np.asarray(args[0])
    counters["projection.rows"] += wt.shape[0]
    counters["projection.rows_clamped"] += int(np.count_nonzero((out != wt).any(axis=1)))
    # read the update and the anchor, write the result
    counters["projection.bytes"] += 3 * wt.nbytes


def _audited(counters, args, kwargs, out):
    counters["audit.pairs"] += out[1].n_pairs


def _saved(counters, args, kwargs, out):
    counters["bench.checkpoint.save.bytes"] += os.path.getsize(args[1])


def _loaded(counters, args, kwargs, out):
    counters["bench.checkpoint.load.bytes"] += os.path.getsize(args[0])


# (projtune module, attribute or Class.method, span name, hook) for every traced call site
SITES = [
    ("numerics", "SeededRng.derive", "numerics.rng_derive", None),
    ("bench.run", "mars_norm", "numerics.mars_norm", None),
    ("audit", "mars_norm", "numerics.mars_norm", None),
    ("bench.run", "backward", "model.backward", _backward_flops),
    ("bench.run", "forward", "model.forward", _forward_rows),
    ("audit", "forward", "model.forward", _forward_rows),
    ("bench.run", "init_params", "model.init_params", None),
    ("ftp", "project_rows", "projection.project_rows", _projected),
    ("baselines", "project_rows", "projection.project_rows", _projected),
    ("projection", "ProjectionView.to_2d", "projection.to_2d", None),
    ("ftp", "FtpOptimizer.step", "ftp.step", None),
    ("ftp", "hyper_gradient", "ftp.hyper_gradient", None),
    ("baselines", "hyper_gradient", "ftp.hyper_gradient", None),
    ("ftp", "adam_update_gamma", "ftp.adam_update_gamma", None),
    ("baselines", "adam_update_gamma", "ftp.adam_update_gamma", None),
    ("baselines", "Sgd.step", "baselines.sgd_step", None),
    ("baselines", "AdamW.step", "baselines.adamw_step", None),
    ("baselines", "BaseOnlyOptimizer.step", "baselines.base_only_step", None),
    ("baselines", "MarsSpOptimizer.step", "baselines.marssp_step", None),
    ("baselines", "TpgmOptimizer.step", "baselines.tpgm_step", None),
    ("bench.run", "l2_sp_grad", "baselines.l2_sp_grad", None),
    ("bench.run", "freeze_mask", "baselines.freeze_mask", None),
    ("hyperlr", "HyperSgd.step", "hyperlr.step", None),
    ("bench.cli", "verify_lemma1_bound", "audit.verify", _audited),
    ("bench.run", "generate_shift_dataset", "bench.data.generate", None),
    ("bench.cli", "generate_shift_dataset", "bench.data.generate", None),
    ("bench.run", "finetune_subsample", "bench.data.subsample", None),
    ("bench.config", "load_config", "bench.config.load", None),
    ("bench.cli", "load_config", "bench.config.load", None),
    ("bench.run", "draw_batch", "bench.run.draw_batch", None),
    ("bench.run", "pretrain", "bench.run.pretrain", None),
    ("bench.run", "run_experiment", "bench.run.run_experiment", None),
    ("bench.run", "evaluate", "bench.run.evaluate", None),
    ("bench.cli", "evaluate", "bench.run.evaluate", None),
    ("bench.record", "RunRecord.add_row", "bench.record.add_row", None),
    ("bench.run", "emit_metrics", "bench.record.emit", None),
    ("bench.run", "write_summary", "bench.record.summary", None),
    ("bench.run", "save_checkpoint", "bench.checkpoint.save", _saved),
    ("bench.checkpoint", "save_checkpoint", "bench.checkpoint.save", _saved),
    ("bench.run", "load_checkpoint", "bench.checkpoint.load", _loaded),
    ("bench.cli", "load_checkpoint", "bench.checkpoint.load", _loaded),
    ("bench.checkpoint", "load_checkpoint", "bench.checkpoint.load", _loaded),
    ("bench.cli", "main", "bench.cli.main", None),
]


def projtune_targets():
    """``(owner, attribute, span name, hook)`` for every site in ``SITES``.

    A site projtune no longer has raises: a refactor that moves a call site
    updates ``SITES``, rather than leaving its metric silently at 0.
    """
    targets = []
    for module, dotted, name, hook in SITES:
        *path, attr = dotted.split(".")
        owner = importlib.import_module(f"projtune.{module}")
        for part in path:
            owner = getattr(owner, part)
        if attr not in vars(owner):
            raise LookupError(f"projtune.{module} has no {dotted} to trace as {name}")
        targets.append((owner, attr, name, hook))
    return targets
