"""End-to-end experiment orchestration: pretrain, fine-tune, evaluate.

The protocol: pretrain the model on the full clean training distribution
(plain SGD) and freeze that snapshot as the anchor; fine-tune on a small,
label-skewed subsample of the same clean data so that unconstrained methods
have room to drift; evaluate top-1 accuracy on the clean test split (ID) and
on every (shift kind, severity) corruption split (OOD). Every batch is drawn
from a counter-based stream keyed by (seed, iteration), so a resumed run and
a reproduction are bit-identical to the original.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from ..baselines import (
    BaseOnlyOptimizer,
    MarsSpOptimizer,
    TpgmOptimizer,
    freeze_mask,
    l2_sp_grad,
    make_base_optimizer,
    wise_interpolate_params,
)
from ..errors import DomainError, RunError, StateError
from ..ftp import FtpOptimizer, GammaState, make_managed
from ..hyperlr import HyperSgd
from ..model import Batch, MlpSpec, backward, forward, init_params
from ..numerics import SeededRng

# The constraint check runs in the optimizer; this name is kept so that
# tracing tools which wrap it here still find it.
from ..numerics import mars_norm  # noqa: F401
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint, spec_hash
from .config import ExperimentConfig
from .data import (
    N_SEVERITIES,
    SHIFT_KINDS,
    ShiftDataset,
    Split,
    finetune_subsample,
    generate_shift_dataset,
)
from .record import RunRecord, emit_metrics, write_summary

__all__ = [
    "CountingModel",
    "accuracy",
    "evaluate",
    "model_spec_from_config",
    "pretrain",
    "run_experiment",
]

# Stream tags: one namespace per random purpose, never shared.
_TAG_MODEL_INIT = 100
_TAG_BATCH = 101
_TAG_VAL = 102
_TAG_PRETRAIN_BATCH = 103

# TPGM holds out this fraction of the fine-tuning subsample as validation data.
TPGM_VAL_FRACTION = 0.25


def model_spec_from_config(config: ExperimentConfig) -> MlpSpec:
    return config.model_spec()


class CountingModel:
    """Loss/gradient evaluator that counts forward and backward passes."""

    def __init__(self, spec: MlpSpec):
        self.spec = spec
        self.fwd_count = 0
        self.bwd_count = 0

    def loss_and_grads(self, values: dict[str, np.ndarray], batch: Batch, out=None):
        self.fwd_count += 1
        self.bwd_count += 1
        return backward(self.spec, values, batch, out=out)


def draw_batch(rng: SeededRng, split: Split, batch_size: int) -> Batch:
    n = len(split)
    take = min(batch_size, n)
    idx = rng.choice(n, take, replace=False)
    return Batch(split.inputs[idx], split.labels[idx])


def accuracy(
    spec: MlpSpec, params: dict[str, np.ndarray], split: Split, *, work: dict | None = None
) -> float:
    """Top-1 accuracy on ``split``; ``work`` is passed to ``forward``."""
    logits = forward(spec, params, split.inputs, work=work)
    return float((logits.argmax(axis=1) == split.labels).mean())


def evaluate(spec: MlpSpec, params: dict[str, np.ndarray], dataset: ShiftDataset) -> dict:
    """Top-1 accuracy on the clean split and every corruption split.

    ``ood_average`` is the mean over shift kinds of the per-kind mean over
    severities.
    """
    if spec.widths[-1] != dataset.spec.n_classes:
        raise DomainError(
            f"model output width {spec.widths[-1]} != class count {dataset.spec.n_classes}"
        )
    work: dict = {}  # one set of activation buffers for every split
    table = {"id": accuracy(spec, params, dataset.test, work=work)}
    kind_means = []
    for kind in SHIFT_KINDS:
        accs = []
        for severity in range(1, N_SEVERITIES + 1):
            acc = accuracy(spec, params, dataset.ood_split(kind, severity), work=work)
            table[f"ood.{kind}.{severity}"] = acc
            accs.append(acc)
        kind_means.append(sum(accs) / len(accs))
    table["ood_average"] = sum(kind_means) / len(kind_means)
    return table


# ---------------------------------------------------------------------------
# pretraining


def pretrain(
    config: ExperimentConfig,
    dataset: Optional[ShiftDataset] = None,
    path: Optional[Path] = None,
) -> Checkpoint:
    """Train on the full clean distribution with plain SGD; snapshot as anchor."""
    if dataset is None:
        dataset = generate_shift_dataset(config.dataset_spec(), config.seed)
    spec = config.model_spec()
    root = SeededRng(config.seed)
    values = init_params(spec, root.derive(_TAG_MODEL_INIT))
    opt = make_base_optimizer("sgd", config.pretrain_lr)
    iters = config.pretrain_epochs * config.iters_per_epoch(len(dataset.train))
    for t, rng in enumerate(root.streams(_TAG_PRETRAIN_BATCH, range(1, iters + 1)), start=1):
        batch = draw_batch(rng, dataset.train, config.batch_size)
        loss, grads = backward(spec, values, batch)
        if not math.isfinite(loss):
            raise RunError(f"pretraining diverged at iteration {t}")
        for name in values:
            values[name] = opt.step(name, values[name], grads[name])
    ckpt = Checkpoint(
        model_spec=spec,
        iteration=0,
        values=values,
        anchors={name: v.copy() for name, v in values.items()},
        rng={"seed": config.seed},
        extra={"phase": "pretrain", "pretrain_iters": iters},
    )
    if path is not None:
        save_checkpoint(ckpt, path)
    return ckpt


# ---------------------------------------------------------------------------
# fine-tuning


class _Method(NamedTuple):
    """What the run does differently for one method."""

    # (config, params, base=, exclude=, grad_fn=, val_batches=) -> optimizer
    build: Callable
    # share of the fine-tuning subsample held out as validation data
    val_fraction: float = 0.0
    # share of the iterations that train only the head
    probe_share: float = 0.0
    # whether the gradients take L2-SP's pull toward the anchor
    l2_sp: bool = False
    # the finished optimizer -> its entries of summary.json
    extras: Callable = lambda optimizer: {}


def _base_only(config, params, base, **_):
    return BaseOnlyOptimizer(params, base)


# The only place the run names a method.
_METHODS = {
    "ft": _Method(_base_only),
    "linear-probe": _Method(_base_only, probe_share=1.0),
    "lp-ft": _Method(_base_only, probe_share=0.5),
    "l2-sp": _Method(_base_only, l2_sp=True),
    "mars-sp": _Method(lambda config, params, base, exclude, **_: MarsSpOptimizer(
        params, base, config.mars_sp_gamma, exclude_set=exclude)),
    "tpgm": _Method(lambda config, params, base, exclude, grad_fn, val_batches: TpgmOptimizer(
        params, base, grad_fn, val_batches, inner_iters=config.tpgm_inner_iters,
        exclude_set=exclude), val_fraction=TPGM_VAL_FRACTION),
    "ftp": _Method(lambda config, params, base, exclude, **_: FtpOptimizer(
        params, base, k=config.k, exclude_set=exclude)),
    "hyper-sgd": _Method(lambda config, params, **_: HyperSgd(
        params, alpha0=config.hyper_alpha0, kappa=config.hyper_kappa),
        extras=lambda optimizer: {"final_alpha": optimizer.alpha}),
}


def _val_batches(root: SeededRng, iterations: range, split: Optional[Split],
                 config: ExperimentConfig):
    """Per iteration, ``tpgm.inner_iters`` batches of ``split``, each list drawn when read."""
    for rngs in root.streams(_TAG_VAL, iterations, width=config.tpgm_inner_iters):
        yield [draw_batch(rng, split, config.batch_size) for rng in rngs]


def _run_checkpoint(
    config: ExperimentConfig, spec: MlpSpec, params, optimizer, iteration: int,
    counting: CountingModel,
) -> Checkpoint:
    """The run's state at ``iteration``; it holds the live tensors, so save it at once."""
    return Checkpoint(
        model_spec=spec,
        iteration=iteration,
        values={name: p.value for name, p in params.items()},
        anchors={name: p.anchor for name, p in params.items()},
        prev_unconstrained={
            name: p.prev_unconstrained
            for name, p in params.items()
            if p.prev_unconstrained is not None
        },
        gammas={name: asdict(gs) for name, gs in optimizer.gammas.items()},
        optimizer=optimizer.get_state(),
        rng={"seed": config.seed},
        extra={
            "phase": "finetune",
            "method": config.method,
            "fwd_count": counting.fwd_count,
            "bwd_count": counting.bwd_count,
        },
    )


def _load_resume(path, config: ExperimentConfig, spec: MlpSpec, total_iters: int) -> Checkpoint:
    """The checkpoint at ``path``, checked to be a mid-run state of this very run.

    A checkpoint of another model, method or seed, or one at or past the
    run's last iteration, raises RunError.
    """
    if not Path(path).exists():
        raise RunError(f"resume checkpoint {path} not found")
    ckpt = load_checkpoint(path)
    for what, stored, wanted in (("model", ckpt.spec_hash, spec_hash(spec)),
                                 ("method", ckpt.extra.get("method"), config.method),
                                 ("seed", ckpt.rng.get("seed"), config.seed)):
        if stored != wanted:
            raise RunError(f"resume checkpoint was written with {what} {stored!r}, "
                           f"this run has {what} {wanted!r}")
    if not ckpt.iteration < total_iters:
        raise RunError(f"resume checkpoint {path} is at iteration {ckpt.iteration}, "
                       f"this run ends at iteration {total_iters}")
    return ckpt


def _restore_from_checkpoint(ckpt: Checkpoint, params, optimizer, counting: CountingModel):
    """Load a checkpoint from :func:`_load_resume` into the live state.

    A checkpoint with another set of learned radii (an exclude set) or of
    another optimizer kind raises RunError before anything is restored.
    """
    if sorted(ckpt.gammas) != sorted(optimizer.gammas):
        raise RunError(f"resume checkpoint was written with learned radii "
                       f"{sorted(ckpt.gammas)!r}, this run has learned radii "
                       f"{sorted(optimizer.gammas)!r}")
    try:
        optimizer.set_state(ckpt.optimizer)
    except StateError as exc:
        raise RunError(f"resume checkpoint does not fit this run: {exc}") from None
    for name, p in params.items():
        p.value = ckpt.values[name].copy()
        p.anchor = ckpt.anchors[name].copy()
        prev = ckpt.prev_unconstrained.get(name)
        p.prev_unconstrained = None if prev is None else prev.copy()
        p.grad = None
    optimizer.gammas.update((name, GammaState(**state)) for name, state in ckpt.gammas.items())
    counting.fwd_count = int(ckpt.extra.get("fwd_count", 0))
    counting.bwd_count = int(ckpt.extra.get("bwd_count", 0))


def run_experiment(config: ExperimentConfig, resume: Optional[Path] = None) -> RunRecord:
    """Pretrain if needed, fine-tune with the configured method, evaluate, persist.

    Writes ``metrics.csv``, ``metrics.json``, ``summary.json`` and
    ``state.ckpt`` into the output directory and returns the run record.
    """
    method = _METHODS[config.method]
    dataset = generate_shift_dataset(config.dataset_spec(), config.seed)
    spec = config.model_spec()
    ft_train = finetune_subsample(dataset, config.finetune_n, config.finetune_skew)
    ft_val = None
    if method.val_fraction:
        n_val = max(1, int(len(ft_train) * method.val_fraction))
        ft_val = Split(ft_train.inputs[-n_val:], ft_train.labels[-n_val:])
        ft_train = Split(ft_train.inputs[:-n_val], ft_train.labels[:-n_val])
    total_iters = config.total_iters(len(ft_train))
    ckpt = None if resume is None else _load_resume(resume, config, spec, total_iters)

    outdir = Path(config.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    pre_path = config.anchor_path()
    if not pre_path.exists():
        pretrain(config, dataset=dataset, path=pre_path)
    pre = load_checkpoint(pre_path)
    if pre.spec_hash != spec_hash(spec):
        raise RunError(f"pretrained checkpoint at {pre_path} was built for a different model")

    counting = CountingModel(spec)
    params = make_managed(pre.values, anchors=pre.anchors)
    root = SeededRng(config.seed)
    iterations = range(1 if ckpt is None else ckpt.iteration + 1, total_iters + 1)
    base = make_base_optimizer(config.base, config.lr, momentum=config.momentum,
                               weight_decay=config.weight_decay, nesterov=config.nesterov)
    optimizer = method.build(config, params, base=base,
                             exclude=tuple(params) if config.exclude_set == ("*",)
                             else config.exclude_set,
                             grad_fn=counting.loss_and_grads,
                             # read only by TPGM; a generator draws nothing until read
                             val_batches=_val_batches(root, iterations, ft_val, config))
    if ckpt is not None:
        _restore_from_checkpoint(ckpt, params, optimizer, counting)

    record = RunRecord(gamma_names=tuple(optimizer.gamma_values()))
    probe_until = int(total_iters * method.probe_share)
    head = [f"layer{spec.n_layers - 1}.weight", f"layer{spec.n_layers - 1}.bias"]

    max_excess = -math.inf
    for t, batch_rng in zip(iterations, root.streams(_TAG_BATCH, iterations)):
        tic = time.perf_counter()
        batch = draw_batch(batch_rng, ft_train, config.batch_size)
        values = {name: p.value for name, p in params.items()}
        loss, grads = counting.loss_and_grads(values, batch, out=optimizer.grad_views)
        if not math.isfinite(loss):
            # the diagnostic row reports the state before this step, which never runs
            record.add_row(t, loss, time.perf_counter() - tic, counting.fwd_count,
                           counting.bwd_count, optimizer.gamma_values())
            emit_metrics(record, "csv", outdir / "metrics.csv")
            record.summary = {"method": config.method, "seed": config.seed,
                              "diverged_at": t}
            write_summary(record, outdir / "summary.json")
            raise RunError(f"training loss diverged at iteration {t}")
        for name, p in params.items():
            g = grads[name]
            if method.l2_sp:
                g += l2_sp_grad(p.value, p.anchor, config.l2_sp_lambda)
            p.grad = g
        if t <= probe_until:
            freeze_mask(params, head)
        optimizer.step()

        secs = time.perf_counter() - tic
        record.add_row(t, loss, secs, counting.fwd_count, counting.bwd_count,
                       optimizer.gamma_values())
        excess = optimizer.constraint_excess()
        if excess is not None:
            max_excess = max(max_excess, excess)
        if config.checkpoint_every and t % config.checkpoint_every == 0:
            save_checkpoint(
                _run_checkpoint(config, spec, params, optimizer, t, counting),
                outdir / f"ckpt_iter{t}.ckpt",
            )

    final_values = {name: p.value for name, p in params.items()}
    summary = {"method": config.method, "seed": config.seed,
               "iterations": total_iters,
               "final_loss": record.rows[-1][1] if record.rows else None}
    summary.update(evaluate(spec, final_values, dataset))
    if max_excess > -math.inf:
        summary["constraint_max_excess"] = max_excess
    if config.wise_ratio is not None:
        anchors = {name: p.anchor for name, p in params.items()}
        mixed = wise_interpolate_params(final_values, anchors, config.wise_ratio)
        for key, value in evaluate(spec, mixed, dataset).items():
            summary[f"wise.{key}"] = value
    summary.update(method.extras(optimizer))
    record.summary = summary

    emit_metrics(record, "csv", outdir / "metrics.csv")
    emit_metrics(record, "json", outdir / "metrics.json")
    write_summary(record, outdir / "summary.json")
    save_checkpoint(
        _run_checkpoint(config, spec, params, optimizer, total_iters, counting),
        outdir / "state.ckpt",
    )
    return record
