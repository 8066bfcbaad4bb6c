"""Desk-scale distribution-shift benchmark: data, config, runs, persistence, CLI."""

from .config import ExperimentConfig, load_config, parse_config_text
from .data import (
    N_SEVERITIES,
    SHIFT_KINDS,
    DatasetSpec,
    ShiftDataset,
    Split,
    finetune_subsample,
    generate_shift_dataset,
)
from .record import RunRecord, emit_metrics, write_summary
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .run import evaluate, pretrain, run_experiment

__all__ = [
    "Checkpoint",
    "DatasetSpec",
    "ExperimentConfig",
    "N_SEVERITIES",
    "RunRecord",
    "SHIFT_KINDS",
    "ShiftDataset",
    "Split",
    "emit_metrics",
    "evaluate",
    "finetune_subsample",
    "generate_shift_dataset",
    "load_checkpoint",
    "load_config",
    "parse_config_text",
    "pretrain",
    "run_experiment",
    "save_checkpoint",
    "write_summary",
]
