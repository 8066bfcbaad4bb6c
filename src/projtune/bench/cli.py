"""Command-line entry points: pretrain, finetune, evaluate, audit, sweep."""

from __future__ import annotations

import argparse
import errno
import json
import sys
from functools import lru_cache
from pathlib import Path

from ..audit import mixed_pair_sampler, verify_lemma1_bound
from ..errors import ConfigError, DomainError, PersistenceError, RunError
from ..numerics import SeededRng
from .checkpoint import load_checkpoint
from .config import METHODS, load_config
from .data import generate_shift_dataset
from .run import evaluate, pretrain, run_experiment

__all__ = ["main"]


def _overrides(pairs: list[str]) -> dict[str, str]:
    bad = [pair for pair in pairs or [] if "=" not in pair]
    if bad:
        raise ConfigError(f"--set expects key=value, got {bad[0]!r}")
    return dict(pair.split("=", 1) for pair in pairs or [])


def _out_path(out: str | None) -> Path | None:
    """``--out`` as a path, checked to lie in a directory before the command's work."""
    if out and not Path(out).parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, "no such directory", str(Path(out).parent))
    return Path(out) if out else None


def _load(args) -> "ExperimentConfig":
    return load_config(args.config, overrides=_overrides(args.set))


def cmd_pretrain(args) -> int:
    config = _load(args)
    Path(config.outdir).mkdir(parents=True, exist_ok=True)
    ckpt = pretrain(config, path=config.anchor_path())
    print(f"pretrained {ckpt.extra['pretrain_iters']} iterations -> {config.anchor_path()}")
    return 0


def cmd_finetune(args) -> int:
    config = _load(args)
    record = run_experiment(config, resume=args.resume)
    summary = record.summary
    print(
        f"method={summary['method']} seed={summary['seed']} "
        f"id={summary['id']:.4f} ood_avg={summary['ood_average']:.4f} "
        f"-> {config.outdir}"
    )
    return 0


def cmd_evaluate(args) -> int:
    out = _out_path(args.out)
    config = _load(args)
    ckpt = load_checkpoint(args.checkpoint)
    dataset = generate_shift_dataset(config.dataset_spec(), config.seed)
    table = evaluate(ckpt.model_spec, ckpt.values, dataset)
    payload = json.dumps(table, indent=2, sort_keys=True)
    if out:
        out.write_text(payload + "\n", encoding="utf-8")
    print(payload)
    return 0


def cmd_audit(args) -> int:
    for flag, value, floor in (("--pairs", args.pairs, 1), ("--seed", args.seed, 0)):
        if value < floor:
            raise ConfigError(f"{flag} must be at least {floor}, got {value}")
    out = _out_path(args.out) or Path(args.checkpoint).with_suffix(".audit.json")
    ckpt = load_checkpoint(args.checkpoint)
    if not ckpt.anchors:
        raise RunError(f"checkpoint {args.checkpoint} carries no anchors to audit against")
    spec = ckpt.model_spec
    diffs = [
        ckpt.values[f"layer{i}.weight"] - ckpt.anchors[f"layer{i}.weight"]
        for i in range(spec.n_layers)
        if ckpt.values[f"layer{i}.weight"].shape[1] == spec.widths[0]
    ]
    sampler = mixed_pair_sampler(SeededRng(args.seed), spec.widths[0], probe_matrices=diffs)
    ok, report = verify_lemma1_bound(spec, ckpt.values, ckpt.anchors, sampler, args.pairs)
    report.to_json(out)
    print(f"bound_satisfied={ok} sampled_max={report.network_ratio_max:.6f} "
          f"upper_bound={report.network_upper_bound:.6f} -> {out}")
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    seeds = [s.strip() for s in args.seeds.split(",") if s.strip()]
    if not (methods and set(methods) <= set(METHODS) and seeds
            and all(s.isdecimal() for s in seeds)):
        raise ConfigError(f"sweep needs methods from {METHODS} and nonnegative integer seeds, "
                          f"got --methods {args.methods!r} --seeds {args.seeds!r}")
    base_overrides = _overrides(args.set)
    rows = []
    root = Path(args.outdir)
    for seed in map(int, seeds):
        pre_path = root / f"pretrain-seed{seed}.ckpt"
        for method in methods:
            overrides = dict(base_overrides)
            overrides.update(
                {
                    "method": method,
                    "seed": str(seed),
                    "outdir": str(root / f"{method}-seed{seed}"),
                    "pretrain.path": str(pre_path),
                }
            )
            config = load_config(args.config, overrides=overrides)
            record = run_experiment(config)
            rows.append(record.summary)
            print(
                f"[sweep] method={method} seed={seed} "
                f"id={record.summary['id']:.4f} ood={record.summary['ood_average']:.4f}"
            )
    root.mkdir(parents=True, exist_ok=True)
    with open(root / "sweep_summary.json", "w", encoding="utf-8") as f:
        json.dump(rows, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"[sweep] {len(rows)} runs -> {root / 'sweep_summary.json'}")
    return 0


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The ``projtune`` parser, built once per process; ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="projtune",
        description="Projection-constrained fine-tuning benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", required=True, help="key = value configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a configuration key")

    p = sub.add_parser("pretrain", help="train the anchor model on clean data")
    add_config_args(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="run one fine-tuning experiment")
    add_config_args(p)
    p.add_argument("--resume", default=None, help="mid-run checkpoint to continue from")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on the shift benchmark")
    add_config_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None, help="write the accuracy table to this JSON file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("audit", help="Lipschitz-robustness audit of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--pairs", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("sweep", help="grid of methods x seeds sharing pretrained anchors")
    add_config_args(p)
    p.add_argument("--methods", required=True, help="comma-separated method names")
    p.add_argument("--seeds", required=True, help="comma-separated integer seeds")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError, PersistenceError, RunError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
