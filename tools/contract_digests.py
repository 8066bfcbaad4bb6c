"""Print one sha256 line for every output of a fixed list of configurations.

Usage, from the repository root::

    python3 tools/contract_digests.py

Each configuration fine-tunes the default 8-16-16-4 model with a checkpoint
every 5 iterations, then resumes a second run from the middle one of those
checkpoints. The ``-wide`` configurations fine-tune an 8-512-512-4 model
instead, whose 518-row block of width 512 steps in several strips, and so
does the 269,316-row column that holds every tensor of ``ft`` and ``hyper-sgd``;
they have a seed of their own, because configurations of one seed share its
anchor.
For both runs it hashes ``metrics.csv`` and ``metrics.json``
without their wall-clock column ``secs_per_iter``, ``summary.json``, every
``.ckpt`` file, and the outputs of ``projtune evaluate`` and ``projtune audit``
of the final ``state.ckpt``. Each line reads ``<configuration> <file> <sha256>``.
The pretrained anchors, one per seed, are hashed as configuration
``pretrain``.

Outputs are deterministic given the configuration, so two commits that keep
the outputs bit for bit print identical lines; ``diff`` the two listings.
Everything is written to a temporary directory, which is removed at exit.
The script imports projtune from the ``src/`` directory next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from projtune.bench.cli import main as projtune  # noqa: E402
from projtune.bench.config import METHODS  # noqa: E402

BASE_CONFIG = """\
epochs = 6
batch_size = 16
checkpoint_every = 5
pretrain.epochs = 2
"""

ADAMW = {"base": "adamw", "lr": "0.01"}
WIDE = {"model.hidden": "512,512", "seed": "11"}

# configuration name -> overrides of BASE_CONFIG
CONFIGURATIONS: dict[str, dict[str, str]] = {
    **{f"{m}-sgd": {"method": m} for m in METHODS},
    # hyper-sgd learns its own rate, so it takes no base optimizer keys
    **{f"{m}-adamw": {"method": m, **ADAMW} for m in METHODS if m != "hyper-sgd"},
    "ftp-exclude": {"method": "ftp", "exclude_set": "layer0.weight,layer2.bias"},
    "ftp-k0": {"method": "ftp", "k": "0"},
    "mars-sp-gamma0.05": {"method": "mars-sp", "mars_sp.gamma": "0.05"},
    "mars-sp-gammainf": {"method": "mars-sp", "mars_sp.gamma": "inf"},
    "tpgm-inner2-sgd": {"method": "tpgm", "tpgm.inner_iters": "2"},
    "tpgm-inner2-adamw": {"method": "tpgm", "tpgm.inner_iters": "2", **ADAMW},
    "ftp-seed3": {"method": "ftp", "seed": "3"},
    "ftp-adamw-wide": {"method": "ftp", **ADAMW, **WIDE},
    "tpgm-sgd-wide": {"method": "tpgm", **WIDE},
    "ft-sgd-wide": {"method": "ft", **WIDE},
    "ft-adamw-wide": {"method": "ft", **ADAMW, **WIDE},
    "hyper-sgd-wide": {"method": "hyper-sgd", **WIDE},
}

WALL_CLOCK = "secs_per_iter"


def _run(*argv, codes=(0,)) -> None:
    """Run one projtune command, its printed output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = projtune([str(a) for a in argv])
    if code not in codes:
        raise RuntimeError(f"projtune {' '.join(map(str, argv))} exited {code}")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _csv_without_wall_clock(path: Path) -> bytes:
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    drop = rows[0].index(WALL_CLOCK)
    return "\n".join(",".join(r[:drop] + r[drop + 1:]) for r in rows).encode()


def _json_without_wall_clock(path: Path) -> bytes:
    obj = json.loads(path.read_text(encoding="utf-8"))
    drop = obj["columns"].index(WALL_CLOCK)
    for row in [obj["columns"], *obj["rows"]]:
        del row[drop]
    return json.dumps(obj, sort_keys=True).encode()


def _file_digest(path: Path) -> str:
    if path.name == "metrics.csv":
        return _sha(_csv_without_wall_clock(path))
    if path.name == "metrics.json":
        return _sha(_json_without_wall_clock(path))
    return _sha(path.read_bytes())


def _ckpt_iteration(path: Path) -> int:
    return int(path.stem[len("ckpt_iter"):])


def _configuration_outputs(root: Path, config: Path, name: str, overrides: dict) -> Path:
    """Run, resume, evaluate and audit ``name``; return the directory holding its outputs."""
    seed = overrides.get("seed", "0")
    sets = [f"{k}={v}" for k, v in overrides.items()]
    sets.append(f"pretrain.path={root / f'pretrain-seed{seed}.ckpt'}")
    set_args = [arg for s in sets for arg in ("--set", s)]
    top = root / name
    full, resumed = top / "full", top / "resumed"
    _run("finetune", "--config", config, *set_args, "--set", f"outdir={full}")
    ckpts = sorted(full.glob("ckpt_iter*.ckpt"), key=_ckpt_iteration)
    if not ckpts:
        raise RuntimeError(f"{name}: no mid-run checkpoint was written")
    middle = ckpts[(len(ckpts) - 1) // 2]
    _run("finetune", "--config", config, *set_args, "--set", f"outdir={resumed}",
         "--resume", middle)
    for run in (full, resumed):
        state = run / "state.ckpt"
        _run("evaluate", "--config", config, *set_args, "--checkpoint", state,
             "--out", run / "evaluate.json")
        # exit status 1 reports a violated bound; the report is written either way
        _run("audit", "--checkpoint", state, "--out", run / "audit.json", codes=(0, 1))
    return top


def digest_lines(configurations: dict[str, dict[str, str]],
                 base_config: str = BASE_CONFIG) -> list[str]:
    """``<configuration> <file> <sha256>`` for every output of every configuration."""
    lines = []
    with tempfile.TemporaryDirectory(prefix="contract-digests-") as tmp:
        root = Path(tmp)
        config = root / "base.conf"
        config.write_text(base_config, encoding="utf-8")
        for name, overrides in configurations.items():
            top = _configuration_outputs(root, config, name, overrides)
            for path in sorted(p for p in top.rglob("*") if p.is_file()):
                lines.append(f"{name} {path.relative_to(top).as_posix()} {_file_digest(path)}")
        for path in sorted(root.glob("pretrain-seed*.ckpt")):
            lines.append(f"pretrain {path.name} {_file_digest(path)}")
    return lines


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    for line in digest_lines(CONFIGURATIONS):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
