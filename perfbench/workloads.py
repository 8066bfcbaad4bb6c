"""The perfbench workloads: rounds of projtune operations, each output checked.

One round belongs to one data seed. It pretrains the seed's anchor, which the
round's fine-tune runs share as ``projtune sweep`` shares it, and runs the
workload's fine-tune runs. After each run marked ``side``, and after every
later run of the round, it runs one ``evaluate`` and one ``audit`` of that
run's final state through ``projtune.bench.cli.main`` and times checkpoint
round trips of that state in a separate process.
Pretraining, every fine-tune run, round trip, evaluate and audit call is one
operation. Outputs are compared with digests
recorded from the seed commit; a failed check or call counts as a failed
operation and the round goes on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from projtune.bench import checkpoint as ckpt_mod
from projtune.bench import cli as cli_mod
from projtune.bench import config as config_mod
from projtune.bench import run as run_mod

HERE = Path(__file__).resolve().parent

# Checks read checkpoints through the original function, so that a traced run
# does not count them as the program's own loads.
_read_checkpoint = ckpt_mod.load_checkpoint

EXCESS_TOL = 1e-9        # the same tolerance as acceptance check c01
AUDIT_PAIRS = 10000      # the CLI's default
PROJECTING = ("mars-sp", "ftp", "tpgm")
SEED_POOL = tuple(range(16))   # data seeds with recorded reference digests

_DESK = """\
# The paper's default desk-scale setup: an 8-16-16-4 tanh MLP pretrained on
# 4000 clean samples, fine-tuned on a 40-sample label-skewed subsample.
epochs = 250
batch_size = 16
lr = 0.08
momentum = 0.9
model.hidden = 16,16
model.activation = tanh
dataset.n_train = 4000
dataset.n_test = 2000
finetune.n = 40
finetune.skew = 0.45
pretrain.epochs = 8
"""

# Same data, 512-512 hidden layers. Fewer epochs keep one round to a few seconds.
_WIDE = (_DESK.replace("model.hidden = 16,16", "model.hidden = 512,512")
         .replace("epochs = 250", "epochs = 50")
         .replace("pretrain.epochs = 8", "pretrain.epochs = 2"))


@dataclass(frozen=True)
class Run:
    """One fine-tune run of a round."""

    method: str
    base: str
    # Evaluate, audit and round-trip its final state after it and after every
    # later run of the round.
    side: bool = False
    overrides: tuple[tuple[str, str], ...] = ()   # config keys set for this run only
    suffix: str = ""                    # tells runs of one method and base apart
    resume_at: int = 0                  # >0: also resume it from this mid-run checkpoint

    @property
    def label(self) -> str:
        return f"{self.method}/{self.base}{self.suffix}"


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                         # config file shared by every run
    runs: tuple[Run, ...]               # in order
    round_trips: int                    # checkpoint round trips per side operation
    pretrains: int                      # timed pretrain calls per round, all of one anchor
    # end-to-end metrics that this workload takes only from its side operations
    side_metrics: tuple[str, ...] = ()


_SIDE = ("ckpt_save_ms", "ckpt_load_ms", "evaluate_s", "audit_pairs_per_s")
_DESK_RUNS = (tuple(Run(m, "sgd", side=True)
                    for m in ("ft", "linear-probe", "lp-ft", "l2-sp", "mars-sp", "tpgm",
                              "ftp", "hyper-sgd"))
              + tuple(Run(m, "adamw", side=True) for m in ("ft", "mars-sp", "ftp", "tpgm")))

# The persisted FTP run: twice the epochs, an 8.6 MB checkpoint every 10
# iterations, resumed from the one at iteration 150. It runs second so that
# its side operations are spread over the rest of the round.
_PERSISTED = Run("ftp", "sgd", side=True, suffix="+ckpt", resume_at=150,
                 overrides=(("epochs", "100"), ("checkpoint_every", "10")))

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-sweep",
            config=_DESK,
            runs=_DESK_RUNS,
            round_trips=8,
            pretrains=6,
            side_metrics=_SIDE,
        ),
        Workload(
            name="wide-projected",
            config=_WIDE,
            runs=(Run("ft", "sgd"), _PERSISTED)
            + tuple(Run(m, "sgd") for m in ("mars-sp", "ftp", "tpgm")),
            round_trips=4,
            pretrains=3,
        ),
    )
}


class CheckFailed(Exception):
    pass


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def metrics_digest(path) -> str:
    """Digest of ``metrics.csv`` without its wall-clock column."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    drop = lines[0].split(",").index("secs_per_iter")
    kept = (",".join(c for i, c in enumerate(line.split(",")) if i != drop) for line in lines)
    return _sha256("\n".join(kept).encode("utf-8"))


def state_digest(ckpt) -> str:
    """Digest of a checkpoint's numeric state: arrays, radii and iteration."""
    h = hashlib.sha256()
    h.update(json.dumps({"iteration": ckpt.iteration, "gammas": ckpt.gammas},
                        sort_keys=True).encode("utf-8"))
    groups = (("values", ckpt.values), ("anchors", ckpt.anchors),
              ("prev", ckpt.prev_unconstrained), ("opt", ckpt.optimizer.get("tensors", {})))
    for group, arrays in groups:
        for name in sorted(arrays):
            a = np.ascontiguousarray(arrays[name], dtype="<f8")
            h.update(f"{group}/{name}{a.shape}".encode("utf-8"))
            h.update(a.tobytes())
    return h.hexdigest()


def _rows_without_clock(record) -> list[tuple]:
    return [row[:2] + row[3:] for row in record.rows]


@dataclass
class Samples:
    """Timings gathered over the rounds of one benchmark run."""

    pretrain_s: list = field(default_factory=list)
    finetune_iters: int = 0
    # run kind ("method/base" and suffix, "@resume" added for a resumed run) ->
    # wall time of each run_experiment call; every call of one kind runs as
    # many steps
    call_s: dict = field(default_factory=dict)
    step_s: dict = field(default_factory=dict)   # run kind -> secs_per_iter values
    ckpt_save_s: list = field(default_factory=list)
    ckpt_load_s: list = field(default_factory=list)
    evaluate_s: list = field(default_factory=list)
    audit_pairs: int = 0
    audit_s_per_pair: list = field(default_factory=list)   # per call


class Ledger:
    """Counts operations, checks digests, and names the traced run of each operation.

    With ``reference=None`` digests are recorded into ``recorded`` instead of
    checked, which is how the reference file is made.
    """

    def __init__(self, reference: dict | None, tracer=None):
        self.reference = reference
        self.recorded: dict = {}
        self.observed: dict = {}       # (round tag, label) -> digest, checked or not
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.runs: dict[int, tuple[str, str, str]] = {}   # run id -> (kind, method, base)

    def op(self, label: str, fn, kind: str = "", method: str = "", base: str = ""):
        self.attempted += 1
        run_id = len(self.runs)
        self.runs[run_id] = (kind or label, method, base)
        if self.tracer is not None:
            self.tracer.run_id = run_id
        try:
            return fn()
        except Exception as exc:  # one failed operation; the round goes on
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if self.tracer is not None:
                self.tracer.run_id = -1

    def skip(self, label: str, count: int, reason: str) -> None:
        self.attempted += count
        self.failed += count
        self.failures.extend([f"{label}: {reason}"] * count)

    def expect(self, ctx: "RoundContext", label: str, digest: str) -> None:
        self.observed[(ctx.tag, label)] = digest
        key = (ctx.workload.name, str(ctx.seed))
        if self.reference is None:
            self.recorded.setdefault(key[0], {}).setdefault(key[1], {})[label] = digest
            return
        want = self.reference.get(key[0], {}).get(key[1], {}).get(label)
        if want is None:
            raise CheckFailed(f"no reference digest for {key[0]} seed {key[1]} {label}")
        if digest != want:
            raise CheckFailed(f"{label} digest {digest[:12]} != reference {want[:12]}")


@dataclass
class RoundContext:
    workload: Workload
    seed: int
    tag: str
    config_path: Path
    directory: Path
    anchor: Path
    ledger: Ledger
    samples: Samples
    trips: "RoundTripProbe"

    def config(self, **overrides):
        base = {"seed": str(self.seed), "outdir": str(self.directory),
                "pretrain.path": str(self.anchor)}
        base.update({k: str(v) for k, v in overrides.items()})
        return config_mod.load_config(self.config_path, overrides=base)


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _pretrain(ctx: RoundContext):
    config = ctx.config()
    tic = time.perf_counter()
    run_mod.pretrain(config, path=ctx.anchor)
    ctx.samples.pretrain_s.append(time.perf_counter() - tic)
    ctx.ledger.expect(ctx, "pretrain", state_digest(_read_checkpoint(ctx.anchor)))


@dataclass
class _Run:
    record: object
    outdir: Path
    digest: str


def _finetune(ctx: RoundContext, spec: Run, outdir: Path, resume=None) -> _Run:
    method, label = spec.method, spec.label
    config = ctx.config(method=method, base=spec.base, outdir=outdir, **dict(spec.overrides))
    tic = time.perf_counter()
    record = run_mod.run_experiment(config, resume=resume)
    wall = time.perf_counter() - tic
    key = label + ("@resume" if resume else "")
    ctx.samples.finetune_iters += len(record.rows)
    ctx.samples.call_s.setdefault(key, []).append(wall)
    ctx.samples.step_s.setdefault(key, []).extend(record.column("secs_per_iter"))

    passes = 1 + (config.tpgm_inner_iters if method == "tpgm" else 0)
    expected = [passes * t for t in record.column("iter")]
    if record.column("fwd_count") != expected or record.column("bwd_count") != expected:
        raise CheckFailed(f"{label}: not {passes} forward/backward passes per iteration")
    summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    if method in PROJECTING and not summary["constraint_max_excess"] <= EXCESS_TOL:
        raise CheckFailed(
            f"{label}: constraint_max_excess {summary['constraint_max_excess']!r}"
        )
    for key in ("id", "ood_average"):
        if not math.isfinite(summary[key]):
            raise CheckFailed(f"{label}: {key} is {summary[key]!r}")
    return _Run(record, outdir, state_digest(_read_checkpoint(outdir / "state.ckpt")))


def _checked_run(ctx: RoundContext, spec: Run, outdir: Path) -> _Run:
    run = _finetune(ctx, spec, outdir)
    ctx.ledger.expect(ctx, f"{spec.label}.metrics", metrics_digest(outdir / "metrics.csv"))
    ctx.ledger.expect(ctx, f"{spec.label}.state", run.digest)
    return run


def _resumed_run(ctx: RoundContext, spec: Run, full: _Run) -> _Run:
    """Resume ``full``'s run from its mid-run checkpoint at ``spec.resume_at``.

    The resumed run's ``metrics.csv`` holds only the rows after the resume
    point, so its rows are compared with the uninterrupted run's tail.
    """
    mid = full.outdir / f"ckpt_iter{spec.resume_at}.ckpt"
    run = _finetune(ctx, spec, ctx.directory / "resumed", resume=mid)
    if run.digest != full.digest:
        raise CheckFailed("resumed state.ckpt differs from the uninterrupted run's")
    tail = _rows_without_clock(full.record)[-len(run.record.rows):]
    if _rows_without_clock(run.record) != tail:
        raise CheckFailed("resumed run's rows differ from the uninterrupted run's")
    return run


class RoundTripProbe:
    """One child process that times checkpoint round trips on request.

    In the benchmark's own long-lived process the cost of the 8.6 MB buffers
    depends on the allocator state that earlier work left, and it varied 2x
    between otherwise identical runs. The child does nothing but round trips.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), "round-trip"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def request(self, state: Path, out: Path, count: int) -> list[dict]:
        self.proc.stdin.write(json.dumps([str(state), str(out), count]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"round-trip probe exited with {self.proc.poll()}")
        return json.loads(line)


def _round_trips(ctx: RoundContext, source: _Run, count: int) -> None:
    """``count`` save/load round trips of ``source``'s final state in the probe process."""
    try:
        trips = ctx.trips.request(source.outdir / "state.ckpt",
                                  ctx.directory / "round-trip.ckpt", count)
    except (OSError, RuntimeError, ValueError) as exc:
        ctx.ledger.skip("round trip", count, f"{type(exc).__name__}: {exc}")
        return
    for trip in trips:
        ctx.samples.ckpt_save_s.append(trip["save_s"])
        ctx.samples.ckpt_load_s.append(trip["load_s"])
        ctx.ledger.op("round trip", lambda: _check_trip(trip, source.digest), kind="round trip")


def _check_trip(trip: dict, digest: str) -> None:
    if not trip["same_bytes"]:
        raise CheckFailed("re-saved checkpoint differs from the run's state.ckpt")
    if trip["digest"] != digest:
        raise CheckFailed("checkpoint round trip changed the state")


def _evaluate(ctx: RoundContext, source: _Run) -> None:
    out = ctx.directory / "evaluate.json"
    argv = ["evaluate", "--config", str(ctx.config_path), "--set", f"seed={ctx.seed}",
            "--checkpoint", str(source.outdir / "state.ckpt"), "--out", str(out)]
    tic = time.perf_counter()
    code = _quiet(cli_mod.main, argv)
    ctx.samples.evaluate_s.append(time.perf_counter() - tic)
    if code != 0:
        raise CheckFailed(f"projtune evaluate exited {code}")
    table = json.loads(out.read_text(encoding="utf-8"))
    summary = json.loads((source.outdir / "summary.json").read_text(encoding="utf-8"))
    differ = sorted(k for k in table if table[k] != summary.get(k))
    if differ:
        raise CheckFailed(f"evaluate disagrees with the run's summary on {differ}")


def _audit(ctx: RoundContext, source: _Run, label: str) -> None:
    out = ctx.directory / f"audit-{label.replace('/', '-')}.json"
    argv = ["audit", "--checkpoint", str(source.outdir / "state.ckpt"),
            "--pairs", str(AUDIT_PAIRS), "--seed", str(ctx.seed), "--out", str(out)]
    tic = time.perf_counter()
    code = _quiet(cli_mod.main, argv)
    wall = time.perf_counter() - tic
    report = json.loads(out.read_text(encoding="utf-8"))
    ctx.samples.audit_pairs += report["n_pairs"]
    ctx.samples.audit_s_per_pair.append(wall / report["n_pairs"])
    if code != 0 or report["bound_satisfied"] is not True:
        raise CheckFailed(f"audit exited {code} with bound_satisfied={report['bound_satisfied']}")
    ctx.ledger.expect(ctx, f"{label}.audit",
                      _sha256(json.dumps(report, sort_keys=True).encode("utf-8")))


def run_round(ctx: RoundContext) -> None:
    """Run every operation of one round; failures are counted, not raised."""
    wl, ledger = ctx.workload, ctx.ledger
    ctx.directory.mkdir(parents=True, exist_ok=True)
    # Repeat pretrain calls rewrite the same anchor; they sit between the runs so
    # that their timings sample the host at different moments.
    pretrain_at = {round(i * len(wl.runs) / wl.pretrains) for i in range(wl.pretrains)}
    source, label = None, ""   # the latest side run, whose state the side operations use
    for i, spec in enumerate(wl.runs):
        if i in pretrain_at:
            ledger.op("pretrain", lambda: _pretrain(ctx), kind="pretrain")
        outdir = ctx.directory / spec.label.replace("/", "-")
        run = ledger.op(spec.label, lambda: _checked_run(ctx, spec, outdir),
                        kind="finetune", method=spec.method, base=spec.base)
        if spec.side:
            source, label = run, spec.label
            if spec.resume_at and run is None:
                ledger.skip("resume", 1, "the run to resume failed")
            elif spec.resume_at:
                ledger.op("resume", lambda: _resumed_run(ctx, spec, run),
                          kind="finetune", method=spec.method, base=spec.base)
        if not label:
            continue
        if source is None:
            for name, count in (("evaluate", 1), ("audit", 1), ("round trip", wl.round_trips)):
                ledger.skip(name, count, f"its source run {label} failed")
            continue
        ledger.op("evaluate", lambda: _evaluate(ctx, source), kind="evaluate")
        ledger.op("audit", lambda: _audit(ctx, source, label), kind="audit")
        _round_trips(ctx, source, wl.round_trips)
