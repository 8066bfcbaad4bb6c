"""Tests of the benchmark itself: tracer hygiene and the result line's contents.

Run from the repository root with ``python3 -m pytest perfbench``. The
result-line tests run every workload once per mode, which takes about a
minute and a half on a two-core machine.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer, projtune_targets  # noqa: E402

# Every traced call site, on data small enough to run in a few seconds.
TINY = workloads.Workload(
    name="tiny",
    config="""\
epochs = 3
model.hidden = 6,6
dataset.n_train = 400
dataset.n_test = 200
pretrain.epochs = 1
checkpoint_every = 2
""",
    runs=tuple(workloads.Run(m, "sgd", side=m == "tpgm")
               for m in ("ft", "linear-probe", "lp-ft", "l2-sp", "mars-sp", "tpgm"))
    + (workloads.Run("ftp", "sgd", side=True, suffix="+ckpt", resume_at=4,
                     overrides=(("epochs", "4"),)),
       workloads.Run("ftp", "sgd"), workloads.Run("hyper-sgd", "sgd"),
       workloads.Run("ftp", "adamw")),
    round_trips=1,
    pretrains=2,
)


def _round(tmp_path, ledger, tag):
    config_path = tmp_path / "tiny.cfg"
    config_path.write_text(TINY.config, encoding="utf-8")
    with workloads.RoundTripProbe() as trips:
        ctx = workloads.RoundContext(
            workload=TINY, seed=5, tag=tag, config_path=config_path, directory=tmp_path / tag,
            anchor=tmp_path / f"{tag}-anchor.ckpt", ledger=ledger, samples=workloads.Samples(),
            trips=trips,
        )
        workloads.run_round(ctx)
    assert trips.proc.returncode == 0


def test_tracer_restores_every_attribute_and_changes_no_output(tmp_path):
    tracer = Tracer()
    ledger = workloads.Ledger(reference=None, tracer=tracer)
    targets = projtune_targets()
    originals = [owner.__dict__[attr] for owner, attr, _, _ in targets]

    _round(tmp_path, ledger, "plain")
    with tracer.installed(targets):
        assert Tracer.unrestored(targets, originals) == [t[0].__name__ + "." + t[1]
                                                         for t in targets]
        _round(tmp_path, ledger, "traced")

    assert Tracer.unrestored(targets, originals) == []
    assert ledger.failed == 0, ledger.failures
    plain = {label: d for (tag, label), d in ledger.observed.items() if tag == "plain"}
    traced = {label: d for (tag, label), d in ledger.observed.items() if tag == "traced"}
    assert plain and plain == traced
    calls = {name: c for name, (c, _, _) in tracer.aggregate().items()}
    never = sorted({name for _, _, name, _ in targets if calls[name] == 0})
    assert never == [], f"traced call sites the round never reached: {never}"


def test_tracer_restores_attributes_when_the_run_raises():
    tracer = Tracer()
    targets = projtune_targets()
    originals = [owner.__dict__[attr] for owner, attr, _, _ in targets]
    with pytest.raises(RuntimeError):
        with tracer.installed(targets):
            raise RuntimeError("boom")
    assert Tracer.unrestored(targets, originals) == []


def test_self_time_excludes_children():
    tracer = Tracer()

    def leaf():
        return 1

    wrapped_leaf = tracer.wrap(leaf, "a.leaf")

    def outer():
        return wrapped_leaf() + wrapped_leaf()

    tracer.wrap(outer, "a.outer")()
    agg = tracer.aggregate()
    calls, total, own = agg["a.outer"]
    assert calls == 1 and agg["a.leaf"][0] == 2
    assert own == pytest.approx(total - agg["a.leaf"][1])
    assert list(tracer.parent) == [-1, 0, 0]


def _bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_declared_metric_is_reported_with_its_unit(workload, trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values()), result["metrics"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(tmp_path, "desk-sweep", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json", "perfbench"]
