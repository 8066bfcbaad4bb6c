"""Record the reference output digests that perfbench checks against.

Usage, from the repository root: ``python3 perfbench/make_reference.py
[WORKLOAD ...]``. It runs one round of each named workload (default: all) for
every data seed in ``SEED_POOL`` and writes ``perfbench/reference_digests.json``.
Run it only on a commit whose outputs are the reference, since every later
benchmark run is judged against these digests.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def record(name: str, work: Path, trips) -> workloads.Ledger:
    wl = workloads.WORKLOADS[name]
    ledger = workloads.Ledger(reference=None)
    config_path = work / f"{name}.cfg"
    config_path.write_text(wl.config, encoding="utf-8")
    for seed in workloads.SEED_POOL:
        ctx = workloads.RoundContext(
            workload=wl, seed=seed, tag=f"{name}-{seed}", config_path=config_path,
            directory=work / f"{name}-{seed}", anchor=work / f"{name}-{seed}.ckpt",
            ledger=ledger, samples=workloads.Samples(), trips=trips,
        )
        workloads.run_round(ctx)
        shutil.rmtree(ctx.directory)
        print(f"{name} seed {seed}: {ledger.attempted} operations, {ledger.failed} failed",
              flush=True)
    return ledger


def main(names) -> int:
    path = HERE / "reference_digests.json"
    digests = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    digests = {name: d for name, d in digests.items() if name in workloads.WORKLOADS}
    work = ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        with workloads.RoundTripProbe() as trips:
            for name in names or sorted(workloads.WORKLOADS):
                ledger = record(name, work, trips)
                if ledger.failed:
                    print("\n".join(ledger.failures), file=sys.stderr)
                    return 1
                digests[name] = ledger.recorded[name]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
