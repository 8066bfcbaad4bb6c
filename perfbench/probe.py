"""Child processes the benchmark times from a fresh interpreter.

``python3 perfbench/probe.py setup CONFIG OVERRIDES_JSON``
    Set-up time: imports projtune, loads the configuration and calls
    ``run_experiment`` with an anchor that already exists, so the set-up
    covers imports, config parsing, dataset generation, anchor load and
    optimizer construction but no pretraining. At the first batch draw it
    prints ``CLOCK_MONOTONIC`` -- one clock for every process on the
    machine -- and exits before any step runs.

``python3 perfbench/probe.py round-trip``
    Checkpoint round trips, served one request per stdin line until stdin
    closes. A request is the JSON list ``[STATE, OUT, COUNT]``: load
    ``STATE`` untimed, then ``COUNT`` times save it to ``OUT`` and load it
    back, timing each call. The reply is one JSON line listing, per trip,
    the two times, whether the saved bytes equal ``STATE``'s, and the loaded
    state's digest.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


class _FirstStep(Exception):
    pass


def _first_draw(*args, **kwargs):
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)), flush=True)
    raise _FirstStep


def setup(config_path: str, overrides: str) -> int:
    from projtune.bench import config as config_mod
    from projtune.bench import run as run_mod

    config = config_mod.load_config(config_path, overrides=json.loads(overrides))
    run_mod.draw_batch = _first_draw
    try:
        run_mod.run_experiment(config)
    except _FirstStep:
        return 0
    print("error: the run finished without drawing a batch", file=sys.stderr)
    return 1


def round_trip() -> int:
    from projtune.bench.checkpoint import load_checkpoint, save_checkpoint
    from workloads import state_digest

    for line in sys.stdin:
        state, out, count = json.loads(line)
        ckpt = load_checkpoint(state)
        want = Path(state).read_bytes()
        trips = []
        for _ in range(count):
            tic = time.perf_counter()
            save_checkpoint(ckpt, out)
            mid = time.perf_counter()
            back = load_checkpoint(out)
            toc = time.perf_counter()
            trips.append({"save_s": mid - tic, "load_s": toc - mid,
                          "same_bytes": Path(out).read_bytes() == want,
                          "digest": state_digest(back)})
            os.unlink(out)
        print(json.dumps(trips), flush=True)
    return 0


if __name__ == "__main__":
    modes = {"setup": setup, "round-trip": round_trip}
    sys.exit(modes[sys.argv[1]](*sys.argv[2:]))
