"""Run perfbench as alternating parent/change pairs and keep every result line.

Usage, from the repository root::

    python3 tools/bench_pairs.py --parent REV --workload desk-sweep --seeds 9401-9410 \\
        --set claim --describe "the final code; desk-sweep seeds 9401-9410" --out BENCH_10.json

The parent side runs ``perfbench/run.py`` of revision ``REV`` (default
``HEAD~1``), checked out with ``git worktree add`` into ``.bench_parent/``
(removed again at exit), or of an existing tree given with ``--parent-tree``.
The file records the parent tree's own revision when the tree is a git
checkout; a tree that is none, such as an unpacked ``git archive``, needs
``--parent REV`` to name its revision. The change side runs
the ``perfbench/run.py`` of this repository's working tree. Both checkouts
should sit on one filesystem, since perfbench writes its run directories
inside the checkout it runs from.

For each seed both sides run once with the same arguments; the side that
runs first alternates from seed to seed, starting with the parent. Each
run's JSON result line is appended to ``--out`` as one entry of ``runs``
with its set, seed, side, place in the pair, trace flag and workload; the
set's description goes to ``sets``. The file is created in the layout of
the earlier ``BENCH_*.json`` files if it does not exist. A run that exits
non-zero or prints no result line stops the tool with its output.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMAND = "python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds SECONDS --trace TRACE"


def parse_seeds(text: str) -> list[int]:
    """``"3,5-7"`` -> ``[3, 5, 6, 7]``."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 9401-9410 or 1,4,7")
    p.add_argument("--set", required=True, help="name of this set of pairs")
    p.add_argument("--describe", required=True, help="what this set measures")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--parent", help="revision of the parent side (default HEAD~1); required "
                   "with a --parent-tree that is not a git checkout")
    p.add_argument("--parent-tree", type=Path, help="existing tree of the parent")
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git(*args: str, tree: Path = ROOT) -> str:
    return subprocess.run(["git", "-C", str(tree), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def parent_revision(tree: Path, parent: str | None) -> str:
    """The short revision of the parent side: ``tree``'s own if it is the top of a git
    checkout, else ``parent`` resolved in this repository."""
    try:
        if Path(git("rev-parse", "--show-toplevel", tree=tree)).resolve() == tree.resolve():
            return git("rev-parse", "--short", "HEAD", tree=tree)
    except subprocess.CalledProcessError:
        pass  # not inside a git checkout
    if parent is None:
        raise SystemExit(f"error: {tree} is not a git checkout; name its revision with --parent")
    return git("rev-parse", "--short", parent)


@contextmanager
def parent_checkout(args):
    """The parent's checkout: ``--parent-tree``, or a worktree at ``--parent`` for the duration."""
    if args.parent_tree is not None:
        yield args.parent_tree.resolve()
        return
    tree = ROOT / ".bench_parent"
    if tree.exists():
        raise SystemExit(f"error: {tree} exists; remove it with `git worktree remove`")
    git("worktree", "add", "--detach", str(tree), args.parent or "HEAD~1")
    try:
        yield tree
    finally:
        git("worktree", "remove", "--force", str(tree))
        shutil.rmtree(tree, ignore_errors=True)


def dump(bench: dict) -> str:
    """``bench`` as the earlier ``BENCH_*.json`` files hold it: one line per entry and per run."""
    head = [f" {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
            for key, value in bench.items() if key != "runs"]
    runs = ",\n".join(f"  {json.dumps(run, sort_keys=True)}" for run in bench["runs"])
    return "{\n" + ",\n".join(head) + ',\n "runs": [\n' + runs + "\n ]\n}\n"


def run_side(tree: Path, args, seed: int) -> tuple[dict, dict]:
    """One perfbench run from ``tree``: its JSON result line and the machine facts it printed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} exited {proc.returncode}\n"
                         f"{proc.stdout}{proc.stderr}")
    facts = next((json.loads(line[len("machine "):]) for line in lines
                  if line.startswith("machine ")), {})
    return json.loads(lines[-1]), facts


def main(argv=None) -> int:
    args = parse_args(argv)
    out = args.out if args.out.is_absolute() else ROOT / args.out
    if out.exists():
        bench = json.loads(out.read_text(encoding="utf-8"))
    else:
        bench = {"change": git("log", "-1", "--format=%s"), "parent": "", "command": COMMAND,
                 "host": "", "pairs": "alternating parent/change order from seed to seed "
                 "(order_in_pair gives each run's place)", "sets": {}, "runs": []}
    if args.set in bench["sets"]:
        raise SystemExit(f"error: {out} already has a set named {args.set!r}")
    bench["sets"][args.set] = args.describe
    with parent_checkout(args) as parent_tree:
        if not bench["parent"]:
            bench["parent"] = parent_revision(parent_tree, args.parent)
        trees = {"parent": parent_tree, "change": ROOT}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for place, side in enumerate(order, start=1):
                result, facts = run_side(trees[side], args, seed)
                if not bench["host"] and facts:
                    bench["host"] = (f"{facts['cpu']}, {facts['nproc']} cores, Python "
                                     f"{facts['python']}, numpy {facts['numpy']}, {facts['blas']}")
                bench["runs"].append({"order_in_pair": place, "result": result, "seed": seed,
                                      "set": args.set, "side": side, "trace": args.trace,
                                      "workload": args.workload})
                metric = result["metrics"].get("finetune_steps_per_s", {}).get("value")
                print(f"{args.set} seed {seed} {side}: correct={result['correct']} "
                      f"failed={result['failed']} finetune_steps_per_s={metric}", flush=True)
                # written after every run, so an interrupted set keeps what it measured
                out.write_text(dump(bench), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
