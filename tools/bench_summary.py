"""Summarize a ``BENCH_<n>.json`` file of alternating parent/change perfbench pairs.

Usage, from the repository root::

    python3 tools/bench_summary.py BENCH_11.json
    python3 tools/bench_summary.py BENCH_11.json --set claim --metric ftp_step_us_p5

For every set, workload and metric it prints one line: the parent's and the
change's median with their quartiles, the change's median relative to the
parent's, how many pairs each side won (a tie counts for neither), whether
the claim rule holds and whether the change is worse than the metric's
bound. A pair is the parent run and the change run of one seed. Unless
``--metric`` is given, each set and workload also gets a line with each
side's failed and attempted operations, summed over its runs, and whether
the change's failed share is above the parent's.

- The claim rule: at least 10 pairs, the change better in at least nine
  tenths of them, and the medians apart by more than the parent's
  interquartile range, in the better direction.
- The bound: an end-to-end metric's ``bound`` in ``BENCHMARK.json``, a
  fraction of the parent's median by which the change's median may be
  worse.

The better direction and the bound come from ``BENCHMARK.json``; a metric it
does not declare gets ``?`` for both verdicts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def declared_metrics(benchmark: dict) -> dict[str, dict]:
    """Metric name -> its ``BENCHMARK.json`` entry (``better`` and, end to end, ``bound``)."""
    return {m["name"]: m for m in benchmark.get("end_to_end", []) + benchmark.get("per_layer", [])}


def pairs(bench: dict) -> dict[tuple[str, str], dict[int, dict[str, dict]]]:
    """``(set, workload)`` -> seed -> side -> that run's metric values."""
    out: dict = {}
    for run in bench["runs"]:
        values = {name: m["value"] for name, m in run["result"]["metrics"].items()}
        out.setdefault((run["set"], run["workload"]), {}).setdefault(run["seed"], {})[
            run["side"]] = values
    return out


def summarize_metric(parent: list[float], change: list[float], better: str | None,
                     bound: float | None) -> dict:
    """The line's numbers for one metric; ``parent[i]`` and ``change[i]`` are one pair."""
    qp = np.percentile(parent, [25, 50, 75])
    qc = np.percentile(change, [25, 50, 75])
    sign = {"lower": -1.0, "higher": 1.0}.get(better or "")
    row = {"n": len(parent), "parent": qp.tolist(), "change": qc.tolist(),
           "rel": qc[1] / qp[1] - 1.0 if qp[1] else float("nan"),
           "won": None, "lost": None, "claim": None, "worse": None}
    if sign is None:
        return row
    gains = sign * (np.asarray(change) - np.asarray(parent))
    row["won"] = int(np.count_nonzero(gains > 0))
    row["lost"] = int(np.count_nonzero(gains < 0))
    gap = sign * (qc[1] - qp[1])
    row["claim"] = bool(row["n"] >= MIN_PAIRS and row["won"] >= WIN_SHARE * row["n"]
                        and gap > qp[2] - qp[0])
    if bound is not None:
        row["worse"] = bool(-gap > bound * abs(qp[1]))
    return row


def summarize(bench: dict, benchmark: dict) -> list[dict]:
    """One row per set, workload and metric, in the file's order."""
    declared = declared_metrics(benchmark)
    rows = []
    for (set_name, workload), seeds in pairs(bench).items():
        complete = [sides for sides in seeds.values() if {"parent", "change"} <= set(sides)]
        if not complete:
            continue
        names = [n for n in complete[0]["parent"] if all(
            n in s["parent"] and n in s["change"] for s in complete)]
        for name in names:
            spec = declared.get(name, {})
            row = summarize_metric([s["parent"][name] for s in complete],
                                   [s["change"][name] for s in complete],
                                   spec.get("better"), spec.get("bound"))
            rows.append({"set": set_name, "workload": workload, "metric": name, **row})
    return rows


def failures(bench: dict) -> list[dict]:
    """Failed and attempted operations of each side, per set and workload, in the file's order."""
    counts: dict = {}
    for run in bench["runs"]:
        sides = counts.setdefault((run["set"], run["workload"]), {})
        failed, attempted = sides.get(run["side"], (0, 0))
        sides[run["side"]] = (failed + run["result"]["failed"],
                              attempted + run["result"]["attempted"])
    rows = []
    for (set_name, workload), sides in counts.items():
        parent, change = sides.get("parent", (0, 0)), sides.get("change", (0, 0))
        share = [f / a if a else 0.0 for f, a in (parent, change)]
        rows.append({"set": set_name, "workload": workload, "parent": parent, "change": change,
                     "more_failures": share[1] > share[0]})
    return rows


def _verdict(value) -> str:
    return "?" if value is None else ("yes" if value else "no")


def format_row(row: dict) -> str:
    p, c = row["parent"], row["change"]
    won = "?" if row["won"] is None else f"{row['won']}/{row['n']} (parent {row['lost']})"
    return (f"{row['set']} {row['workload']} {row['metric']}: "
            f"parent {p[1]:.6g} [{p[0]:.6g}, {p[2]:.6g}]  change {c[1]:.6g} [{c[0]:.6g}, "
            f"{c[2]:.6g}]  {100 * row['rel']:+.1f}%  won {won}  "
            f"claim {_verdict(row['claim'])}  worse than bound {_verdict(row['worse'])}")


def format_failures(row: dict) -> str:
    (pf, pa), (cf, ca) = row["parent"], row["change"]
    return (f"{row['set']} {row['workload']} operations failed: parent {pf}/{pa}  "
            f"change {cf}/{ca}  more failures {_verdict(row['more_failures'])}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("bench", type=Path, help="a BENCH_<n>.json file")
    p.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    p.add_argument("--set", help="only this set")
    p.add_argument("--metric", help="only this metric")
    args = p.parse_args(argv)
    bench = json.loads(args.bench.read_text(encoding="utf-8"))
    benchmark = json.loads(args.benchmark.read_text(encoding="utf-8"))
    for row in summarize(bench, benchmark):
        if args.set in (None, row["set"]) and args.metric in (None, row["metric"]):
            print(format_row(row))
    if args.metric is None:
        for row in failures(bench):
            if args.set in (None, row["set"]):
                print(format_failures(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
