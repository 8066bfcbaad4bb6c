import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_summary.py"

BENCHMARK = {
    "end_to_end": [{"name": "step_us", "better": "lower", "bound": 0.25},
                   {"name": "steps_per_s", "better": "higher", "bound": 0.25}],
    "per_layer": [{"name": "calls", "better": "lower"}],
}


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(set_name, seed, side, **metrics):
    return {"set": set_name, "seed": seed, "side": side, "workload": "w", "trace": 0,
            "result": {"correct": True, "attempted": 1, "failed": 0,
                       "metrics": {k: {"unit": "u", "value": v} for k, v in metrics.items()}}}


def synthetic_bench():
    runs = []
    for i in range(10):
        # the change is 10 us faster in nine pairs and 1 us slower in the last;
        # its throughput is 30% lower in every pair
        step = 100.0 + i
        runs.append(run("claim", i, "parent", step_us=step, steps_per_s=10.0, calls=5, extra=1.0))
        runs.append(run("claim", i, "change", step_us=step + (1.0 if i == 9 else -10.0),
                        steps_per_s=7.0, calls=5, extra=2.0))
    runs.append(run("one", 0, "parent", step_us=100.0, steps_per_s=10.0))
    runs.append(run("one", 0, "change", step_us=50.0, steps_per_s=10.0))
    return {"sets": {"claim": "", "one": ""}, "runs": runs}


def test_rows_give_quartiles_pairs_won_and_both_verdicts():
    rows = {(r["set"], r["metric"]): r
            for r in load_tool().summarize(synthetic_bench(), BENCHMARK)}
    step = rows["claim", "step_us"]
    assert step["n"] == 10
    assert step["parent"] == pytest.approx([102.25, 104.5, 106.75])
    assert (step["won"], step["lost"]) == (9, 1)
    # the median gap (10 us) exceeds the parent's quartile distance (4.5 us)
    assert step["claim"] is True and step["worse"] is False
    rate = rows["claim", "steps_per_s"]
    assert rate["rel"] == pytest.approx(-0.3)
    assert (rate["won"], rate["lost"], rate["claim"], rate["worse"]) == (0, 10, False, True)
    calls = rows["claim", "calls"]
    assert (calls["won"], calls["lost"], calls["claim"], calls["worse"]) == (0, 0, False, None)
    assert rows["claim", "extra"]["claim"] is None
    # one pair: every pair won, but too few pairs for the claim rule
    assert rows["one", "step_us"]["won"] == 1 and rows["one", "step_us"]["claim"] is False


def test_main_prints_one_line_per_row(tmp_path, capsys):
    bench, benchmark = tmp_path / "BENCH_1.json", tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(synthetic_bench()))
    benchmark.write_text(json.dumps(BENCHMARK))
    assert load_tool().main([str(bench), "--benchmark", str(benchmark), "--set", "claim"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("claim w step_us: parent 104.5 [102.25, 106.75]")
    assert "won 9/10 (parent 1)  claim yes  worse than bound no" in lines[0]
    assert lines[3].endswith("won ?  claim ?  worse than bound ?")
    assert lines[4] == "claim w operations failed: parent 0/10  change 0/10  more failures no"
    # one metric: no operations line
    assert load_tool().main([str(bench), "--benchmark", str(benchmark), "--metric", "calls"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_failed_operations_are_summed_per_side_and_flagged_above_the_parents_share():
    counts = {"a": [("parent", 1, 100), ("change", 0, 100), ("parent", 0, 100),
                    ("change", 2, 200)],
              "b": [("parent", 2, 100), ("change", 1, 100)],
              "c": [("parent", 1, 100), ("change", 2, 200)]}
    runs = []
    for set_name, sides in counts.items():
        for seed, (side, failed, attempted) in enumerate(sides):
            runs.append(run(set_name, seed // 2, side, step_us=1.0))
            runs[-1]["result"].update(failed=failed, attempted=attempted)
    rows = {r["set"]: r for r in load_tool().failures({"sets": {}, "runs": runs})}
    assert (rows["a"]["parent"], rows["a"]["change"]) == ((1, 200), (2, 300))
    # 2/300 is above 1/200; 1/100 is below 2/100; 2/200 equals 1/100
    assert [rows[k]["more_failures"] for k in "abc"] == [True, False, False]
    assert load_tool().format_failures(rows["a"]) == (
        "a w operations failed: parent 1/200  change 2/300  more failures yes")
