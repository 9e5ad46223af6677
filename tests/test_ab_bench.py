import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "ab_bench", Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

SPECS = {"work_s": ("lower", 0.25), "accuracy": ("higher", 0.2)}


def _line(work_s, accuracy, failed=0):
    metrics = {"work_s": {"value": work_s, "unit": "s"},
               "accuracy": {"value": accuracy, "unit": "fraction"}}
    return json.dumps({"correct": failed == 0, "attempted": 5, "failed": failed,
                       "metrics": metrics})


def test_parser_reads_the_last_line_and_refuses_output_without_one():
    out = "# environment {}\n# workload w\n" + _line(1.5, 0.9) + "\n"
    assert ab_bench.parse_result(out)["metrics"]["work_s"]["value"] == 1.5
    assert ab_bench.parse_result("# environment {}\nTraceback (most recent call last):\n") is None
    assert ab_bench.parse_result("") is None
    assert ab_bench.parse_result('# workload w\n{"correct": true}\n') is None


def test_summary_of_fixed_result_lines():
    parent = [(10.0, 0.80), (11.0, 0.80), (12.0, 0.80), (13.0, 0.80)]
    change = [(6.0, 0.80), (7.0, 0.80), (16.0, 0.81), (5.0, 0.80)]
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        runs.append({"workload": "w", "seed": seed, "side": "parent",
                     "result": ab_bench.parse_result(_line(*p))})
        runs.append({"workload": "w", "seed": seed, "side": "change",
                     "result": ab_bench.parse_result(_line(*c, failed=seed == 1))})
    runs.append({"workload": "w", "seed": 9, "side": "change", "result": None})
    s = ab_bench.summarize(runs, SPECS)["w"]
    assert s["failed"] == {"parent": 0, "change": 2}      # one failed operation, one run lost
    work = s["metrics"]["work_s"]
    assert work["parent"] == {"median": 11.5, "q1": 10.75, "q3": 12.25, "n": 4}
    assert work["change"]["median"] == 6.5
    assert (work["won"], work["pairs"]) == (3, 4)
    assert work["verdict"] == "unresolved"     # change quartiles 5.75..9.25: 30% of 11.5
    acc = s["metrics"]["accuracy"]
    assert (acc["won"], acc["verdict"]) == (1, "within bound")
    text = ab_bench.format_summary({"w": s})
    assert "won 3/4" in text and "change 2" in text


def test_verdicts():
    def spread(median, q1, q3):
        return {"median": median, "q1": q1, "q3": q3, "n": 10}
    v = ab_bench._verdict
    assert v(spread(90, 89, 91), spread(66, 65, 67), -0.27, 10, 10, True, 0.1) == "gain"
    assert v(spread(90, 89, 91), spread(66, 65, 67), -0.27, 8, 10, True, 0.1) == "better"
    assert v(spread(10, 9, 11), spread(10.5, 9, 12), 0.05, 3, 10, False, 0.1) == "unresolved"
    assert v(spread(10, 9.9, 10.1), spread(12, 11.9, 12.1), 0.2, 0, 10, False, 0.1) == "regressed"
    assert v(spread(10, 9.9, 10.1), spread(10.2, 10.1, 10.3), 0.02, 2, 10, False, 0.1) \
        == "within bound"
