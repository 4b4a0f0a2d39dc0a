import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
_spec = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

BETTER = {"ops_per_s": "higher", "op_s_p50": "lower", "ops_ok_share": "higher"}


def _line(ops_per_s, p50, correct=True, failed=0):
    """A result line as bench/run.py prints it last, after its metric table."""
    metrics = {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
               "op_s_p50": {"value": p50, "unit": "s"},
               "ops_ok_share": {"value": 1.0 - failed / 100, "unit": "ratio"}}
    return json.dumps({"correct": correct, "attempted": 100, "failed": failed,
                       "metrics": metrics})


def _run(line, returncode=0, stderr=""):
    return ab_bench.parse_run(returncode, f"ops_per_s   184.4 1/s\n{line}\n", stderr)


def test_summary_gives_medians_wins_and_no_bad_runs():
    pairs = [(_run(_line(180.0, 0.0052)), _run(_line(200.0, 0.0048))),
             (_run(_line(190.0, 0.0050)), _run(_line(185.0, 0.0047))),
             (_run(_line(184.0, 0.0051)), _run(_line(199.0, 0.0051)))]
    text, ok = ab_bench.summarize(pairs, BETTER)
    assert ok
    rows = {line.split()[0]: line.split() for line in text.splitlines()[2:-1]}
    # medians 184 and 199, parent quartiles 182 and 187; the change led
    # ops_per_s in pairs 1 and 3
    assert rows["ops_per_s"][2:] == ["184", "5", "199", "+8.2%", "2/3"]
    # a tie (pair 3) is not a win; lower is better
    assert rows["op_s_p50"][2:] == ["0.0051", "0.0001", "0.0048", "-5.9%", "2/3"]
    assert rows["ops_ok_share"][-1] == "0/3"
    assert text.splitlines()[-1] == "runs not correct: 0"


def test_summary_lists_every_run_that_was_not_correct():
    pairs = [(_run(_line(180.0, 0.005)), _run(_line(200.0, 0.004, correct=False, failed=3))),
             (_run("Traceback (most recent call last):", 1, "ImportError: no numpy"),
              _run(_line(195.0, 0.004)))]
    text, ok = ab_bench.summarize(pairs, BETTER)
    assert not ok
    assert text.splitlines()[-3:] == ["runs not correct: 2",
                                      "  pair 1 change: 3 of 100 ops failed",
                                      "  pair 2 parent: exit 1: ImportError: no numpy"]
    # a metric missing from a failed run is left out of the table
    assert "ops_per_s" not in text.split("runs not correct")[0]


def test_a_run_without_a_result_line_fails():
    assert _run("not json")["correct"] is False
    assert ab_bench.parse_run(0, "", "")["error"] == "exit 0: "
    assert ab_bench.parse_run(2, _line(1.0, 1.0), "bench: unknown workload")["correct"] is False
