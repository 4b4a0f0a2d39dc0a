import importlib.util
import json
import math
from pathlib import Path

import pytest

import loopmem.counting
from loopmem import scenario
from loopmem.engine import simulate_sweep
from loopmem.scenario import PRESETS, resolve

_ROOT = Path(__file__).resolve().parents[1]
_PATH = _ROOT / "tools" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _write(root: Path, rel: str, content) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content if isinstance(content, str) else json.dumps(content))


def _trees(tmp_path, parent_files, change_files):
    for side, files in (("parent", parent_files), ("change", change_files)):
        for rel, content in files.items():
            _write(tmp_path / side, rel, content)
    return compare_outputs.compare(tmp_path / "parent", tmp_path / "change")


def test_identical_trees_differ_only_in_generated_at(tmp_path):
    doc = {"metadata": {"generated_at": "then", "seed": 0},
           "fit": {"v": 0.5, "rho": [1.0, math.nan]}}
    report = _trees(tmp_path, {"p/seed0/tomo/a.csv": "x\n1\n", "p/seed0/tomo/a.json": doc},
                    {"p/seed0/tomo/a.csv": "x\n1\n",
                     "p/seed0/tomo/a.json": dict(doc, metadata={"generated_at": "now", "seed": 0})})
    assert (report["csv_compared"], report["csv_differ"]) == (1, [])
    assert report["values_compared"] == 4  # seed, v and both rho entries; NaN equals NaN
    assert not report["value_diffs"] and not report["only_parent"] and not report["only_change"]


def test_differences_are_grouped_by_file_and_key(tmp_path):
    parent = {"p/seed0/tomo/t.json": {"r": {"f": 1.0, "ok": True, "old": 1}},
              "p/seed1/tomo/t.json": {"r": {"f": 2.0, "ok": True, "old": 1}},
              "p/seed0/tomo/t.csv": "a\n", "p/seed0/tomo/gone.csv": "a\n"}
    change = {"p/seed0/tomo/t.json": {"r": {"f": 1.5, "ok": True, "new": 1}},
              "p/seed1/tomo/t.json": {"r": {"f": 2.0, "ok": 1, "new": 1}},
              "p/seed0/tomo/t.csv": "b\n"}
    report = _trees(tmp_path, parent, change)
    assert report["csv_differ"] == ["p/seed0/tomo/gone.csv", "p/seed0/tomo/t.csv"]
    assert report["value_diffs"]["t.json r.f"] == [(pytest.approx(1 / 3), "p/seed0/tomo/t.json")]
    assert report["value_diffs"]["t.json r.ok"] == [(math.inf, "p/seed1/tomo/t.json")]  # True != 1
    assert report["only_parent"] == {"t.json r.old": 2}
    assert report["only_change"] == {"t.json r.new": 2}
    text = compare_outputs.format_report(report, "PARENT", "CHANGE")
    assert "CSV files: 2 compared, 2 differ" in text
    assert "t.json r.f: 1 runs, largest relative change 0.333 (p/seed0/tomo/t.json)" in text
    assert "JSON keys only in CHANGE: 1\n  t.json r.new: 2 runs" in text


def test_each_trees_package_line_count_is_reported(tmp_path):
    _write(tmp_path / "parent", "src/loopmem/a.py", "x = 1\ny = 2\n")
    _write(tmp_path / "parent", "src/loopmem/b.py", "z = 3")  # no final newline, as wc -l counts
    _write(tmp_path / "parent", "src/loopmem/sub/c.py", "\n" * 50)  # not in src/loopmem/*.py
    _write(tmp_path / "parent", "src/loopmem/notes.txt", "\n" * 50)
    _write(tmp_path / "change", "src/loopmem/a.py", "x = 1\n")
    parent, change = str(tmp_path / "parent"), str(tmp_path / "change")
    assert compare_outputs.package_lines(parent) == 2
    assert compare_outputs.format_line_counts(parent, change) == (
        f"Lines of src/loopmem/*.py: 2 in {parent}, 1 in {change} (-1)")


@pytest.mark.parametrize("argv", [[], ["a"], ["a", "b", "c"], ["--help", "b"]])
def test_the_command_takes_exactly_two_roots(argv, capsys):
    assert compare_outputs.main(argv) == 2
    assert capsys.readouterr().err.strip() == compare_outputs.USAGE


def _leaked_events(raw) -> tuple[int, int]:
    """(exits besides the retrieved one, tail exits) over every state and N of a scenario."""
    sc = resolve(raw)
    outcomes = [out for _, state in sc.input_states
                for out in simulate_sweep(sc.config, state, sc.n_values)]
    return sum(len(out.exits) - 1 for out in outcomes), sum(out.tail is not None for out in outcomes)


def test_the_leaking_runs_list_events_that_no_preset_lists():
    assert all(_leaked_events({"preset": preset}) == (0, 0) for preset in PRESETS)
    leaked = []
    for name, raw, subs in compare_outputs.LEAKING_RUNS:
        if isinstance(raw, str):
            raw = json.loads((_ROOT / raw).read_text("utf-8"))
        assert "simulate" in subs and name not in PRESETS
        leaked.append(_leaked_events(raw))
    assert all(exits > 0 for exits, _ in leaked)
    assert any(tails > 0 for _, tails in leaked)


def test_the_wide_seed_runs_every_pipeline_that_draws_counts(monkeypatch, tmp_path):
    drew = set()
    draw_counts = loopmem.counting.draw_counts

    def draw(jobs):
        drew.add(run)
        return draw_counts(jobs)

    monkeypatch.setattr(loopmem.counting, "draw_counts", draw)
    sc = resolve({"preset": "paper-short", "mc_samples": 40})
    runs = [(sub, None) for sub in scenario.PIPELINES if sub != "reproduce"]
    for run in runs + [("reproduce", fig) for fig in scenario.FIGURES]:
        scenario.run(sc, run[0], str(tmp_path / "-".join(filter(None, run))), figure=run[1])
    assert drew == set(compare_outputs.COUNT_RUNS)
    assert compare_outputs.WIDE_SEED > 2**32
