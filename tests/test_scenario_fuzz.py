"""Fuzz the CLI with scenario files that break one field of a preset at a time.

Every run must exit 0, or exit 1 with one JSON error object on stderr; no
input may end in a traceback.  Count fields (cycle counts, n_values entries
and length, mc_samples, malus_points, the number of malus_angles_deg and
of input_states, and fig4's n_values entries times analyzer angles) are
capped; each gets one large value within its cap and its cap + 1 instead of
a place in the random pool.
"""

import copy
import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from loopmem.cli import main  # noqa: E402
from loopmem.scenario import (  # noqa: E402
    _COMPONENT_KEYS, _MEMORY_KEYS, _SOURCE_KEYS, _TOP_KEYS, PRESETS, resolve,
)


def _nested(depth: int):
    value = "deep"
    for _ in range(depth):
        value = [value]
    return value


DEEP = _nested(500)
BAD_VALUES = ("abc", "", True, False, None, math.nan, math.inf, -math.inf,
              -1, -0.5, 0, 0.5, 1, 1e300, -1e300, 10**400, -(10**400),
              [], [1, 2], {}, {"bogus": 1}, DEEP)
# a scenario label and an input state's label must be JSON strings
LABEL_FIELDS = {("label",): "label", ("input_states", 1, "label"): "input_states[1].label"}
BAD_LABELS = (7, -2.5, 10**400, None, True, [], ["e"], {"label": "e"}, DEEP)

# the cheap pipelines: small Monte Carlo and three cycle counts in the base
ARGVS = (["simulate"], ["decay"], ["malus"], ["tomo"], ["budget"],
         ["reproduce", "fig2c"], ["reproduce", "fig3"], ["reproduce", "fig4"])


def _base(preset: str, angles: bool) -> dict:
    raw = copy.deepcopy(PRESETS[preset])
    raw.update(mc_samples=20, n_values=[1, 2, 3],
               source={"pair_rate": 2000.0, "detection_eff": 1.0, "acquisition_s": 60.0},
               input_states=["H", {"label": "e", "alpha": [0.8, 0.0], "beta": [0.0, 0.6]}])
    if angles:
        raw["malus_angles_deg"] = [0, 45, 90, 135, 180]
    return raw


def _paths(raw: dict) -> list[tuple]:
    """Every node of raw, an unknown key in every object, and every schema key."""
    paths = [()]

    def walk(node, path):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            paths.append(path + (key,))
            if isinstance(child, (dict, list)):
                walk(child, path + (key,))
        if isinstance(node, dict):
            paths.append(path + ("bogus",))

    walk(raw, ())
    paths += [(k,) for k in sorted(_TOP_KEYS)]
    paths += [("memory", k) for k in sorted(_MEMORY_KEYS)]
    paths += [("source", k) for k in sorted(_SOURCE_KEYS)]
    for i in range(len(raw["memory"].get("inventory", []))):
        paths += [("memory", "inventory", i, k) for k in sorted(_COMPONENT_KEYS)]
    return list(dict.fromkeys(paths))


def _mutate(raw: dict, path: tuple, value):
    if not path:
        return value
    out = copy.deepcopy(raw)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def _run_cli(raw: dict, argv: list[str]) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv + ["--scenario", path, "--out", os.path.join(tmp, "out")])
    return rc, err.getvalue()


@st.composite
def broken_scenarios(draw):
    base = _base(draw(st.sampled_from(sorted(PRESETS))), draw(st.booleans()))
    return _mutate(base, draw(st.sampled_from(_paths(base))), draw(st.sampled_from(BAD_VALUES)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(raw=broken_scenarios(), argv=st.sampled_from(ARGVS))
def test_cli_exits_0_or_reports_json_error(raw, argv):
    rc, err = _run_cli(raw, argv)
    if rc == 0:
        return
    assert rc == 1
    payload = json.loads(err)
    assert isinstance(payload, dict) and {"error", "message"} <= payload.keys()


@pytest.mark.parametrize("path", LABEL_FIELDS)
@pytest.mark.parametrize("value", BAD_LABELS, ids=lambda v: type(v).__name__)
def test_a_label_that_is_not_a_string_is_a_schema_error(path, value):
    raw = _mutate(_base("paper-short", False), path, value)
    rc, err = _run_cli(raw, ["budget"])
    assert rc == 1
    payload = json.loads(err)
    assert payload["error"] == "SchemaError"
    assert payload["field"] == LABEL_FIELDS[path]


# count field -> (cap, pipeline it drives, a large value within the cap)
COUNT_CAPS = {
    "n_values": (10**5, ["simulate"], 10**5),
    "malus_cycles": (10**5, ["malus"], 10**5),
    "tomo_cycles": (10**5, ["tomo"], 10**5),
    "mc_samples": (10**6, ["tomo"], 10**6),
    "malus_points": (10**4, ["malus"], 10**4),
}


def _with_count(field: str, value: int) -> dict:
    raw = _base("paper-short", False)
    raw["input_states"] = ["H"]
    if field == "n_values":
        raw["n_values"] = [1, 2, value]
    else:
        raw[field] = value
    return raw


@pytest.mark.parametrize("field", COUNT_CAPS)
def test_a_count_over_its_cap_is_a_schema_error(field):
    cap, argv, _ = COUNT_CAPS[field]
    resolve(_with_count(field, cap))
    rc, err = _run_cli(_with_count(field, cap + 1), argv)
    assert rc == 1
    payload = json.loads(err)
    assert payload["error"] == "SchemaError"
    assert payload["field"] == ("n_values[2]" if field == "n_values" else field)


@pytest.mark.parametrize("field", COUNT_CAPS)
def test_a_large_count_within_its_cap_runs(field):
    _, argv, large = COUNT_CAPS[field]
    rc, err = _run_cli(_with_count(field, large), argv)
    if rc:  # after 10**5 cycles nothing is retrieved, so there may be no counts to fit
        assert rc == 1 and json.loads(err)["error"] == "NoSignalError"


@pytest.mark.parametrize("length,rc", [(10**3, 0), (10**3 + 1, 1)])
def test_n_values_holds_at_most_a_thousand_entries(length, rc):
    raw = _base("paper-short", False)
    raw.update(input_states=["H"], n_values=list(range(1, length + 1)))
    code, err = _run_cli(raw, ["simulate"])
    assert code == rc, err
    if rc:
        payload = json.loads(err)
        assert payload["error"] == "SchemaError" and payload["field"] == "n_values"


@pytest.mark.parametrize("length,rc", [(10**4, 0), (10**4 + 1, 1)])
def test_malus_angles_deg_holds_at_most_ten_thousand_angles(length, rc):
    raw = _base("paper-short", False)
    angles = [180.0 * i / (length - 1) for i in range(length)]
    raw.update(input_states=["H"], malus_angles_deg=angles)
    code, err = _run_cli(raw, ["malus"])
    assert code == rc, err
    if rc:
        payload = json.loads(err)
        assert payload["error"] == "SchemaError" and payload["field"] == "malus_angles_deg"


# fig4 scans len(n_values) x malus angles fringe settings, at most 10**5
@pytest.mark.parametrize("n_values,rc", [([1, 2, 3, 4, 5, 6, 7, 8, 1, 2], 0),
                                         ([1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3], 1)])
def test_fig4_holds_at_most_a_hundred_thousand_fringe_settings(n_values, rc):
    raw = _base("paper-short", False)
    raw.update(n_values=n_values, malus_points=10**4)
    code, err = _run_cli(raw, ["reproduce", "fig4"])
    assert code == rc, err
    if rc:
        payload = json.loads(err)
        assert payload["error"] == "SchemaError" and payload["field"] == "n_values"


@pytest.mark.parametrize("states,rc", [(["H", "V", "D", "A", "R", "L"], 0),
                                       (["H", "V", "D", "A", "R", "L", "H"], 1)])
def test_input_states_holds_at_most_six_states(states, rc):
    raw = _base("paper-short", False)
    raw.update(input_states=states)
    code, err = _run_cli(raw, ["malus"])
    assert code == rc, err
    if rc:
        payload = json.loads(err)
        assert payload["error"] == "SchemaError" and payload["field"] == "input_states"
