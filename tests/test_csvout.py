import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachkit import cli
from reachkit.csvout import csv_text, json_text

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_matches_csv_writer_on_edge_floats():
    header = ["a", "b", "c", "ok"]
    values = np.array([
        [-0.0, 1e-300, 1e16],
        [123456789012345.0, 0.1, -2.5e-8],
        [1.0 / 3.0, -1e300, 5e-324],
    ])
    flags = [[True], [False], [True]]
    text = csv_text(header, values, flags)
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(header)
    for row, flag in zip(values, flags):
        writer.writerow([repr(float(v)) for v in row] + [str(flag[0]).lower()])
    assert text == want.getvalue()
    assert text.splitlines()[1] == "-0.0,1e-300,1e+16,true"


NUMBERS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf])
STRINGS = st.text(max_size=6) | st.sampled_from(["%", "%s", "100%%", '"', "\n", "é€", "a\\b"])
KEYS = STRINGS | st.sampled_from(["normal", "offset", "vertices"])


def rows(width):
    return st.lists(NUMBERS, min_size=width, max_size=width)


def same_shape_dicts(shapes):
    """Lists of dicts with one key order, each key's values floats (None)
    or float lists of one length."""
    return st.lists(st.fixed_dictionaries(
        {key: NUMBERS if width is None else rows(width) for key, width in shapes.items()}),
        max_size=5)


# lists whose items share one shape, then the near misses that must leave the
# shared-shape path: ints and bools among floats, and rows of mixed kinds
TABLES = (st.lists(NUMBERS, max_size=6)
          | st.integers(0, 3).flatmap(lambda width: st.lists(rows(width), max_size=5))
          | st.dictionaries(KEYS, st.none() | st.integers(0, 3), max_size=3).flatmap(
              same_shape_dicts)
          | st.lists(NUMBERS | st.integers() | st.booleans(), max_size=6)
          | st.lists(st.lists(NUMBERS | st.integers(), min_size=2, max_size=2), max_size=4))
LEAVES = st.none() | st.booleans() | st.integers() | NUMBERS | STRINGS | TABLES
TREES = st.recursive(LEAVES, lambda children: st.lists(children, max_size=4)
                     | st.dictionaries(KEYS, children, max_size=4), max_leaves=24)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(TREES)
def test_json_text_matches_indented_json_dumps(obj):
    assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("obj", [
    [{"b": 1.0, "a": [2.0]}, {"a": [3.0], "b": 4.0}],  # one key set, two key orders
    [{"a": 1.0}, {"a": 2.0, "b": 3.0}],
    [[1.0, 2.0], [3.0]],
    [[], []],
    [{}, {}],
    [{"x": {"y": 1.0, "z": [2.0, -0.0]}}, {"x": {"y": math.nan, "z": [math.inf, 5e-324]}}],
    {"a%": "%s", "é": [None, True, 1, 1.0]},
], ids=["key-orders", "unequal-keys", "ragged", "empty-rows", "empty-dicts", "nested-dicts",
        "percent-and-scalars"])
def test_json_text_container_shapes(obj):
    assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_json_text_rejects_what_json_rejects():
    with pytest.raises(TypeError):
        json_text({"a": np.float32(1.0)})
    with pytest.raises(TypeError):
        json_text({1: 2.0})


CLI_CONFIGS = {path.stem: json.loads(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.json"))}
CLI_CONFIGS["lp_volume_optimize"] = {
    **CLI_CONFIGS["optimize_trace"],
    "task": {**CLI_CONFIGS["optimize_trace"]["task"], "constraint": {"type": "lp_volume"}},
}


@pytest.mark.parametrize("name", list(CLI_CONFIGS))
def test_json_text_renders_every_cli_payload(name, tmp_path, monkeypatch):
    payloads = []

    def recording_json_bytes(obj):
        payloads.append(obj)
        return json_text(obj).encode()

    monkeypatch.setattr(cli, "_json_bytes", recording_json_bytes)
    assert cli.run(CLI_CONFIGS[name], out_dir=str(tmp_path)) == cli.EXIT_OK
    assert len(payloads) >= 2  # the manifest and at least one artifact
    for obj in payloads:
        assert json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"
