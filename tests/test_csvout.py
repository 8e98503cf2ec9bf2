import csv
import io
import json
import math
from itertools import zip_longest
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachkit import cli
from reachkit.csvout import _repr_spelling, csv_text, json_text

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


def spelling_sweep() -> np.ndarray:
    """Floats at every place where a spelling of repr's could change: a
    few mantissas at each binary exponent, both signs; the neighbours of
    the decimal exponents where repr switches notation; and the edges."""
    mantissas = [1.0, 1.1, 1.2345678901234567, 1.5, 1.9999999999999998]
    powers = np.ldexp(np.array(mantissas)[:, None], np.arange(-1074, 1024)).ravel()
    neighbours = []
    for edge in (1e-5, 1e-4, 1e16):
        up = down = np.float64(edge)
        for _ in range(8):
            neighbours += [up, down]
            up, down = np.nextafter(up, math.inf), np.nextafter(down, 0.0)
    decimals = [m * 10.0**e for e in range(-12, 19) for m in (1.0, 1.5, 2.5e-1, 9.99)]
    edges = [9999999999999998.0, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
             math.nan, math.inf, -math.inf]
    values = np.concatenate([powers, neighbours, decimals, edges])
    return np.concatenate([values, -values])


def first_difference(got: str, want: str):
    """The first line where got and want differ, as a (got, want) pair, or
    None: a failure then prints two lines, not a diff of the whole text."""
    for pair in zip_longest(got.splitlines(True), want.splitlines(True)):
        if pair[0] != pair[1]:
            return pair
    return None


def test_spelling_sweep_matches_repr():
    # orjson spells exponents and 1e-5 <= |x| < 1e-4 unlike repr; every
    # such float, at the start, inside and at the end of a row, and as a
    # JSON table cell or a lone float, must come out as repr spells it
    values = spelling_sweep()
    for width in (1, 3):
        table = values[: len(values) // width * width].reshape(-1, width)
        flags = np.arange(2 * len(table)).reshape(-1, 2) % 3 == 0
        header = [f"c{i}" for i in range(width)]
        for marks in (None, flags):
            want = io.StringIO()
            writer = csv.writer(want)
            writer.writerow(header + ([] if marks is None else ["f", "g"]))
            for i, row in enumerate(table.tolist()):
                tail = [] if marks is None else [str(m).lower() for m in marks[i].tolist()]
                writer.writerow([repr(v) for v in row] + tail)
            got = csv_text(header + ([] if marks is None else ["f", "g"]), table, marks)
            assert first_difference(got, want.getvalue()) is None
    obj = {"table": values[: len(values) // 3 * 3].reshape(-1, 3).tolist(),
           "lone": [[v] if i % 2 else v for i, v in enumerate(values.tolist())]}
    got = json_text(obj)
    assert first_difference(got, json.dumps(obj, indent=2, sort_keys=True) + "\n") is None


def test_repr_spelled_numbers_pass_through():
    # an orjson that already spelled floats as repr does would be left alone
    values = spelling_sweep()
    blob = b"," + ",".join(map(repr, values[np.isfinite(values)].tolist())).encode() + b"]"
    assert _repr_spelling(blob) == blob


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
