"""Text renderers for the library's artifacts: CSV for float tables, JSON
for payload dicts.

Both write every float as its repr, so the text is exactly what the
standard csv and json modules would write, only faster: csv_text joins
the rows of an array, and json_text renders a payload in one template
pass instead of the pure-Python encoder that json.dumps falls back to
when it indents.
"""

from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

__all__ = ["csv_text", "json_text"]

# json.dumps's names for the floats whose repr is not JSON
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def csv_text(header, values: np.ndarray, flags=None) -> str:
    """Header, then one row per row of values (floats as repr) followed by
    that row's flags (as true/false).

    The text equals csv.writer's in its default dialect: no such field
    needs quoting, and every line ends in \\r\\n.
    """
    rows = [",".join(map(repr, row)) for row in values.tolist()]
    if flags is not None:
        marks = np.where(flags, "true", "false").tolist()
        rows = [",".join([row, *mark]) for row, mark in zip(rows, marks)]
    return "".join(line + "\r\n" for line in [",".join(header), *rows])


def json_text(obj) -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) + "\\n", byte for byte.

    obj is JSON-native: dicts with str keys, lists and tuples, str, int,
    float, bool and None. The walk builds one %-template with a %s per
    float, and the floats fill it in one pass through float.__repr__
    (NaN and +-inf as json writes them).
    """
    floats = []
    template = _template(obj, "\n", floats)
    texts = list(map(float.__repr__, floats))
    if not _NONFINITE.keys().isdisjoint(texts):
        texts = [_NONFINITE.get(text, text) for text in texts]
    return template % tuple(texts) + "\n"


def _template(obj, newline: str, floats: list) -> str:
    """obj's JSON text with each float a %s, appended to floats in order;
    newline is the line break plus the indent of obj's own line."""
    if isinstance(obj, str):
        return _quoted(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        floats.append(obj)
        return "%s"
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_quoted(key) + ": " + _template(value, inner, floats)
                 for key, value in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if not isinstance(obj, (list, tuple)):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not obj:
        return "[]"
    table = _float_table(obj)
    if table is None:
        items = [_template(item, inner, floats) for item in obj]
    else:
        # every item renders as the first does, so its template repeats
        floats.extend(table.ravel().tolist())
        items = [_template(obj[0], inner, [])] * len(obj)
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _quoted(text: str) -> str:
    """A JSON string literal (ASCII, as json writes it) escaped for %; a
    non-str raises TypeError."""
    return encode_basestring_ascii(text).replace("%", "%%")


def _float_table(items) -> np.ndarray | None:
    """The floats of a list whose items share one shape, one row per item
    in render order, or None. The shapes are: floats, float lists of one
    length, and dicts with one key order whose values at each key share
    one of these shapes."""
    kinds = set(map(type, items))
    if kinds == {float}:
        return np.array(items)
    if (kinds == {list} and len(set(map(len, items))) == 1
            and set(map(type, chain.from_iterable(items))) == {float}):
        return np.array(items)
    if kinds == {dict} and items[0] and len(set(map(tuple, items))) == 1:
        columns = [_float_table(list(map(itemgetter(key), items))) for key in sorted(items[0])]
        if all(column is not None for column in columns):
            return np.column_stack(columns)
    return None
