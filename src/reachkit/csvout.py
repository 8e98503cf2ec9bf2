"""Text renderers for the library's artifacts: CSV for float tables, JSON
for payload dicts.

Both write every float as its repr, so the text is exactly what the
standard csv and json modules would write, only faster. Each renderer
formats all of its floats in one orjson call, whose Ryu algorithm finds
the same shortest round-trip digits as float.__repr__, and _repr_spelling
then respells the few numbers whose notation differs. csv_text lets orjson
write its rows whole, and json_text renders a payload in one template pass
instead of the pure-Python encoder that json.dumps falls back to when it
indents.
"""

import re
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

__all__ = ["csv_text", "json_text"]

# json.dumps's names for the floats whose repr is not JSON
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# Where orjson's spelling of a finite float differs from repr's, in a blob
# whose every number follows a "," and precedes a "," or "]": a positive
# exponent lacks its "+" (1e16), a one-digit negative exponent its leading
# 0 (1e-7), and 1e-5 <= |x| < 1e-4 is written positionally (0.00001234).
# Each replacement is literal text, because CPython 3.11 expands a template
# with a backreference in Python for each match, and each band pattern
# starts with a literal prefix, which the regex engine scans for directly.
_EXPONENT_SIGN = re.compile(rb"e(?=[0-9])")
_EXPONENT_DIGIT = re.compile(rb"e-(?=[0-9][,\]])")
_BANDS = [re.compile(rb"(,)0\.0000([1-9][0-9]*)"), re.compile(rb"(,-)0\.0000([1-9][0-9]*)")]


def _band_repr(match) -> bytes:
    """A band number as repr writes it: ,0.00001234 -> ,1.234e-05."""
    lead, digits = match.group(1, 2)
    point = b"." if len(digits) > 1 else b""
    return lead + digits[:1] + point + digits[1:] + b"e-05"


def _repr_spelling(blob: bytes) -> bytes:
    """blob with each number spelled as float.__repr__ spells it.

    Every number in blob follows a "," and precedes a "," or "]", and the
    only other words there have no digit (true, false, null, nan, inf).
    Text already spelled as repr spells it passes through unchanged.
    """
    blob = _EXPONENT_SIGN.sub(b"e+", blob)
    blob = _EXPONENT_DIGIT.sub(b"e-0", blob)
    for band in _BANDS:
        blob = band.sub(_band_repr, blob)
    return blob


def csv_text(header, values: np.ndarray, flags=None) -> str:
    """Header, then one row per row of values (floats as repr) followed by
    that row's flags (as true/false).

    The text equals csv.writer's in its default dialect: no such field
    needs quoting, and every line ends in \\r\\n.
    """
    import orjson  # imported on first use, so that importing reachkit skips it

    rows = values.tolist()
    # orjson writes nan and +-inf as null, and their reprs as quoted strings
    for i, j in zip(*np.nonzero(~np.isfinite(values))):
        rows[i][j] = repr(rows[i][j])
    if flags is not None:
        rows = [row + mark for row, mark in zip(rows, np.asarray(flags, dtype=bool).tolist())]
    head = ",".join(header) + "\r\n"
    if not rows:
        return head
    # [[a,"nan",true],[c,d,false]] -> ,,a,nan,true],,c,d,false]] -> a,nan,true\r\nc,d,false
    blob = orjson.dumps(rows).replace(b'"', b"").replace(b"[", b",")
    body = _repr_spelling(blob).replace(b"],,", b"\r\n")[2:-2]
    return head + body.decode() + "\r\n"


def json_text(obj) -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) + "\\n", byte for byte.

    obj is JSON-native: dicts with str keys, lists and tuples, str, int,
    float, bool and None. The walk builds one %-template with a %s per
    float, and the floats, gathered into one float64 array, fill it from
    one orjson call (NaN and +-inf as json writes them).
    """
    import orjson  # imported on first use, so that importing reachkit skips it

    floats = []
    template = _template(obj, "\n", floats)
    if not floats:
        return template % () + "\n"
    values = np.hstack(floats)
    # [a,b,c] -> ,a,b,c]
    blob = b"," + orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:]
    texts = _repr_spelling(blob)[1:-1].decode().split(",")
    nonfinite = np.flatnonzero(~np.isfinite(values))
    for i, value in zip(nonfinite.tolist(), values[nonfinite].tolist()):
        texts[i] = _NONFINITE[repr(value)]
    return template % tuple(texts) + "\n"


def _template(obj, newline: str, floats: list) -> str:
    """obj's JSON text with each float a %s, its value appended to floats
    in order (a float table as one array); newline is the line break plus
    the indent of obj's own line."""
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
        floats.append(table.ravel())
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
