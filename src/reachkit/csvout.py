"""Text renderers for the library's artifacts, CSV and JSON: exactly what
the csv and json modules write for the float tables as lists, only faster.
Each table's floats come from one orjson call on its float64 array. Its
Ryu digits are repr's, and a vectorised test finds the floats whose
notation differs (1e-9 <= |x| < 1e-4, |x| >= 1e16, NaN, +-inf) to respell.
"""

import math
from json.encoder import encode_basestring_ascii

import numpy as np

__all__ = ["csv_text", "json_text"]

# json.dumps's names for the floats whose repr is not JSON
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _band(run: bytes) -> bytes:
    """1e-5 <= |x| < 1e-4 as repr writes it: 0.0000123 -> 1.23e-05."""
    for digit in b"123456789":
        run = run.replace(b"0.0000%c" % digit, b"%c." % digit)
    return (run.replace(b",", b"e-05,") + b"e-05").replace(b".e", b"e")


# where orjson's notation of a finite float differs from repr's, as ranges
# [low, high) of |x|, each with its fix to orjson's text of a run of them
_RESPELL = [(1e-9, 1e-5, lambda run: run.replace(b"e-", b"e-0")),  # 1e-7 -> 1e-07
            (1e-5, 1e-4, _band),
            (1e16, math.inf, lambda run: run.replace(b"e", b"e+"))]  # 1e16 -> 1e+16


def _dumps(values: np.ndarray, names: dict) -> bytes:
    """orjson.dumps(values), each float spelled as repr spells it and NaN
    and +-inf as names renames their reprs."""
    import orjson  # imported on first use, so that importing reachkit skips it

    values = np.ascontiguousarray(values)  # as orjson takes it, and np.where keeps
    size = np.abs(values)
    odd = ~((size < 1e16) & ((size >= 1e-4) | (size < 1e-9)))  # NaN too
    if not odd.any():
        return orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    # orjson writes each odd float, made NaN, as null; the odd floats'
    # own texts then fill those holes in order
    holes = orjson.dumps(np.where(odd, np.nan, values), option=orjson.OPT_SERIALIZE_NUMPY)
    values, size = values[odd], size[odd]
    texts = np.empty(len(values), dtype=object)
    nonfinite = ~np.isfinite(values)
    texts[nonfinite] = [names.get(text, text).encode()
                        for text in map(repr, values[nonfinite].tolist())]
    for low, high, fix in _RESPELL:
        members = (low <= size) & (size < high)
        if members.any():
            run = orjson.dumps(values[members], option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
            texts[members] = fix(run).split(b",")
    pieces = holes.split(b"null")
    spelled = pieces + pieces[1:]
    spelled[::2] = pieces
    spelled[1::2] = texts.tolist()
    return b"".join(spelled)


def csv_text(header, values: np.ndarray, flags=None) -> str:
    """Header, then one row per row of the 2-D float array values (floats
    as repr) followed by that row's flags (as true/false): csv.writer's
    text in its default dialect, as no such field needs quoting."""
    head = (",".join(header) + "\r\n").encode()
    if not len(values):
        return head.decode()
    blob = _dumps(values, {})  # [[a,b],[c,d]]
    if flags is None:
        return b"".join((head, memoryview(blob.replace(b"],[", b"\r\n"))[2:-2], b"\r\n")).decode()
    # each row's flags as one binary code, looked up among every code's text
    flags = np.asarray(flags, dtype=bool)
    bits = range(flags.shape[1] - 1, -1, -1)
    lead = b"," if values.shape[1] and flags.shape[1] else b""
    marks = [lead + b",".join(b"true" if code >> bit & 1 else b"false" for bit in bits) + b"\r\n"
             for code in range(1 << flags.shape[1])]
    rows = blob[2:-2].split(b"],[")
    lines = [head] * (2 * len(rows) + 1)
    lines[1::2] = rows
    lines[2::2] = map(marks.__getitem__, (flags @ (1 << np.array(bits, dtype=np.int64))).tolist())
    return b"".join(lines).decode()


def json_text(obj) -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) + "\\n" writes it
    with its arrays as lists, byte for byte, joined once from small chunks.
    obj is JSON-native (dicts with str keys, lists and tuples, str, int,
    float, bool and None) but for float64 arrays: of any shape, or record
    arrays of float64 fields, which render as lists of objects."""
    chunks = []
    _json(obj, "\n", chunks)
    chunks.append("\n")
    return "".join(chunks)


def _json(obj, newline: str, chunks: list) -> None:
    """Append obj's JSON text to chunks; newline is the line break plus
    the indent of obj's own line."""
    inner = newline + "  "
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):  # the most common leaf
        text = (int.__repr__ if isinstance(obj, int) else float.__repr__)(obj)
        chunks.append(_NONFINITE.get(text, text))
    elif isinstance(obj, str):
        chunks.append(encode_basestring_ascii(obj))
    elif obj is None or isinstance(obj, bool):
        chunks.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, np.ndarray):
        _table(obj, newline, chunks)
    elif isinstance(obj, dict) and obj:
        for i, (key, value) in enumerate(sorted(obj.items())):
            chunks += ("," if i else "{", inner, encode_basestring_ascii(key), ": ")
            _json(value, inner, chunks)
        chunks += (newline, "}")
    elif isinstance(obj, (list, tuple)) and obj:
        for i, item in enumerate(obj):
            chunks += ("," if i else "[", inner)
            _json(item, inner, chunks)
        chunks += (newline, "]")
    elif isinstance(obj, (dict, list, tuple)):
        chunks.append("{}" if isinstance(obj, dict) else "[]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _table(array: np.ndarray, newline: str, chunks: list) -> None:
    """Append a float64 array's JSON text to chunks, a record array's as a
    list of objects. Its items share one layout, with a NUL per float."""
    names = sorted(array.dtype.names or ())
    kinds = [array.dtype[name].base for name in names] or [array.dtype]
    if any(kind != np.float64 for kind in kinds):
        raise TypeError(f"Object of type ndarray ({array.dtype}) is not JSON serializable")
    if not array.ndim:
        return _json(float(array), newline, chunks)
    inner, field = newline + "  ", newline + "    "
    item = _layout(array.shape[1:], inner)
    if names:
        item = "{" + field + ("," + field).join(
            encode_basestring_ascii(name) + ": " + _layout(array.dtype[name].shape, field)
            for name in names) + inner + "}"
        fields = np.asarray(array)  # field lookups skip np.recarray's Python layer
        array = np.hstack([fields[name].reshape(len(array), math.prod(array.dtype[name].shape))
                           for name in names])
    if not array.size:
        return chunks.append(_layout(array.shape[:1], newline, item))
    # the text around each float, in order: between items, the end of one
    # item and the start of the next
    parts = item.split("\0")
    seps = ([parts[-1] + "," + inner + parts[0]] + parts[1:-1]) * len(array)
    seps[0] = "[" + inner + parts[0]
    spliced = seps * 2 + [parts[-1] + newline + "]"]
    spliced[0:-1:2] = seps
    spliced[1::2] = str(memoryview(_dumps(array.ravel(), _NONFINITE))[1:-1], "ascii").split(",")
    chunks += spliced


def _layout(shape: tuple, newline: str, leaf: str = "\0") -> str:
    """The JSON text of an array of this shape with leaf for each float."""
    if not shape:
        return leaf
    inner = newline + "  "
    items = [_layout(shape[1:], inner, leaf)] * shape[0]
    return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
