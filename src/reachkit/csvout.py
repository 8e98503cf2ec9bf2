"""CSV text for the float tables the library renders."""

import numpy as np

__all__ = ["csv_text"]


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
