"""CSV text for the float tables the library writes."""

import numpy as np

__all__ = ["write_csv"]


def write_csv(path_or_file, header, values: np.ndarray, flags=None) -> None:
    """Write header, then one row per row of values (floats as repr)
    followed by that row's flags (as true/false).

    The bytes equal csv.writer's in its default dialect: no such field
    needs quoting, and every line ends in \\r\\n.
    """
    rows = [",".join(map(repr, row)) for row in values.tolist()]
    if flags is not None:
        marks = np.where(flags, "true", "false").tolist()
        rows = [",".join([row, *mark]) for row, mark in zip(rows, marks)]
    text = "".join(line + "\r\n" for line in [",".join(header), *rows])
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w", newline="") as fh:
            fh.write(text)
