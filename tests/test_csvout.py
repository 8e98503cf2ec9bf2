import csv
import io

import numpy as np

from reachkit.csvout import csv_text


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
