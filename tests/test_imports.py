import os
import subprocess
import sys
from pathlib import Path

import reachkit


def test_cli_import_loads_no_scipy_stats():
    # scipy.stats alone adds about 170 modules to the cold start of every CLI run
    code = ("import sys, reachkit, reachkit.cli; "
            "print([m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']])")
    src = str(Path(reachkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"
