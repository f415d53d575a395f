"""A run imports only what it uses: neither ``numpy.ma`` (pulled in by
``np.isin``/``np.unique``) nor the sweep's process pool."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
import numpy as np
from asymreplay import cli, stream
assert cli.main(["run", "--num-classes", "4", "--samples-per-class", "20",
                 "--hidden-sizes", "8", "--eval-every", "2"]) == 0
stream.calibrate_variance_scale(np.array([6, 6, 6]), 3, 1.5)
print(sorted(m for m in ("numpy.ma", "concurrent.futures") if m in sys.modules))
"""


def test_run_and_calibration_import_neither_numpy_ma_nor_the_pool(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
