"""The demos run to completion against the current API.

Each demo runs in its own interpreter inside a temporary directory, so the
files it writes (demo 01's CSV pair) stay out of the checkout.  Demo 05 is
left out: its 20 ms oracle over a 4000-hour year takes about 90 s.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_dataset_basics.py", "02_feature_selection.py", "03_clustering_comparison.py",
         "04_fast_scan.py"]


@pytest.mark.slow
@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
