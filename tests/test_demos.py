import os
import pathlib
import subprocess
import sys

import pytest

import sepham

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SRC = pathlib.Path(sepham.__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["explicit_crossing_family.py", "cycle_kernels_and_walecki.py"])
def test_demo_runs(name):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        capture_output=True, text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr


def test_slow_demo_compiles():
    # running it proves R(6), which takes several seconds
    path = DEMOS / "permutation_anatomy.py"
    compile(path.read_text(), str(path), "exec")
