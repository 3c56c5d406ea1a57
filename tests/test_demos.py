"""The demos run end to end against the public API.

Demo 02 is left out: it needs the WBCD data file.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["01_interpolation", "03_channel_effects",
                                  "04_online_tracking", "05_file_formats"])
def test_demo_exits_0(tmp_path, demo):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, TMPDIR=str(tmpdir))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert not list(tmpdir.iterdir()), "the demo left files in its TMPDIR"
