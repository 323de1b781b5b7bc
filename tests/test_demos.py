"""Every script in demos/ runs to completion against the package sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(script, tmp_path):
    # a throwaway working directory and temp root keep the demos' files out of
    # the tree; a demo must also remove whatever it put in the temp root
    temp_root = tmp_path / "tmp"
    temp_root.mkdir()
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), TMPDIR=str(temp_root))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert not any(temp_root.iterdir()), sorted(p.name for p in temp_root.iterdir())
