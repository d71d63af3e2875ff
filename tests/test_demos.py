import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    # a process: each demo is a script, run as a user runs it
    res = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
