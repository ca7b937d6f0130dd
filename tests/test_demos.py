"""Every demo runs to completion and prints no NaN.

Each demo runs in a fresh process against this checkout's ``src``, so a
change that breaks a demo's imports or its numbers fails here.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    # an empty glob would parametrize no case and pass silently
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_clean(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert not re.search(r"\bnan\b", result.stdout + result.stderr, re.IGNORECASE)
