"""The demos that need no training run to completion.

Demos 01 and 04 each train a model (several seconds), so they are run by
hand; these two take a fraction of a second and catch a renamed or removed
name that a demo still imports.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", ["02_synthesize_parsers.py", "03_iterative_and_clauses.py"])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
