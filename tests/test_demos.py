"""Each narrative script under demos/, and the README's library tour, runs
to completion against src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW = {"06_end_to_end_simulation.py"}  # about 7 s; the others take about a second


def test_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", [
    pytest.param(path, id=path.name, marks=[pytest.mark.slow] if path.name in SLOW else [])
    for path in DEMOS
])
def test_demo_runs(demo, tmp_path):
    _run([str(demo)], tmp_path)


def test_readme_library_tour_runs(tmp_path):
    # the first python block under "## Library tour"; about 3 s
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("\n## Library tour\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    _run(["-c", tour], tmp_path)


def _run(args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
