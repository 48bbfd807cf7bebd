"""Every script in demos/, and the README's library quickstart, runs to
completion against the library in src/.

The demos and the quickstart import public names only, so this catches a
renamed or removed public name, or a changed signature, that no unit test
imports or calls.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _readme_quickstart() -> str:
    # the ```python block under "## Library quickstart" in README.md
    section = (ROOT / "README.md").read_text().split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


# interpreter arguments per case: each demo script, then the quickstart
CASES = {p.name: [str(p)] for p in DEMOS} | {"README-quickstart": ["-c", _readme_quickstart()]}


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("args", list(CASES.values()), ids=list(CASES))
def test_demo_runs(args):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
