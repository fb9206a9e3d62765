"""Smoke test: every driver in scripts/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "name, args",
    [
        ("realize_colors.py", ["--seed", "5"]),
        ("steer_copy.py", ["--copies", "3"]),
        ("oscillation_demo.py", []),
        ("oscillation_demo.py", ["--collapse", "3"]),
        ("oscillation_demo.py", ["--table"]),
    ],
    ids=["realize", "steer", "oscillation", "oscillation-collapse", "oscillation-table"],
)
def test_script_exits_0(name, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    if "--table" in args:
        assert "labels achieved: (1, 3)" in out.stdout
        assert "heuristic" not in out.stdout
