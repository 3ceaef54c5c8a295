"""hwsim runs on numpy alone: no import pulls in scipy, and the package
metadata names no other runtime dependency."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hwsim

ROOT = Path(__file__).resolve().parents[1]


def test_importing_the_package_and_cli_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(Path(hwsim.__file__).resolve().parents[1])}
    code = ("import sys, hwsim, hwsim.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    deps = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps] == ["numpy"]
