"""Test-session set-up shared by every test module.

``pythonpath`` in ``pyproject.toml`` puts ``src/`` on the test process's
path; the same directory goes on ``PYTHONPATH`` here so that the Python
subprocesses some tests start import the package from the same checkout.
"""

import os
import pathlib

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + _paths)
