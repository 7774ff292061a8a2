import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name", ["baseline_curves_demo", "bpsk_learning_demo", "noise_robustness_demo", "qam6_learning_demo"]
)
def test_demo_runs_and_tells_its_story(name):
    # run from the repository root, as demos/README.md says
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert proc.stderr == ""
