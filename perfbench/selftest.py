"""Tests of the benchmark itself: the tracer changes nothing it touches.

    python3 perfbench/selftest.py [workload ...]     # default: all three
    python3 -m pytest perfbench/selftest.py

For each workload, one untraced and one traced pass at the default seed must
give identical outputs, identical ``error_rate`` and the recorded reference
values, and removing the tracer must restore every attribute it replaced in
the coherentrx modules and on ``PchipInterpolator``.  The file is not named
``test_*.py`` so that the repository's own test run does not collect it; the
three passes take about a minute.
"""

import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import machine  # noqa: E402

machine.cap_threads()

from scipy.interpolate import PchipInterpolator  # noqa: E402

import workloads  # noqa: E402
from run import one_pass  # noqa: E402
from tracer import Tracer  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")


def _bindings() -> dict:
    """Every attribute of every coherentrx module and of PchipInterpolator."""
    out = {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "coherentrx" or name.startswith("coherentrx.")
        for attr, value in vars(mod).items()
    }
    out.update({("PchipInterpolator", attr): value for attr, value in vars(PchipInterpolator).items()})
    return out


def _changed(before: dict, after: dict) -> list:
    keys = before.keys() | after.keys()
    return sorted(k for k in keys if k not in before or k not in after or before[k] is not after[k])


def _reference(name: str) -> dict:
    import json

    with open(REFERENCE) as fh:
        return json.load(fh)["workloads"][name]


def check_workload(name: str) -> None:
    w = workloads.WORKLOADS[name]
    seed = workloads.DEFAULT_SEED
    inputs, reference = w.inputs(seed), _reference(name)
    with tempfile.TemporaryDirectory() as workdir:
        _, plain = one_pass(w, inputs, seed, reference, workdir)
        before = _bindings()
        tracer = Tracer()
        with tracer:
            assert _changed(before, _bindings()), "the tracer patched nothing"
            _, traced = one_pass(w, inputs, seed, reference, workdir)
        assert not _changed(before, _bindings()), f"not restored: {_changed(before, _bindings())}"
    assert tracer.stats["simulator.exact_distribution"].calls > 0
    for ops in (plain, traced):
        assert all(op.ok for op in ops), [(op.name, op.error, op.problems) for op in ops if not op.ok]
    assert [op.values for op in plain] == [op.values for op in traced]
    assert w.error_rate(plain) == w.error_rate(traced)


def test_bpsk_sweep():
    check_workload("bpsk_sweep")


def test_qam6_pipeline():
    check_workload("qam6_pipeline")


def test_reference_curves():
    check_workload("reference_curves")


if __name__ == "__main__":
    for wl in sys.argv[1:] or list(workloads.WORKLOADS):
        check_workload(wl)
        print(f"{wl}: traced pass matches untraced and reference; tracer fully removed")
