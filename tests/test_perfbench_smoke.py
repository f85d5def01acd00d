"""Smoke test of the benchmark harness: one traced pass of each workload.

``perfbench/run.py`` and ``perfbench/spans.py`` are loaded unedited by path.
A pass whose planted-answer check fails, or in which a function the
harness expects to trace records no call, fails here as it would fail the
benchmark run.
"""

import contextlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class StubClock:
    """A speed clock that never samples and scales every time by 1."""

    stolen = 0.0

    @contextlib.contextmanager
    def sampling(self):
        yield

    def scale(self, start, end):
        return 1.0


@pytest.fixture(scope="module")
def harness():
    # the harness modules import each other by bare name
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield load("run"), load("spans")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("workload", ["verify-ladder", "acl-ladder", "toolkit-mix"])
def test_one_traced_pass(harness, workload):
    run, spans = harness
    clock = StubClock()
    bench = run.Run(run._build(workload, 1), clock)
    tracer = spans.Tracer(clock)
    tracer.install()
    try:
        bench.run_pass(tracer)
    finally:
        tracer.uninstall()
    assert bench.failures == []
    tracer.pass_metrics()
    missing = [name for name in run.EXPECTED_CALLS[workload] if name not in tracer.called()]
    assert missing == []
