"""The benchmark's per-layer tracer still finds every function it wraps.

``perfbench/spans.py`` is loaded by path, unedited: a refactor that deletes,
renames or rebinds a traced function makes ``Tracer.install`` fail here, not
only in a traced benchmark run.
"""

import importlib.util
import sys
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if mod is not None and (name == "ample" or name.startswith("ample."))
            for attr, value in vars(mod).items()}


def test_install_wraps_every_binding_and_uninstall_restores(spans):
    before = _bindings()
    tracer = spans.Tracer(types.SimpleNamespace(stolen=0.0))  # stub clock
    try:
        tracer.install()           # raises if a binding was missed
        tracer.check_bindings()
        wrapped = {key for key, value in _bindings().items() if value is not before[key]}
        assert wrapped
        for mod_name, fns in spans.SPAN_FUNCTIONS.items():
            for fn_name in fns:
                assert (f"ample.{mod_name}", fn_name) in wrapped
        tracer.active = True
        sys.modules["ample.stallings"].build_core([])
        tracer.active = False
        assert tracer.stats["stallings.build_core"][0] == 1
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
