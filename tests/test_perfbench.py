"""The benchmark harness wraps chainorder functions by module attribute and
reads attributes of their arguments and results; every one it names must
exist, or each benchmark run crashes."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name: str, as_name: str | None = None):
    """A perfbench module, loaded from its file and registered for the test
    under ``as_name``, by default a name of its own."""
    as_name = as_name or f"perfbench_{name}"
    spec = importlib.util.spec_from_file_location(as_name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, as_name, module)
    spec.loader.exec_module(module)
    return module


def test_tracing_targets_exist(monkeypatch):
    tracing = _load(monkeypatch, "tracing")
    missing = [
        f"{module}.{attr}"
        for _, module, attr, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
    assert tracing.installed_wrappers() == []


@pytest.mark.parametrize("name", ["table-geo", "table-nf", "injection", "oracle"])
def test_traced_tiny_pass_passes_every_check(monkeypatch, name):
    # the counter hooks run on every traced call, so a pass fails a check when
    # one of them reads an attribute the program no longer has
    _load(monkeypatch, "golden", "golden")  # workloads imports it by this name
    tracing, workloads = _load(monkeypatch, "tracing"), _load(monkeypatch, "workloads")
    workload = workloads.build(name, seed=1, size="tiny")
    tracer = tracing.Tracer()
    with tracer.installed():
        res = workload.run_pass()
    assert res.attempted > 0 and res.failed == 0
    assert tracer.names
    assert tracing.installed_wrappers() == []
