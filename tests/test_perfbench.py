"""The benchmark harness wraps chainorder functions by module attribute; every
attribute it names must exist, or each benchmark run crashes."""

import importlib
import importlib.util
from pathlib import Path


def test_tracing_targets_exist():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for _, module, attr, _ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
    assert tracing.installed_wrappers() == []
