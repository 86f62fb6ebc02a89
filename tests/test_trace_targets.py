"""The traced benchmark run finds every function it wraps in the package.

``perfbench/tracing.py`` wraps named functions and methods of passivebeam; a
target the package no longer has is skipped and its per-layer metrics read
null. This reads the harness without changing it.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracing").Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == {}
