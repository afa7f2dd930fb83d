"""The benchmark's tracer wraps package callables by name; every one of
them must still be where ``bench/worker.trace_targets`` looks it up, or
``bench/run.py --trace 1`` stops working."""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_trace_target_is_there(monkeypatch):
    monkeypatch.chdir(ROOT)  # the worker measures the checkout it starts in
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spans = importlib.import_module("spans")
    worker = importlib.import_module("worker")
    with spans.Tracer().installed(worker.trace_targets()):
        pass
