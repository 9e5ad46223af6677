"""The benchmark's tracer patches named entry points of ``edgefuse`` (and the
``from ... import`` aliases other modules hold). A rename or a dropped alias
breaks a traced bench run; this check fails on it without running the bench."""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer():
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module("tracer")


def _bindings(tracer, span):
    """(holder, attribute) of every place the span's wrapper is installed."""
    holder, attr = tracer._owner(span.name)
    return [(holder, attr)] + [(importlib.import_module(f"edgefuse.{m}"), attr) for m in span.also]


def test_every_span_installs_and_uninstall_restores():
    tracer = _tracer()
    spans = tracer.SPANS
    before = {(span.name, i): getattr(h, a)
              for span in spans for i, (h, a) in enumerate(_bindings(tracer, span))}
    t = tracer.Tracer()
    t.install()
    try:
        for span in spans:
            for i, (holder, attr) in enumerate(_bindings(tracer, span)):
                patched = getattr(holder, attr)
                assert patched is not before[span.name, i], f"{span.name} not patched"
                assert patched.__wrapped__ is before[span.name, i], span.name
    finally:
        t.uninstall()
    for span in spans:
        for i, (holder, attr) in enumerate(_bindings(tracer, span)):
            assert getattr(holder, attr) is before[span.name, i], f"{span.name} not restored"
