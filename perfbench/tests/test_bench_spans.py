"""Span nesting, self time and wrapper installation of the traced run."""

import importlib
import time

import pytest

import spans
import workloads
import worker


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: _busy(0.02), "complexes.resolve_bounded")

    def outer_fn():
        _busy(0.01)
        inner()
        inner()

    outer = tracer.wrap(outer_fn, "session.execute")
    t0 = time.perf_counter()
    outer()
    wall = time.perf_counter() - t0
    m = tracer.metrics()
    assert m["session.execute.calls"] == 1
    assert m["complexes.resolve_bounded.calls"] == 2
    assert m["complexes.resolve_bounded.self_s"] >= 0.04
    assert 0.01 <= m["session.execute.self_s"] < 0.02
    total_self = m["session.execute.self_s"] + m["complexes.resolve_bounded.self_s"]
    assert total_self == pytest.approx(tracer.spanned_ns() / 1e9)
    assert total_self <= wall


def test_resolution_hit_ratio_counts_calls_without_a_resolve_child():
    tracer = spans.Tracer()
    resolve = tracer.wrap(lambda: None, "complexes.resolve_bounded")
    local = tracer.wrap(lambda miss: resolve() if miss else None,
                        "modules.local_minimal_resolution")
    for miss in (True, False, False, False):
        local(miss)
    assert tracer.metrics()["modules.resolution_hit_ratio"] == 0.75


def test_span_closes_when_the_call_raises():
    tracer = spans.Tracer()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap(fail, "engine.syzygies")()
    assert len(tracer.stack) == 1
    assert tracer.metrics()["engine.syzygies.calls"] == 1


def test_installation_replaces_every_binding_and_restores_them():
    session = importlib.import_module("aggraded.session")
    complexes = importlib.import_module("aggraded.complexes")
    modules = importlib.import_module("aggraded.modules")
    rings = importlib.import_module("aggraded.rings")
    original_sb = importlib.import_module("aggraded.engine").standard_basis
    original_nf = rings._QuotientOps.nf
    original_execute = session.execute
    with spans.installed(spans.Tracer()):
        # copies made by "from .engine import standard_basis" are wrapped too
        assert modules.standard_basis is not original_sb
        assert rings.standard_basis is modules.standard_basis
        assert complexes.resolve_bounded is modules.resolve_bounded
        assert session.execute.__wrapped__ is original_execute
        assert rings.LocalRing.nf is rings._QuotientOps.nf is not original_nf
    assert modules.standard_basis is original_sb
    assert rings._QuotientOps.nf is original_nf
    assert session.execute is original_execute


def test_installation_fails_loudly_on_a_binding_it_cannot_replace(monkeypatch):
    class Frozen:
        __name__ = "frozen"

        def __setattr__(self, key, value):
            pass

    frozen = Frozen()
    engine = importlib.import_module("aggraded.engine")
    original = engine.syzygies
    real_bindings = spans._bindings

    def bindings(mods):
        yield from real_bindings(mods)
        yield frozen, "syzygies", original

    monkeypatch.setattr(spans, "_bindings", bindings)
    with pytest.raises(RuntimeError, match="frozen.syzygies"):
        with spans.installed(spans.Tracer()):
            pass
    assert engine.syzygies is original


def test_traced_pass_keeps_outcomes_and_self_times_fit_the_pass():
    golden = workloads.load_goldens()["sessions"]
    items = [it for it in workloads.build_items("sessions", None) if it.name == "squares"]
    tracer = spans.Tracer()
    with spans.installed(tracer):
        wall, rows = worker.run_pass(items, golden)
    assert [why for *_, why in rows] == [None]
    m = tracer.metrics()
    layer_self = [m[f"{layer}.self_s"] for layer in spans.LAYERS]
    assert all(s >= 0 for s in layer_self)
    assert all(m[f"{name}.self_s"] >= 0 for name in spans.SPAN_NAMES)
    assert sum(layer_self) <= wall
    assert m["session.execute.calls"] == 1
    assert m["rings.nf.calls"] > 0
