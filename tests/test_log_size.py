"""``log_size()`` counts the Table IV log bytes without building them.

The reference is ``len(sink.serialize())``: every case here compares the
counted size against the serialized bytes of the same sink.
"""

import pytest
from hypothesis import given, strategies as st

from repro.__main__ import load_target
from repro.concolic import HeavySink, LightSink, sink_scope
from repro.core import Compi, CompiConfig
from repro.core.runner import TestRunner


def _same(sink):
    assert sink.log_size() == len(sink.serialize())
    return sink.log_size()


# ----------------------------------------------------------------------
# unit edge cases
# ----------------------------------------------------------------------
def test_empty_light_sink_is_one_newline():
    assert _same(LightSink()) == 1
    assert LightSink().serialize() == b"\n"


def test_empty_heavy_sink():
    for log_events in (True, False):
        assert _same(HeavySink(log_events=log_events)) == 1


@given(st.sets(st.tuples(st.integers(-1000, 10**6), st.booleans())),
       st.sets(st.integers(0, 10**5)))
def test_light_sink_any_coverage(branches, functions):
    sink = LightSink()
    for site, outcome in branches:
        sink.on_branch(site, outcome)
    for fid in functions:
        sink.on_function(fid)
    _same(sink)


def test_batched_hits_are_flushed_before_counting():
    sink = LightSink()
    sink.preallocate(n_sites=40, n_functions=5)
    sink.branch_hits[2 * 17 + 1] = 1
    sink.branch_hits[2 * 39] = 1
    sink.func_hits[3] = 1
    assert _same(sink) == len(b"17,1\n39,0\nf3\n")


def _loop_sink(**kw):
    """A heavy sink that ran a symbolic loop and three implicit branches."""
    sink = HeavySink(**kw)
    with sink_scope(sink):
        x = sink.mark_input("x", 12)
        i = 0
        while x + i < 40:     # implicit site: negative ID
            i += 1
        assert bool(x > 3) and not bool(x == 5)
    return sink


@pytest.mark.parametrize("log_events", [True, False])
@pytest.mark.parametrize("reduction", [True, False])
def test_heavy_sink_implicit_sites(log_events, reduction):
    sink = _loop_sink(log_events=log_events, reduction=reduction)
    sites = {pe.site for pe in sink.path}
    assert sites and all(s < 0 for s in sites)
    log = sink.serialize()
    assert (b"ev -" in log) is log_events
    _same(sink)


def test_non_ascii_input_names_count_encoded_bytes():
    sink = HeavySink()
    with sink_scope(sink):
        x = sink.mark_input("größe_Δ", 7)
        assert bool(x < 9)
    log = sink.serialize()
    assert len(log) > len(log.decode())    # multi-byte characters present
    _same(sink)


def test_heavy_sink_events_on_many_sites():
    sink = HeavySink()
    for site in range(-50, 3000, 7):
        for outcome in (True, False, True):
            sink.on_branch(site, outcome)
    sink.on_function(0)
    _same(sink)


# ----------------------------------------------------------------------
# campaign level: the runner's recorded sizes are the serialized sizes
# ----------------------------------------------------------------------
@pytest.fixture
def checked_runs(monkeypatch):
    """Record, for every run, the runner's log sizes next to
    ``len(serialize())`` of the very sinks that run used."""
    rows = []
    made = {}
    real_make_sinks = TestRunner._make_sinks
    real_run = TestRunner._run

    def make_sinks(self, testcase):
        made["sinks"] = real_make_sinks(self, testcase)
        return made["sinks"]

    def run(self, testcase, timeout=None):
        rec = real_run(self, testcase, timeout=timeout)
        sinks = made.pop("sinks")
        focus = testcase.setup.focus
        sizes = [len(s.serialize()) for s in sinks]
        rows.append(((rec.focus_log_size, rec.nonfocus_log_sizes),
                     (sizes[focus], sizes[:focus] + sizes[focus + 1:])))
        return rec

    monkeypatch.setattr(TestRunner, "_make_sinks", make_sinks)
    monkeypatch.setattr(TestRunner, "_run", run)
    return rows


@pytest.mark.parametrize("target,iterations,overrides", [
    ("demo", 25, {}),
    ("demo", 8, {"two_way": False}),           # one-way: every rank heavy
    ("demo", 8, {"log_events": False}),
    ("hpl", 8, {}),
])
def test_campaign_log_sizes_equal_serialized_sizes(checked_runs, target,
                                                   iterations, overrides):
    program = load_target(target)
    try:
        cfg = CompiConfig(seed=1, test_timeout=10.0, adaptive_timeout=False,
                          **overrides)
        with Compi(program, cfg) as compi:
            compi.run(iterations=iterations)
    finally:
        program.unload()
    assert len(checked_runs) == iterations
    for recorded, serialized in checked_runs:
        assert recorded == serialized
    assert any(focus > 100 for (focus, _), _ in checked_runs)
