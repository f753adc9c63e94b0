"""The benchmark harness's arithmetic, on synthetic inputs: span self
time, percentiles and sample counts, and wall time net of CPU steal.

Run with ``python3 -m pytest perfbench/test_harness.py``.
"""

import threading

import pytest

import procs
import tracing
from tracing import Span

MAIN, RANK = 1, 2


def span(sid, start, end, parent=None, thread=MAIN, name="x.y"):
    return Span(sid, name, start, end, parent, None, thread)


def test_union_length_merges_overlaps_and_skips_empty():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 1), (2, 3)]) == 2.0
    assert tracing.union_length([(0, 2), (1, 3), (5, 5), (4, 4.5)]) == 3.5
    assert tracing.union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_subtracts_children_on_the_same_thread_only():
    spans = [
        span(1, 0.0, 10.0),                      # campaign root
        span(2, 1.0, 4.0, parent=1),             # layer call
        span(3, 2.0, 3.0, parent=2),             # nested inside it
        span(4, 5.0, 9.0, parent=1),             # job on the main thread
        span(5, 5.0, 8.5, parent=4, thread=RANK),  # rank thread under job
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(4.0)      # rank work is not its child time
    assert own[5] == pytest.approx(3.5)
    # every instant of the root is in exactly one span's self time
    assert sum(own[s] for s in (1, 2, 3, 4)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [span(1, 0, 10), span(2, 1, 5, parent=1),
             span(3, 3, 7, parent=1), span(4, 20, 30, parent=1)]
    own = tracing.self_times(spans)
    # the child outside the parent's interval is clipped away entirely
    assert own[1] == pytest.approx(10 - 6)


def test_top_level_spans_are_roots_of_their_thread():
    spans = [span(1, 0, 10), span(2, 1, 2, parent=1, thread=RANK),
             span(3, 1.2, 1.5, parent=2, thread=RANK), span(4, 3, 4)]
    assert [s.sid for s in tracing.top_level(spans)] == [1, 2, 4]


def test_percentiles_interpolate_linearly():
    xs = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert tracing.percentile(xs, 50) == 3.0
    assert tracing.percentile(xs, 25) == 2.0
    assert tracing.percentile(xs, 90) == pytest.approx(4.6)
    assert tracing.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        tracing.percentile([], 50)


@pytest.mark.parametrize("n,expected_q", [
    (19, None), (20, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected_q):
    values = [float(i) for i in range(n)]
    got = tracing.tail_percentile(values)
    if expected_q is None:
        assert got is None
    else:
        q, value = got
        assert q == expected_q
        assert sum(1 for v in values if v > value) >= 10


def test_summary_reports_median_quartiles_and_count():
    s = tracing.summary([4.0, 1.0, 3.0, 2.0])
    assert s == {"median": 2.5, "q1": 1.75, "q3": 3.25, "n": 4}
    assert tracing.summary([])["n"] == 0


def test_tracer_links_nesting_reentry_and_causes():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    seen = []

    def leaf():
        return "leaf"

    def inner(depth):
        # the same-named recursion is one span, not two
        return inner(depth - 1) if depth else wrapped_leaf()

    def on_rank():
        wrapped_leaf()

    def job():
        t = threading.Thread(target=on_rank)
        t.start()
        t.join()

    wrapped_leaf = tracer.wrap("a.leaf", leaf,
                               after=lambda r, a, k, s: seen.append(r))
    inner = tracer.wrap("a.inner", inner)
    wrapped_job = tracer.wrap("mpi.job", job, cause=True)
    outer = tracer.wrap("engine.run", lambda: (inner(2), wrapped_job()))
    outer()

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    assert len(by_name["a.inner"]) == 1
    root, = by_name["engine.run"]
    inner_span, = by_name["a.inner"]
    job_span, = by_name["mpi.job"]
    first_leaf, rank_leaf = sorted(by_name["a.leaf"], key=lambda s: s.start)
    assert root.parent is None
    assert inner_span.parent == root.sid
    assert first_leaf.parent == inner_span.sid
    assert job_span.parent == root.sid
    # the rank thread has no open span: its work is charged to the job
    assert rank_leaf.parent == job_span.sid
    assert rank_leaf.thread != root.thread
    assert tracer.cause is None
    assert seen == ["leaf", "leaf"]


def test_tracer_records_spans_of_failing_calls():
    tracer = tracing.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("a.boom", boom)()
    assert [s.name for s in tracer.spans] == ["a.boom"]
    assert tracer.current() is None


def test_net_wall_charges_steal_once_per_vcpu_that_wanted_to_run():
    # no steal: the wall is the wall
    assert procs.net_wall(2.0, (10.0, 5.0), (12.0, 5.0)) == 2.0
    # one busy vCPU (a GIL-bound campaign), 0.5 s of it stolen
    assert procs.net_wall(2.0, (10.0, 5.0), (11.5, 5.5)) == \
        pytest.approx(1.5)
    # two busy vCPUs, 0.5 s stolen from each: the wall lost 0.5 s
    assert procs.net_wall(2.0, (10.0, 5.0), (13.0, 6.0)) == \
        pytest.approx(1.5)
