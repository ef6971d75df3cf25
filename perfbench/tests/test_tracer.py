"""Span arithmetic and the span recorder."""

import threading

import pytest

import tracer
from tracer import Tracer, covered, self_times, summarize


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([(1.0, 2.0), (4.0, 6.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([(-5.0, 2.0), (9.0, 20.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([(2.0, 8.0), (3.0, 4.0)], 0.0, 10.0) == pytest.approx(6.0)


def span(sid, parent, name, t0, t1, **counters):
    return [sid, parent, name, 1, t0, t1, counters]


def test_self_time_is_duration_minus_direct_children():
    spans = [
        span(1, 0, "estimator.fit", 0.0, 10.0),
        span(2, 1, "materialize.loop", 1.0, 8.0),
        span(3, 2, "index.query", 2.0, 3.0),
        span(4, 2, "index.query", 3.0, 5.5),
        span(5, 1, "sweep.score_range", 8.0, 9.5),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({1: 1.5, 2: 3.5, 3: 1.0, 4: 2.5, 5: 1.5})
    # Self times partition the root span exactly.
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_summarize_sums_layers_and_attributed_counters():
    spans = [
        span(1, 0, "estimator.fit", 0.0, 10.0),
        span(2, 1, "materialize.loop", 1.0, 8.0),
        span(3, 2, "index.query", 2.0, 3.0,
             **{"distance.evaluations": 100, "distance.kernel_calls": 1}),
        span(4, 2, "graph.from_rows", 6.0, 7.0),
        span(5, 1, "sweep.score_range", 8.0, 9.5, **{"mscan.passes": 4}),
        span(6, 0, "store.save", 10.0, 10.5, bytes=4096),
    ]
    out = summarize({"spans": spans, "waits": []})
    assert out["index.knn_s"] == pytest.approx(1.0)
    assert out["materialize.self_s"] == pytest.approx(5.0)
    assert out["graph.build_s"] == pytest.approx(1.0)
    assert out["sweep.s"] == pytest.approx(1.5)
    assert out["store.save_s"] == pytest.approx(0.5)
    assert out["index.distance_evals"] == 100
    assert out["sweep.passes"] == 4
    assert out["store.bytes"] == 4096
    # 10.5 s of spans minus 1.5 s of estimator glue
    assert out["fit.layer_sum_s"] == pytest.approx(9.0)
    assert out["fit.layer_sum_s"] == pytest.approx(sum(out[k] for k in tracer.FIT_LAYERS))
    # A window keeps only spans that start inside it.
    assert summarize({"spans": spans, "waits": []}, 9.9, 11.0)["index.knn_s"] == 0.0


def test_recorder_links_parents_per_thread_and_attributes_counters():
    ticks = iter(range(100))
    rec = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        rec.count("distance.evaluations", 7)

    def outer():
        rec.count("distance.evaluations", 1)
        wrapped_inner()

    wrapped_inner = rec.wrap(inner, "index.query")
    wrapped_outer = rec.wrap(outer, "materialize.loop")
    wrapped_outer()
    worker = threading.Thread(target=wrapped_inner)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    by_name = {}
    for sid, parent, name, _tid, t0, t1, counters in rec.spans:
        by_name.setdefault(name, []).append((sid, parent, counters))
    (outer_id, outer_parent, outer_counters), = by_name["materialize.loop"]
    assert outer_parent == 0
    assert outer_counters == {"distance.evaluations": 1}
    parents = sorted(p for _, p, _ in by_name["index.query"])
    assert parents == [0, outer_id]  # the other thread's call is a root
    assert all(c == {"distance.evaluations": 7} for _, _, c in by_name["index.query"])


def test_queue_wait_pairs_submit_and_execute_in_either_order():
    rec = Tracer(clock=lambda: 10.0)
    early, late = object(), object()
    rec.note_submit(early, 1.0)
    # The batcher starts ``late``'s batch before its submit call returns.
    rec.note_execute([(None, None, None, early), (None, None, None, late)])
    rec.note_submit(late, 4.0)
    assert sorted(rec.waits) == [(10.0, 6.0), (10.0, 9.0)]
