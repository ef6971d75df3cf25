"""Unit tests for repro.obs — counters, spans, snapshots, scoping.

Instrumentation must be invisible when off (zero counters, no-op hooks)
and exactly deterministic when on; these tests pin both contracts, plus
JSON round-tripping and basic thread safety.
"""

# reprolint: disable-file=RL003 — this file tests the obs framework
# itself with synthetic counter/span names ("some.counter", "kept", ...)
# that deliberately exist nowhere in the production registry.

import json
import threading

import numpy as np
import pytest

from repro import LocalOutlierFactor, lof_scores, obs
from repro.index import argkmin_self, make_index


class TestEnableDisable:
    def test_disabled_by_default(self):
        assert not obs.is_enabled()
        assert obs.counters() == {}

    def test_incr_is_noop_while_disabled(self):
        obs.incr("some.counter", 5)
        obs.record_kernel(100)
        assert obs.counters() == {}
        assert obs.counter("some.counter") == 0

    def test_enable_then_incr(self):
        obs.enable()
        assert obs.is_enabled()
        obs.incr("some.counter")
        obs.incr("some.counter", 4)
        assert obs.counter("some.counter") == 5

    def test_disable_stops_counting_but_keeps_values(self):
        obs.enable()
        obs.incr("kept", 3)
        obs.disable()
        obs.incr("kept", 100)
        assert obs.counter("kept") == 3

    def test_reset_zeroes_everything(self):
        obs.enable()
        obs.incr("a")
        with obs.span("t"):
            pass
        obs.reset()
        assert obs.counters() == {}
        assert obs.timers() == {}
        assert obs.is_enabled()  # reset does not flip the switch

    def test_record_kernel_bumps_both_counters(self):
        obs.enable()
        obs.record_kernel(40)
        obs.record_kernel(2)
        assert obs.counter("distance.kernel_calls") == 2
        assert obs.counter("distance.evaluations") == 42


class TestSpans:
    def test_span_disabled_records_nothing(self):
        with obs.span("quiet"):
            pass
        assert obs.timers() == {}

    def test_span_accumulates_count_and_time(self):
        obs.enable()
        for _ in range(3):
            with obs.span("work"):
                pass
        timers = obs.timers()
        assert timers["work"]["count"] == 3
        assert timers["work"]["total_s"] >= 0.0

    def test_spans_nest(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
            with obs.span("inner"):
                pass
        timers = obs.timers()
        assert timers["outer"]["count"] == 1
        assert timers["inner"]["count"] == 2
        # The outer span's wall time covers both inner spans.
        assert timers["outer"]["total_s"] >= timers["inner"]["total_s"]

    def test_same_name_reentrant(self):
        obs.enable()
        sp = obs.span("recursive")
        with sp:
            with sp:
                pass
        assert obs.timers()["recursive"]["count"] == 2

    def test_span_records_on_exception(self):
        obs.enable()
        with pytest.raises(RuntimeError):
            with obs.span("failing"):
                raise RuntimeError("boom")
        assert obs.timers()["failing"]["count"] == 1


class TestStatsSnapshot:
    def test_json_round_trip(self):
        obs.enable()
        obs.incr("distance.kernel_calls", 7)
        with obs.span("fit"):
            pass
        parsed = json.loads(obs.to_json())
        assert parsed == obs.stats()
        assert parsed["enabled"] is True
        assert parsed["counters"]["distance.kernel_calls"] == 7
        assert parsed["timers"]["fit"]["count"] == 1

    def test_snapshot_is_a_copy(self):
        obs.enable()
        obs.incr("c")
        snap = obs.stats()
        obs.incr("c")
        assert snap["counters"]["c"] == 1
        assert obs.counter("c") == 2


class TestCollect:
    def test_collect_isolates_and_restores(self):
        assert not obs.is_enabled()
        with obs.collect() as snap:
            assert obs.is_enabled()
            obs.incr("scoped", 2)
        assert snap["counters"]["scoped"] == 2
        # The scope left no trace behind.
        assert not obs.is_enabled()
        assert obs.counters() == {}

    def test_collect_merges_into_enabled_outer_scope(self):
        obs.enable()
        obs.incr("outer.before", 1)
        with obs.collect() as snap:
            obs.incr("shared", 5)
        assert snap["counters"] == {"shared": 5}
        # Outer registry regained its prior values plus the scoped work.
        assert obs.counter("outer.before") == 1
        assert obs.counter("shared") == 5

    def test_collect_snapshot_filled_even_on_exception(self):
        with pytest.raises(ValueError):
            with obs.collect() as snap:
                obs.incr("partial")
                raise ValueError("interrupted")
        assert snap["counters"]["partial"] == 1
        assert obs.counters() == {}


class TestThreadSafety:
    def test_concurrent_incr_is_exact(self):
        obs.enable()
        n_threads, per_thread = 8, 2500

        def hammer():
            for _ in range(per_thread):
                obs.incr("contended")
                obs.record_kernel(3)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_threads * per_thread
        assert obs.counter("contended") == total
        assert obs.counter("distance.kernel_calls") == total
        assert obs.counter("distance.evaluations") == 3 * total


class TestPipelineCounters:
    """Counters stay zero when off and are exact when on."""

    def test_lof_pipeline_with_instrumentation_off(self, random_points):
        lof_scores(random_points, 8)
        argkmin_self(random_points, 8)
        assert obs.counters() == {}
        assert obs.timers() == {}

    def test_query_counters_exact(self, random_points):
        idx = make_index("brute").fit(random_points)
        with obs.collect() as snap:
            for i in range(10):
                idx.query(random_points[i], 5, exclude=i)
        n = len(random_points)
        assert snap["counters"]["knn.queries"] == 10
        assert snap["counters"]["distance.kernel_calls"] == 10
        assert snap["counters"]["distance.evaluations"] == 10 * n

    def test_mscan_passes_counted_per_scan(self, random_points):
        with obs.collect() as snap:
            est = LocalOutlierFactor(min_pts=(4, 6)).fit(random_points)
        assert est.scores_.shape == (len(random_points),)
        # One lrd pass + one lof pass per MinPts in {4, 5, 6}.
        assert snap["counters"]["mscan.passes"] == 6
        assert snap["timers"]["estimator.materialize"]["count"] == 1
        assert snap["timers"]["estimator.sweep"]["count"] == 1

    def test_estimator_profile_attribute(self, random_points):
        est = LocalOutlierFactor(min_pts=5, profile=True).fit(random_points)
        assert est.profile_ is not None
        assert est.profile_["counters"]["knn.queries"] == len(random_points)
        json.dumps(est.profile_)  # snapshot is JSON-serializable
        # Profiling a fit leaves the global registry untouched.
        assert not obs.is_enabled()
        assert obs.counters() == {}

    def test_profile_off_by_default(self, random_points):
        est = LocalOutlierFactor(min_pts=5).fit(random_points)
        assert est.profile_ is None


class TestCLIProfile:
    def test_profile_json_written(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "profile.json"
        rc = main(
            ["--profile", "--profile-out", str(out), "demo", "--seed", "0"]
        )
        assert rc == 0
        snap = json.loads(out.read_text())
        assert snap["counters"]["knn.queries"] > 0
        assert snap["counters"]["distance.kernel_calls"] > 0
        assert "estimator.materialize" in snap["timers"]

    def test_profile_defaults_to_stderr(self, capsys):
        from repro.cli import main

        rc = main(["--profile", "demo", "--seed", "0"])
        assert rc == 0
        err = capsys.readouterr().err
        snap = json.loads(err)
        assert snap["counters"]["knn.queries"] > 0
