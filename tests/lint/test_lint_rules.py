"""Fixture-snippet suite for repro.lint: per rule, one known-good and
one known-bad snippet, linted in memory via :func:`lint_source`.

Each snippet is linted with only its rule selected, so an unrelated
rule firing cannot mask (or fake) the outcome under test. The on-disk
fixtures under ``tests/lint/fixtures/`` are exercised separately by
``test_cli.py`` for the end-to-end exit-code contract.
"""

import textwrap

import pytest

from repro.lint import lint_source
from repro.lint.engine import FileContext, Project, find_project_root
from repro.lint.rules import RULES, get_rules

ROOT = find_project_root()


def run(snippet, rel, rule_id):
    return lint_source(
        textwrap.dedent(snippet),
        rel=rel,
        rules=get_rules(select=[rule_id]),
        root=ROOT,
    )


def assert_clean(snippet, rel, rule_id):
    report = run(snippet, rel, rule_id)
    assert report.ok, report.to_text()
    return report


def assert_flags(snippet, rel, rule_id, times=None):
    report = run(snippet, rel, rule_id)
    assert report.findings, f"expected {rule_id} finding(s), got none"
    assert all(f.rule == rule_id for f in report.findings)
    if times is not None:
        assert len(report.findings) == times, report.to_text()
    return report


class TestRL001OneKernel:
    BAD = """
        import numpy as np

        def my_lrd(reach, offsets, counts, sums):
            totals = np.add.reduceat(reach, offsets)
            density = counts / sums
            return totals, density

        def my_lof(lrd_neighbors, lrd_self):
            return lrd_neighbors / lrd_self
    """

    def test_bad_reimplemented_math_flagged(self):
        report = assert_flags(
            self.BAD, "src/repro/core/fastpath.py", "RL001", times=3
        )
        messages = " ".join(f.message for f in report.findings)
        assert "reduceat" in messages and "lrd/lrd" in messages

    def test_good_surface_calls_the_kernel(self):
        assert_clean(
            """
            from .scoring import lof_values, lrd_values, reach_dist_values

            def score(view, kdist):
                reach = reach_dist_values(view.dists, kdist[view.ids])
                lrd = lrd_values(reach, view.offsets)
                return lof_values(lrd, lrd[view.ids], view.offsets)
            """,
            "src/repro/core/fastpath.py",
            "RL001",
        )

    def test_kernel_and_oracle_are_exempt(self):
        for rel in ("src/repro/core/scoring.py", "src/repro/core/reference.py"):
            assert_clean(self.BAD, rel, "RL001")

    def test_guard_the_guard_kernel_must_keep_the_math(self):
        # A scoring.py without np.add.reduceat means the containment
        # checks pass vacuously — the project-level check refuses that.
        report = run(
            "def lrd_values(reach, offsets):\n    return reach.sum()\n",
            "src/repro/core/scoring.py",
            "RL001",
        )
        assert any("vacuously" in f.message for f in report.findings)

    RATIO_MATH = """
        def my_plof(pdist_self, expected_pdist):
            return pdist_self / expected_pdist - 1.0

        def my_ldof(dbar, inner):
            return dbar / inner
    """

    def test_registered_scorer_module_may_hold_ratio_math(self):
        assert_clean(
            self.RATIO_MATH + "        register(object())\n",
            "src/repro/scorers/myscorer.py",
            "RL001",
        )

    def test_ratio_math_outside_registry_flagged(self):
        report = assert_flags(
            self.RATIO_MATH, "src/repro/core/fastpath.py", "RL001", times=2
        )
        messages = " ".join(f.message for f in report.findings)
        assert "pdist/pdist" in messages and "dbar/inner" in messages

    def test_reduceat_still_banned_inside_scorer_modules(self):
        # The ratio exemption does not extend to the row-sum primitive:
        # scorer modules must call scoring.row_sums/row_means.
        assert_flags(
            """
            import numpy as np

            def my_sums(values, offsets):
                return np.add.reduceat(values, offsets)

            register(object())
            """,
            "src/repro/scorers/myscorer.py",
            "RL001",
            times=1,
        )

    def test_scorer_module_without_register_flagged(self):
        report = assert_flags(
            self.RATIO_MATH, "src/repro/scorers/freeloader.py", "RL001", times=1
        )
        assert "register" in report.findings[0].message

    def test_scorer_infra_modules_need_no_register(self):
        for rel in (
            "src/repro/scorers/__init__.py",
            "src/repro/scorers/base.py",
        ):
            assert_clean("X = 1\n", rel, "RL001")


class TestRL002ImportLayering:
    def test_bad_index_imports_graph(self):
        report = assert_flags(
            "from ..core.graph import NeighborhoodGraph\n",
            "src/repro/index/fancy.py",
            "RL002",
            times=1,
        )
        assert "upward" in report.findings[0].message

    def test_bad_graph_imports_kernel(self):
        assert_flags(
            "from .scoring import lrd_values\n",
            "src/repro/core/graph.py",
            "RL002",
            times=1,
        )

    def test_bad_core_imports_analysis(self):
        report = assert_flags(
            "from ..analysis.evaluation import precision_at_n\n",
            "src/repro/core/topn.py",
            "RL002",
            times=1,
        )
        assert "repro.analysis" in report.findings[0].message

    def test_good_downward_imports(self):
        assert_clean(
            """
            from .. import obs
            from ..exceptions import ValidationError
            from ..index import make_index
            from ..index.batch import scatter_padded
            from .parallel import map_sharded
            """,
            "src/repro/core/graph.py",
            "RL002",
        )

    def test_good_surfaces_import_everything(self):
        assert_clean(
            """
            from .core.graph import NeighborhoodGraph
            from .core.scoring import lof_values
            from .datasets.paper import make_fig9_dataset
            from .index import make_index
            """,
            "src/repro/cli.py",
            "RL002",
        )


class TestRL003ObsRegistry:
    def test_bad_typo_counter(self):
        report = assert_flags(
            'from . import obs\nobs.incr("knn.querys")\n',
            "src/repro/somemod.py",
            "RL003",
            times=1,
        )
        assert "knn.querys" in report.findings[0].message

    def test_bad_typo_span_and_snapshot_lookup(self):
        assert_flags(
            """
            from repro import obs

            def test_profile(snap):
                with obs.span("materialize.query_lop"):
                    pass
                assert snap["counters"]["distance.kernel_callz"] == 1
            """,
            "tests/test_profile.py",
            "RL003",
            times=2,
        )

    def test_good_declared_names(self):
        assert_clean(
            """
            from repro import obs

            def test_counters(snap):
                obs.incr("knn.queries")
                with obs.span("materialize.query_loop"):
                    pass
                assert obs.counter("graph.builds") == 0
                assert snap["counters"]["mscan.passes"] == 2
                assert snap["timers"]["estimator.sweep"]["count"] == 1
            """,
            "tests/test_counters.py",
            "RL003",
        )

    def test_dynamic_names_are_out_of_scope(self):
        # The worker-counter merge loop re-emits names from data; only
        # literals are checkable.
        assert_clean(
            "from . import obs\n"
            "def merge(counters):\n"
            "    for name, value in counters.items():\n"
            "        obs.incr(name, value)\n",
            "src/repro/core/parallel.py",
            "RL003",
        )

    def test_stale_registry_is_a_project_finding(self):
        contexts = [
            FileContext("src/repro/obs.py", "", None),
            FileContext(
                "src/repro/newmod.py",
                'from . import obs\n'
                'obs.incr("brand.new.counter")'
                "  # reprolint: disable=RL003 — testing staleness\n",
            ),
        ]
        project = Project(ROOT, contexts)
        findings = list(RULES["RL003"].check_project(project))
        assert any(
            "stale" in f.message and "brand.new.counter" in f.message
            for f in findings
        )


class TestRL004ExceptionTaxonomy:
    def test_bad_builtin_raises(self):
        report = assert_flags(
            """
            def load(path):
                if not path:
                    raise ValueError("empty path")
                raise Exception("boom")
            """,
            "src/repro/store.py",
            "RL004",
            times=2,
        )
        assert "builtin" in report.findings[0].message

    def test_bad_foreign_error_type(self):
        assert_flags(
            """
            from .io import SomeIOError

            def load(path):
                raise SomeIOError(path)
            """,
            "src/repro/serve.py",
            "RL004",
            times=1,
        )

    def test_good_typed_taxonomy(self):
        assert_clean(
            """
            from .exceptions import StoreCorruptionError, ValidationError

            def load(path):
                try:
                    raise StoreCorruptionError(f"{path} truncated")
                except StoreCorruptionError as exc:
                    raise  # bare re-raise is fine
                except OSError as exc:
                    raise ValidationError(str(exc))
            """,
            "src/repro/store.py",
            "RL004",
        )

    def test_other_modules_unconstrained(self):
        # The taxonomy rule polices the store/serve trust boundary only.
        assert_clean(
            "def f():\n    raise KeyError('x')\n",
            "src/repro/core/incremental.py",
            "RL004",
        )


class TestRL005LockDiscipline:
    def test_bad_unlocked_access(self):
        report = assert_flags(
            """
            import threading

            class Scorer:
                def __init__(self):
                    self._lock = threading.RLock()
                    self.cache = {}  # reprolint: lock-guarded

                def peek(self):
                    return self.cache.get("k")
            """,
            "src/repro/serve.py",
            "RL005",
            times=1,
        )
        assert "lock-guarded" in report.findings[0].message

    def test_bad_guarded_without_lock(self):
        report = assert_flags(
            """
            class Scorer:
                def __init__(self):
                    self.cache = {}  # reprolint: lock-guarded
            """,
            "src/repro/serve.py",
            "RL005",
            times=1,
        )
        assert "no threading.Lock" in report.findings[0].message

    def test_good_with_lock_and_holds_lock_marker(self):
        assert_clean(
            """
            import threading

            class Scorer:
                def __init__(self):
                    self._lock = threading.RLock()
                    self.cache = {}  # reprolint: lock-guarded
                    self.n = 0  # unguarded attrs stay free

                def score(self, key):
                    with self._lock:
                        if key not in self.cache:
                            self.cache[key] = self._compute(key)
                        return self.cache[key]

                def _compute(self, key):  # reprolint: holds-lock
                    return self.cache.get(key, 0) + self.n
            """,
            "src/repro/serve.py",
            "RL005",
        )

    def test_init_is_exempt(self):
        assert_clean(
            """
            import threading

            class Scorer:
                def __init__(self, size):
                    self._lock = threading.Lock()
                    self.cache = {}  # reprolint: lock-guarded
                    self.cache["warm"] = size  # construction precedes sharing
            """,
            "src/repro/serve.py",
            "RL005",
        )


class TestRL006WallClock:
    def test_bad_perf_counter_and_time(self):
        assert_flags(
            """
            import time

            def test_fast():
                t0 = time.perf_counter()
                stamp = time.time()
                assert time.perf_counter() - t0 < 1.0
            """,
            "tests/test_speed.py",
            "RL006",
            times=3,
        )

    def test_bad_monotonic_outside_slow_marker(self):
        report = assert_flags(
            """
            import time

            def test_timing():
                t0 = time.monotonic()
            """,
            "tests/test_speed.py",
            "RL006",
            times=1,
        )
        assert "slow" in report.findings[0].message

    def test_bad_from_import_alias(self):
        assert_flags(
            """
            from time import perf_counter as clock

            def test_fast():
                t0 = clock()
            """,
            "tests/test_speed.py",
            "RL006",
            times=1,
        )

    def test_good_monotonic_under_slow_marker(self):
        assert_clean(
            """
            import time
            import pytest

            @pytest.mark.slow
            def test_wallclock_optin():
                t0 = time.monotonic()
                assert time.monotonic() >= t0
            """,
            "tests/test_speed.py",
            "RL006",
        )

    def test_src_is_out_of_scope(self):
        # obs.py's span timer legitimately reads perf_counter.
        assert_clean(
            "import time\nT0 = time.perf_counter()\n",
            "src/repro/obs.py",
            "RL006",
        )


class TestRL007UnseededRng:
    def test_bad_global_state_and_unseeded_generator(self):
        report = assert_flags(
            """
            import numpy as np

            def jitter(X):
                noise = np.random.normal(size=X.shape)
                rng = np.random.default_rng()
                return X + noise + rng.normal(size=X.shape)
            """,
            "src/repro/datasets/noise.py",
            "RL007",
            times=2,
        )
        assert "global RNG" in report.findings[0].message

    def test_good_seeded_generator(self):
        assert_clean(
            """
            import numpy as np
            from ._validation import check_seed

            def jitter(X, seed=0):
                rng = check_seed(seed)
                alt = np.random.default_rng(seed)
                return X + rng.normal(size=X.shape) + alt.normal(size=X.shape)
            """,
            "src/repro/datasets/noise.py",
            "RL007",
        )

    def test_tests_are_out_of_scope(self):
        # The rule protects library determinism; test seeds are policed
        # by the fixed-seed convention, not by lint.
        assert_clean(
            "import numpy as np\nX = np.random.normal(size=3)\n",
            "tests/test_noise.py",
            "RL007",
        )


class TestRL008FloatEquality:
    def test_bad_score_equality(self):
        assert_flags(
            """
            def check(lof, expected_scores):
                if lof == 1.0:
                    return True
                return expected_scores == lof
            """,
            "src/repro/analysis/check.py",
            "RL008",
            times=2,
        )

    def test_bad_in_tests_too(self):
        assert_flags(
            "def test_scores(scores):\n    assert scores[0] == 2.5\n",
            "tests/test_scores.py",
            "RL008",
            times=1,
        )

    def test_good_bit_identity_helpers_and_approx(self):
        assert_clean(
            """
            import numpy as np
            import pytest

            def test_scores(lof, lrd, other, exp):
                assert np.array_equal(lof, other)
                np.testing.assert_array_equal(lrd, other)
                assert exp.lof == pytest.approx(1.0)
                assert exp.scores == {}
                assert len(lof) == 3
                assert np.argmax(lof) == 2
            """,
            "tests/test_scores.py",
            "RL008",
        )


class TestSuppressions:
    def test_line_disable(self):
        report = run(
            'from . import obs\nobs.incr("typo.name")  '
            "# reprolint: disable=RL003 — fixture for the docs example\n",
            "src/repro/somemod.py",
            "RL003",
        )
        assert report.ok and report.suppressed == 1

    def test_file_disable(self):
        report = run(
            "# reprolint: disable-file=RL003 — synthetic names everywhere\n"
            "from . import obs\n"
            'obs.incr("a")\nobs.incr("b")\n',
            "src/repro/somemod.py",
            "RL003",
        )
        assert report.ok and report.suppressed == 2

    def test_disable_is_per_rule(self):
        report = run(
            'from . import obs\nobs.incr("typo.name")  '
            "# reprolint: disable=RL001\n",
            "src/repro/somemod.py",
            "RL003",
        )
        assert not report.ok

    def test_syntax_errors_are_unsuppressable_findings(self):
        report = lint_source(
            "def broken(:\n", rel="src/repro/bad.py", root=ROOT
        )
        assert not report.ok
        assert report.findings[0].rule == "RL000"


class TestRuleSelection:
    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError):
            get_rules(select=["RL999"])

    def test_every_rule_has_id_name_summary(self):
        for rule_id, rule in RULES.items():
            assert rule.id == rule_id
            assert rule.name and rule.summary
