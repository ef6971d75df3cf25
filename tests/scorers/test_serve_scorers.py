"""The scorer dimension of the serving stack and the CLI.

* per-request ``scorer`` override on ``score_new`` and ``/score``;
* unknown scorer → HTTP 400 / CLI exit 2, never a 500;
* ``/model`` and ``/stats`` report the active scorer and per-scorer
  point counters;
* the batcher groups by ``(min_pts, scorer)`` and stays bit-identical;
* non-bounds scorers degrade ``classify_new`` to exact scoring.
"""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.exceptions import ValidationError
from repro.io import save_dataset
from repro.scorers import list_scorers
from repro.serve import OnlineScorer, ScoreBatcher, make_server


@pytest.fixture
def online(zoo_store):
    path, X, fitted = zoo_store
    return OnlineScorer.from_path(path), X, fitted


class TestOnlineScorerOverride:
    def test_per_request_override(self, online):
        sc, X, fitted = online
        got = sc.score_new(X, min_pts=5, exclude=np.arange(len(X)), scorer="ldof")
        assert np.array_equal(got, fitted[("ldof", 5)])
        # The instance default is untouched.
        assert sc.scorer_name == "lof"

    def test_constructor_override(self, zoo_store):
        path, X, fitted = zoo_store
        sc = OnlineScorer.from_path(path, scorer="loop")
        assert sc.scorer_name == "loop"
        got = sc.score_new(X, min_pts=8, exclude=np.arange(len(X)))
        assert np.array_equal(got, fitted[("loop", 8)])

    def test_unknown_scorer_rejected_eagerly(self, online):
        sc, X, _ = online
        with pytest.raises(ValidationError, match="unknown scorer"):
            sc.score_new(X[:1], min_pts=5, scorer="nope")
        with pytest.raises(ValidationError, match="unknown scorer"):
            OnlineScorer.from_path(sc.model.path, scorer="nope")

    def test_stats_and_model_report_scorers(self, online):
        sc, X, _ = online
        sc.score_new(X[:3], min_pts=5)
        sc.score_new(X[:2], min_pts=5, scorer="knn_dist")
        stats = sc.stats()
        assert stats["scorer"] == "lof"
        assert stats["scorers"]["lof"] == 3
        assert stats["scorers"]["knn_dist"] == 2
        info = sc.model_info()
        assert info["scorer"] == "lof"
        assert info["registered_scorers"] == list_scorers()

    @pytest.mark.parametrize("name", ("ldof", "loop", "knn_dist"))
    def test_non_bounds_scorers_classify_exactly(self, online, name):
        sc, X, _ = online
        Q = np.random.default_rng(9).uniform(0.0, 40.0, size=(10, 2))
        res = sc.classify_new(Q, scorer=name)
        want = sc.score_new(Q, min_pts=None, scorer=name, use_cache=False)
        assert res.pruned == 0
        assert np.array_equal(res.lower, want)
        assert np.array_equal(res.upper, want)
        assert np.array_equal(res.labels, np.where(want > sc.threshold, -1, 1))


class TestBatcherScorerGrouping:
    def test_mixed_scorers_grouped_separately_bit_identically(self, online, batch_gate):
        sc, X, _ = online
        rng = np.random.default_rng(17)
        a = rng.uniform(0.0, 40.0, size=(2, 2))
        b = rng.uniform(0.0, 40.0, size=(2, 2))
        want_a = sc.score_new(a, min_pts=5, use_cache=False)
        want_b = sc.score_new(b, min_pts=5, scorer="loop", use_cache=False)
        batcher = ScoreBatcher(lambda: sc)
        try:
            with batch_gate(batcher, sc):
                fa = batcher.submit(a, 5)
                fb = batcher.submit(b, 5, scorer="loop")
            ga, gb = fa.result(), fb.result()
        finally:
            batcher.close()
        assert np.array_equal(np.asarray(ga), want_a)
        assert np.array_equal(np.asarray(gb), want_b)
        # Different scorers cannot share a stacked kernel call: the
        # gate's batch plus one per scorer.
        assert batcher.batches == 3
        assert batcher.coalesced == 0

    def test_same_scorer_still_coalesces(self, online, batch_gate):
        sc, X, _ = online
        rng = np.random.default_rng(18)
        chunks = [rng.uniform(0.0, 40.0, size=(1, 2)) for _ in range(3)]
        want = [
            sc.score_new(c, min_pts=5, scorer="knn_dist", use_cache=False)
            for c in chunks
        ]
        batcher = ScoreBatcher(lambda: sc)
        try:
            with batch_gate(batcher, sc):
                futures = [batcher.submit(c, 5, scorer="knn_dist") for c in chunks]
            got = [f.result() for f in futures]
        finally:
            batcher.close()
        for g, w in zip(got, want):
            assert np.array_equal(np.asarray(g), w)
        assert batcher.batches == 2 and batcher.coalesced == 2

    def test_unknown_scorer_rejected_at_submit(self, online):
        sc, _, _ = online
        batcher = ScoreBatcher(lambda: sc)
        try:
            with pytest.raises(ValidationError, match="unknown scorer"):
                batcher.submit(np.zeros((1, 2)), 5, scorer="nope")
        finally:
            batcher.close()


class TestHTTPScorerField:
    @pytest.fixture
    def server(self, zoo_store):
        path, X, fitted = zoo_store
        srv = make_server(path, port=0)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        yield srv, X, fitted
        srv.shutdown()
        srv.server_close()

    def _request(self, srv, path, payload=None):
        port = srv.server_address[1]
        url = f"http://127.0.0.1:{port}{path}"
        data = None if payload is None else json.dumps(payload).encode()
        try:
            with urllib.request.urlopen(
                urllib.request.Request(url, data=data), timeout=10
            ) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def test_score_with_scorer_field(self, server):
        srv, X, fitted = server
        status, body = self._request(
            srv,
            "/score",
            {"points": [[40.0, 10.0], [100.0, 100.0]], "scorer": "loop", "min_pts": 5},
        )
        assert status == 200
        assert body["scorer"] == "loop"
        assert all(0.0 <= s <= 1.0 for s in body["scores"])

    def test_score_defaults_to_store_scorer(self, server):
        srv, _, _ = server
        status, body = self._request(srv, "/score", {"points": [[40.0, 10.0]]})
        assert status == 200 and body["scorer"] == "lof"

    def test_unknown_scorer_is_400_not_500(self, server):
        srv, _, _ = server
        status, body = self._request(
            srv, "/score", {"points": [[40.0, 10.0]], "scorer": "nope"}
        )
        assert status == 400
        assert "unknown scorer" in body["error"]

    def test_non_string_scorer_is_400(self, server):
        srv, _, _ = server
        status, body = self._request(
            srv, "/score", {"points": [[40.0, 10.0]], "scorer": 7}
        )
        assert status == 400
        assert "scorer" in body["error"]

    def test_model_and_stats_report_scorer(self, server):
        srv, _, _ = server
        self._request(srv, "/score", {"points": [[40.0, 10.0]], "scorer": "ldof"})
        status, body = self._request(srv, "/model")
        assert status == 200
        assert body["scorer"] == "lof"
        assert body["registered_scorers"] == list_scorers()
        status, body = self._request(srv, "/stats")
        assert status == 200
        assert body["scorer"] == "lof"
        assert body["scorers"]["ldof"] == 1


class TestCLIScorer:
    @pytest.fixture
    def dataset_csv(self, tmp_path, two_density_clusters):
        path = tmp_path / "data.csv"
        save_dataset(path, two_density_clusters)
        return path

    def test_scorers_command_lists_the_registry(self, capsys):
        assert main(["scorers"]) == 0
        out = capsys.readouterr().out
        for name in list_scorers():
            assert name in out

    def test_score_with_each_scorer(self, dataset_csv, tmp_path, capsys):
        for name in list_scorers():
            out = tmp_path / f"{name}.csv"
            code = main(
                [
                    "score",
                    str(dataset_csv),
                    "--out",
                    str(out),
                    "--min-pts",
                    "5",
                    "--scorer",
                    name,
                ]
            )
            assert code == 0 and out.exists()

    def test_unknown_scorer_exits_2(self, dataset_csv, tmp_path, capsys):
        code = main(
            [
                "score",
                str(dataset_csv),
                "--out",
                str(tmp_path / "o.csv"),
                "--min-pts",
                "5",
                "--scorer",
                "nope",
            ]
        )
        assert code == 2
        assert "unknown scorer" in capsys.readouterr().err

    def test_fit_then_score_against_store(self, dataset_csv, tmp_path, capsys):
        store = tmp_path / "m.rlof"
        assert main(["fit", str(dataset_csv), "--out", str(store)]) == 0
        out = tmp_path / "o.csv"
        code = main(
            [
                "score",
                str(dataset_csv),
                "--store",
                str(store),
                "--out",
                str(out),
                "--min-pts",
                "5",
                "--scorer",
                "knn_dist",
            ]
        )
        assert code == 0
        assert "knn_dist" in capsys.readouterr().out

    def test_fit_records_scorer_in_store(self, dataset_csv, tmp_path, capsys):
        from repro.store import read_header

        store = tmp_path / "loop.rlof"
        code = main(
            ["fit", str(dataset_csv), "--out", str(store), "--scorer", "loop"]
        )
        assert code == 0
        assert read_header(store)["scorer"] == "loop"
