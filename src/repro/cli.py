"""Command-line interface: ``repro-lof`` / ``python -m repro``.

Subcommands
-----------
score
    Compute outlier scores for a CSV dataset and write a score file:
    ``repro-lof score data.csv --min-pts 10 50 --out scores.csv``
    With ``--store model.rlof`` the dataset is scored *online* against a
    persisted fitted model instead of fitting from scratch. ``--scorer``
    picks any registered detector (lof, ldof, loop, knn_dist).
fit
    Fit an estimator and persist the whole model (neighborhood graph,
    per-MinPts caches, scores, dataset snapshot) to a store file:
    ``repro-lof fit data.csv --min-pts 10 50 --out model.rlof``
serve
    Serve a persisted model over HTTP for online scoring; ``--workers``
    forks a fleet sharing one memmapped store and one port:
    ``repro-lof serve model.rlof --port 8000 --workers 4``
scorers
    List the registered local-outlier scorers and their descriptions.
rank
    Print the top outliers of a dataset:
    ``repro-lof rank data.csv --min-pts 10 50 --top 10``
topn
    Exact top-n outliers with Theorem-1 bound pruning:
    ``repro-lof topn data.csv --n 10 --min-pts 30``
materialize
    Step 1 of the two-step algorithm: build the materialization
    database M and persist it as a checksummed model store:
    ``repro-lof materialize data.csv --min-pts-ub 50 --out data.rlof``
sweep
    Step 2 from a persisted M: LOF statistics per MinPts value:
    ``repro-lof sweep data.rlof --min-pts 10 50``
demo
    Run the Figure 9 synthetic demo end to end and print its ranking.
lint
    Run the repro.lint invariant analyzer over the tree; remaining
    arguments pass through to ``python -m repro.lint``:
    ``repro-lof lint -- --format json src tests``

Any subcommand accepts the top-level ``--profile`` flag, which runs it
inside an instrumentation scope (:mod:`repro.obs`) and emits the
counter/timer snapshot as JSON — to stderr, or to ``--profile-out PATH``:
``repro-lof --profile --profile-out profile.json demo``

Exit codes: 0 success; 2 user error (bad input, bad parameters, missing
files); 3 unusable model store (corrupt, truncated, wrong format or
version — :class:`~repro.exceptions.StoreError`), so scripted callers
can tell "fix the command" from "re-save the model".
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from . import __version__, obs
from .core.estimator import LocalOutlierFactor
from .core.materialization import MaterializationDB
from .core.ranking import rank_outliers
from .core.topn import top_n_lof
from .datasets.paper import make_fig9_dataset
from .exceptions import ReproError, StoreError
from .io import load_dataset, save_scores


EXIT_USER_ERROR = 2
EXIT_STORE_ERROR = 3


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--min-pts", nargs="+", type=int, default=[10, 50], metavar="K",
        help="a single MinPts value, or a LB UB pair (default: 10 50)",
    )
    parser.add_argument(
        "--aggregate", choices=("max", "min", "mean", "median"), default="max",
        help="aggregation over the MinPts range (default: max, per Section 6.2)",
    )
    parser.add_argument(
        "--index", default="brute",
        help="k-NN substrate: brute, grid, kdtree, balltree, rstar, xtree, vafile",
    )
    parser.add_argument(
        "--metric", default="euclidean",
        help="distance metric: euclidean, manhattan, chebyshev",
    )
    parser.add_argument(
        "--n-jobs", type=int, default=None, metavar="N",
        help="worker processes for the materialization query loop "
             "(default: serial; -1 = one per CPU; results are identical)",
    )


def _add_scorer_option(parser: argparse.ArgumentParser, help_suffix: str = "") -> None:
    parser.add_argument(
        "--scorer", default=None, metavar="NAME",
        help="registered local-outlier scorer: lof (default), ldof, loop, "
             "knn_dist — see 'repro-lof scorers'" + help_suffix,
    )


def _min_pts_arg(values: List[int]):
    if len(values) == 1:
        return values[0]
    if len(values) == 2:
        return (values[0], values[1])
    raise SystemExit("--min-pts takes one value or a LB UB pair")


def _fit(args, X) -> LocalOutlierFactor:
    est = LocalOutlierFactor(
        min_pts=_min_pts_arg(args.min_pts),
        aggregate=args.aggregate,
        metric=args.metric,
        index=args.index,
        n_jobs=args.n_jobs,
        scorer=getattr(args, "scorer", None) or "lof",
    )
    return est.fit(X)


def _cmd_score(args) -> int:
    X, labels = load_dataset(args.dataset)
    if args.store is not None:
        from .serve import OnlineScorer

        scorer = OnlineScorer.from_path(
            args.store, mmap=args.mmap, scorer=args.scorer
        )
        # A single --min-pts value scores a plain per-k score; otherwise
        # the stored model's own grid and aggregate apply.
        min_pts = args.min_pts[0] if len(args.min_pts) == 1 else None
        scores = scorer.score_new(X, min_pts=min_pts)
        save_scores(args.out, scores, labels=labels)
        print(
            f"wrote {len(scores)} online {scorer.scorer_name} scores "
            f"(store {args.store}) to {args.out}"
        )
        return 0
    est = _fit(args, X)
    save_scores(args.out, est.scores_, labels=labels)
    print(f"wrote {len(est.scores_)} {est.scorer} scores to {args.out}")
    return 0


def _cmd_fit(args) -> int:
    X, _ = load_dataset(args.dataset)
    est = LocalOutlierFactor(
        min_pts=_min_pts_arg(args.min_pts),
        aggregate=args.aggregate,
        metric=args.metric,
        index=args.index,
        duplicate_mode=args.duplicate_mode,
        threshold=args.threshold,
        n_jobs=args.n_jobs,
        scorer=args.scorer or "lof",
    ).fit(X)
    est.save(args.out)
    print(
        f"fitted {est.materialization_.n_points} objects "
        f"(MinPts {est.min_pts_values_[0]}..{est.min_pts_values_[-1]}, "
        f"aggregate={est.aggregate}, scorer={est.scorer}) "
        f"and saved the model to {args.out}"
    )
    return 0


def _cmd_serve(args) -> int:
    from .serve import run_fleet, run_server

    batch_window_ms = None if args.no_batch else args.batch_window_ms
    stream = None
    if args.stream:
        stream = {
            "check_every": args.stream_check_every,
            "drift_quantile": args.stream_drift_quantile,
            "drift_factor": args.stream_drift_factor,
            "reservoir": args.stream_reservoir,
            "seed": args.stream_seed,
        }
        if args.stream_window is not None:
            stream["window"] = args.stream_window
        if args.stream_cooldown is not None:
            stream["cooldown"] = args.stream_cooldown
        if args.stream_dir is not None:
            stream["store_dir"] = args.stream_dir
    if args.workers > 1:
        return run_fleet(
            args.store,
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_requests=args.max_requests,
            cache_size=args.cache_size,
            batch_window_ms=batch_window_ms,
            max_batch=args.max_batch,
            max_queue=args.max_queue,
            scorer=args.scorer,
            stream=stream,
        )
    return run_server(
        args.store,
        host=args.host,
        port=args.port,
        mmap=args.mmap,
        max_requests=args.max_requests,
        cache_size=args.cache_size,
        batch_window_ms=batch_window_ms,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        scorer=args.scorer,
        stream=stream,
    )


def _cmd_scorers(args) -> int:
    from .scorers import get_scorer, list_scorers

    print("name       data  bounds  description")
    for name in list_scorers():
        s = get_scorer(name)
        needs = "X" if s.requires_data else "-"
        bounds = "yes" if s.supports_bounds else "-"
        print(f"{name:<10} {needs:>4}  {bounds:>6}  {s.description}")
    return 0


def _cmd_rank(args) -> int:
    X, labels = load_dataset(args.dataset)
    est = _fit(args, X)
    ranking = est.rank(top_n=args.top, threshold=args.threshold, labels=labels)
    print(ranking.to_table())
    return 0


def _cmd_topn(args) -> int:
    X, labels = load_dataset(args.dataset)
    result = top_n_lof(
        X,
        n_outliers=args.n,
        min_pts=args.min_pts[0] if len(args.min_pts) == 1 else max(args.min_pts),
        metric=args.metric,
        index=args.index,
    )
    rows = [
        f"{rank + 1:>3}  {score:6.2f}  "
        + (labels[i] if labels is not None else f"object {i}")
        for rank, (i, score) in enumerate(zip(result.ids, result.scores))
    ]
    print("rank  LOF    object")
    print("\n".join(rows))
    print(
        f"\nexact LOF evaluations: {result.exact_evaluations} of "
        f"{result.exact_evaluations + result.pruned} "
        f"({result.prune_fraction:.0%} pruned by Theorem-1 bounds)"
    )
    return 0


def _cmd_materialize(args) -> int:
    X, _ = load_dataset(args.dataset)
    mat = MaterializationDB.materialize(
        X,
        args.min_pts_ub,
        index=args.index,
        metric=args.metric,
        duplicate_mode=args.duplicate_mode,
        n_jobs=args.n_jobs,
    )
    mat.save(args.out, metric=args.metric)
    print(
        f"materialized {mat.n_points} objects x MinPtsUB={mat.min_pts_ub} "
        f"({mat.size_in_records()} records) to {args.out}"
    )
    return 0


def _cmd_sweep(args) -> int:
    mat = MaterializationDB.load(args.materialization)
    lb, ub = (args.min_pts[0], args.min_pts[-1])
    print("MinPts    min    mean     max")
    for k in range(lb, ub + 1):
        lof = mat.lof(k)
        print(f"{k:6d}  {lof.min():5.2f}  {lof.mean():5.2f}  {lof.max():6.2f}")
    return 0


def _cmd_lint(args) -> int:
    # Lazy import: the analyzer is a dev-facing surface; scoring
    # commands must not pay for it.
    from .lint.cli import main as lint_main

    passthrough = list(args.lint_args)
    if passthrough and passthrough[0] == "--":
        passthrough = passthrough[1:]
    return lint_main(passthrough)


def _cmd_demo(args) -> int:
    dataset = make_fig9_dataset(seed=args.seed)
    est = LocalOutlierFactor(min_pts=40).fit(dataset.X)
    names = [dataset.label_names[label] for label in dataset.labels]
    ranking = rank_outliers(est.scores_, top_n=10, labels=names)
    print("Figure 9 demo: top-10 LOF (MinPts=40) on the 4-cluster dataset")
    print(ranking.to_table())
    planted = set(dataset.members("outlier"))
    hits = sum(1 for e in ranking if e.index in planted)
    print(f"\n{hits} of the top {len(ranking)} are the 7 planted outliers")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lof",
        description=(
            "LOF: Identifying Density-Based Local Outliers "
            "(Breunig, Kriegel, Ng, Sander; SIGMOD 2000) — reproduction CLI"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--profile", action="store_true",
        help="run the command with repro.obs instrumentation enabled and "
             "emit the counter/timer snapshot as JSON (stderr by default)",
    )
    parser.add_argument(
        "--profile-out", metavar="PATH", default=None,
        help="write the --profile JSON snapshot to this file instead of stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_score = sub.add_parser("score", help="compute LOF scores for a CSV dataset")
    p_score.add_argument("dataset", help="CSV written by repro.io.save_dataset")
    p_score.add_argument("--out", required=True, help="output score CSV")
    p_score.add_argument(
        "--store", default=None, metavar="PATH",
        help="score online against this persisted model store instead of "
             "fitting (a single --min-pts selects LOF_k; otherwise the "
             "stored grid and aggregate apply)",
    )
    p_score.add_argument(
        "--mmap", action="store_true",
        help="with --store: memory-map the store instead of reading it",
    )
    _add_common_options(p_score)
    _add_scorer_option(
        p_score,
        " (with --store: overrides the store's fitted scorer)",
    )
    p_score.set_defaults(func=_cmd_score)

    p_fit = sub.add_parser(
        "fit", help="fit an estimator and persist the model to a store file"
    )
    p_fit.add_argument("dataset", help="CSV written by repro.io.save_dataset")
    p_fit.add_argument("--out", required=True, help="output model store file")
    p_fit.add_argument(
        "--duplicate-mode", choices=("inf", "distinct", "error"), default="inf"
    )
    p_fit.add_argument(
        "--threshold", type=float, default=1.5,
        help="outlier threshold stored with the model (default: 1.5)",
    )
    _add_common_options(p_fit)
    _add_scorer_option(p_fit, " (recorded in the store header)")
    p_fit.set_defaults(func=_cmd_fit)

    p_serve = sub.add_parser(
        "serve", help="serve a persisted model over HTTP for online scoring"
    )
    p_serve.add_argument("store", help="model store written by 'fit'")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8000)
    p_serve.add_argument(
        "--max-requests", type=int, default=None, metavar="N",
        help="shut down after N scored requests (default: serve forever)",
    )
    p_serve.add_argument(
        "--mmap", action="store_true",
        help="memory-map the store instead of reading it into RAM",
    )
    p_serve.add_argument(
        "--cache-size", type=int, default=1024, metavar="N",
        help="LRU entries for repeated-query reuse (0 disables)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="fork N serving processes sharing one port and one "
             "memmapped store (implies --mmap; default: 1, in-process)",
    )
    p_serve.add_argument(
        "--batch-window-ms", type=float, default=2.0, metavar="MS",
        help="coalesce concurrent /score requests for up to MS "
             "milliseconds into one kernel call (default: 2.0)",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=64, metavar="N",
        help="flush a coalesced batch once it holds N points "
             "(default: 64)",
    )
    p_serve.add_argument(
        "--max-queue", type=int, default=1024, metavar="N",
        help="bounded /score request queue depth; a full queue blocks "
             "new requests (default: 1024)",
    )
    p_serve.add_argument(
        "--no-batch", action="store_true",
        help="disable request coalescing (score each request alone)",
    )
    _add_scorer_option(
        p_serve,
        " (service default; per-request \"scorer\" still overrides)",
    )
    p_serve.add_argument(
        "--stream", action="store_true",
        help="turn on the online lifecycle: ingest every scored point "
             "into a sliding window, detect score drift, refit in the "
             "background and hot-swap the serving model (requires "
             "--workers 1; see docs/streaming.md)",
    )
    p_serve.add_argument(
        "--stream-window", type=int, default=None, metavar="N",
        help="sliding-window capacity (default: 4x the store's MinPts "
             "upper bound, at least 64)",
    )
    p_serve.add_argument(
        "--stream-check-every", type=int, default=32, metavar="N",
        help="run a drift check every N ingested points (default: 32)",
    )
    p_serve.add_argument(
        "--stream-drift-quantile", type=float, default=0.9, metavar="Q",
        help="score quantile compared between recent and reference "
             "samples (default: 0.9)",
    )
    p_serve.add_argument(
        "--stream-drift-factor", type=float, default=2.0, metavar="F",
        help="declare drift when Q_q(recent) > F * Q_q(reference) "
             "(default: 2.0)",
    )
    p_serve.add_argument(
        "--stream-cooldown", type=int, default=None, metavar="N",
        help="minimum ingests between refits (default: the window size)",
    )
    p_serve.add_argument(
        "--stream-reservoir", type=int, default=64, metavar="N",
        help="reference reservoir-sample capacity (default: 64)",
    )
    p_serve.add_argument(
        "--stream-seed", type=int, default=0, metavar="SEED",
        help="reservoir sampler seed; replays are deterministic for a "
             "fixed seed (default: 0)",
    )
    p_serve.add_argument(
        "--stream-dir", default=None, metavar="DIR",
        help="directory refit stores are written to (default: the "
             "served store's directory)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_scorers = sub.add_parser(
        "scorers", help="list the registered local-outlier scorers"
    )
    p_scorers.set_defaults(func=_cmd_scorers)

    p_rank = sub.add_parser("rank", help="print the top outliers of a dataset")
    p_rank.add_argument("dataset", help="CSV written by repro.io.save_dataset")
    p_rank.add_argument("--top", type=int, default=10, help="rows to print")
    p_rank.add_argument(
        "--threshold", type=float, default=None,
        help="only print objects with LOF above this",
    )
    _add_common_options(p_rank)
    p_rank.set_defaults(func=_cmd_rank)

    p_topn = sub.add_parser(
        "topn", help="exact top-n outliers with Theorem-1 bound pruning"
    )
    p_topn.add_argument("dataset", help="CSV written by repro.io.save_dataset")
    p_topn.add_argument("--n", type=int, default=10, help="outliers to mine")
    _add_common_options(p_topn)
    p_topn.set_defaults(func=_cmd_topn)

    p_mat = sub.add_parser(
        "materialize",
        help="build the materialization database M and save it as a "
             "model store",
    )
    p_mat.add_argument("dataset", help="CSV written by repro.io.save_dataset")
    p_mat.add_argument("--out", required=True, help="output model store file")
    p_mat.add_argument("--min-pts-ub", type=int, default=50)
    p_mat.add_argument("--index", default="brute")
    p_mat.add_argument("--metric", default="euclidean")
    p_mat.add_argument(
        "--duplicate-mode", choices=("inf", "distinct", "error"), default="inf"
    )
    p_mat.add_argument(
        "--n-jobs", type=int, default=None, metavar="N",
        help="parallel workers for the query loop (-1 = one per CPU)",
    )
    p_mat.set_defaults(func=_cmd_materialize)

    p_sweep = sub.add_parser(
        "sweep", help="LOF statistics per MinPts from a persisted M"
    )
    p_sweep.add_argument(
        "materialization", help="model store from 'materialize' (or 'fit')"
    )
    p_sweep.add_argument(
        "--min-pts", nargs="+", type=int, default=[10, 50], metavar="K"
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_demo = sub.add_parser("demo", help="run the Figure 9 synthetic demo")
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.set_defaults(func=_cmd_demo)

    p_lint = sub.add_parser(
        "lint", help="run the repro.lint invariant analyzer over the tree"
    )
    p_lint.add_argument(
        "lint_args", nargs=argparse.REMAINDER, metavar="ARGS",
        help="arguments passed through to python -m repro.lint "
             "(prefix with -- to forward flags)",
    )
    p_lint.set_defaults(func=_cmd_lint)

    return parser


def _emit_profile(snapshot: dict, out_path: Optional[str]) -> None:
    payload = json.dumps(snapshot, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload + "\n")
        print(f"wrote instrumentation profile to {out_path}", file=sys.stderr)
    else:
        print(payload, file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.profile:
            with obs.collect() as snapshot:
                rc = args.func(args)
            _emit_profile(snapshot, args.profile_out)
            return rc
        return args.func(args)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STORE_ERROR
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
