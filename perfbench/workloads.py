"""The three workloads: fit-lowd, serve-sweep and serve-stream.

Each workload function runs one set-up, timed phase and output check
against the program's public surfaces (a fresh ``fitchild.py`` process
per fit, ``python -m repro serve`` per server) and returns a
:class:`Result`. ``ctx.traced`` runs every program process under
``tracer.py`` and adds the per-layer metrics of the timed phase.

Every end-to-end time and rate is reported in reference-speed seconds
(``speed.py``): each measured interval is divided by the host's
slowness over that interval, as the run's speed probe measured it. The
raw values go into the run record.
"""

from __future__ import annotations

import http.client
import json
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import inputs
import lofcheck
import tracer
from loadgen import OpenLoop, Outcome, percentile_ms, post_bytes, proc_cpu_s, proc_hwm_mb
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
N_SETUPS = 3
# serve-sweep's adapt_s: a hot-swap and the new generation's first
# answer, which pays its lazy per-k set-up (about 80 ms in all); time
# many, report the median.
N_RELOADS = 31
# fit-lowd's adapt_s: cold starts of a server on the freshly saved store.
N_COLD = 5

# serve-sweep: one fixed offered rate for the latency metrics (about a
# third of the server's capacity on the reference box), held for this
# share of the run length.
SWEEP_RATE = 12.0
SWEEP_FIXED_SHARE = 0.7
# serve-stream: the replay rate (about a third of the full-window
# server's capacity on the reference box) and the window.
STREAM_RATE = 16.0
STREAM_WINDOW = 192
# The window is filled before the timed replay in requests of this many
# points.
STREAM_FILL_BATCH = 16
STREAM_MIN_PTS = 20
# max_rate_rps: bursts of requests that are all due at once, so every
# connection is always busy; a burst lasts about a second at capacity.
SAT_BURSTS = 5
SAT_REQUESTS = 40


@dataclass
class Ctx:
    work: Path
    env: Dict[str, str]
    seed: int
    seconds: float
    speed: SpeedProbe
    traced: bool = False
    spans: List[Path] = field(default_factory=list)

    def span_path(self, tag: str) -> Path:
        path = self.work / f"spans-{tag}-{len(self.spans)}.json"
        self.spans.append(path)
        return path

    def command(self, args: List[str], tag: str) -> List[str]:
        """The program command, wrapped in the tracer when traced."""
        if not self.traced:
            return [sys.executable] + args
        return [sys.executable, str(HERE / "tracer.py"), str(self.span_path(tag))] + args


@dataclass
class Result:
    metrics: Dict[str, float]
    phases: Dict[str, List[int]]       # phase -> [attempted, failed]
    checks: Dict[str, bool]
    info: Dict = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def median(values) -> float:
    return float(statistics.median(values))


class Clock:
    """Wall time of each named phase, for the run record."""

    def __init__(self):
        self.t = time.perf_counter()
        self.phases: Dict[str, float] = {}

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.phases[name] = round(now - self.t, 3)
        self.t = now


# -- program processes ---------------------------------------------------------


def run_fit(ctx: Ctx, x_path: Path, store: Path) -> Dict:
    """One fit in a fresh process; adds its launch and exit times."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        ctx.command([str(HERE / "fitchild.py"), "fit", str(x_path), str(store)], "fit"),
        env=ctx.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170, check=False,
    )
    t1 = time.perf_counter()
    if proc.returncode != 0:
        raise RuntimeError(f"fit process failed:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out.update(launch=t0, exit=t1, wall_s=t1 - t0,
               ref_fit_s=ctx.speed.seconds(out["fit_s"], out["t0"], out["t1"]),
               ref_wall_s=ctx.speed.seconds(t1 - t0, t0, t1))
    if ctx.traced:
        out["spans"] = ctx.spans[-1]
    return out


class Server:
    """``repro serve`` in a child process on an ephemeral port."""

    def __init__(self, ctx: Ctx, store: Path, extra: List[str]):
        self.ctx = ctx
        self.args = ["-m", "repro", "serve", str(store), "--port", "0"] + extra
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.spans: Optional[Path] = None
        self._stderr = None

    def start(self) -> None:
        self._stderr = open(self.ctx.work / "serve.err", "a")
        self.proc = subprocess.Popen(
            self.ctx.command(self.args, "serve"), env=self.ctx.env,
            stdout=subprocess.PIPE, stderr=self._stderr, text=True,
        )
        if self.ctx.traced:
            self.spans = self.ctx.spans[-1]
        ready, _, _ = select.select([self.proc.stdout], [], [], 120)
        line = self.proc.stdout.readline() if ready else ""
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])

    def request(self, method: str, path: str, payload: Optional[dict] = None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            body = None if payload is None else json.dumps(payload)
            conn.request(method, path, body, {"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read() or b"null")
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGINT (the server drains and exits), then wait for it."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


# -- timed phases ----------------------------------------------------------------


def fixed_rate(port: int, payloads: List[bytes], rate: float,
               connections: int) -> List[Outcome]:
    """Send ``payloads`` open-loop at ``rate`` requests per second."""
    dues = [i / rate for i in range(len(payloads))]
    with OpenLoop("127.0.0.1", port, connections) as gen:
        return gen.run(dues, payloads)


def all_answered(outcomes, scheduled: int) -> bool:
    """Every scheduled request was sent and answered 200."""
    return len(outcomes) == scheduled and all(o.ok for o in outcomes)


def saturate(ctx: Ctx, port: int, bursts: List[List[bytes]],
             connections: int) -> Tuple[float, List[float], List[Outcome]]:
    """Requests answered per second with every connection kept busy.

    Each burst is due at once, so the generator pipelines it and the
    server always has a request waiting on every connection. A burst's
    rate is its answers after the first over the time from the first to
    the last, in reference speed; the result is the median over bursts,
    with the raw rates and every outcome.
    """
    rates, raw, outcomes = [], [], []
    with OpenLoop("127.0.0.1", port, connections) as gen:
        for payloads in bursts:
            outs = gen.run([0.0] * len(payloads), payloads)
            outcomes += outs
            done = [o.done for o in outs if o.ok]
            if len(done) < 2:
                continue
            first, last = min(done), max(done)
            raw.append((len(done) - 1) / (last - first))
            rates.append(raw[-1] * ctx.speed.slowness(first, last))
    return (median(rates) if rates else float("nan")), raw, outcomes


def latency_metrics(ctx: Ctx, outcomes) -> Dict[str, float]:
    """Percentiles of every request's latency in reference speed; the
    workloads' checks fail the run unless each one was answered 200."""
    lat = [ctx.speed.seconds(o.latency, o.due, o.done) for o in outcomes]
    return {
        "latency_p50_ms": percentile_ms(lat, 50),
        "latency_p90_ms": percentile_ms(lat, 90),
    }


def ref_seconds(ctx: Ctx, spans: List[Tuple[float, float]]) -> List[float]:
    """Each (start, end) interval's length in reference speed."""
    return [ctx.speed.seconds(t1 - t0, t0, t1) for t0, t1 in spans]


def load_layers(spans: Path, lo: float, hi: float) -> Dict[str, float]:
    with open(spans) as fh:
        return tracer.summarize(json.load(fh), lo, hi)


class Usage:
    """CPU seconds of a server and of this (generator) process."""

    def __init__(self, pid: Optional[int]):
        self.pid = pid
        self.server0 = proc_cpu_s(pid) if pid else 0.0
        self.children0 = _children_cpu()
        self.gen0 = time.process_time()

    def layers(self, outcomes=()) -> Dict[str, float]:
        server = (proc_cpu_s(self.pid) - self.server0 if self.pid
                  else _children_cpu() - self.children0)
        late = [o.late for o in outcomes]
        return {
            "cpu.server_s": server,
            "cpu.generator_s": time.process_time() - self.gen0,
            "gen.late_p99_ms": percentile_ms(late, 99),
        }


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


# -- fit-lowd ------------------------------------------------------------------


def cold_serve(ctx: Ctx, store: Path) -> Tuple[Tuple[float, float], float]:
    """Launch ``repro serve`` on a new store; ((launch, first /score
    answer), server peak RSS in MiB)."""
    t0 = time.perf_counter()
    server = Server(ctx, store, [])
    server.start()
    try:
        status, _ = server.request("POST", "/score", {"points": [[0.0] * inputs.LOWD_D]})
        t1 = time.perf_counter()
        if status != 200:
            raise RuntimeError(f"cold /score answered {status}")
        return (t0, t1), proc_hwm_mb(server.proc.pid)
    finally:
        server.stop()


def fit_lowd(ctx: Ctx) -> Result:
    x_path = ctx.work / "lowd.npy"
    store = ctx.work / "lowd.rlof"
    clock = Clock()
    setups = []
    for _ in range(N_SETUPS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "fitchild.py"), "gen", "lowd",
             str(ctx.seed), str(x_path)],
            env=ctx.env, check=True, timeout=120,
        )
        setups.append((t0, time.perf_counter()))
    clock.lap("setup")

    usage = Usage(None)
    fits: List[Dict] = []
    t_start = time.perf_counter()
    # Start another fit only if it should end within the run length.
    while len(fits) < 3 or (time.perf_counter() - t_start + fits[-1]["wall_s"]
                            <= ctx.seconds):
        fits.append(run_fit(ctx, x_path, store))
    t_end = time.perf_counter()
    layers = usage.layers()
    clock.lap("fits")
    cold = [cold_serve(ctx, store) for _ in range(N_COLD)]
    clock.lap("cold_serve")

    from repro.store import load_model

    model = load_model(store)
    X = np.load(x_path)
    rng = np.random.default_rng([ctx.seed, 4])
    sample = [int(np.argmax(model.scores))] + [
        int(i) for i in rng.choice(len(X), size=3, replace=False)
    ]
    ks = [int(k) for k in model.min_pts_values]
    expected = lofcheck.sample_lof(X, sample, ks)
    checks = {
        "lof_matrix_matches_definitions": bool(np.allclose(
            model.lof_matrix[:, sample], expected, rtol=1e-9, atol=0.0)),
        "scores_are_max_over_range": bool(np.allclose(
            model.scores[sample], expected.max(axis=0), rtol=1e-9, atol=0.0)),
    }
    clock.lap("check")
    wall = [f["ref_wall_s"] for f in fits]
    result = Result(
        metrics={
            "setup_s": median(ref_seconds(ctx, setups)),
            "fit_s": median(f["ref_fit_s"] for f in fits),
            "fit_peak_rss_mb": median(f["peak_rss_mb"] for f in fits),
            "latency_p50_ms": percentile_ms(wall, 50),
            "latency_p90_ms": percentile_ms(wall, 90),
            "max_rate_rps": len(fits) / ref_seconds(ctx, [(t_start, t_end)])[0],
            "adapt_s": median(ref_seconds(ctx, [c[0] for c in cold])),
            "server_rss_mb": median(c[1] for c in cold),
        },
        phases={"setup": [N_SETUPS, 0], "fit": [len(fits), 0],
                "cold_serve": [N_COLD, 0], "check": [len(sample), 0]},
        checks=checks,
        info={"phase_s": clock.phases, "fits": len(fits),
              "raw": {"setup_s": [t1 - t0 for t0, t1 in setups],
                      "fit_s": [f["fit_s"] for f in fits],
                      "fit_wall_s": [f["wall_s"] for f in fits],
                      "fit_phase_s": t_end - t_start,
                      "cold_serve_s": [t1 - t0 for (t0, t1), _ in cold]},
              "n": inputs.LOWD_N, "d": inputs.LOWD_D, "checked_ids": sample},
    )
    if ctx.traced:
        per_fit = [load_layers(f["spans"], -np.inf, np.inf) for f in fits]
        result.layers = {k: float(np.mean([p[k] for p in per_fit])) for k in per_fit[0]}
        result.layers.update(layers)
        result.layers["fit.other_s"] = (
            float(np.mean([f["fit_s"] for f in fits])) - result.layers["fit.layer_sum_s"])
    return result


# -- serve-sweep -------------------------------------------------------------------


def _setup_server(ctx: Ctx, x_path: Path, store: Path, extra: List[str],
                  warm: List[dict]) -> Tuple[Server, List[Tuple[float, float]], List[Dict]]:
    """Fit the store, start its server and send it the ``warm`` requests
    one by one, N_SETUPS times; the last server is kept running for the
    timed phase."""
    setups, fits = [], []
    server = None
    for i in range(N_SETUPS):
        for stale in ctx.work.glob("stream-refit-*.rlof"):
            stale.unlink()
        t0 = time.perf_counter()
        fits.append(run_fit(ctx, x_path, store))
        server = Server(ctx, store, extra)
        server.start()
        try:
            statuses = [server.request("GET", "/healthz")[0]]
            statuses += [server.request("POST", "/score", w)[0] for w in warm]
        except BaseException:
            server.stop()
            raise
        if set(statuses) != {200}:
            server.stop()
            raise RuntimeError(f"server warm-up answered {statuses}")
        setups.append((t0, time.perf_counter()))
        if i < N_SETUPS - 1:
            server.stop()
    return server, setups, fits


def serve_sweep(ctx: Ctx) -> Result:
    pts = inputs.sweep_points(ctx.seed)
    x_path = ctx.work / "sweep.npy"
    np.save(x_path, pts[:inputs.SWEEP_N])
    store = ctx.work / "sweep.rlof"
    warm = [{"points": [pts[0].tolist()]}]
    clock = Clock()
    server, setups, fits = _setup_server(ctx, x_path, store, [], warm)
    clock.lap("setup")
    mix = inputs.SweepMix(ctx.seed)
    try:
        usage = Usage(server.proc.pid)
        t_lo = time.perf_counter()
        # A whole number of 8-request mix cycles.
        n_fixed = 8 * max(1, int(SWEEP_RATE * SWEEP_FIXED_SHARE * ctx.seconds) // 8)
        fixed_points = mix.take(n_fixed)
        outcomes = fixed_rate(server.port, [post_bytes("/score", inputs.body(p))
                                            for p in fixed_points], SWEEP_RATE, 2)
        clock.lap("fixed")
        best, sat_raw, sat = saturate(
            ctx, server.port,
            [[post_bytes("/score", inputs.body(p)) for p in mix.take(SAT_REQUESTS)]
             for _ in range(SAT_BURSTS)], connections=2)
        clock.lap("saturate")
        reloads = []
        for _ in range(N_RELOADS):
            t0 = time.perf_counter()
            status, _ = server.request("POST", "/admin/reload", {})
            if status == 200:
                status, _ = server.request("POST", "/score", warm[0])
            reloads.append((t0, time.perf_counter(), status))
        t_hi = time.perf_counter()
        layers = usage.layers(outcomes)
        rss = proc_hwm_mb(server.proc.pid)
    finally:
        server.stop()
    clock.lap("reload_and_stop")

    from repro.serve import OnlineScorer

    scorer = OnlineScorer.from_path(store)
    sampled = [i for i in range(len(outcomes)) if i % 5 == 0 or i % 8 == 7]
    identical = True
    for i in sampled:
        got = json.loads(outcomes[i].body)["scores"] if outcomes[i].ok else None
        want = [float(s) for s in scorer.score_new(fixed_points[i])]
        identical &= got == want
    clock.lap("check")
    failed_fixed = sum(not o.ok for o in outcomes)
    failed_sat = sum(not o.ok for o in sat)
    failed_reload = sum(status != 200 for _, _, status in reloads)
    result = Result(
        metrics={
            "setup_s": median(ref_seconds(ctx, setups)),
            "fit_s": median(f["ref_fit_s"] for f in fits),
            "fit_peak_rss_mb": median(f["peak_rss_mb"] for f in fits),
            **latency_metrics(ctx, outcomes),
            "max_rate_rps": best,
            "adapt_s": median(ref_seconds(ctx, [(t0, t1) for t0, t1, _ in reloads])),
            "server_rss_mb": rss,
        },
        phases={"setup": [N_SETUPS, 0], "fixed": [len(outcomes), failed_fixed],
                "saturate": [len(sat), failed_sat],
                "reload": [len(reloads), failed_reload],
                "check": [len(sampled), 0 if identical else len(sampled)]},
        checks={"responses_bit_identical_to_in_process": identical,
                "all_fixed_rate_requests_answered_200": all_answered(
                    outcomes, len(fixed_points)),
                "all_saturation_requests_answered_200": all_answered(
                    sat, SAT_BURSTS * SAT_REQUESTS),
                "all_reloads_answered_200": failed_reload == 0},
        info={"phase_s": clock.phases, "fixed_rate_rps": SWEEP_RATE,
              "fixed_requests": len(outcomes),
              "raw": {"setup_s": [t1 - t0 for t0, t1 in setups],
                      "fit_s": [f["fit_s"] for f in fits],
                      "latency_p50_ms": percentile_ms([o.latency for o in outcomes], 50),
                      "latency_p90_ms": percentile_ms([o.latency for o in outcomes], 90),
                      "saturated_rps": sat_raw,
                      "reload_s": [t1 - t0 for t0, t1, _ in reloads]}},
    )
    if ctx.traced:
        result.layers = load_layers(server.spans, t_lo, t_hi)
        result.layers.update(layers, **{"fit.other_s": 0.0})
    return result


# -- serve-stream ------------------------------------------------------------------


class DriftMonitor(threading.Thread):
    """Poll /stats from ``start`` until a drift refit is serving."""

    def __init__(self, server: Server, start: float, stop_after: float):
        super().__init__(daemon=True)
        self.server, self.start_at, self.stop_after = server, start, stop_after
        self.seen: Optional[float] = None
        self.error: Optional[str] = None

    def run(self) -> None:
        time.sleep(max(0.0, self.start_at - time.perf_counter()))
        try:
            while time.perf_counter() < self.stop_after:
                _, stats = self.server.request("GET", "/stats")
                lineage = (stats.get("stream") or {}).get("lineage") or []
                if any(rec["reason"] == "drift" for rec in lineage):
                    self.seen = time.perf_counter()
                    return
                time.sleep(0.02)
        except OSError as exc:
            self.error = repr(exc)


def serve_stream(ctx: Ctx) -> Result:
    x_path = ctx.work / "stream.npy"
    np.save(x_path, inputs.make_dataset("stream", ctx.seed))
    store = ctx.work / "stream.rlof"
    extra = ["--stream", "--stream-window", str(STREAM_WINDOW)]
    stream = inputs.stream_points(ctx.seed)
    n_warm, n_fill = inputs.STREAM_WARM, inputs.STREAM_FILL
    n0, n1 = inputs.STREAM_REGIME0, inputs.STREAM_REGIME1
    # Lazy set-up a long-running server pays once: per-k caches and the
    # drift reference, which the first drift check scores from the
    # reservoir under the serving model.
    warm = [{"points": [p.tolist()], "min_pts": STREAM_MIN_PTS} for p in stream[:n_warm]]
    fill = [{"points": stream[i:i + STREAM_FILL_BATCH].tolist(), "min_pts": STREAM_MIN_PTS}
            for i in range(n_warm, n_warm + n_fill, STREAM_FILL_BATCH)]
    stream = stream[n_warm + n_fill:]
    clock = Clock()
    server, setups, fits = _setup_server(ctx, x_path, store, extra, warm)
    clock.lap("setup")
    replay = [inputs.body([p.tolist()], STREAM_MIN_PTS) for p in stream[:n0 + n1]]
    rest = [post_bytes("/score", inputs.body([p.tolist()], STREAM_MIN_PTS))
            for p in stream[n0 + n1:]]
    bursts = [rest[i * SAT_REQUESTS:(i + 1) * SAT_REQUESTS] for i in range(SAT_BURSTS)]

    try:
        # Fill the window, so every timed request also evicts a point.
        statuses = [server.request("POST", "/score", f)[0] for f in fill]
        if set(statuses) != {200}:
            raise RuntimeError(f"window fill answered {statuses}")
        clock.lap("fill")
        usage = Usage(server.proc.pid)
        t_lo = time.perf_counter()
        switch_guess = t_lo + n0 / STREAM_RATE - 0.5
        monitor = DriftMonitor(server, switch_guess,
                               t_lo + (n0 + n1) / STREAM_RATE + 20.0)
        monitor.start()
        outcomes = fixed_rate(server.port, [post_bytes("/score", b) for b in replay],
                              STREAM_RATE, 1)
        monitor.join(timeout=30)
        clock.lap("replay")
        best, sat_raw, sat = saturate(ctx, server.port, bursts, connections=1)
        t_hi = time.perf_counter()
        layers = usage.layers(outcomes)
        rss = proc_hwm_mb(server.proc.pid)
        _, stats = server.request("GET", "/stats")
        clock.lap("saturate")
    finally:
        server.stop()
    clock.lap("stop")

    from repro.serve import OnlineScorer
    from repro.store import read_header, store_fingerprint

    lineage = (stats.get("stream") or {}).get("lineage") or []
    parent = store_fingerprint(read_header(store))
    chain = bool(lineage)
    for rec in lineage:
        on_disk = read_header(rec["path"]).get("lineage") or {}
        chain &= rec["parent"] == parent == on_disk.get("parent")
        parent = rec["fingerprint"]
    scorer = OnlineScorer.from_path(store)
    early = list(range(0, 64, 4))  # served before any refit can trigger
    identical = all(
        outcomes[i].ok and json.loads(outcomes[i].body)["scores"]
        == [float(s) for s in scorer.score_new([stream[i].tolist()],
                                               min_pts=STREAM_MIN_PTS)]
        for i in early
    )
    clock.lap("check")
    adapted = monitor.seen is not None and len(outcomes) > n0
    failed_replay = sum(not o.ok for o in outcomes)
    failed_sat = sum(not o.ok for o in sat)
    result = Result(
        metrics={
            "setup_s": median(ref_seconds(ctx, setups)),
            "fit_s": median(f["ref_fit_s"] for f in fits),
            "fit_peak_rss_mb": median(f["peak_rss_mb"] for f in fits),
            **latency_metrics(ctx, outcomes),
            "max_rate_rps": best,
            # As measured: most of it is the replay schedule (the refit
            # triggers at the same stream position in every run), which
            # the host's speed does not stretch.
            "adapt_s": (monitor.seen - outcomes[n0].due) if adapted else float("nan"),
            "server_rss_mb": rss,
        },
        phases={"setup": [N_SETUPS, 0], "replay": [len(outcomes), failed_replay],
                "saturate": [len(sat), failed_sat],
                "check": [len(early) + 1, 0 if identical and chain else 1]},
        checks={"drift_refit_served": adapted,
                "lineage_chain_unbroken": chain,
                "early_responses_bit_identical": identical,
                "all_replay_requests_answered_200": all_answered(outcomes, n0 + n1),
                "all_saturation_requests_answered_200": all_answered(
                    sat, SAT_BURSTS * SAT_REQUESTS)},
        info={"phase_s": clock.phases, "replay_rate_rps": STREAM_RATE,
              "fill": n_fill, "regime0": n0, "regime1": n1, "window": STREAM_WINDOW,
              "refits": [(r["reason"], r["t"]) for r in lineage],
              "monitor_error": monitor.error,
              "raw": {"setup_s": [t1 - t0 for t0, t1 in setups],
                      "fit_s": [f["fit_s"] for f in fits],
                      "latency_p50_ms": percentile_ms([o.latency for o in outcomes], 50),
                      "latency_p90_ms": percentile_ms([o.latency for o in outcomes], 90),
                      "saturated_rps": sat_raw}},
    )
    if ctx.traced:
        result.layers = load_layers(server.spans, t_lo, t_hi)
        result.layers.update(layers, **{"fit.other_s": 0.0})
    return result


WORKLOADS: Dict[str, Callable[[Ctx], Result]] = {
    "fit-lowd": fit_lowd,
    "serve-sweep": serve_sweep,
    "serve-stream": serve_stream,
}
