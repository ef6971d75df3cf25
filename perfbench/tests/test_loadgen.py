"""The open-loop generator against a local stdlib HTTP server."""

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import loadgen
from loadgen import OpenLoop, post_bytes


class Echo(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    delay = 0.0

    def do_POST(self):  # noqa: N802 - stdlib casing
        body = self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(self.delay)
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    srv = ThreadingHTTPServer(("127.0.0.1", 0), Echo)
    srv.daemon_threads = True
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=10)


def payloads(n):
    return [post_bytes("/score", str(i).encode()) for i in range(n)]


def test_a_generator_stall_is_charged_to_the_requests_due_during_it(server, monkeypatch):
    stall_at, stall_s, gap = 5, 0.2, 0.01
    real_send = OpenLoop._send

    def stalling_send(self, conn, index, payload, outcome):
        if index == stall_at:
            time.sleep(stall_s)
        real_send(self, conn, index, payload, outcome)

    monkeypatch.setattr(OpenLoop, "_send", stalling_send)
    dues = [i * gap for i in range(40)]
    with OpenLoop("127.0.0.1", server.server_address[1], 2) as gen:
        outs = gen.run(dues, payloads(40))
    assert len(outs) == 40 and all(o.ok for o in outs)
    assert [o.body for o in outs] == [str(i).encode() for i in range(40)]
    stall_end = outs[stall_at].sent
    assert outs[stall_at].late >= stall_s
    # Every request due before the stall ended waited for it: its
    # latency, timed from its due time, covers the rest of the stall.
    during = [o for o in outs[stall_at:] if o.due < stall_end]
    assert len(during) >= int(stall_s / gap) - 2
    for o in during:
        assert o.latency >= stall_end - o.due
    # Requests due well after the stall are on time again.
    after = [o for o in outs if o.due > stall_end + 0.05]
    assert after and max(o.late for o in after) < 0.05


def test_busy_connections_pipeline_and_keep_order(server, monkeypatch):
    monkeypatch.setattr(Echo, "delay", 0.02)
    dues = [0.0] * 10  # all due at once: more requests than connections
    with OpenLoop("127.0.0.1", server.server_address[1], 2) as gen:
        outs = gen.run(dues, payloads(10))
    assert [o.body for o in outs] == [str(i).encode() for i in range(10)]
    # Two connections, served one request at a time each: the last
    # answers arrive about five service times after they were due.
    assert max(o.latency for o in outs) >= 4 * 0.02


def test_proc_readers_see_this_process():
    import os

    assert loadgen.proc_cpu_s(os.getpid()) > 0.0
    assert loadgen.proc_hwm_mb(os.getpid()) > 1.0


def test_a_failed_or_unsent_request_fails_the_check():
    from loadgen import Outcome
    from workloads import all_answered

    fine = [Outcome(due=0.0, sent=0.0, done=0.01, status=200) for _ in range(9)]
    refused = Outcome(due=0.0, sent=0.0, done=0.001, status=503)
    assert all_answered(fine, 9)
    assert not all_answered(fine + [refused], 10)
    assert not all_answered(fine, 10)  # one scheduled request never sent
