"""Open-loop HTTP load generator and /proc readers for the benchmark.

One thread drives up to ``connections`` keep-alive sockets through a
selector. Each request has a *due* time on a fixed schedule; it is sent
as soon as it is due, on the connection with the fewest requests in
flight, and pipelined behind them when every connection is busy. A
request's latency runs from its due time to the end of its response, so
a stall anywhere (server or generator) is charged to every request that
came due during it. The generator reports its own lateness (send time
minus due time) so a late generator can be told apart from a slow
server.
"""

from __future__ import annotations

import os
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Sequence

import numpy as np

#: After the last send, wait at most this long for the
#: requests still in flight before giving up on them.
DRAIN_S = 30.0


@dataclass
class Outcome:
    """What happened to one scheduled request."""

    due: float                     # absolute perf_counter time it was due
    sent: float = float("nan")     # when its bytes were queued for sending
    done: float = float("nan")     # when its full response had arrived
    status: int = 0                # HTTP status; 0 = no response
    body: bytes = b""

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


def post_bytes(path: str, body: bytes) -> bytes:
    """One HTTP/1.1 keep-alive POST with a JSON body."""
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


@dataclass
class _Conn:
    sock: socket.socket
    out: bytearray = field(default_factory=bytearray)
    inbuf: bytearray = field(default_factory=bytearray)
    pending: Deque[int] = field(default_factory=deque)


def _connect(host: str, port: int) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=5.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.setblocking(False)
    return sock


def _pop_response(buf: bytearray):
    """Split one complete response off ``buf``: (status, body) or None."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = bytes(buf[:end]).decode("latin-1").split("\r\n")
    length = 0
    for line in head[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    total = end + 4 + length
    if len(buf) < total:
        return None
    status = int(head[0].split()[1])
    body = bytes(buf[end + 4:total])
    del buf[:total]
    return status, body


class OpenLoop:
    """Send scheduled requests open-loop and time them from their due time.

    ``run(dues, payloads)`` takes due offsets in seconds from the start
    and the raw request bytes for each, and returns one :class:`Outcome`
    per request, in schedule order.
    """

    def __init__(self, host: str, port: int, connections: int = 2):
        self.host, self.port = host, port
        self.connections = connections
        self.clock = time.perf_counter
        self._conns: List[_Conn] = []

    def __enter__(self) -> "OpenLoop":
        self._conns = [
            _Conn(_connect(self.host, self.port)) for _ in range(self.connections)
        ]
        return self

    def __exit__(self, *exc) -> None:
        for conn in self._conns:
            conn.sock.close()
        self._conns = []

    def _send(self, conn: _Conn, index: int, payload: bytes,
              outcome: Outcome) -> None:
        conn.out += payload
        conn.pending.append(index)
        outcome.sent = self.clock()

    def run(self, dues: Sequence[float], payloads: Sequence[bytes]) -> List[Outcome]:
        sel = selectors.DefaultSelector()
        for conn in self._conns:
            sel.register(conn.sock, selectors.EVENT_READ, conn)
        t0 = self.clock()
        outcomes = [Outcome(due=t0 + d) for d in dues]
        n = len(outcomes)
        nxt = 0
        deadline = None
        try:
            while True:
                now = self.clock()
                while nxt < n and outcomes[nxt].due <= now:
                    conn = min(self._conns, key=lambda c: len(c.pending))
                    self._send(conn, nxt, payloads[nxt], outcomes[nxt])
                    nxt += 1
                    now = self.clock()
                for conn in self._conns:
                    if conn.out:
                        try:
                            sent = conn.sock.send(conn.out)
                        except BlockingIOError:
                            sent = 0
                        del conn.out[:sent]
                in_flight = sum(len(c.pending) for c in self._conns)
                if nxt >= n and in_flight == 0:
                    break
                if deadline is None and nxt >= n:
                    deadline = now + DRAIN_S
                if deadline is not None and now > deadline:
                    break
                for conn in self._conns:
                    events = selectors.EVENT_READ
                    if conn.out:
                        events |= selectors.EVENT_WRITE
                    sel.modify(conn.sock, events, conn)
                if nxt < n:
                    timeout = max(0.0, outcomes[nxt].due - self.clock())
                else:
                    timeout = 0.05
                for key, mask in sel.select(timeout):
                    if not mask & selectors.EVENT_READ:
                        continue
                    conn = key.data
                    try:
                        chunk = conn.sock.recv(1 << 16)
                    except BlockingIOError:
                        continue
                    if not chunk:
                        # The server dropped the connection: whatever was
                        # in flight on it stays unanswered (status 0).
                        sel.unregister(conn.sock)
                        conn.sock.close()
                        conn.sock = _connect(self.host, self.port)
                        conn.out.clear()
                        conn.inbuf.clear()
                        conn.pending.clear()
                        sel.register(conn.sock, selectors.EVENT_READ, conn)
                        continue
                    conn.inbuf += chunk
                    while conn.pending:
                        parsed = _pop_response(conn.inbuf)
                        if parsed is None:
                            break
                        index = conn.pending.popleft()
                        out = outcomes[index]
                        out.done = self.clock()
                        out.status, out.body = parsed
        finally:
            sel.close()
        return outcomes


# -- summaries ---------------------------------------------------------------


def percentile_ms(values_s: Sequence[float], q: float) -> float:
    """The q-th percentile of durations given in seconds, in ms; 0.0 for
    no values (a layer that did no work)."""
    if len(values_s) == 0:
        return 0.0
    return float(np.percentile(values_s, q) * 1000.0)


# -- /proc readers (Linux) ---------------------------------------------------

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds a process has used so far."""
    with open(f"/proc/{pid}/stat") as fh:
        raw = fh.read()
    fields = raw[raw.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_hwm_mb(pid: int) -> float:
    """A process's resident-set high-water mark (VmHWM), in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
