"""Open-loop HTTP load generator: one process, one thread, keep-alive sockets.

Requests follow a fixed schedule of due times that does not depend on how
fast the server answers.  Each request is timed from when it was *due*, so a
stall also counts against every request that had to wait behind it.  With at
most ``connections`` requests in flight (one per keep-alive connection, no
pipelining), a request that falls due while every connection is busy waits
in the generator's backlog; how late requests were sent, and whether that
backlog kept growing, are reported next to the latencies.

:func:`generator_sustains` checks a rate against a stdlib stub server; a rung
the generator cannot sustain there is generator-bound and says nothing about
the server under test.
"""

from __future__ import annotations

import asyncio
import gc
import json
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from arith import backlog_growing, percentile


#: How close to a due time the generator stops sleeping and polls instead.
SPIN_S = 0.0015
#: How long after the last due time unanswered requests are waited for.
DRAIN_TIMEOUT_S = 10.0
#: Requests per generator self-check, and the send lateness (p99) it allows.
SELF_CHECK_REQUESTS = 1000
SELF_CHECK_LATE_MS = 5.0


@dataclass(frozen=True)
class Request:
    """One scheduled request: wire bytes plus what the benchmark needs back."""

    kind: str
    raw: bytes
    towers: tuple = ()


def encode_request(method: str, path: str, body: dict | None = None) -> bytes:
    """Encode an HTTP/1.1 keep-alive request."""
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {len(payload)}\r\n\r\n"
    return head.encode("latin-1") + payload


@dataclass
class Outcome:
    """What happened to one request of a run."""

    index: int
    kind: str
    towers: tuple
    due: float
    sent: float | None = None
    done: float | None = None
    status: int | None = None  # None: transport error or never sent
    body: bytes | None = None

    @property
    def latency_s(self) -> float | None:
        """Completion minus due time; None when the request got no answer."""
        return None if self.done is None else self.done - self.due

    @property
    def ok(self) -> bool:
        return self.status == 200


@dataclass
class RunReport:
    """Outcomes of one open-loop run at one rate."""

    rate: float
    outcomes: list[Outcome]
    backlog_samples: list[tuple[float, int]]
    connections: int

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.ok)

    @property
    def transport_errors(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.status is None)

    def latencies_ms(self) -> list[float]:
        """Due-time latency of each request, in order; a failure counts as infinite."""
        return [outcome.latency_s * 1000.0 if outcome.ok else float("inf")
                for outcome in self.outcomes]

    def late_ms(self) -> list[float]:
        """How late each request was sent, relative to its due time."""
        return [(o.sent - o.due) * 1000.0 for o in self.outcomes if o.sent is not None]

    @property
    def achieved_rps(self) -> float:
        """Answered requests per second, from the first due time to the last answer."""
        done = [outcome.done for outcome in self.outcomes if outcome.ok]
        if not done:
            return 0.0
        return len(done) / (max(done) - self.outcomes[0].due)

    @property
    def backlog_growing(self) -> bool:
        return backlog_growing(self.backlog_samples, len(self.outcomes), self.connections)

    def p99_ms(self) -> float:
        return percentile(self.latencies_ms(), 99.0)


class _Connection:
    def __init__(self, host: str, port: int, selector: selectors.BaseSelector) -> None:
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.selector = selector
        self.buffer = bytearray()
        self.current: Outcome | None = None
        selector.register(self.sock, selectors.EVENT_READ, self)

    def close(self) -> None:
        try:
            self.selector.unregister(self.sock)
        except (KeyError, ValueError):
            pass
        self.sock.close()

    def take_response(self) -> tuple[int, bytes] | None:
        """Pop one complete response off the buffer, if there is one."""
        end = self.buffer.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = bytes(self.buffer[:end]).decode("latin-1").split("\r\n")
        status = int(head[0].split()[1])
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        total = end + 4 + length
        if len(self.buffer) < total:
            return None
        body = bytes(self.buffer[end + 4:total])
        del self.buffer[:total]
        return status, body


def run_open_loop(
    host: str,
    port: int,
    requests: Sequence[Request],
    rate: float,
    *,
    connections: int = 2,
    keep_body: Callable[[int], bool] = lambda index: False,
) -> RunReport:
    """Send ``requests`` at ``rate`` per second on a fixed schedule.

    Request ``i`` is due at ``start + i / rate``.  It goes out on the first
    idle connection once it is due; it waits in the backlog while every
    connection is busy.  Requests still unanswered DRAIN_TIMEOUT_S after the
    last due time count as failed, as does a request whose connection breaks
    (the connection is then replaced).
    """
    clock = time.perf_counter
    gc_was_enabled = gc.isenabled()
    gc.disable()
    selector = selectors.DefaultSelector()
    pool = [_Connection(host, port, selector) for _ in range(connections)]
    idle = list(pool)
    start = clock() + 0.01
    interval = 1.0 / rate
    outcomes = [
        Outcome(index, request.kind, request.towers, start + index * interval)
        for index, request in enumerate(requests)
    ]
    total = len(outcomes)
    deadline = start + total * interval + DRAIN_TIMEOUT_S
    backlog: list[tuple[float, int]] = []
    next_send = 0
    completed = 0
    last_due = -1

    def replace(connection: _Connection) -> None:
        connection.close()
        pool.remove(connection)
        if connection in idle:
            idle.remove(connection)
        fresh = _Connection(host, port, selector)
        pool.append(fresh)
        idle.append(fresh)

    try:
        while completed < total:
            now = clock()
            if now > deadline:
                break
            due_count = min(total, int((now - start) / interval) + 1) if now >= start else 0
            while next_send < due_count and idle:
                connection = idle.pop()
                outcome = outcomes[next_send]
                next_send += 1
                try:
                    connection.sock.sendall(requests[outcome.index].raw)
                except OSError:
                    outcome.sent = clock()
                    completed += 1
                    idle.append(connection)
                    replace(connection)
                    continue
                outcome.sent = clock()
                connection.current = outcome
            if next_send < total and due_count != last_due:
                backlog.append((now - start, due_count - next_send))
                last_due = due_count
            if next_send >= total:
                timeout = max(0.0, deadline - clock())
            elif idle:
                # epoll rounds a timeout up to whole milliseconds: sleep until
                # SPIN_S before the next due time, then poll.
                timeout = max(0.0, outcomes[next_send].due - clock() - SPIN_S)
            else:
                timeout = 0.0
            for selected, _ in selector.select(timeout):
                connection = selected.data
                try:
                    chunk = connection.sock.recv(65536)
                except BlockingIOError:
                    continue
                except OSError:
                    chunk = b""
                if not chunk:
                    # Peer closed: an in-flight request failed.
                    if connection.current is not None:
                        completed += 1
                    replace(connection)
                    continue
                connection.buffer += chunk
                response = connection.take_response()
                if response is None or connection.current is None:
                    continue
                outcome = connection.current
                outcome.done = clock()
                outcome.status, body = response
                if keep_body(outcome.index):
                    outcome.body = body
                connection.current = None
                idle.append(connection)
                completed += 1
    finally:
        for connection in pool:
            connection.close()
        selector.close()
        if gc_was_enabled:
            gc.enable()
    return RunReport(rate, outcomes, backlog, connections)


# ----------------------------------------------------------------------
# Self-check: what the generator itself can sustain
# ----------------------------------------------------------------------

_STUB_BODY = b'{"ok": true}'
_STUB_RESPONSE = (
    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: "
    + str(len(_STUB_BODY)).encode() + b"\r\n\r\n" + _STUB_BODY
)


async def _stub_connection(reader, writer, stalls: dict[str, float]) -> None:
    try:
        while True:
            head = await reader.readuntil(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            path = lines[0].split()[1]
            length = 0
            for line in lines[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            if length:
                await reader.readexactly(length)
            delay = stalls.pop(path, 0.0)
            if delay:
                await asyncio.sleep(delay)
            writer.write(_STUB_RESPONSE)
    except (asyncio.IncompleteReadError, ConnectionError):
        writer.close()


class StubServer:
    """An asyncio HTTP server on a background thread answering ``{"ok": true}``.

    ``stalls`` maps a request path to seconds its answer is held back, once,
    to inject a stall.
    """

    def __init__(self, stalls: dict[str, float] | None = None) -> None:
        self._stalls = dict(stalls or {})
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.port = 0

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()

        async def start():
            server = await asyncio.start_server(
                lambda r, w: _stub_connection(r, w, self._stalls), "127.0.0.1", 0)
            self.port = server.sockets[0].getsockname()[1]
            return server

        server = self._loop.run_until_complete(start())
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            server.close()
            self._loop.run_until_complete(server.wait_closed())
            self._loop.close()

    def __enter__(self) -> "StubServer":
        self._thread.start()
        self._ready.wait(timeout=10)
        return self

    def __exit__(self, *exc_info) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)


def generator_sustains(rate: float, connections: int) -> bool:
    """Whether the generator sends SELF_CHECK_REQUESTS requests at ``rate`` on time.

    Runs against a stub server in a child process, so the stub does not
    share this process's interpreter lock.  On time means nothing failed,
    the backlog did not grow and the 99th percentile of send lateness is
    within SELF_CHECK_LATE_MS.
    """
    proc = subprocess.Popen([sys.executable, __file__, "--stub"], stdout=subprocess.PIPE,
                            text=True)
    try:
        port = int(proc.stdout.readline())
        request = Request("stub", encode_request("GET", "/stub"))
        report = run_open_loop("127.0.0.1", port, [request] * SELF_CHECK_REQUESTS, rate,
                               connections=connections)
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()
    return not (report.failed or report.backlog_growing
                or percentile(report.late_ms(), 99.0) > SELF_CHECK_LATE_MS)


def _serve_stub() -> None:
    with StubServer() as stub:
        print(stub.port, flush=True)
        signal.sigwait({signal.SIGTERM})


if __name__ == "__main__" and sys.argv[1:] == ["--stub"]:
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    _serve_stub()
