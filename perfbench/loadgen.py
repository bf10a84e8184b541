"""Open-loop load generator for the ``service-mix`` workload.

One process sends every request on a fixed schedule over at most two
pipelined connections.  The schedule never waits for replies, so a server
that slows down sees the same offered load and its queue grows; each
reply is timed from the moment its request was *due*, which charges the
wait a stall imposes on every later request.  How late the generator
itself ran (sent − due) is reported so a run whose generator fell behind
can be told apart from a slow server.
"""

from __future__ import annotations

import json
import socket
import threading
from dataclasses import dataclass
from time import perf_counter, sleep


@dataclass(slots=True)
class Op:
    """One scheduled request."""

    offset: float  # due time, seconds after the schedule starts
    conn: int
    kind: str  # "ingest" or "matches"
    tenant: str
    step: int
    line: bytes
    request_id: int
    due: float = 0.0
    sent: float = 0.0
    replied: float = 0.0
    reply: dict | None = None
    extra: object = None  # the ingest batch, for the replay log


class Connection:
    """A pipelined line-protocol connection with a background reply reader."""

    def __init__(self, host: str, port: int, replies: dict, ready: threading.Condition):
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._replies = replies
        self._ready = ready
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        with self.sock.makefile("rb") as stream:
            for line in stream:
                now = perf_counter()
                message = json.loads(line)
                with self._ready:
                    self._replies[message.get("id")] = (now, message)
                    self._ready.notify_all()

    def send(self, line: bytes) -> None:
        self.sock.sendall(line)

    def close(self, timeout: float) -> None:
        try:
            self.sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        self._reader.join(timeout)
        self.sock.close()


class LoadGenerator:
    """Sends scheduled and control requests over a fixed set of connections."""

    def __init__(self, host: str, port: int, connections: int) -> None:
        self._replies: dict[object, tuple[float, dict]] = {}
        self._ready = threading.Condition()
        self.conns = [
            Connection(host, port, self._replies, self._ready) for _ in range(connections)
        ]
        self._next_id = 0
        #: (elapsed since schedule start, unreplied requests) after each send.
        self.in_flight: list[tuple[float, int]] = []

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @staticmethod
    def encode(request_id: int, op: str, **fields: object) -> bytes:
        message = {"id": request_id, "op": op, **fields}
        return json.dumps(message, separators=(",", ":")).encode() + b"\n"

    def wait(self, request_ids, timeout: float) -> dict[int, tuple[float, dict]]:
        """Block until every id has a reply; raises ``TimeoutError``."""
        deadline = perf_counter() + timeout
        pending = set(request_ids)
        with self._ready:
            while True:
                pending = {rid for rid in pending if rid not in self._replies}
                if not pending:
                    break
                remaining = deadline - perf_counter()
                if remaining <= 0:
                    raise TimeoutError(f"{len(pending)} replies missing after {timeout}s")
                self._ready.wait(remaining)
            return {rid: self._replies[rid] for rid in request_ids}

    def call(self, requests: list[tuple[int, str, dict]], timeout: float = 120.0) -> list[dict]:
        """Send ``(conn, op, fields)`` requests pipelined; return replies in order."""
        ids = []
        for conn, op, fields in requests:
            request_id = self.new_id()
            self.conns[conn].send(self.encode(request_id, op, **fields))
            ids.append(request_id)
        replies = self.wait(ids, timeout)
        return [replies[rid][1] for rid in ids]

    def run_schedule(self, ops: list[Op], timeout: float) -> None:
        """Send ``ops`` at their due times, then wait for every reply."""
        start = perf_counter() + 0.02
        replies = self._replies
        # Every control request was answered before the schedule starts.
        before = len(replies)
        sent = 0
        for op in ops:
            op.due = start + op.offset
            delay = op.due - perf_counter()
            if delay > 0:
                sleep(delay)
            op.sent = perf_counter()
            self.conns[op.conn].send(op.line)
            sent += 1
            self.in_flight.append((op.sent - start, sent - (len(replies) - before)))
        got = self.wait([op.request_id for op in ops], timeout)
        for op in ops:
            op.replied, op.reply = got[op.request_id]

    def close(self, timeout: float = 30.0) -> None:
        for conn in self.conns:
            conn.close(timeout)
