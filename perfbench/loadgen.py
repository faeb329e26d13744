"""Out-of-process load generator for the ``alerts`` workload.

Runs in its own spawned process so it never competes for the serving
process's interpreter lock.  It encodes its JSON bodies once, before any
timing, from the sample arrays the parent wrote (so the serving process
never holds them), and talks to the daemon over a fixed number of
persistent HTTP/1.1 connections (one thread each), the way a broker
client reuses its sockets.  Commands arrive over a pipe:

* ``("probe", port)`` sends one request on a fresh connection and
  answers ``(status, payload)``: the parent times daemon set-up up to
  the first correct result with it.
* ``("run", port, plan)`` runs an open-loop phase at a fixed rate,
  then a saturating phase, and answers the per-request records.
* ``("stop",)`` ends the process.

Every request is timed on ``time.monotonic``, the system-wide
monotonic clock, so the parent can line the records up with spans
recorded inside the daemon.
"""

from __future__ import annotations

import json
import socket
from collections import namedtuple
import threading
import time

import numpy as np

#: One request as returned to the parent.  ``due``/``sent``/``done``
#: are monotonic-clock seconds; the result fields are None unless the
#: response was a readable 200.
Record = namedtuple("Record", (
    "phase", "body", "due", "sent", "done", "status", "error", "request_id",
    "probability", "degraded", "usable_bands",
))


def _request_bytes(body: bytes) -> bytes:
    head = (
        "POST /classify HTTP/1.1\r\nHost: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode()
    return head + body


class _Connection:
    """One persistent HTTP/1.1 connection with minimal framing."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.sock: socket.socket | None = None
        self.buf = b""

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=30.0)
        self.buf = b""
        return sock

    def exchange(self, request: bytes) -> tuple[int, bytes]:
        """Send one request and read its response.  A transport error
        closes the connection (the next request opens a new one) and
        propagates: the request counts as failed."""
        if self.sock is None:
            self.sock = self._connect()
        try:
            self.sock.sendall(request)
            return self._read_response()
        except (OSError, ValueError):
            self.close()
            raise

    def _read_response(self) -> tuple[int, bytes]:
        while b"\r\n\r\n" not in self.buf:
            self._fill()
        head, self.buf = self.buf.split(b"\r\n\r\n", 1)
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        close = False
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        while len(self.buf) < length:
            self._fill()
        payload, self.buf = self.buf[:length], self.buf[length:]
        if close:
            self.close()
        return status, payload

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def close(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
        self.sock = None


def make_record(phase: str, body: int, due: float, sent: float, done: float,
                status: int, payload: bytes | None, error: str | None) -> Record:
    request_id = probability = degraded = bands = None
    if status == 200 and payload is not None:
        try:
            doc = json.loads(payload)
            result = doc["result"]
            request_id = doc["request_id"]
            probability = float(result["probability"])
            degraded = bool(result["degraded"])
            bands = "".join(result["usable_bands"])
        except (ValueError, KeyError, TypeError) as exc:
            error = f"unreadable 200 body: {exc}"
    return Record(phase, body, due, sent, done, status, error, request_id,
                  probability, degraded, bands)


def _run(port: int, requests: list[bytes], plan: dict) -> list[Record]:
    """Fixed-rate phase then saturating phase over persistent connections."""
    n_conn = plan["connections"]
    rate = plan["rate_rps"]
    start = time.monotonic() + 0.05
    end_fixed = start + plan["fixed_s"]
    end_sat = end_fixed + plan["saturate_s"]
    lock = threading.Lock()
    counters = {"fixed": 0, "saturate": 0}
    records: list[Record] = []
    n_bodies = len(requests)

    def next_index(phase: str) -> int:
        with lock:
            k = counters[phase]
            counters[phase] = k + 1
            return k

    def send(conn: _Connection, phase: str, k: int, due: float) -> None:
        body = k % n_bodies
        sent = time.monotonic()
        try:
            status, payload = conn.exchange(requests[body])
            error = None
        except (OSError, ValueError) as exc:
            status, payload, error = -1, None, f"{type(exc).__name__}: {exc}"
        records.append(make_record(phase, body, due, sent, time.monotonic(),
                               status, payload, error))

    def worker() -> None:
        conn = _Connection(port)
        try:
            while True:
                k = next_index("fixed")
                due = start + k / rate
                if due >= end_fixed:
                    break
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                send(conn, "fixed", k, due)
            while True:
                now = time.monotonic()
                if now < end_fixed:
                    time.sleep(end_fixed - now)
                    continue
                if now >= end_sat:
                    break
                send(conn, "saturate", next_index("saturate"), now)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, daemon=True) for _ in range(n_conn)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def serve_commands(conn, samples_path: str) -> None:
    """Process entry point: encode the bodies, then answer commands."""
    with np.load(samples_path) as archive:
        pairs, mjd = archive["pairs"], archive["mjd"]
    requests = [
        _request_bytes(
            json.dumps({"pairs": pairs[i].tolist(), "mjd": mjd[i].tolist()}).encode()
        )
        for i in range(len(pairs))
    ]
    del pairs, mjd
    conn.send(("ready", len(requests)))
    while True:
        msg = conn.recv()
        if msg[0] == "stop":
            break
        if msg[0] == "probe":
            client = _Connection(msg[1])
            try:
                status, payload = client.exchange(requests[0])
                conn.send((status, payload))
            except (OSError, ValueError) as exc:
                conn.send((-1, str(exc).encode()))
            finally:
                client.close()
        elif msg[0] == "run":
            conn.send(_run(msg[1], requests, msg[2]))
    conn.close()
