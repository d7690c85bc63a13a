"""A read-only live-status endpoint for a running cluster.

ROADMAP item 2 asks for ``/healthz``-style per-run status (round,
coverage, worker count); this is the substrate.  The coordinator owns a
:class:`StatusServer` bound to a local address and, once per round, hands
:meth:`StatusServer.update` the round's ``round_completed`` record
(:meth:`repro.obs.schema.RoundSnapshot.as_record`) plus ``backend``; any
client that connects receives the current snapshot as one JSON line and is
disconnected.  That connect-read-close protocol needs no framing, no
request parsing and no client library -- ``nc localhost PORT`` works, and
:func:`read_status` is the in-process helper.

The server thread never touches cluster state: it serves the last dict it
was handed, so a hung round still answers (with a stale ``round`` and an
aging ``updated`` -- which is exactly the signal a hung fleet needs to be
visible)."""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Any, Dict, Optional, Tuple

__all__ = ["StatusServer", "read_status"]


class StatusServer:
    """Serve the latest status snapshot as one JSON line per connection.

    ``listen`` is an already parsed ``(host, port)`` (port 0 picks a free
    one); the coordinator parses ``status_listen`` with
    :func:`repro.net.transport.parse_address`."""

    def __init__(self, listen: Tuple[str, int] = ("127.0.0.1", 0)):
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(listen)
        self._sock.listen(8)
        self._sock.settimeout(0.2)
        self.address: Tuple[str, int] = self._sock.getsockname()[:2]
        self._lock = threading.Lock()
        self._snapshot: Dict[str, Any] = {"state": "starting"}
        self._updated = time.monotonic()
        self._closing = threading.Event()
        self._thread = threading.Thread(
            target=self._serve, name="obs-status", daemon=True)
        self._thread.start()

    def update(self, snapshot: Dict[str, Any]) -> None:
        """Replace the served snapshot (coordinator thread, once per round)."""
        with self._lock:
            self._snapshot = dict(snapshot)
            self._updated = time.monotonic()

    def _payload(self) -> bytes:
        with self._lock:
            record = dict(self._snapshot)
            record["updated"] = round(time.monotonic() - self._updated, 3)
        return (json.dumps(record, default=str) + "\n").encode("utf-8")

    def _serve(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # socket closed under us
            try:
                conn.sendall(self._payload())
            except OSError:
                pass  # client went away mid-send; nothing to do
            finally:
                conn.close()

    def close(self) -> None:
        self._closing.set()
        try:
            self._sock.close()
        except OSError:
            pass
        self._thread.join(timeout=2.0)


def read_status(address: Tuple[str, int],
                timeout: float = 2.0) -> Optional[Dict[str, Any]]:
    """Connect to a :class:`StatusServer` and return its snapshot dict.

    Returns ``None`` when nothing answers (server closed, run finished) --
    callers poll runs that may end at any moment."""
    try:
        with socket.create_connection(address, timeout=timeout) as conn:
            conn.settimeout(timeout)
            chunks = []
            while True:
                data = conn.recv(4096)
                if not data:
                    break
                chunks.append(data)
    except OSError:
        return None
    raw = b"".join(chunks).decode("utf-8").strip()
    return json.loads(raw) if raw else None
