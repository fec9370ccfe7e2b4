"""The HTTP face of the serve layer: stdlib ``ThreadingHTTPServer`` + signals.

This module is deliberately thin: every decision lives in
:class:`~repro.serve.app.ServeApp` (tested socketlessly); the daemon only
moves bytes and wires signals.

Shutdown is the interesting part.  SIGTERM (and SIGINT) trigger the
graceful drain sequence — the running theme is that *every* step is safe
to skip by dying instead, because the queue is crash-only:

1. ``app.begin_drain()`` — ``/readyz`` flips 503, submits answer 503,
2. ``server.close_idle()`` — keep-alive connections waiting for their next
   request are closed; a request already being read or answered finishes
   and its response carries ``Connection: close``,
3. ``server.shutdown()`` from a helper thread (calling it from the signal
   handler would deadlock the ``serve_forever`` loop it interrupts);
   with non-daemon handler threads the server then joins every in-flight
   request,
4. ``queue.drain()`` — the in-flight sweep finishes or journal-checkpoints
   (fsynced) and the executor thread exits,
5. exit 0.

A SIGKILL at any point in (or before) this sequence leaves the journal
directory in a state the next ``repro serve`` recovers exactly — that is
the kill-resume conformance the chaos suite pins.
"""

from __future__ import annotations

import signal
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from .app import Request, ServeApp, encode_body
from .queue import SweepQueue

__all__ = ["ServeDaemon", "make_server"]


class _Handler(BaseHTTPRequestHandler):
    """Translates HTTP ↔ :class:`Request`/:class:`Response`; no logic."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: headers and body go out in two sends, and with Nagle's
    # algorithm on, a body shorter than one segment would wait for the
    # client's delayed ACK (~40 ms) on every keep-alive request.
    disable_nagle_algorithm = True

    def handle_one_request(self) -> None:
        if not self.server.await_request(self):  # type: ignore[attr-defined]
            self.close_connection = True  # draining: take no further request
            return
        super().handle_one_request()

    def parse_request(self) -> bool:
        # The request line is in: from here on the request is in flight,
        # unless the drain closed this connection first.
        if not self.server.leave_idle(self):  # type: ignore[attr-defined]
            self.close_connection = True
            return False
        return super().parse_request()

    def finish(self) -> None:
        self.server.leave_idle(self)  # type: ignore[attr-defined]
        super().finish()

    def _dispatch(self) -> None:
        app: ServeApp = self.server.app  # type: ignore[attr-defined]
        length_header = self.headers.get("Content-Length", "0")
        try:
            length = int(length_header)
        except ValueError:
            length = -1
        if length < 0:
            self.send_error(400, "bad Content-Length")
            return
        if length > app.max_body:
            # Refuse before reading: a 10 GB body should cost a header
            # read.  The unread body poisons the connection for keep-alive,
            # so close it after responding.
            body = b"x" * (app.max_body + 1)
            self.close_connection = True
        else:
            body = self.rfile.read(length) if length else b""
        response = app.handle(
            Request(
                method=self.command,
                path=self.path.split("?", 1)[0],
                body=body,
                headers={k.lower(): v for k, v in self.headers.items()},
            )
        )
        payload, content_type = encode_body(response)
        self.send_response(response.status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        if self.server.draining:  # type: ignore[attr-defined]
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    do_GET = do_POST = do_PUT = do_DELETE = _dispatch

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # Request metrics live in the app registry; per-line stderr chatter
        # from a threaded server interleaves uselessly.
        pass


class _Server(ThreadingHTTPServer):
    """Threaded server whose drain closes connections idle between requests."""

    daemon_threads = False

    def __init__(self, address, app: ServeApp) -> None:
        super().__init__(address, _Handler)
        self.app = app
        self.draining = False
        self._lock = threading.Lock()
        self._idle: set = set()  # handlers blocked reading a request line

    def await_request(self, handler) -> bool:
        """Register ``handler`` as idle before it reads; False once draining."""
        with self._lock:
            if self.draining:
                return False
            self._idle.add(handler)
            return True

    def leave_idle(self, handler) -> bool:
        """Unregister ``handler``; False if it was not idle (the drain
        closed its connection first)."""
        with self._lock:
            idle = handler in self._idle
            self._idle.discard(handler)
            return idle

    def close_idle(self) -> None:
        """Start draining: close every connection idle between requests."""
        with self._lock:
            self.draining = True
            idle, self._idle = self._idle, set()
        for handler in idle:
            try:
                handler.connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the client closed it already


def make_server(app: ServeApp, host: str = "127.0.0.1", port: int = 0):
    """A bound (not yet serving) threaded HTTP server for ``app``.

    ``port=0`` binds an ephemeral port (tests, CI); read the real one from
    ``server.server_address``.  Handler threads are non-daemon so shutdown
    joins in-flight requests instead of abandoning them mid-response.
    """
    return _Server((host, port), app)


class ServeDaemon:
    """One daemon process: queue + app + HTTP server + signal wiring."""

    def __init__(
        self,
        journal_dir: str,
        host: str = "127.0.0.1",
        port: int = 8123,
        workers: int = 4,
        max_queue: int = 8,
        request_timeout: float = 10.0,
        sweep_workers: int = 1,
        max_body: int = 1_000_000,
    ) -> None:
        self.queue = SweepQueue(
            journal_dir, max_queue=max_queue, sweep_workers=sweep_workers
        )
        self.app = ServeApp(
            self.queue,
            max_body=max_body,
            request_timeout=request_timeout,
            compute_workers=workers,
        )
        self.queue.on_item = self._item_tick
        self.server = make_server(self.app, host, port)
        self._stopped = threading.Event()

    def _item_tick(self, sweep_id: str, result) -> None:
        self.app.registry.on_counter("serve.sweep.items", 1, {})

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.server_address[:2]

    def begin_shutdown(self) -> None:
        """Start the drain sequence; idempotent, callable from a signal."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        self.app.begin_drain()
        self.queue.begin_drain()
        self.server.close_idle()
        # serve_forever() must not be shut down from its own thread (the
        # signal handler runs there): hand it to a helper.
        threading.Thread(target=self.server.shutdown, daemon=True).start()

    def run(self) -> int:
        """Serve until SIGTERM/SIGINT; returns the process exit code (0)."""
        host, port = self.address
        self.queue.start()

        def _on_signal(signum, frame) -> None:
            print(f"repro serve: caught signal {signum}, draining",
                  file=sys.stderr, flush=True)
            self.begin_shutdown()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)
        print(f"repro serve listening on http://{host}:{port}", flush=True)
        try:
            self.server.serve_forever(poll_interval=0.1)
        finally:
            # Connections accepted while serve_forever wound down are idle
            # too; then join the in-flight request threads.
            self.server.close_idle()
            self.server.server_close()
            drained = self.queue.drain(timeout=60.0)
            self.app.close()
            if not drained:
                # The journal still holds every settled item; the next
                # generation resumes.  Report the impatience honestly.
                print("repro serve: drain timed out; journal is consistent, "
                      "restart will resume", file=sys.stderr, flush=True)
        print("repro serve: drained, exiting", flush=True)
        return 0
