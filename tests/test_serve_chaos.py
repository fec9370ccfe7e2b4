"""Kill-resume chaos tests for the serve layer (ISSUE 10).

The headline contract: **kill the daemon at any point — gracefully or with
SIGKILL — restart it over the same journal directory, and every
acknowledged sweep resumes to a report byte-identical
(``canonical_report_view``) to an uninterrupted offline run.**

Mechanically this works because a graceful drain checkpoints through the
same code path a crash exercises: the journal prefix on disk after
``begin_drain`` is indistinguishable from a SIGKILL at that record
boundary.  So the hypothesis property below drives *drain-after-k-items*
as a deterministic stand-in for "SIGKILL after k items", and the
subprocess tests pin the real-signal ends of the spectrum:

* in-process: drain at every journal prefix (hypothesis), resume → equal,
* in-process: a torn journal tail injected between generations is trimmed
  and the resume still converges,
* subprocess: SIGKILL the real daemon mid-sweep, restart, poll to done,
* subprocess: SIGTERM under load → exit 0, no torn tail, restart resumes,
* subprocess (satellite 1): ``repro sweep`` SIGTERM ≡ Ctrl-C — exit 130,
  flushed journal, ``--resume`` completes to the clean-run report,
* subprocess: SIGTERM with an idle keep-alive connection open exits 0
  within 5 s; in-process, in-flight requests finish across the drain,
* in-process: a small response on a keep-alive connection does not wait
  for the client's delayed ACK (the daemon sets TCP_NODELAY).
"""

import errno
import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.sinks import jsonable
from repro.runner import canonical_report_view, read_journal, run_sweep
from repro.serve import ServeApp, make_server
from repro.serve.queue import SweepQueue, normalize_spec, plan_from_spec

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: 4-item sweep for the in-process prefix property (milliseconds each).
SMALL_SPEC = {
    "kind": "ratio", "policies": ["edf"], "families": ["uniform"],
    "n": 5, "seeds": 4, "root_seed": 7,
}
#: 48-item sweep (~50 ms/item) — wide enough to land a signal mid-run.
BIG_SPEC = {
    "kind": "ratio", "policies": ["edf"], "families": ["uniform"],
    "n": 120, "seeds": 48,
}

_baselines = {}


def baseline(spec):
    """Canonical view of the clean offline run; computed once per spec."""
    key = json.dumps(spec, sort_keys=True)
    if key not in _baselines:
        report = run_sweep(plan_from_spec(normalize_spec(spec)))
        _baselines[key] = canonical_report_view(
            json.loads(json.dumps(jsonable(report.snapshot())))
        )
    return _baselines[key]


def wait_for(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out after {timeout}s waiting for {what}")


def run_to_done(journal_dir, sweep_id, timeout=60.0):
    """Fresh queue generation over ``journal_dir``; returns the done status."""
    queue = SweepQueue(journal_dir).start()
    try:
        wait_for(
            lambda: queue.status(sweep_id)["state"] == "done",
            timeout, f"sweep {sweep_id} to finish",
        )
        return queue.status(sweep_id)
    finally:
        assert queue.drain(10) is True


class TestPoolStartFailure:
    def test_fork_failure_degrades_and_the_sweep_finishes(
        self, tmp_path, monkeypatch
    ):
        """EAGAIN at the pool's start is a degraded run, not a lost sweep."""

        def fork():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        journal_dir = str(tmp_path)
        queue = SweepQueue(journal_dir, sweep_workers=2).start()
        try:
            monkeypatch.setattr(os, "fork", fork)
            sweep_id, _, _ = queue.submit(
                dict(SMALL_SPEC, workers=2, chunksize=2)
            )
            wait_for(
                lambda: queue.status(sweep_id)["state"] in ("done", "failed"),
                60, f"sweep {sweep_id} to end",
            )
            status = queue.status(sweep_id)
        finally:
            assert queue.drain(10) is True
        assert status["state"] == "done"
        assert not os.path.exists(
            os.path.join(journal_dir, f"{sweep_id}.error.json")
        )
        assert canonical_report_view(status["report"]) == baseline(SMALL_SPEC)


class TestKillPointConformance:
    """Drain after every journal prefix ≡ SIGKILL there; resume converges."""

    @settings(max_examples=10, deadline=None)
    @given(k=st.integers(min_value=0, max_value=4))
    def test_drain_at_any_prefix_resumes_byte_identical(self, k):
        with tempfile.TemporaryDirectory() as journal_dir:
            gen1 = SweepQueue(journal_dir)
            sweep_id, _, _ = gen1.submit(dict(SMALL_SPEC))
            seen = [0]

            def hook(sid, result):
                seen[0] += 1
                if seen[0] == k:
                    gen1.begin_drain()

            if k == 0:
                gen1.begin_drain()  # the prefix-0 kill: before any item
                gen1.start()
            else:
                gen1.on_item = hook
                gen1.start()
                wait_for(
                    lambda: gen1.checkpointed or gen1.completed,
                    30, "generation 1 to checkpoint or finish",
                )
            assert gen1.drain(30) is True

            journal = os.path.join(journal_dir, f"{sweep_id}.journal.jsonl")
            _, records, dropped = read_journal(journal)
            assert dropped == 0  # a drain is polite: no torn tail
            # tick k fires the drain, item k+1 journals then interrupts —
            # unless the sweep ran out of items first.
            assert len(records) == (0 if k == 0 else min(k + 1, 4))

            status = run_to_done(journal_dir, sweep_id)
            assert canonical_report_view(status["report"]) == baseline(SMALL_SPEC)

    def test_torn_tail_between_generations_is_trimmed(self):
        with tempfile.TemporaryDirectory() as journal_dir:
            gen1 = SweepQueue(journal_dir)
            sweep_id, _, _ = gen1.submit(dict(SMALL_SPEC))
            seen = [0]

            def hook(sid, result):
                seen[0] += 1
                if seen[0] == 2:
                    gen1.begin_drain()

            gen1.on_item = hook
            gen1.start()
            wait_for(lambda: gen1.checkpointed, 30, "a checkpoint")
            assert gen1.drain(30) is True

            # A SIGKILL mid-append leaves a half-written record: fake one.
            journal = os.path.join(journal_dir, f"{sweep_id}.journal.jsonl")
            with open(journal, "a", encoding="utf-8") as fh:
                fh.write('{"kind":"item","index":3,"torn')
            assert read_journal(journal)[2] == 1  # the tail is invisible

            status = run_to_done(journal_dir, sweep_id)
            assert canonical_report_view(status["report"]) == baseline(SMALL_SPEC)
            # The resume trimmed the torn line before appending fresh
            # outcomes; the finished journal is fully valid again.
            assert read_journal(journal)[2] == 0


def start_daemon(journal_dir, timeout=20.0):
    """Launch ``repro serve`` on an ephemeral port; returns (proc, base_url)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--port", "0", "--journal-dir", journal_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, cwd=REPO,
    )
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        if "listening on" in line:
            return proc, line.strip().rsplit(" ", 1)[-1]
    proc.kill()
    raise AssertionError("daemon never printed its listening banner")


def http_json(method, url, payload=None, timeout=10.0):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def settled(url, sweep_id):
    _, body = http_json("GET", f"{url}/v1/sweeps/{sweep_id}")
    if body.get("state") == "done":
        return 48
    return body.get("progress", {}).get("settled", 0)


@pytest.mark.slow
class TestDaemonSignals:
    """The real daemon under real signals — the CI scenario, in miniature."""

    def test_sigkill_mid_sweep_then_restart_resumes(self, tmp_path):
        journal_dir = str(tmp_path / "serve-journal")
        proc, url = start_daemon(journal_dir)
        try:
            status, body = http_json("POST", f"{url}/v1/sweeps", BIG_SPEC)
            assert status == 202
            sweep_id = body["id"]
            # Let some items land, then die without ceremony.
            wait_for(lambda: settled(url, sweep_id) >= 2, 30, "2 settled items")
        finally:
            proc.kill()
            proc.wait(timeout=30)

        proc2, url2 = start_daemon(journal_dir)
        try:
            # The restarted daemon owns the sweep without being asked.
            wait_for(
                lambda: http_json(
                    "GET", f"{url2}/v1/sweeps/{sweep_id}"
                )[1]["state"] == "done",
                120, "the resumed sweep to finish",
            )
            _, done = http_json("GET", f"{url2}/v1/sweeps/{sweep_id}")
            assert canonical_report_view(done["report"]) == baseline(BIG_SPEC)
        finally:
            proc2.send_signal(signal.SIGTERM)
            out, _ = proc2.communicate(timeout=60)
        assert proc2.returncode == 0
        assert "drained, exiting" in out

    def test_sigterm_under_load_drains_and_restart_completes(self, tmp_path):
        journal_dir = str(tmp_path / "serve-journal")
        proc, url = start_daemon(journal_dir)
        sweep_id = None
        try:
            status, body = http_json("POST", f"{url}/v1/sweeps", BIG_SPEC)
            assert status == 202
            sweep_id = body["id"]
            wait_for(lambda: settled(url, sweep_id) >= 2, 30, "2 settled items")
            # /metrics is alive under load (the CI job scrapes it).
            metrics = urllib.request.urlopen(f"{url}/metrics", timeout=10)
            assert metrics.status == 200
            assert b"repro_serve_requests_total" in metrics.read()
        finally:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert "drained, exiting" in out

        # A polite death never tears the journal.
        journal = os.path.join(journal_dir, f"{sweep_id}.journal.jsonl")
        _, records, dropped = read_journal(journal)
        assert dropped == 0
        assert len(records) >= 2

        status = run_to_done(journal_dir, sweep_id, timeout=120)
        assert canonical_report_view(status["report"]) == baseline(BIG_SPEC)


@pytest.mark.slow
class TestSweepSigterm:
    """Satellite 1: SIGTERM on ``repro sweep`` ≡ Ctrl-C, resume completes."""

    def _sweep_cmd(self, journal, extra=()):
        return [
            sys.executable, "-m", "repro.cli", "sweep", "ratio",
            "--policies", "edf", "--families", "uniform",
            "-n", str(BIG_SPEC["n"]), "--seeds", str(BIG_SPEC["seeds"]),
            "--journal", journal, *extra,
        ]

    def test_sigterm_flushes_journal_and_resume_completes(self, tmp_path):
        journal = str(tmp_path / "sweep.journal.jsonl")
        snapshot = str(tmp_path / "resumed.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            self._sweep_cmd(journal),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=REPO,
        )
        try:
            def has_progress():
                if not os.path.exists(journal):
                    return False
                with open(journal, encoding="utf-8") as fh:
                    return sum(1 for _ in fh) >= 3  # header + 2 items
            wait_for(has_progress, 30, "2 journaled items")
        finally:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)

        # Two legitimate shapes, depending on where the signal landed:
        # mid-item → run_sweep catches the interrupt and returns a partial
        # report (cancelled items, exit 1); between chunks → the interrupt
        # escapes and the CLI reports the cancellation itself (exit 130).
        # Either way: a report, a resume hint, and never a traceback.
        assert proc.returncode in (1, 130), out
        if proc.returncode == 130:
            assert "sweep interrupted; journal flushed" in out
        else:
            assert "cancelled" in out
        assert "--resume" in out  # the hint names the way forward
        assert "Traceback" not in out

        header, records, dropped = read_journal(journal)
        assert header is not None
        assert dropped == 0  # flushed, fsynced, no torn tail
        assert len(records) >= 2

        done = subprocess.run(
            self._sweep_cmd(journal, ("--resume", "--snapshot", snapshot)),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=REPO, timeout=120,
        )
        assert done.returncode == 0, done.stdout
        with open(snapshot, encoding="utf-8") as fh:
            resumed = json.load(fh)
        assert canonical_report_view(resumed) == baseline(BIG_SPEC)


class TestKeepAliveDrain:
    """A drain never waits on a client that keeps an idle connection open."""

    @pytest.mark.slow
    def test_sigterm_with_idle_keep_alive_connection_exits(self, tmp_path):
        proc, url = start_daemon(str(tmp_path / "serve-journal"))
        parts = urllib.parse.urlsplit(url)
        conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200
            resp.read()
            assert not resp.will_close  # the connection stays open, idle
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=5)
        finally:
            conn.close()
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "drained, exiting" in out

    def test_drain_under_concurrent_keep_alive_clients(self):
        """Eight keep-alive clients loop while one request is held in flight:
        the drain closes idle ones, the held one gets its whole response."""
        app = ServeApp(None)
        entered, release = threading.Event(), threading.Event()
        readyz = app._do_readyz

        def held_readyz():
            entered.set()
            release.wait(10)
            return readyz()

        app._do_readyz = held_readyz
        server = make_server(app)
        host, port = server.server_address[:2]
        loop = threading.Thread(target=server.serve_forever, args=(0.01,))
        loop.start()
        stop = threading.Event()
        bodies = []

        def client():
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                while not stop.is_set():
                    conn.request("GET", "/healthz")
                    resp = conn.getresponse()
                    bodies.append(resp.read())
                    if resp.will_close:
                        return
            except (http.client.HTTPException, OSError):
                pass  # closed by the drain between two requests
            finally:
                conn.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        clients = [threading.Thread(target=client) for _ in range(8)]
        held = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for t in clients:
                t.start()
            held.request("GET", "/readyz")
            assert entered.wait(10)
            time.sleep(0.2)
            server.close_idle()  # the drain starts mid-request
            stop.set()
            release.set()
            resp = held.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read())["ready"] is True
            assert resp.getheader("Connection") == "close"
        finally:
            sys.setswitchinterval(interval)
            stop.set()
            release.set()
            held.close()
            server.shutdown()
            loop.join(10)
        closer = threading.Thread(target=server.server_close)
        closer.start()
        closer.join(10)
        assert not closer.is_alive()  # every handler thread was joined
        for t in clients:
            t.join(10)
            assert not t.is_alive()
        app.close()
        assert bodies and all(json.loads(b) == {"ok": True} for b in bodies)


class TestKeepAliveLatency:
    """A small response on a keep-alive connection goes out at once."""

    def test_healthz_round_trips_do_not_wait_for_delayed_ack(self):
        app = ServeApp(None)
        server = make_server(app)
        host, port = server.server_address[:2]
        loop = threading.Thread(target=server.serve_forever, args=(0.01,))
        loop.start()
        conn = http.client.HTTPConnection(host, port, timeout=10)
        times = []
        try:
            for _ in range(20):
                start = time.perf_counter()
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                body = resp.read()
                times.append(time.perf_counter() - start)
                assert resp.status == 200 and json.loads(body) == {"ok": True}
        finally:
            conn.close()
            server.shutdown()
            loop.join(10)
            server.server_close()
            app.close()
        # With Nagle's algorithm on, the body (sent after the headers) waits
        # for the client's delayed ACK: at least 40 ms, the kernel minimum.
        assert statistics.median(times) < 0.010, times
