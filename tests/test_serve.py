"""Tests for the serve layer (ISSUE 10) — in-process, socketless.

Everything here drives :class:`~repro.serve.app.ServeApp` through the
:class:`~repro.serve.testclient.TestClient`, so bodies are byte-identical
to what the HTTP daemon would send, without sockets or timing flakiness.
The subprocess/SIGKILL side lives in ``test_serve_chaos.py``.

Covers:

* routing: the full route table, 404/405 + ``Allow``, path captures,
* hardening: invalid JSON, wrong shapes, malformed instances, oversized
  bodies — each a typed 4xx, nothing half-processed,
* certify/optimum correctness against the library (sandwich certificates,
  ``Unsatisfiable`` → a 200 with the infeasibility witness),
* cold vs warm: no ``cache_stats`` ever leaks, a repeated request and
  an infeasible certificate are byte-identical, a feasible one after an
  optimum search keeps its kind and machine count and passes the checker,
* per-request deadlines → fast 503 + ``Retry-After``,
* backpressure: bounded queue → 429, ``/readyz`` flips while ``/healthz``
  stays 200, draining → 503,
* durable sweep endpoints: 202/200 idempotency, journal-backed progress,
  finished reports canonically equal to an offline ``run_sweep``,
* concurrent-client determinism (satellite 3): N threads, per-request
  bodies identical to serial, metrics counters exactly the expected sums,
* the tenant cache pool's LRU/isolation bounds,
* the journal's directory-fsync durability upgrade (satellite 2),
* the drain state machine (SERVING → DRAINING → STOPPED, never backwards).
"""

import json
import os
import stat
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from repro.generators import uniform_random_instance
from repro.model import Instance, Job, Segment
from repro.model import schedule as schedule_module
from repro.model.io import instance_to_dict
from repro.obs.sinks import Registry, jsonable
from repro.offline.feascache import NetworkTables
from repro.offline.flow import BACKENDS
from repro.offline.optimum import migratory_optimum
from repro.runner import Journal, canonical_report_view, run_sweep
from repro.serve import (
    BadRequest,
    ServeApp,
    ServiceUnavailable,
    SweepQueue,
    TenantCachePool,
    TestClient,
    TooManyRequests,
    normalize_spec,
    plan_from_spec,
)
from repro.serve.app import ROUTES
from repro.serve.queue import DRAINING, SERVING, STOPPED
from repro.verify import certificate_from_dict, certify, check_certificate

from tests import oracles

#: 3 jobs, p=2, window [0,3): migratory OPT 2 — feasible at m=2, not m=1.
MCNAUGHTON = Instance([Job(0, 2, 3, id=i) for i in range(3)])

#: A tiny 2-item ratio sweep; the id is a pure function of the spec.
RATIO_SPEC = {
    "kind": "ratio",
    "policies": ["edf"],
    "families": ["uniform"],
    "n": 4,
    "seeds": 2,
}


#: The eight largest primes below 10⁶.
PRIMES_1E6 = (999983, 999979, 999961, 999959, 999953, 999931, 999917, 999907)


def prime_denominators(primes):
    """Job ``i`` released at ``i/q`` with ``p = 1 + 1/q`` and deadline 3,
    ``q`` the ``i``-th prime: the base scale is the primes' product."""
    return Instance(
        [Job(Fraction(i, q), 1 + Fraction(1, q), 3, id=i)
         for i, q in enumerate(primes)]
    )


def payload_for(instance, **extra):
    body = {"instance": instance_to_dict(instance)}
    body.update(extra)
    return body


def instance_with(index, **fields):
    """MCNAUGHTON's instance payload with fields of job ``index`` replaced."""
    data = instance_to_dict(MCNAUGHTON)
    data["jobs"][index].update(fields)
    return data


def make_app(tmp_path=None, *, start=False, **kwargs):
    """App (+ optional durable queue) for one test; queue unstarted unless asked."""
    queue = None
    if tmp_path is not None:
        queue = SweepQueue(
            str(tmp_path / "serve-journal"),
            max_queue=kwargs.pop("max_queue", 8),
        )
        if start:
            queue.start()
    return ServeApp(queue, **kwargs)


def poll_done(client, sweep_id, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = client.get(f"/v1/sweeps/{sweep_id}").json()
        if status["state"] in ("done", "failed", "stalled"):
            return status
        time.sleep(0.02)
    raise AssertionError(f"sweep {sweep_id} did not settle in {timeout}s")


def offline_canonical(spec):
    """The canonical view of a clean offline run of ``spec``.

    Round-trips through JSON because the daemon's reports live on disk as
    ``jsonable`` snapshots — the comparison must not be confused by
    Fraction-vs-string representation differences.
    """
    report = run_sweep(plan_from_spec(normalize_spec(spec)))
    return canonical_report_view(json.loads(json.dumps(jsonable(report.snapshot()))))


class TestRouting:
    """Route resolution — the mutation-smoke kill-set for dispatch/_match."""

    def test_every_route_resolves(self):
        app = make_app()
        for method, pattern, name in ROUTES:
            path = pattern.replace("{id}", "abc123")
            resolved, params = app.dispatch(method, path)
            assert resolved == name
            if "{id}" in pattern:
                assert params == {"id": "abc123"}
            else:
                assert params == {}

    def test_unknown_path_is_404(self):
        client = TestClient(make_app())
        for path in ("/", "/v2/certify", "/v1/sweeps/a/b", "/healthz/x"):
            resp = client.get(path)
            assert resp.status == 404
            assert resp.json()["error"]["code"] == "not_found"

    def test_trailing_slash_not_forgiven(self):
        client = TestClient(make_app())
        assert client.post("/v1/certify/", json={}).status == 404
        # "/v1/sweeps/" would need an empty {id} capture — refused.
        assert client.get("/v1/sweeps/").status == 404

    def test_wrong_method_is_405_with_allow(self):
        client = TestClient(make_app())
        resp = client.post("/healthz")
        assert resp.status == 405
        assert resp.headers["Allow"] == "GET"
        assert resp.json()["error"]["code"] == "method_not_allowed"
        resp = client.get("/v1/certify")
        assert resp.status == 405
        assert resp.headers["Allow"] == "POST"

    def test_sweep_id_capture_routes_by_method(self):
        client = TestClient(make_app())
        # GET on a captured id resolves (404 only because the id is unknown
        # and there is no queue — not a routing 404 on the path).
        resp = client.request("DELETE", "/v1/sweeps/deadbeef")
        assert resp.status == 405
        assert resp.headers["Allow"] == "GET"


class TestHardening:
    def test_invalid_json_body_is_400(self):
        client = TestClient(make_app())
        for raw in (b"{", b"\xff\xfe", b"[1, 2]", b'"text"', b""):
            resp = client.post("/v1/certify", data=raw)
            assert resp.status == 400, raw
            assert resp.json()["error"]["code"] == "bad_request"

    def test_malformed_instance_is_typed_400(self):
        client = TestClient(make_app())
        resp = client.post("/v1/certify", json={"instance": {"jobs": [{}]}, "m": 1})
        assert resp.status == 400
        # The InstanceFormatError message names where the defect is.
        assert "request.instance" in resp.json()["error"]["message"]

    @pytest.mark.parametrize(
        "mutation",
        [
            {"m": None},
            {"m": "2"},
            {"m": True},
            {"m": -1},
            {"m": 10**6 + 1},
            {"tenant": ""},
            {"tenant": "a" * 65},
            {"tenant": "no spaces"},
            {"tenant": 7},
            {"speed": "0"},
            {"speed": "-1/2"},
            {"speed": "fast"},
            {"speed": "1/0"},
            {"backend": "simplex"},
            {"backend": "dinic_np"},
            {"backend": "networkx"},
            {"instance": None},
            {"instance": []},
            # job ids: unhashable, mixed with strings, repeated, not ints
            {"instance": instance_with(1, id=[1])},
            {"instance": instance_with(1, id={"a": 1})},
            {"instance": instance_with(1, id="b")},
            {"instance": instance_with(1, id=0)},
            {"instance": instance_with(1, id=1.5)},
            {"instance": instance_with(1, label=3)},
            # a bool is not a number, even where 1 is already decoded
            {"instance": instance_with(1, release=True)},
            {"instance": instance_with(1, processing=True)},
        ],
    )
    def test_bad_field_is_400(self, mutation):
        client = TestClient(make_app())
        body = payload_for(MCNAUGHTON, m=2)
        body.update(mutation)
        resp = client.post("/v1/certify", json=body)
        assert resp.status == 400
        assert resp.json()["error"]["code"] == "bad_request"
        if "backend" in mutation:  # the message names the allowed set
            assert str(BACKENDS + ("auto",)) in resp.json()["error"]["message"]
        if isinstance(mutation.get("instance"), dict):  # names the job
            assert resp.json()["error"]["message"].startswith(
                "request.instance: jobs[1]: "
            )

    def test_float_decodes_like_the_model(self):
        """``0.1`` is the instant ``Job(0.1, …)`` is, 1/10: the body equals
        the one for ``"1/10"``, not one on a 2⁵⁵ base scale."""
        bodies = []
        for release in (0.1, "1/10"):
            body = payload_for(MCNAUGHTON, m=2)
            body["instance"] = instance_with(1, release=release)
            resp = TestClient(make_app()).post("/v1/certify", json=body)
            assert resp.status == 200
            bodies.append(resp.body)
        assert bodies[0] == bodies[1]

    def test_infinite_number_is_typed_400(self):
        raw = json.dumps(payload_for(MCNAUGHTON, m=2)).replace(
            '"release": 0', '"release": 1e400', 1
        ).encode()
        assert b"1e400" in raw
        resp = TestClient(make_app()).post("/v1/certify", data=raw)
        assert resp.status == 400
        error = resp.json()["error"]
        assert error["code"] == "bad_request"
        assert error["message"].startswith("request.instance: jobs[0]: ")

    @pytest.mark.parametrize("route, primes, extra", [
        # Sink capacities m·|E_k| past int64 in the growth to m = 40.
        ("/v1/certify", PRIMES_1E6[:3], {"m": 40}),
        # Base-scaled times past int64 in the table sweep itself.
        ("/v1/optimum", PRIMES_1E6, {}),
    ], ids=["certify-sink-capacity", "optimum-scaled-times"])
    def test_past_int64_is_typed_400(self, route, primes, extra):
        """An instance the int64 kernels cannot hold exactly is a typed
        400 naming the limit, on every kernel, never a 500."""
        resp = TestClient(make_app()).post(
            route, json=payload_for(prime_denominators(primes), **extra)
        )
        assert resp.status == 400
        error = resp.json()["error"]
        assert error["code"] == "bad_request"
        assert "int64 limit 2**63 - 1" in error["message"]

    def test_raised_probe_leaves_the_tenant_answering(self):
        """A probe that raises past int64 leaves no half-grown network in
        the tenant's cache: the next request answers as a fresh daemon
        would (the infeasible certificate at m = 1), not with a 500."""
        q0, q1, q2 = PRIMES_1E6[:3]
        instance = Instance([
            Job(0, 1, 1, id=0), Job(0, 1, 1, id=1), Job(1, 1, 4, id=2),
            Job(Fraction(1, q0), Fraction(1, q1), 4 - Fraction(1, q2), id=3),
        ])
        client = TestClient(make_app())
        resp = client.post("/v1/certify", json=payload_for(instance, m=4))
        assert resp.status == 400
        assert "int64 limit 2**63 - 1" in resp.json()["error"]["message"]
        resp = client.post("/v1/certify", json=payload_for(instance, m=1))
        fresh = TestClient(make_app()).post(
            "/v1/certify", json=payload_for(instance, m=1)
        )
        assert resp.status == fresh.status == 200
        assert resp.json()["kind"] == "infeasible"
        assert resp.body == fresh.body

    def test_oversized_body_is_413(self):
        client = TestClient(make_app(max_body=256))
        resp = client.post("/v1/certify", data=b"x" * 257)
        assert resp.status == 413
        assert resp.json()["error"]["code"] == "payload_too_large"

    def test_handler_crash_is_500_without_traceback(self):
        app = make_app()
        app._do_healthz = lambda: 1 / 0
        resp = TestClient(app).get("/healthz")
        assert resp.status == 500
        error = resp.json()["error"]
        assert error["code"] == "internal"
        assert "Traceback" not in resp.text


class TestComputeEndpoints:
    def test_certify_feasible_and_infeasible(self):
        client = TestClient(make_app())
        feasible = client.post("/v1/certify", json=payload_for(MCNAUGHTON, m=2))
        assert feasible.status == 200
        assert feasible.json()["kind"] == "feasible"
        infeasible = client.post("/v1/certify", json=payload_for(MCNAUGHTON, m=1))
        assert infeasible.status == 200
        assert infeasible.json()["kind"] == "infeasible"

    def test_certify_speed_and_backend_accepted(self):
        client = TestClient(make_app())
        resp = client.post(
            "/v1/certify",
            json=payload_for(MCNAUGHTON, m=1, speed="2", backend="dinic"),
        )
        assert resp.status == 200
        assert resp.json()["kind"] == "feasible"

    def test_optimum_sandwich(self):
        client = TestClient(make_app())
        resp = client.post("/v1/optimum", json=payload_for(MCNAUGHTON))
        assert resp.status == 200
        body = resp.json()
        assert body["satisfiable"] is True
        assert body["optimum"] == 2
        assert body["feasible"]["kind"] == "feasible"
        assert body["infeasible"]["kind"] == "infeasible"

    def test_optimum_unsatisfiable_is_200_with_witness(self):
        # p=2 at speed 1/2 needs 4 time units in a [0,3) window: no machine
        # count helps, so the honest answer is a 200 saying "unsatisfiable"
        # with the single-job witness — not an error.
        client = TestClient(make_app())
        resp = client.post("/v1/optimum", json=payload_for(MCNAUGHTON, speed="1/2"))
        assert resp.status == 200
        body = resp.json()
        assert body["satisfiable"] is False
        assert body["infeasible"]["kind"] == "infeasible"

    def test_cold_and_warm_responses_are_byte_identical(self):
        client = TestClient(make_app())
        body = payload_for(MCNAUGHTON, m=2)
        first = client.post("/v1/certify", json=body)
        second = client.post("/v1/certify", json=body)
        assert first.body == second.body
        assert "cache_stats" not in first.json()
        opt1 = client.post("/v1/optimum", json=payload_for(MCNAUGHTON))
        opt2 = client.post("/v1/optimum", json=payload_for(MCNAUGHTON))
        assert opt1.body == opt2.body
        for cert in ("feasible", "infeasible"):
            assert "cache_stats" not in opt1.json()[cert]

    def test_certify_after_optimum_against_a_fresh_tenant(self):
        """After ``/v1/optimum`` on a tenant, an infeasible certify body is
        byte-identical to a fresh tenant's (the min cut is the same for
        every maximum flow); a feasible one may carry another schedule of
        the search's flow, so it is held to the same kind and machine
        count and to the checker."""
        for seed in range(3):
            instance = uniform_random_instance(60, horizon=120, seed=seed)
            m = migratory_optimum(instance)
            warm = TestClient(make_app())
            assert warm.post("/v1/optimum", json=payload_for(instance)).status == 200
            for probe in range(max(0, m - 2), m + 2):
                body = payload_for(instance, m=probe)
                hot = warm.post("/v1/certify", json=body)
                cold = TestClient(make_app()).post("/v1/certify", json=body)
                assert hot.status == cold.status == 200
                if probe < m:
                    assert hot.json()["kind"] == "infeasible"
                    assert hot.body == cold.body
                    continue
                got, fresh = hot.json(), cold.json()
                assert (got["kind"], got["machines"]) == ("feasible", probe)
                assert (fresh["kind"], fresh["machines"]) == ("feasible", probe)
                cert = certificate_from_dict(got)
                assert check_certificate(instance, cert).ok

    def test_feasible_certify_builds_no_segment_or_interval_list(
        self, monkeypatch
    ):
        """A served feasible certificate stays on integer ticks from the
        flow to the body: no ``Segment`` and no ``Fraction`` interval list
        is built, and the body is the reference encoding of the
        certificate."""
        built = []
        monkeypatch.setattr(schedule_module, "_segment", lambda *a: built.append(a))
        monkeypatch.setattr(
            Segment, "__post_init__", lambda self: built.append(self)
        )
        monkeypatch.setattr(
            NetworkTables, "_pairs", lambda self: built.append(self)
        )
        instance = uniform_random_instance(60, horizon=120, seed=4)
        m = migratory_optimum(instance)
        resp = TestClient(make_app()).post(
            "/v1/certify", json=payload_for(instance, m=m)
        )
        assert resp.status == 200 and resp.json()["kind"] == "feasible"
        assert built == []
        monkeypatch.undo()
        # A cold certify at m, as the request ran (the search warmed this
        # instance's network through other flows).
        payload = certify(Instance(list(instance)), m).to_dict()
        payload.pop("cache_stats")
        assert resp.body == oracles.reference_encode(payload).encode()


class TestDeadline:
    def test_slow_compute_gets_fast_503(self):
        app = make_app(request_timeout=0.05)

        def slow(body):  # replaces the certify handler for this app only
            time.sleep(0.75)

        app._do_certify = slow
        start = time.monotonic()
        resp = TestClient(app).post("/v1/certify", json={})
        elapsed = time.monotonic() - start
        assert resp.status == 503
        assert resp.json()["error"]["code"] == "deadline_exceeded"
        assert int(resp.headers["Retry-After"]) >= 1
        # The 503 must arrive within the deadline (plus slack), not after
        # the stuck computation: that is the whole point.
        assert elapsed < 0.5
        assert app.registry.counters["serve.deadline_exceeded.certify"] == 1
        app.close()

    def test_fast_compute_unaffected_by_deadline(self):
        app = make_app(request_timeout=5.0)
        resp = TestClient(app).post("/v1/certify", json=payload_for(MCNAUGHTON, m=2))
        assert resp.status == 200
        app.close()


class TestBackpressure:
    def test_full_queue_is_429_and_readyz_flips(self, tmp_path):
        # Queue deliberately NOT started: submissions pile up durably.
        app = make_app(tmp_path, max_queue=2)
        client = TestClient(app)
        assert client.get("/readyz").status == 200
        spec = dict(RATIO_SPEC)
        assert client.post("/v1/sweeps", json=spec).status == 202
        spec2 = dict(RATIO_SPEC, root_seed=1)
        assert client.post("/v1/sweeps", json=spec2).status == 202

        ready = client.get("/readyz")
        assert ready.status == 503
        assert ready.json() == {
            "ready": False, "draining": False,
            "queue_depth": 2, "queue_capacity": 2,
        }
        assert client.get("/healthz").status == 200  # alive, just loaded

        spec3 = dict(RATIO_SPEC, root_seed=2)
        resp = client.post("/v1/sweeps", json=spec3)
        assert resp.status == 429
        assert resp.json()["error"]["code"] == "too_many_requests"
        assert int(resp.headers["Retry-After"]) >= 1
        # The refused spec was never acknowledged — nothing durable exists
        # beyond the two accepted ones.
        specs = [
            f for f in os.listdir(app.queue.journal_dir)
            if f.endswith(".spec.json")
        ]
        assert len(specs) == 2

    def test_resubmitting_known_spec_bypasses_backpressure(self, tmp_path):
        app = make_app(tmp_path, max_queue=1)
        client = TestClient(app)
        assert client.post("/v1/sweeps", json=dict(RATIO_SPEC)).status == 202
        # Same spec again: idempotent 200, even though the queue is full.
        resp = client.post("/v1/sweeps", json=dict(RATIO_SPEC))
        assert resp.status == 200
        assert resp.json()["state"] == "accepted"

    def test_app_drain_refuses_submits_and_readyz(self, tmp_path):
        app = make_app(tmp_path)
        client = TestClient(app)
        app.begin_drain()
        resp = client.post("/v1/sweeps", json=dict(RATIO_SPEC))
        assert resp.status == 503
        assert resp.json()["error"]["code"] == "unavailable"
        assert int(resp.headers["Retry-After"]) >= 1
        ready = client.get("/readyz")
        assert ready.status == 503
        assert ready.json()["draining"] is True
        assert client.get("/healthz").status == 200  # liveness survives drain

    def test_queue_drain_refuses_submits_too(self, tmp_path):
        # Even if the app somehow kept routing, the queue itself refuses.
        app = make_app(tmp_path)
        app.queue.begin_drain()
        resp = TestClient(app).post("/v1/sweeps", json=dict(RATIO_SPEC))
        assert resp.status == 503

    def test_no_queue_deployment_is_503(self):
        client = TestClient(make_app())
        assert client.post("/v1/sweeps", json=dict(RATIO_SPEC)).status == 503
        assert client.get("/v1/sweeps/deadbeef").status == 503


class TestSweepEndpoints:
    def test_submit_run_poll_report(self, tmp_path):
        app = make_app(tmp_path, start=True)
        client = TestClient(app)
        resp = client.post("/v1/sweeps", json=dict(RATIO_SPEC))
        assert resp.status == 202
        body = resp.json()
        assert body["state"] == "accepted"
        sweep_id = body["id"]

        status = poll_done(client, sweep_id)
        assert status["state"] == "done"
        view = canonical_report_view(status["report"])
        assert view == offline_canonical(RATIO_SPEC)

        # Idempotent resubmission of finished work: 200 "done", no re-run.
        again = client.post("/v1/sweeps", json=dict(RATIO_SPEC))
        assert again.status == 200
        assert again.json() == {"id": sweep_id, "state": "done"}
        app.queue.drain(10)
        app.close()

    def test_sweep_id_is_deterministic(self, tmp_path):
        app = make_app(tmp_path)
        client = TestClient(app)
        first = client.post("/v1/sweeps", json=dict(RATIO_SPEC)).json()["id"]
        # Defaulted fields change nothing: same normalized spec, same id.
        explicit = dict(RATIO_SPEC, workers=1, chunksize=1, retries=0)
        second = client.post("/v1/sweeps", json=explicit).json()["id"]
        assert first == second

    def test_status_unknown_and_hostile_ids_are_404(self, tmp_path):
        client = TestClient(make_app(tmp_path))
        assert client.get("/v1/sweeps/feedface00000000").status == 404
        # Traversal-shaped ids must not touch the filesystem.
        assert client.get("/v1/sweeps/..%2Fescape").status == 404
        assert client.get("/v1/sweeps/spec.json").status == 404

    @pytest.mark.parametrize(
        "spec",
        [
            {},
            {"kind": "marathon"},
            {"kind": "ratio"},  # missing policies/families
            dict(RATIO_SPEC, policies=["nonsense"]),
            dict(RATIO_SPEC, families=["klein-bottle"]),
            dict(RATIO_SPEC, n=0),
            dict(RATIO_SPEC, n=10**9),
            dict(RATIO_SPEC, seeds="3"),
            dict(RATIO_SPEC, workers=99),
            dict(RATIO_SPEC, retries=-1),
            dict(RATIO_SPEC, item_timeout=0),
            dict(RATIO_SPEC, item_timeout=1e9),
            dict(RATIO_SPEC, chaos="tsunami:0@1"),
            dict(RATIO_SPEC, surprise=1),
            {"kind": "differential", "families": ["uniform"], "no_lp": True},
            {"kind": "differential", "families": ["uniform"], "speeds": ["0"]},
            {"kind": "corpus"},
            {"kind": "corpus", "dir": "/nonexistent"},
        ],
    )
    def test_invalid_specs_are_400_and_never_acknowledged(self, tmp_path, spec):
        app = make_app(tmp_path)
        resp = TestClient(app).post("/v1/sweeps", json=spec)
        assert resp.status == 400
        assert not os.listdir(app.queue.journal_dir)

    def test_progress_appears_in_status(self, tmp_path):
        app = make_app(tmp_path, start=True)
        client = TestClient(app)
        sweep_id = client.post("/v1/sweeps", json=dict(RATIO_SPEC)).json()["id"]
        status = poll_done(client, sweep_id)
        assert status["state"] == "done"
        # The journal outlives the run: a fresh (unstarted) queue over the
        # same directory serves the same durable answer.
        cold = SweepQueue(app.queue.journal_dir)
        again = cold.status(sweep_id)
        assert again["state"] == "done"
        assert canonical_report_view(again["report"]) == canonical_report_view(
            status["report"]
        )
        app.queue.drain(10)
        app.close()


class TestConcurrentDeterminism:
    """Satellite 3: N threads see byte-identical responses to a serial run."""

    N_THREADS = 8

    def _requests(self):
        instances = [
            Instance([Job(0, 2, 3, id=i) for i in range(3)]),
            Instance([Job(0, 1, 1, id=i) for i in range(3)]),
            Instance([Job(0, 2, 4, id=0), Job(0, 2, 4, id=1), Job(1, 2, 3, id=2)]),
        ]
        requests = []
        for instance in instances:
            for m in (1, 2, 3):
                # One tenant per request: a warm cache may legitimately
                # warm-start a probe from the tenant's *previous* request
                # (a different, equally valid schedule), so order-free
                # byte-identity needs each request in its own namespace.
                requests.append(
                    ("POST", "/v1/certify",
                     payload_for(instance, m=m, tenant=f"r{len(requests)}"))
                )
            requests.append(
                ("POST", "/v1/optimum",
                 payload_for(instance, tenant=f"r{len(requests)}"))
            )
        # Identical requests on one shared tenant ARE order-free (a cache
        # hit replays the stored verdict byte-for-byte) — these three race
        # for the same entry lock in the threaded run.
        for _ in range(3):
            requests.append(
                ("POST", "/v1/certify",
                 payload_for(instances[0], m=2, tenant="shared"))
            )
        # Distinct specs only: duplicate submits would race 202-vs-200.
        for seed in range(4):
            requests.append(
                ("POST", "/v1/sweeps", dict(RATIO_SPEC, root_seed=seed))
            )
        requests.append(("GET", "/healthz", None))
        requests.append(("GET", "/v1/sweeps/feedface00000000", None))
        return requests

    def _run(self, tmp_path, name, pool):
        app = make_app(tmp_path / name, max_queue=16)
        client = TestClient(app)
        requests = self._requests()

        def one(req):
            method, path, body = req
            resp = client.request(method, path, json=body)
            return resp.status, resp.body

        if pool is None:
            results = [one(r) for r in requests]
        else:
            results = list(pool.map(one, requests))
        return app, requests, results

    def test_threads_match_serial_and_metrics_add_up(self, tmp_path):
        _, requests, serial = self._run(tmp_path, "serial", None)
        with ThreadPoolExecutor(max_workers=self.N_THREADS) as pool:
            app, _, threaded = self._run(tmp_path, "threaded", pool)
        assert threaded == serial

        counters = app.registry.counters
        assert counters["serve.requests"] == len(requests)
        expected = {}
        for (method, path, _), (status, _) in zip(requests, serial):
            route, _params = app.dispatch(method, path)
            key = f"serve.requests.{route}.{status}"
            expected[key] = expected.get(key, 0) + 1
        for key, count in expected.items():
            assert counters[key] == count, key
        assert sum(expected.values()) == len(requests)
        # And the exposition page serves exactly those counts.
        metrics = TestClient(app).get("/metrics")
        assert metrics.status == 200
        # The exposition is rendered before the /metrics request itself is
        # counted, so the total is exactly the fixed request list's length.
        assert f"repro_serve_requests_total {len(requests)}" in metrics.text
        app.close()


class TestTenantCachePool:
    def test_hit_returns_same_object(self):
        pool = TenantCachePool()
        a1, lock1 = pool.get("a", Instance([Job(0, 2, 3, id=0)]))
        a2, lock2 = pool.get("a", Instance([Job(0, 2, 3, id=0)]))
        assert a1 is a2 and lock1 is lock2
        assert (pool.hits, pool.misses) == (1, 1)

    def test_tenants_are_isolated(self):
        pool = TenantCachePool(per_tenant=2)
        keep, _ = pool.get("b", Instance([Job(0, 2, 3, id=0)]))
        # Tenant a floods its own namespace...
        for r in range(5):
            pool.get("a", Instance([Job(r, 2, r + 3, id=0)]))
        assert pool.evictions == 3
        # ...but tenant b's warm entry survives.
        again, _ = pool.get("b", Instance([Job(0, 2, 3, id=0)]))
        assert again is keep

    def test_tenant_count_is_bounded(self):
        pool = TenantCachePool(per_tenant=4, max_tenants=2)
        pool.get("a", Instance([Job(0, 2, 3, id=0)]))
        pool.get("b", Instance([Job(0, 2, 3, id=0)]))
        pool.get("c", Instance([Job(0, 2, 3, id=0)]))
        assert pool.stats()["tenants"] == 2
        assert pool.evictions == 1

    def test_rejects_degenerate_bounds(self):
        with pytest.raises(ValueError):
            TenantCachePool(per_tenant=0)


class TestJournalDirFsync:
    """Satellite 2: the directory entry is made durable, not just the file."""

    def _spy(self, monkeypatch):
        import repro.runner.journal as journal_mod

        fsynced_dirs = []
        real_fsync = os.fsync

        def spy(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                fsynced_dirs.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(journal_mod.os, "fsync", spy)
        return fsynced_dirs

    def test_create_fsyncs_parent_directory(self, tmp_path, monkeypatch):
        fsynced = self._spy(monkeypatch)
        journal = Journal.create(str(tmp_path / "j.jsonl"), "fp", 1)
        journal.close()
        assert fsynced, "Journal.create never fsynced the parent directory"

    def test_append_to_fsyncs_after_tail_trim(self, tmp_path, monkeypatch):
        path = str(tmp_path / "j.jsonl")
        journal = Journal.create(path, "fp", 2)
        journal.append_item(0, "t", "ok", 1, None, 1, {})
        journal.append_item(1, "t", "ok", 1, None, 1, {}, corrupt=True)
        journal.close()
        fsynced = self._spy(monkeypatch)
        resumed = Journal.append_to(path, "fp")
        resumed.close()
        assert fsynced, "append_to trimmed a torn tail without a dir fsync"


class TestDrainStateMachine:
    """SERVING → DRAINING → STOPPED, never backwards; also a kill-set target."""

    def test_transitions_and_idempotence(self, tmp_path):
        queue = SweepQueue(str(tmp_path))
        assert queue.lifecycle == SERVING
        queue.begin_drain()
        assert queue.lifecycle == DRAINING
        queue.begin_drain()  # idempotent
        assert queue.lifecycle == DRAINING
        assert queue.drain(5) is True
        assert queue.lifecycle == STOPPED
        queue.begin_drain()  # must not resurrect a stopped queue
        assert queue.lifecycle == STOPPED

    def test_submit_refused_while_not_serving(self, tmp_path):
        queue = SweepQueue(str(tmp_path))
        queue.begin_drain()
        with pytest.raises(ServiceUnavailable):
            queue.submit(dict(RATIO_SPEC))
        assert not os.listdir(str(tmp_path))  # refusal leaves no droppings

    def test_backpressure_is_exception_typed(self, tmp_path):
        queue = SweepQueue(str(tmp_path), max_queue=1)
        queue.submit(dict(RATIO_SPEC))
        with pytest.raises(TooManyRequests):
            queue.submit(dict(RATIO_SPEC, root_seed=1))

    def test_invalid_spec_is_bad_request(self, tmp_path):
        queue = SweepQueue(str(tmp_path))
        with pytest.raises(BadRequest):
            queue.submit({"kind": "ratio"})

    def test_started_queue_drains_to_stopped(self, tmp_path):
        queue = SweepQueue(str(tmp_path)).start()
        sweep_id, state, created = queue.submit(dict(RATIO_SPEC))
        assert (state, created) == ("accepted", True)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if queue.status(sweep_id)["state"] == "done":
                break
            time.sleep(0.02)
        assert queue.status(sweep_id)["state"] == "done"
        assert queue.completed == 1
        assert queue.drain(10) is True
        assert queue.lifecycle == STOPPED
        with pytest.raises(ServiceUnavailable):
            queue.submit(dict(RATIO_SPEC, root_seed=7))

    def test_done_only_once_the_report_is_durable(self, tmp_path, monkeypatch):
        """``done`` implies the report's directory fsync ran and ``completed``
        counts the sweep: hold that fsync and watch what clients are told."""
        import repro.serve.queue as queue_mod

        reached, release = threading.Event(), threading.Event()
        real_fsync_dir = queue_mod._fsync_dir

        def held_fsync_dir(path):
            if path.endswith(".report.json"):
                reached.set()
                release.wait(30)
            real_fsync_dir(path)

        monkeypatch.setattr(queue_mod, "_fsync_dir", held_fsync_dir)
        queue = SweepQueue(str(tmp_path)).start()
        try:
            sweep_id, _, _ = queue.submit(dict(RATIO_SPEC))
            assert reached.wait(30)
            # renamed into place, directory fsync pending: not done yet
            assert os.path.exists(tmp_path / f"{sweep_id}.report.json")
            assert queue.status(sweep_id)["state"] == "running"
            assert queue.submit(dict(RATIO_SPEC))[1] == "running"
            assert queue.completed == 0
        finally:
            release.set()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if queue.status(sweep_id)["state"] == "done":
                break
            time.sleep(0.02)
        assert queue.status(sweep_id)["state"] == "done"
        assert queue.completed == 1
        assert queue.submit(dict(RATIO_SPEC)) == (sweep_id, "done", False)
        assert queue.drain(10) is True

    def test_stalled_sweep_does_not_wedge_the_executor(self, tmp_path):
        # transient fault at attempt 1, no retries: the item quarantines as
        # "failed", the ladder is exhausted, the sweep parks as "stalled" —
        # and the executor moves on to the next sweep instead of hot-looping.
        queue = SweepQueue(str(tmp_path)).start()
        stalling = dict(RATIO_SPEC, chaos="transient:0@1")
        stalled_id, _, _ = queue.submit(stalling)
        healthy_id, _, _ = queue.submit(dict(RATIO_SPEC, root_seed=3))
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            states = (
                queue.status(stalled_id)["state"],
                queue.status(healthy_id)["state"],
            )
            if states == ("stalled", "done"):
                break
            time.sleep(0.02)
        assert states == ("stalled", "done")
        progress = queue.status(stalled_id)["progress"]
        assert progress["by_status"]["failed"] == 1
        assert progress["dropped"] == 0
        assert queue.drain(10) is True


def test_serial_and_threaded_apps_share_no_state(tmp_path):
    """Two apps over two directories never cross-talk through globals."""
    app_a = make_app(tmp_path / "a")
    app_b = make_app(tmp_path / "b")
    TestClient(app_a).post("/v1/sweeps", json=dict(RATIO_SPEC))
    assert os.listdir(app_a.queue.journal_dir)
    assert not os.listdir(app_b.queue.journal_dir)
    assert "serve.requests" not in app_b.registry.counters
