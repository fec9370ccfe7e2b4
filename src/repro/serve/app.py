"""The serve application: routing, hardening, deadlines — no sockets.

:class:`ServeApp` is a plain callable core — ``handle(Request) → Response``
— with the HTTP server (:mod:`repro.serve.daemon`) and the socketless
:class:`~repro.serve.testclient.TestClient` as thin adapters over it, so
every behavior is testable in-process.

Request lifecycle (the hardening ladder, in order):

1. **route** — exact-match table with ``{id}`` captures; unknown path →
   404, known path with wrong method → 405 + ``Allow``,
2. **size** — body larger than ``max_body`` → 413 before any parsing,
3. **parse** — invalid JSON, wrong shapes, malformed instances (via
   :class:`~repro.model.io.InstanceFormatError`) → typed 400 naming the
   offending field, and so is a known backend this host cannot run (it
   names the backends the host runs); nothing is half-processed (an
   instance too large for the flow kernels' exact int64 arithmetic is a
   typed 400 as well, raised once the computation meets the limit),
4. **deadline** — compute endpoints run on a bounded thread pool with
   ``future.result(timeout=…)``; an overrun returns 503 +
   ``Retry-After`` *within the deadline* instead of hanging the client
   (the orphaned computation finishes in the background and warms the
   tenant cache, so the retry it invites is cheap),
5. **metrics** — every response increments ``serve.requests`` and a
   per-route/status counter in the service registry that ``/metrics``
   renders (Prometheus text exposition).

Responses never include warmth-dependent fields (``cache_stats``).  A
verdict, an optimum's value and an infeasible certificate are the same
whether the tenant cache was cold or hot, byte for byte: the min cut is
the set the source reaches in the residual network, the same for every
maximum flow.
A feasible certificate's schedule is extracted from the maximum flow the
tenant's network holds at ``m``, which earlier requests on that tenant
shape (an optimum search reaches ``m`` through other probes), so it may
differ from a fresh tenant's: the same ``kind`` and ``machines``, another
schedule that passes the same check.  Repeating a request on one tenant
returns the same body.  ``tests/test_serve.py`` pins all three.

Every body is ``json.dumps(jsonable(payload), sort_keys=True)`` byte for
byte; a feasible certificate's segment list is written as text from its
schedule's runs (:func:`encode_body`).
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Callable, Dict, Optional, Tuple

from ..model.io import InstanceFormatError, instance_from_dict, segments_json
from ..model.schedule import Schedule
from ..obs.prom import render_prometheus
from ..obs.sinks import Registry, jsonable
from ..offline.flow import BACKENDS, PAST_INT64, available_backends
from .cache import TenantCachePool
from .errors import (
    ApiError,
    BadRequest,
    DeadlineExceeded,
    MethodNotAllowed,
    NotFound,
    PayloadTooLarge,
    ServiceUnavailable,
)

__all__ = ["Request", "Response", "ServeApp", "encode_body"]

#: Routes understood by the daemon: ``(method, pattern)`` — ``{name}``
#: segments capture one path component.  The table is data, the dispatch
#: below is logic; both are mutation-smoke targets.
ROUTES: Tuple[Tuple[str, str, str], ...] = (
    ("POST", "/v1/certify", "certify"),
    ("POST", "/v1/optimum", "optimum"),
    ("POST", "/v1/sweeps", "submit_sweep"),
    ("GET", "/v1/sweeps/{id}", "sweep_status"),
    ("GET", "/healthz", "healthz"),
    ("GET", "/readyz", "readyz"),
    ("GET", "/metrics", "metrics"),
)

_TENANT_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


@dataclass
class Request:
    """One parsed request, transport-agnostic (HTTP or testclient)."""

    method: str
    path: str
    body: bytes = b""
    headers: Dict[str, str] = field(default_factory=dict)


@dataclass
class Response:
    """One response: a JSON-able payload or pre-rendered text."""

    status: int
    payload: Any = None  # dict → JSON; str → text/plain (the /metrics page)
    headers: Dict[str, str] = field(default_factory=dict)


class _Segments:
    """A feasible certificate's segment list in a payload: :func:`encode_body`
    writes it from the schedule's runs (:func:`~repro.model.io.segments_json`)."""

    __slots__ = ("schedule",)

    def __init__(self, schedule: Schedule) -> None:
        self.schedule = schedule


_NO_SEGMENTS = Schedule([])


def _certificate_body(cert) -> Dict[str, Any]:
    """A certificate's served payload: its ``to_dict()`` without the
    warmth-dependent ``cache_stats``, a feasible certificate's segment list
    left for :func:`encode_body` to write from the runs."""
    if cert.kind == "infeasible":
        return replace(cert, cache_stats=None).to_dict()
    body = replace(cert, schedule=_NO_SEGMENTS, cache_stats=None).to_dict()
    body["schedule"]["segments"] = _Segments(cert.schedule)
    return body


def _json(value: Any) -> str:
    """``json.dumps(jsonable(value), sort_keys=True)``, with each
    :class:`_Segments` written as its text: a dict that holds a dict or a
    ``_Segments`` is written key by key, in sorted key order with the
    separators ``json.dumps`` uses."""
    if type(value) is _Segments:
        return segments_json(value.schedule)
    if type(value) is dict:
        items = {str(k): v for k, v in value.items()}
        if any(type(v) is dict or type(v) is _Segments for v in items.values()):
            return "{" + ", ".join(
                f"{json.dumps(k)}: {_json(items[k])}" for k in sorted(items)
            ) + "}"
    return json.dumps(jsonable(value), sort_keys=True)


def encode_body(response: Response) -> Tuple[bytes, str]:
    """``(body bytes, content type)`` — shared by daemon and testclient."""
    if isinstance(response.payload, str):
        return response.payload.encode("utf-8"), "text/plain; charset=utf-8"
    return _json(response.payload).encode("utf-8"), "application/json"


def _match(pattern: str, path: str) -> Optional[Dict[str, str]]:
    """Match one route pattern; returns captured ``{name}`` segments."""
    pattern_parts = pattern.split("/")
    path_parts = path.split("/")
    if len(pattern_parts) != len(path_parts):
        return None
    params: Dict[str, str] = {}
    for want, got in zip(pattern_parts, path_parts):
        if want.startswith("{") and want.endswith("}"):
            if not got:
                return None
            params[want[1:-1]] = got
        elif want != got:
            return None
    return params


class ServeApp:
    """The daemon's request core; see the module docstring for the ladder."""

    def __init__(
        self,
        queue: Any = None,
        *,
        registry: Optional[Registry] = None,
        cache_pool: Optional[TenantCachePool] = None,
        max_body: int = 1_000_000,
        request_timeout: float = 10.0,
        compute_workers: int = 4,
    ) -> None:
        self.queue = queue
        self.registry = registry or Registry()
        self.cache_pool = cache_pool or TenantCachePool()
        self.max_body = max_body
        self.request_timeout = request_timeout
        self._draining = threading.Event()
        self._compute = ThreadPoolExecutor(
            max_workers=compute_workers, thread_name_prefix="serve-compute"
        )

    # -- lifecycle -----------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def begin_drain(self) -> None:
        """Stop accepting work: ``/readyz`` flips 503, submits are refused.

        ``/healthz`` stays 200 — the process is alive and finishing what it
        already acknowledged; only *readiness* is withdrawn.
        """
        self._draining.set()

    def close(self) -> None:
        self._compute.shutdown(wait=False, cancel_futures=True)

    # -- routing -------------------------------------------------------------

    def dispatch(self, method: str, path: str) -> Tuple[str, Dict[str, str]]:
        """Resolve ``(method, path)`` to a handler name + path params.

        Unknown path → 404; known path, wrong method → 405 carrying the
        allowed methods.  A trailing slash is not forgiven — the route
        table is the contract.
        """
        allowed = []
        params_for_path: Optional[Dict[str, str]] = None
        for route_method, pattern, name in ROUTES:
            params = _match(pattern, path)
            if params is None:
                continue
            if route_method == method:
                return name, params
            allowed.append(route_method)
            params_for_path = params
        if params_for_path is not None or allowed:
            raise MethodNotAllowed(
                f"{method} not allowed on {path}", allowed=tuple(allowed)
            )
        raise NotFound(f"no route matches {path}")

    # -- entry point ---------------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Run one request through the full ladder; never raises."""
        route = "unrouted"
        try:
            route, params = self.dispatch(request.method, request.path)
            if len(request.body) > self.max_body:
                raise PayloadTooLarge(
                    f"request body is {len(request.body)} bytes; "
                    f"the limit is {self.max_body}"
                )
            handler: Callable[..., Response] = getattr(self, "_do_" + route)
            if route in ("certify", "optimum"):
                body = self._parse_json(request)
                response = self._with_deadline(route, handler, body)
            elif route == "submit_sweep":
                response = handler(self._parse_json(request))
            else:
                response = handler(**params)
        except InstanceFormatError as exc:
            response = self._error_response(BadRequest(str(exc)))
        except ApiError as exc:
            response = self._error_response(exc)
        except Exception as exc:  # noqa: BLE001 — clients never see tracebacks
            response = self._error_response(
                ApiError(f"internal error: {type(exc).__name__}: {exc}")
            )
        self._count(route, response.status)
        return response

    def _error_response(self, exc: ApiError) -> Response:
        return Response(
            status=exc.status,
            payload={"error": {"code": exc.code, "message": exc.message}},
            headers=exc.headers(),
        )

    def _count(self, route: str, status: int) -> None:
        self.registry.on_counter("serve.requests", 1, {})
        self.registry.on_counter(f"serve.requests.{route}.{status}", 1, {})

    def _parse_json(self, request: Request) -> Dict[str, Any]:
        try:
            body = json.loads(request.body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequest(f"invalid JSON body: {exc}")
        if not isinstance(body, dict):
            raise BadRequest(
                f"expected a JSON object body, got {type(body).__name__}"
            )
        return body

    def _with_deadline(
        self, route: str, handler: Callable[[Dict[str, Any]], Response], body: Dict[str, Any]
    ) -> Response:
        """Run a compute handler under the per-request deadline.

        The computation is *not* cancelled on overrun — a thread cannot be
        killed — it finishes in the background holding its cache-entry
        lock, so the warm result is there for the retry the 503 invites.
        """
        future = self._compute.submit(handler, body)
        try:
            return future.result(timeout=self.request_timeout)
        except FutureTimeout:
            self.registry.on_counter(f"serve.deadline_exceeded.{route}", 1, {})
            raise DeadlineExceeded(
                f"{route} exceeded the {self.request_timeout}s request "
                f"deadline; retry to reuse the warmed cache",
                retry_after=min(self.request_timeout, 5.0),
            )

    # -- request parsing helpers ---------------------------------------------

    def _parse_common(self, body: Dict[str, Any]):
        """Shared certify/optimum fields: tenant, instance, speed, backend."""
        tenant = body.get("tenant", "public")
        if (
            not isinstance(tenant, str)
            or not 0 < len(tenant) <= 64
            or not set(tenant) <= _TENANT_OK
        ):
            raise BadRequest(
                "tenant must be 1-64 characters of [A-Za-z0-9._-]"
            )
        payload = body.get("instance")
        if not isinstance(payload, dict):
            raise BadRequest('missing or non-object "instance" field')
        instance = instance_from_dict(payload, source="request.instance")
        raw_speed = body.get("speed", "1")
        try:
            speed = Fraction(str(raw_speed))
        except (ValueError, ZeroDivisionError):
            raise BadRequest(f"unparsable speed {raw_speed!r}")
        if speed <= 0:
            raise BadRequest(f"speed must be positive, got {speed}")
        backend = body.get("backend", "auto")
        allowed = BACKENDS + ("auto",)
        if backend not in allowed:
            raise BadRequest(
                f"unknown backend {backend!r}; expected one of {allowed}"
            )
        runs = available_backends() + ("auto",)
        if backend not in runs:
            raise BadRequest(
                f"backend {backend!r} cannot run on this host; "
                f"expected one of {runs}"
            )
        return tenant, instance, speed, backend

    # -- compute endpoints -----------------------------------------------------

    def _do_certify(self, body: Dict[str, Any]) -> Response:
        from ..verify import certify

        tenant, instance, speed, backend = self._parse_common(body)
        m = body.get("m")
        if not isinstance(m, int) or isinstance(m, bool) or not 0 <= m <= 10**6:
            raise BadRequest('"m" must be an integer machine count in [0, 1e6]')
        warm, lock = self.cache_pool.get(tenant, instance)
        with lock:
            try:
                cert = certify(warm, m, speed, backend=backend)
            except OverflowError:
                raise BadRequest(PAST_INT64) from None
        return Response(200, _certificate_body(cert))

    def _do_optimum(self, body: Dict[str, Any]) -> Response:
        from ..verify import Unsatisfiable, certified_optimum

        tenant, instance, speed, backend = self._parse_common(body)
        warm, lock = self.cache_pool.get(tenant, instance)
        with lock:
            try:
                co = certified_optimum(warm, speed, backend=backend)
            except OverflowError:
                raise BadRequest(PAST_INT64) from None
            except Unsatisfiable as exc:
                return Response(
                    200,
                    {"satisfiable": False,
                     "infeasible": _certificate_body(exc.certificate)},
                )
        payload: Dict[str, Any] = {
            "satisfiable": True,
            "optimum": co.machines,
            "feasible": _certificate_body(co.feasible),
        }
        if co.infeasible is not None:
            payload["infeasible"] = _certificate_body(co.infeasible)
        return Response(200, payload)

    # -- sweep endpoints -------------------------------------------------------

    def _require_queue(self):
        if self.queue is None:
            raise ServiceUnavailable(
                "this deployment has no sweep queue", retry_after=60.0
            )
        return self.queue

    def _do_submit_sweep(self, body: Dict[str, Any]) -> Response:
        queue = self._require_queue()
        if self.draining:
            raise ServiceUnavailable(
                "daemon is draining; resubmit to the replacement",
                retry_after=5.0,
            )
        sweep_id, state, created = queue.submit(body)
        # 202 for a fresh acceptance (work is durable but not done); 200
        # for an idempotent resubmission of a known spec.
        return Response(
            202 if created else 200,
            {"id": sweep_id, "state": state},
        )

    def _do_sweep_status(self, id: str) -> Response:
        queue = self._require_queue()
        status = queue.status(id)
        if status is None:
            raise NotFound(f"no sweep {id!r}")
        return Response(200, status)

    # -- liveness / metrics ----------------------------------------------------

    def _do_healthz(self) -> Response:
        """Liveness: 200 whenever the process can answer at all."""
        return Response(200, {"ok": True})

    def _do_readyz(self) -> Response:
        """Readiness: 503 while draining or while the queue has no room."""
        depth, capacity = (0, 0)
        if self.queue is not None:
            depth, capacity = self.queue.depth(), self.queue.max_queue
        payload = {
            "draining": self.draining,
            "queue_depth": depth,
            "queue_capacity": capacity,
        }
        if self.draining or (self.queue is not None and depth >= capacity):
            return Response(503, {"ready": False, **payload})
        return Response(200, {"ready": True, **payload})

    def _do_metrics(self) -> Response:
        for name, value in self.cache_pool.stats().items():
            self.registry.on_gauge(f"serve.cache.{name}", value, {})
        if self.queue is not None:
            self.registry.on_gauge("serve.queue.depth", self.queue.depth(), {})
        return Response(200, render_prometheus(self.registry.snapshot()))
