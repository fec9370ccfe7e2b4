"""Exact optimal machine counts (migratory) via flow + binary search."""

from __future__ import annotations

from typing import Optional, Tuple

from ..model.instance import Instance
from ..model.intervals import Numeric, positive_speed
from ..model.schedule import Schedule
from ..obs import core as _obs
from .feascache import cache_for
from .flow import (
    DEFAULT_BACKEND,
    migratory_feasible,
    migratory_schedule,
    resolve_backend,
)
from .workload import scaled_lower_bound


def window_concurrency(instance: Instance) -> int:
    """Max number of windows alive at once — a feasible machine count.

    With this many machines every active job can run during its entire
    window, so it always upper-bounds the migratory optimum.  Answered from
    the per-instance cache: the value is a free byproduct of the interval
    sweep that also sparsifies the feasibility network.
    """
    return cache_for(instance).window_concurrency


def migratory_optimum(
    instance: Instance,
    speed: Numeric = 1,
    backend: str = DEFAULT_BACKEND,
) -> int:
    """The exact minimum number of speed-``speed`` machines (migratory).

    Binary search over the flow feasibility test between the speed-scaled
    workload lower bound and the window-concurrency upper bound.  The
    search is *incremental*: the per-instance cache builds the flow network
    once, probes warm-start from each other's residual flows (sink
    capacities only grow with ``m``), and resolved ``(m, speed)`` verdicts
    are memoized, so repeated calls on the same instance — the common
    pattern across the analysis layer — cost nothing.

    Raises :class:`ValueError` when no machine count is feasible (a job with
    ``p_j / speed > d_j − r_j`` cannot finish at any ``m`` because it cannot
    self-parallelize; only possible for ``speed < 1``).
    """
    speed = positive_speed(speed)
    if len(instance) == 0:
        return 0
    # Resolve "auto" once, up front: every probe of the search runs on the
    # same kernel and the search span records the concrete backend.
    backend = resolve_backend(backend)
    if speed < 1 and any(j.processing > speed * j.window for j in instance):
        raise ValueError(
            "infeasible at every machine count: a job's window is shorter "
            f"than its processing time at speed {speed}"
        )
    lo = max(1, scaled_lower_bound(instance, speed))
    hi = max(lo, window_concurrency(instance))

    def probe(m: int, kind: str) -> bool:
        _obs.incr("search.probes")
        _obs.observe("search.probe_m", m)
        with _obs.span("optimum.probe", m=m, kind=kind):
            return migratory_feasible(instance, m, speed, backend=backend)

    with _obs.span("optimum.search", n=len(instance), speed=str(speed),
                   backend=backend):
        _obs.gauge("search.lower_bound_start", lo)
        _obs.gauge("search.upper_bound_start", hi)
        # Window concurrency is feasible at unit speed; for slower machines
        # grow geometrically until a feasible count is found (the guard above
        # ensures one exists).
        while not probe(hi, "expand"):
            _obs.incr("search.expansions")
            lo = hi + 1
            hi *= 2
        while lo < hi:
            mid = (lo + hi) // 2
            if probe(mid, "bisect"):
                hi = mid
            else:
                lo = mid + 1
        _obs.gauge("search.optimum", lo)
    return lo


def optimal_migratory_schedule(
    instance: Instance,
    speed: Numeric = 1,
    backend: str = DEFAULT_BACKEND,
) -> Tuple[int, Optional[Schedule]]:
    """``(OPT, schedule)`` for the migratory problem.

    The binary search leaves the per-instance cache holding a solved
    snapshot at the optimum, so the schedule is extracted straight from
    that residual flow — no fresh feasibility solve (pinned by a
    :class:`~repro.offline.feascache.CacheStats` regression test).
    """
    backend = resolve_backend(backend)
    m = migratory_optimum(instance, speed, backend=backend)
    if m == 0:
        return 0, Schedule([])
    with _obs.span("optimum.extract_schedule", m=m):
        # snapshot restore, no probe
        return m, migratory_schedule(instance, m, speed, backend=backend)
