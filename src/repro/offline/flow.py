"""Exact offline migratory feasibility via maximum flow.

The preemptive migratory machine-minimization problem is solvable offline in
polynomial time (Horn's classic flow formulation, referenced in Section 1 of
the paper).  For a candidate machine count ``m``:

* split the time axis at the release/deadline event points into elementary
  intervals ``E_1, …, E_K``;
* build the network ``source → job → interval → sink`` with capacities
  ``p_j``, ``|E_k|`` (a job cannot self-parallelize within an interval) and
  ``m·|E_k|`` (machine capacity);
* the instance is feasible on ``m`` unit-speed machines iff the max flow
  saturates all source arcs, i.e. equals ``Σ_j p_j``.

All rational data is scaled by the common denominator so the flow problem is
*integral* and the answer is exact.  A feasible flow is turned into an
explicit migratory :class:`~repro.model.schedule.Schedule` by McNaughton's
wrap-around rule inside each elementary interval, run on the flow's own
integer ticks by the network's kernel (its ``gather`` and ``wrap`` entry
points), so the schedule is normalized on ints and builds its ``Segment``
objects only when asked for them.

Both backends run the flat-buffer network of :mod:`repro.offline.dinic`,
fed by the per-instance memo in :mod:`repro.offline.feascache` (event
intervals, scales, and verdicts are computed once per instance;
feasibility probes warm-start each other).  They differ only in the kernel
the network calls — two implementations of one interface (the default
``"auto"`` resolves to the fastest one available — see
:func:`resolve_backend`):

* ``"dinic"`` — the pure-Python ``py`` kernel (:mod:`repro.offline.kernel.py`);
  the fallback without a compiler and the bit-identity reference for the
  compiled kernel;
* ``"dinic_c"`` — the compiled ``c`` kernel of :mod:`repro.offline.kernel`:
  the blocking-flow loop, the greedy pass, the topology build, the
  capacity fill, the sink growth of upward probes and the drain of
  downward ones run natively over the same zero-copy buffers,
  bit-identical again.  Lazily compiled at first use and unavailable
  (gracefully) when no C compiler or cached build exists.  Where it loads,
  the per-instance table sweep runs natively too, whichever backend asks.

Independent oracles (a generic max-flow formulation of this network and
an LP relaxation) live with the tests that cross-check against them.

Both kernels consume the *sparsified* event intervals (zero-demand
elementary intervals dropped before the network is built — see
:mod:`repro.offline.feascache`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..model.instance import Instance
from ..model.intervals import Numeric, to_fraction
from ..model.schedule import Schedule, Segment
from . import kernel as _kernel
from .dinic import FlowPieces
from .feascache import NetworkTables, cache_for

#: Solver backends accepted by :func:`max_flow_assignment` and friends.
BACKENDS = ("dinic", "dinic_c")

#: ``"auto"`` resolves to the fastest kernel available in this process
#: (``dinic_c`` → ``dinic``); see :func:`resolve_backend`.
DEFAULT_BACKEND = "auto"

#: The one answer to an instance the int64 kernels cannot hold exactly:
#: fixed, not the ``OverflowError``'s own text, so it does not depend on
#: which kernel or step met the limit first (serve's 400, the CLI's exit).
PAST_INT64 = (
    "instance too large for exact flow arithmetic: a scaled time, "
    "capacity or total demand passes the int64 limit 2**63 - 1"
)

#: Backends and the kernel (:func:`repro.offline.kernel.get`) each one runs.
_DINIC_KERNELS = {"dinic": "py", "dinic_c": "c"}


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS and backend != "auto":
        raise ValueError(
            f"unknown flow backend {backend!r}; expected one of "
            f"{BACKENDS + ('auto',)}"
        )


def resolve_backend(backend: str = DEFAULT_BACKEND) -> str:
    """The concrete backend a request will run on.

    ``"auto"`` picks the fastest kernel usable in this process, probing the
    ladder ``dinic_c`` (compiled; needs a C compiler or a warm build cache)
    → ``dinic`` (pure stdlib).  Both produce bit-identical flows, so the
    choice is invisible except in speed; the resolved name is what result
    metadata and obs spans record.
    Concrete names pass through unchanged (after validation) — including
    ``dinic_c`` on a host that cannot provide it, which then raises
    :class:`~repro.offline.kernel.KernelUnavailable` at first use rather
    than silently degrading an explicit request.
    """
    if backend == "auto":
        from .kernel import available

        return "dinic_c" if available() else "dinic"
    _check_backend(backend)
    return backend


def available_backends() -> Tuple[str, ...]:
    """The subset of :data:`BACKENDS` usable in this process.

    Only ``dinic_c`` is conditional (it needs a C compiler or a warm build
    cache, and honors the ``REPRO_DINIC_C=off`` escape hatch); this is the
    default backend set of the differential harness, so cross-checks run
    everywhere without configuration.
    """
    from .kernel import available

    return tuple(b for b in BACKENDS if b != "dinic_c" or available())


def _tick_base(scale: int, speed: Fraction) -> int:
    """``scale·speed``: machine time in a speed's network is counted in
    ticks of ``1/T`` for this ``T`` — an integer at every speed
    (``lcm(base_scale, q)·p`` for ``speed = p/q``, by ``scale_for``)."""
    return scale * speed.numerator // speed.denominator


def max_flow_assignment(
    instance: Instance,
    m: int,
    speed: Numeric = 1,
    backend: str = DEFAULT_BACKEND,
) -> Tuple[bool, Dict[int, Dict[int, Fraction]], List[Tuple[Fraction, Fraction]]]:
    """Solve the feasibility flow for ``m`` speed-``speed`` machines.

    Returns ``(feasible, work, intervals)`` where ``work[job_id][k]`` is the
    amount of *machine time* job ``job_id`` spends in interval ``k`` of the
    returned interval list in a maximum flow (work equals machine time
    times speed).  The interval list is the sparsified event structure the
    network was built over.
    """
    backend = resolve_backend(backend)
    if len(instance) == 0:
        return True, {}, []
    if m <= 0:
        return False, {}, []
    speed = to_fraction(speed)
    cache = cache_for(instance)
    network = cache.solved_network(m, speed, _DINIC_KERNELS[backend])
    ticks = _tick_base(cache.scale_for(speed), speed)
    offsets, jobs, amounts, ids, _ = network.work_by_job()
    work: Dict[int, Dict[int, Fraction]] = {job_id: {} for job_id in ids}
    for k in range(len(offsets) - 1):
        for i in range(offsets[k], offsets[k + 1]):
            work[ids[jobs[i]]][k] = Fraction(amounts[i], ticks)
    return network.feasible, work, cache.network_intervals


def migratory_feasible(
    instance: Instance,
    m: int,
    speed: Numeric = 1,
    backend: str = DEFAULT_BACKEND,
) -> bool:
    """Exact test: does a feasible migratory schedule on ``m`` machines exist?

    Answered through the per-instance cache: repeated probes on the same
    instance reuse the built network, warm-start from each other's residual
    flows, and memoize ``(m, speed)`` verdicts.
    """
    kernel = _DINIC_KERNELS[resolve_backend(backend)]
    if len(instance) == 0:
        return True
    if m <= 0:
        return False
    return cache_for(instance).feasible(m, to_fraction(speed), kernel)


def mcnaughton(
    pieces: Sequence[Tuple[int, Fraction]],
    start: Fraction,
    end: Fraction,
    m: int,
    machine_offset: int = 0,
) -> List[Segment]:
    """McNaughton's wrap-around rule for one elementary interval.

    ``pieces`` are ``(job_id, machine_time)`` with each piece at most
    ``end − start`` and total at most ``m (end − start)``.  Pieces are laid
    out on a virtual timeline of length ``m (end − start)`` and wrapped onto
    machines; a wrapped piece becomes two non-overlapping segments on two
    machines (this is where migration enters).  The loop is the ``py``
    kernel's :func:`~repro.offline.kernel.py.wrap_interval`.
    """
    return [
        Segment(job_id, machine + machine_offset, a, b)
        for job_id, machine, a, b in _kernel.py.wrap_interval(pieces, start, end, m)
    ]


def schedule_from_work(
    work: FlowPieces, tables: NetworkTables, m: int, ticks: int
) -> Schedule:
    """Turn a feasible flow's pieces into an explicit migratory schedule.

    ``work`` is :meth:`~repro.offline.dinic.FeasibilityNetwork.work_by_job`'s
    result: each kept interval's pieces in integer ticks of ``1/ticks``, by
    decreasing machine time, so a job split across the wrap boundary never
    overlaps itself (its piece is at most the interval length).  ``tables``
    gives the kept intervals' bounds over its ``base_scale``
    (``start_base``, ``len_base``), ``ticks`` a multiple of that scale.
    The kernel that gathered the pieces wraps them on integer ticks, on
    Python ints where a tick passes int64, and :meth:`Schedule.from_ticks`
    merges the wrapped pieces into the schedule's runs.
    """
    f, rest = divmod(ticks, tables.base_scale)
    if rest:
        raise ValueError(
            f"time 1/{tables.base_scale} is not a multiple of 1/{ticks}"
        )
    args = (m, work.offsets, work.jobs, work.amounts, tables.start_base,
            tables.len_base, f, work.ids)
    flat = work.kernel.wrap(*args)
    if flat is None:
        flat = _kernel.py.wrap(*args)
    ids = work.ids
    return Schedule.from_ticks(
        zip(map(ids.__getitem__, flat[0::4]), flat[1::4], flat[2::4], flat[3::4]),
        ticks,
    )


def migratory_schedule(
    instance: Instance,
    m: int,
    speed: Numeric = 1,
    backend: str = DEFAULT_BACKEND,
) -> Optional[Schedule]:
    """An explicit feasible migratory schedule on ``m`` machines, or ``None``."""
    backend = resolve_backend(backend)
    if len(instance) == 0:
        return Schedule([])
    if m <= 0:
        return None
    speed = to_fraction(speed)
    cache = cache_for(instance)
    network = cache.solved_network(m, speed, _DINIC_KERNELS[backend])
    if not network.feasible:
        return None
    return schedule_from_work(
        network.work_by_job(), cache.tables, m,
        _tick_base(cache.scale_for(speed), speed),
    )
