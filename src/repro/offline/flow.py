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
integer ticks.

Two interchangeable Dinic kernels answer the flow question (the default
``"auto"`` resolves to the fastest one available — see
:func:`resolve_backend`):

* ``"dinic"`` — the flat-array solver in :mod:`repro.offline.dinic`, fed by
  the per-instance memo in :mod:`repro.offline.feascache` (event intervals,
  scales, and verdicts are computed once per instance; feasibility probes
  warm-start each other); the fallback without a compiler and the
  bit-identity reference for the compiled kernel;
* ``"dinic_c"`` — the compiled kernel of :mod:`repro.offline.kernel`: the
  whole blocking-flow loop (plus the greedy pass, the topology build, the
  capacity fill and the sink growth of upward probes) runs natively over
  the same zero-copy buffers, bit-identical again; the drain of a
  downward probe (``FeasibilityNetwork._drain``) runs in Python on both
  kernels.  Lazily compiled at first use and unavailable (gracefully)
  when no C compiler or cached build exists.

Independent oracles (a generic max-flow formulation of this network and
an LP relaxation) live with the tests that cross-check against them.

Both kernels consume the *sparsified* event intervals (zero-demand
elementary intervals dropped before the network is built — see
:mod:`repro.offline.feascache`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from ..model.instance import Instance
from ..model.intervals import Numeric, to_fraction
from ..model.schedule import Schedule, Segment
from .feascache import cache_for

#: Solver backends accepted by :func:`max_flow_assignment` and friends.
BACKENDS = ("dinic", "dinic_c")

#: ``"auto"`` resolves to the fastest kernel available in this process
#: (``dinic_c`` → ``dinic``); see :func:`resolve_backend`.
DEFAULT_BACKEND = "auto"

#: Backends and the level-graph kernel each one selects.
_DINIC_KERNELS = {"dinic": "py", "dinic_c": "c"}

#: Inverse map: kernel name → backend name (used by the auto resolution).
_KERNEL_BACKENDS = {"py": "dinic", "c": "dinic_c"}


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
        from .kernel import best_kernel

        return _KERNEL_BACKENDS[best_kernel()]
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
    work = {
        job_id: {k: Fraction(amount, ticks) for k, amount in row.items()}
        for job_id, row in network.work_by_job().items()
    }
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


#: A point in time: integer ticks or an exact Fraction.
_Time = TypeVar("_Time", int, Fraction)


def _wrap(
    pieces: Iterable[Tuple[int, _Time]], start: _Time, end: _Time, m: int
) -> List[Tuple[int, int, _Time, _Time]]:
    """McNaughton's wrap-around loop: ``(job_id, machine, a, b)`` pieces.

    It only adds, subtracts and compares times, so it runs on integer
    ticks and on Fractions alike.
    """
    length = end - start
    if length <= 0:
        raise ValueError("empty elementary interval")
    out: List[Tuple[int, int, _Time, _Time]] = []
    machine = 0
    cursor = start
    for job_id, amount in pieces:
        if amount <= 0:
            continue
        if amount > length:
            raise ValueError(f"piece of job {job_id} exceeds interval length")
        remaining = amount
        while remaining > 0:
            if machine >= m:
                raise ValueError("pieces exceed machine capacity")
            take = min(end - cursor, remaining)
            out.append((job_id, machine, cursor, cursor + take))
            cursor += take
            remaining -= take
            if cursor == end:
                machine += 1
                cursor = start
    return out


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
    machines (this is where migration enters).
    """
    return [
        Segment(job_id, machine + machine_offset, a, b)
        for job_id, machine, a, b in _wrap(pieces, start, end, m)
    ]


def schedule_from_work(
    work: Dict[int, Dict[int, int]],
    intervals: Sequence[Tuple[Fraction, Fraction]],
    m: int,
    ticks: int,
) -> Schedule:
    """Turn a feasible flow's work map into an explicit migratory schedule.

    ``work[job_id][k]`` is the machine time job ``job_id`` gets in interval
    ``k``, in integer ticks of ``1/ticks`` (the raw flow of
    :meth:`~repro.offline.dinic.FeasibilityNetwork.work_by_job`, whose
    network counts in ticks of ``1/(scale·speed)``).  Within each interval,
    jobs are sorted by decreasing machine time before the wrap-around so
    that a job split across the wrap boundary never overlaps itself (its
    piece is at most the interval length).  Everything runs on integer
    ticks; back-to-back pieces of a job on one machine are merged, and each
    segment's endpoints become Fractions once.
    """
    per_interval: Dict[int, List[Tuple[int, int]]] = {}
    for job_id, row in work.items():
        for k, amount in row.items():
            per_interval.setdefault(k, []).append((job_id, amount))
    bounds: Dict[int, Tuple[int, int]] = {}
    for k in per_interval:
        a, b = intervals[k]
        bounds[k] = (_to_ticks(a, ticks), _to_ticks(b, ticks))
    # runs[(job, machine, end tick)] = start tick; in time order, a piece
    # that starts where a run of its job on its machine ends extends it
    runs: Dict[Tuple[int, int, int], int] = {}
    for k in sorted(per_interval, key=bounds.__getitem__):
        pieces = per_interval[k]
        pieces.sort(key=lambda item: (-item[1], item[0]))
        a, b = bounds[k]
        for job_id, machine, start, end in _wrap(pieces, a, b, m):
            runs[(job_id, machine, end)] = runs.pop((job_id, machine, start), start)
    fractions: Dict[int, Fraction] = {}

    def at(tick: int) -> Fraction:
        value = fractions.get(tick)
        if value is None:
            value = fractions[tick] = Fraction(tick, ticks)
        return value

    return Schedule(
        Segment(job_id, machine, at(start), at(end))
        for (job_id, machine, end), start in runs.items()
    )


def _to_ticks(x: Fraction, ticks: int) -> int:
    value, rest = divmod(x.numerator * ticks, x.denominator)
    if rest:
        raise ValueError(f"time {x} is not a multiple of 1/{ticks}")
    return value


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
        network.work_by_job(), cache.network_intervals, m,
        _tick_base(cache.scale_for(speed), speed),
    )
