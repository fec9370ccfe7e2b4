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
wrap-around rule inside each elementary interval.

Two interchangeable Dinic kernels answer the flow question (the default
``"auto"`` resolves to the fastest one available — see
:func:`resolve_backend`):

* ``"dinic"`` — the flat-array solver in :mod:`repro.offline.dinic`, fed by
  the per-instance memo in :mod:`repro.offline.feascache` (event intervals,
  scales, and verdicts are computed once per instance; feasibility probes
  warm-start each other); the fallback without a compiler and the
  bit-identity reference for the compiled kernel;
* ``"dinic_c"`` — the compiled kernel of :mod:`repro.offline.kernel`: the
  whole blocking-flow loop (plus the greedy pass, topology build, and
  warm-start capacity updates) runs natively over the same zero-copy
  buffers, bit-identical again; lazily compiled at first use and
  unavailable (gracefully) when no C compiler or cached build exists.

Independent oracles (a generic max-flow formulation of this network and
an LP relaxation) live with the tests that cross-check against them.

Both kernels consume the *sparsified* event intervals by default (zero-
demand elementary intervals dropped before the network is built — see
:mod:`repro.offline.feascache`); ``sparsify=False`` rebuilds over the full
elementary structure, with provably identical results.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

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


def max_flow_assignment(
    instance: Instance,
    m: int,
    speed: Numeric = 1,
    backend: str = DEFAULT_BACKEND,
    sparsify: bool = True,
) -> Tuple[bool, Dict[int, Dict[int, Fraction]], List[Tuple[Fraction, Fraction]]]:
    """Solve the feasibility flow for ``m`` speed-``speed`` machines.

    Returns ``(feasible, work, intervals)`` where ``work[job_id][k]`` is the
    amount of *machine time* job ``job_id`` spends in interval ``k`` of the
    returned interval list in a maximum flow (work equals machine time
    times speed).  The interval list is the (sparsified, by default) event
    structure the network was built over.
    """
    backend = resolve_backend(backend)
    if len(instance) == 0:
        return True, {}, []
    if m <= 0:
        return False, {}, []
    speed = to_fraction(speed)
    cache = cache_for(instance, sparsify=sparsify)
    intervals, scale = cache.network_intervals, cache.scale_for(speed)
    network = cache.solved_network(m, speed, _DINIC_KERNELS[backend])
    return network.feasible, network.work_by_job(speed, scale), intervals


def migratory_feasible(
    instance: Instance,
    m: int,
    speed: Numeric = 1,
    backend: str = DEFAULT_BACKEND,
    sparsify: bool = True,
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
    return cache_for(instance, sparsify=sparsify).feasible(
        m, to_fraction(speed), kernel
    )


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
    length = end - start
    if length <= 0:
        raise ValueError("empty elementary interval")
    segments: List[Segment] = []
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
            room = end - cursor
            take = min(room, remaining)
            if take > 0:
                segments.append(
                    Segment(job_id, machine + machine_offset, cursor, cursor + take)
                )
            cursor += take
            remaining -= take
            if cursor == end:
                machine += 1
                cursor = start
    return segments


def schedule_from_work(
    work: Dict[int, Dict[int, Fraction]],
    intervals: Sequence[Tuple[Fraction, Fraction]],
    m: int,
) -> Schedule:
    """Turn a feasible flow's work map into an explicit migratory schedule.

    Within each elementary interval, jobs are sorted by decreasing machine
    time before the wrap-around so that a job split across the wrap boundary
    never overlaps itself (its piece is at most the interval length).
    """
    segments: List[Segment] = []
    per_interval: Dict[int, List[Tuple[int, Fraction]]] = {}
    for job_id, row in work.items():
        for k, amount in row.items():
            per_interval.setdefault(k, []).append((job_id, amount))
    for k, pieces in per_interval.items():
        a, b = intervals[k]
        pieces.sort(key=lambda item: (-item[1], item[0]))
        segments.extend(mcnaughton(pieces, a, b, m))
    return Schedule(segments)


def migratory_schedule(
    instance: Instance,
    m: int,
    speed: Numeric = 1,
    backend: str = DEFAULT_BACKEND,
    sparsify: bool = True,
) -> Optional[Schedule]:
    """An explicit feasible migratory schedule on ``m`` machines, or ``None``."""
    feasible, work, intervals = max_flow_assignment(
        instance, m, speed, backend=backend, sparsify=sparsify
    )
    if not feasible:
        return None
    return schedule_from_work(work, intervals, m)
