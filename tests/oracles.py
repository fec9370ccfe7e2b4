"""Independent feasibility oracles the flow kernels are cross-checked against.

Both answer :mod:`repro.offline.flow`'s question by other means, and
neither is on any runtime path:

* the generic ``networkx`` max-flow formulation of Horn's network, built
  over *every* elementary interval between the instance's sorted
  release/deadline points (the unsparsified network, so each cross-check
  also tests the kernels' sparsification) at its own integer scale (never
  the library's int64 tables, so it answers past int64 too), with a
  min-cut witness extractor and an optimum that bisects over its verdicts;
* the float-based HiGHS LP relaxation (``scipy.optimize.linprog``) over
  ``x[j,k]``, the machine time job ``j`` gets in elementary interval ``k``:
  ``Σ_k x[j,k] = p_j``, ``0 ≤ x[j,k] ≤ |E_k|``, ``Σ_j x[j,k] ≤ m·|E_k|``,
  and ``x[j,k] = 0`` unless ``E_k ⊆ [r_j, d_j)``.

It also keeps the ``Fraction`` references the library's integer-tick
extraction and checker are differential-tested against
(``tests/test_integer_time.py``): :func:`reference_mcnaughton`,
:func:`reference_schedule_from_work`, :func:`reference_merge_adjacent` and
:func:`reference_verify`, each the library's former ``Fraction`` body;
and :func:`reference_tables`, the former ``Fraction`` sweep behind the
feasibility cache's base scale, interval lists and integer network tables
(``tests/test_tables.py``).  The served certify's integer paths are held
to their former bodies (``tests/test_integer_paths.py``):
:func:`reference_tick_schedule_from_work` (extraction with its own run
merge, over :func:`reference_wrap`), :func:`reference_job_fields` (the
``Fraction`` job validation), :func:`reference_jsonable` (the
``isinstance``-chain encoder), :func:`reference_schedule_to_dict` (the
per-segment schedule encoding) and :func:`reference_encode` (the generic
served-body encoder).  :func:`reference_grid_winner` is the float window
grid ``repro profile`` once bounded the optimum with; the exact profile's
bound is held to be at least its bound (``tests/test_profile.py``).
"""

from __future__ import annotations

import json
import math
from array import array
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np
from scipy.optimize import linprog

from repro.model.instance import Instance
from repro.model.intervals import IntervalUnion, Numeric, to_fraction
from repro.model.schedule import FeasibilityReport, Schedule, Segment
from repro.obs.sinks import jsonable
from repro.offline.dinic import FlowPieces, id_rank
from repro.offline.feascache import cache_for
from repro.offline.workload import machines_bound
from repro.verify import (
    Certificate,
    CertifiedOptimum,
    FeasibleCertificate,
    InfeasibleCertificate,
    Unsatisfiable,
    unsat_certificate,
)

_SOURCE = "s"
_SINK = "t"
_EMPTY_I = array("i")
_EMPTY_Q = array("q")


def elementary_intervals(instance: Instance) -> List[Tuple[Fraction, Fraction]]:
    """The intervals between the instance's sorted release/deadline points."""
    points = sorted({p for job in instance for p in (job.release, job.deadline)})
    return list(zip(points, points[1:]))


def reference_scale(instance: Instance, speed: Fraction) -> int:
    """``lcm(base, q)·q`` for ``speed = p/q``: every ``p_j`` and
    ``(b − a)·speed`` is an integer multiple of ``1/scale``."""
    q = speed.denominator
    return math.lcm(reference_base_scale(instance), q) * q


def _network(
    instance: Instance, m: int, speed: Fraction
) -> Tuple[nx.DiGraph, List[Tuple[Fraction, Fraction]], int]:
    intervals = elementary_intervals(instance)
    scale = reference_scale(instance, speed)
    graph = nx.DiGraph()
    for k, (a, b) in enumerate(intervals):
        cap = int((b - a) * speed * scale)
        graph.add_edge(("iv", k), _SINK, capacity=m * cap)
    for job in instance:
        graph.add_edge(_SOURCE, ("job", job.id), capacity=int(job.processing * scale))
        for k, (a, b) in enumerate(intervals):
            if job.release <= a and b <= job.deadline:
                graph.add_edge(
                    ("job", job.id), ("iv", k), capacity=int((b - a) * speed * scale)
                )
    return graph, intervals, scale


def _flow(
    instance: Instance, m: int, speed: Fraction
) -> Tuple[bool, Dict[int, Dict[int, int]], List[Tuple[Fraction, Fraction]], int]:
    """``(feasible, raw, intervals, ticks)``: ``raw[job][k]`` is the integer
    flow, i.e. machine time in ticks of ``1/ticks`` (``ticks = scale·speed``)."""
    graph, intervals, scale = _network(instance, m, speed)
    total = sum(int(j.processing * scale) for j in instance)
    flow_value, flow_dict = nx.maximum_flow(
        graph, _SOURCE, _SINK, flow_func=nx.algorithms.flow.dinitz
    )
    raw: Dict[int, Dict[int, int]] = {}
    for job in instance:
        row: Dict[int, int] = {}
        for node, amount in flow_dict.get(("job", job.id), {}).items():
            if amount > 0 and isinstance(node, tuple) and node[0] == "iv":
                row[node[1]] = amount
        raw[job.id] = row
    ticks = scale * speed
    assert ticks.denominator == 1
    return flow_value == total, raw, intervals, int(ticks)


def max_flow_assignment(
    instance: Instance, m: int, speed: Numeric = 1
) -> Tuple[bool, Dict[int, Dict[int, Fraction]], List[Tuple[Fraction, Fraction]]]:
    """``(feasible, work, intervals)``, like the library's ``max_flow_assignment``
    but over every elementary interval."""
    if len(instance) == 0:
        return True, {}, []
    if m <= 0:
        return False, {}, []
    feasible, raw, intervals, ticks = _flow(instance, m, to_fraction(speed))
    # raw flow is work in units of 1/scale; machine time = work / speed
    work = {
        job_id: {k: Fraction(amount, ticks) for k, amount in row.items()}
        for job_id, row in raw.items()
    }
    return feasible, work, intervals


def networkx_min_cut(
    instance: Instance, m: int, speed: Numeric = 1
) -> Tuple[List[int], List[int]]:
    """Source side ``(job_ids, interval_indices)`` of a minimum cut.

    networkx returns the maximal source side (everything that cannot reach
    the sink), not the kernel's minimal one; either is a Theorem 1 witness.
    """
    if len(instance) == 0:
        return [], []
    graph, _, _ = _network(instance, m, to_fraction(speed))
    _, (reachable, _) = nx.minimum_cut(
        graph, _SOURCE, _SINK, flow_func=nx.algorithms.flow.dinitz
    )
    jobs = sorted(node[1] for node in reachable
                  if isinstance(node, tuple) and node[0] == "job")
    ivs = sorted(node[1] for node in reachable
                 if isinstance(node, tuple) and node[0] == "iv")
    return jobs, ivs


def migratory_optimum(instance: Instance, speed: Numeric = 1) -> int:
    """The optimum by bisection over networkx verdicts, bracketed from 1 by
    doubling; :class:`ValueError` when no machine count works."""
    if len(instance) == 0:
        return 0
    speed = to_fraction(speed)
    if any(j.processing > speed * j.window for j in instance):
        raise ValueError(f"infeasible at every machine count at speed {speed}")

    def feasible(m: int) -> bool:
        return max_flow_assignment(instance, m, speed)[0]

    lo = hi = 1
    while not feasible(hi):
        lo, hi = hi + 1, hi * 2
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def certify(instance: Instance, m: int, speed: Numeric = 1) -> Certificate:
    """A certificate built from the networkx flow (feasible) or cut.

    At ``m = 0`` networkx's maximal cut side takes the zero-demand gaps too,
    so, as in :func:`repro.verify.certify`, all jobs and windows witness.
    """
    speed = to_fraction(speed)
    if m == 0 and len(instance):
        return InfeasibleCertificate(
            0, speed, tuple(j.id for j in instance), instance.intervals()
        )
    if len(instance) == 0:
        return FeasibleCertificate(m, speed, Schedule([]))
    feasible, raw, intervals, ticks = _flow(instance, m, speed)
    if feasible:
        return FeasibleCertificate(m, speed, Schedule(
            reference_tick_schedule_from_work(raw, intervals, m, ticks)
        ))
    job_ids, iv_idx = networkx_min_cut(instance, m, speed)
    return InfeasibleCertificate(
        m, speed, tuple(job_ids),
        IntervalUnion.from_pairs(intervals[k] for k in iv_idx),
    )


def certified_optimum(instance: Instance, speed: Numeric = 1) -> CertifiedOptimum:
    """The networkx optimum with certificates at ``m`` and ``m − 1``."""
    speed = to_fraction(speed)
    unsat = unsat_certificate(instance, speed)
    if unsat is not None:
        raise Unsatisfiable("infeasible at every machine count", unsat)
    m = migratory_optimum(instance, speed)
    below = certify(instance, m - 1, speed) if m > 0 else None
    return CertifiedOptimum(m, certify(instance, m, speed), below)


def lp_feasible(
    instance: Instance, m: int, speed: Numeric = 1, tol: float = 1e-9
) -> Optional[bool]:
    """LP verdict on feasibility; ``None`` if the solver fails.

    Maximizes total scheduled work under the relaxed constraints; feasible
    iff the optimum reaches ``Σ_j p_j`` (within ``tol`` relative slack).
    """
    if len(instance) == 0:
        return True
    if m <= 0:
        return False
    speed = float(to_fraction(speed))
    intervals = cache_for(instance).intervals
    jobs = list(instance)
    # one variable per admissible (job, interval) pair
    pairs = [(j, k) for j, job in enumerate(jobs)
             for k, (a, b) in enumerate(intervals)
             if job.release <= a and b <= job.deadline]
    if not pairs:
        return False
    lengths = [float(b - a) for a, b in intervals]
    capacity = np.zeros((len(intervals), len(pairs)))  # Σ_j x[j,k] ≤ m·len_k
    work = np.zeros((len(jobs), len(pairs)))  # Σ_k x[j,k]·speed ≤ p_j
    for idx, (j, k) in enumerate(pairs):
        capacity[k, idx] = 1.0
        work[j, idx] = speed
    used = capacity.any(axis=1)
    result = linprog(
        -np.ones(len(pairs)),  # maximize total work (drives Σ_k to equality)
        A_ub=np.vstack([capacity[used], work]),
        b_ub=[m * lengths[k] for k in np.flatnonzero(used)]
        + [float(job.processing) for job in jobs],
        bounds=[(0.0, lengths[k]) for _, k in pairs],
        method="highs",
    )
    if not result.success:
        return None
    total_work = -result.fun * speed
    needed = float(sum(float(j.processing) for j in jobs))
    return bool(total_work >= needed * (1 - tol) - tol)


# -- Fraction references for the integer-tick extraction and checker -------


def reference_mcnaughton(
    pieces: Sequence[Tuple[int, Fraction]],
    start: Fraction,
    end: Fraction,
    m: int,
    machine_offset: int = 0,
) -> List[Segment]:
    """The former ``Fraction`` ``mcnaughton``, verbatim.

    McNaughton's wrap-around rule for one elementary interval.

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


def reference_schedule_from_work(
    work: Dict[int, Dict[int, Fraction]],
    intervals: Sequence[Tuple[Fraction, Fraction]],
    m: int,
) -> Tuple[Segment, ...]:
    """The former ``Fraction`` ``schedule_from_work``, verbatim, with the
    reference normalization: the merged, sorted segment tuple.

    Turns a feasible flow's work map into an explicit migratory schedule.

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
        segments.extend(reference_mcnaughton(pieces, a, b, m))
    return reference_merge_adjacent(segments)


def reference_merge_adjacent(segments: Iterable[Segment]) -> Tuple[Segment, ...]:
    """The former ``Fraction`` ``_merge_adjacent``, verbatim.

    Merges back-to-back segments of the same job on the same machine.
    """
    segs = sorted(segments, key=lambda s: (s.machine, s.job_id, s.start))
    merged: List[Segment] = []
    for seg in segs:
        prev = merged[-1] if merged else None
        if (
            prev is not None
            and prev.machine == seg.machine
            and prev.job_id == seg.job_id
            and prev.end == seg.start
        ):
            merged[-1] = Segment(seg.job_id, seg.machine, prev.start, seg.end)
        else:
            merged.append(seg)
    return tuple(sorted(merged, key=lambda s: (s.start, s.machine, s.job_id)))


def reference_verify(
    schedule: Schedule,
    instance: Instance,
    speed: Numeric = 1,
    machines: Optional[int] = None,
) -> FeasibilityReport:
    """The former ``Fraction`` :meth:`Schedule.verify`, verbatim.

    Checks the schedule against ``instance`` on speed-``speed`` machines.

    When ``machines`` is given the schedule must also fit on that many
    machines — the extra condition that turns a verified schedule into a
    *feasibility certificate at* ``m`` (see :mod:`repro.verify`).
    """
    speed = to_fraction(speed)
    violations: List[str] = []

    if machines is not None and schedule.machines_used > machines:
        violations.append(
            f"schedule uses {schedule.machines_used} machines > allowed {machines}"
        )

    known = {j.id for j in instance}
    for seg in schedule.segments:
        if seg.job_id not in known:
            violations.append(f"segment references unknown job {seg.job_id}")

    # (1) window containment
    for seg in schedule.segments:
        if seg.job_id not in known:
            continue
        job = instance.job(seg.job_id)
        if seg.start < job.release or seg.end > job.deadline:
            violations.append(
                f"job {seg.job_id} runs [{seg.start},{seg.end}) outside "
                f"window [{job.release},{job.deadline})"
            )

    # (2) machine exclusivity
    by_machine: Dict[int, List[Segment]] = {}
    for seg in schedule.segments:
        by_machine.setdefault(seg.machine, []).append(seg)
    for machine, segs in by_machine.items():
        segs.sort(key=lambda s: s.start)
        for a, b in zip(segs, segs[1:]):
            if b.start < a.end:
                violations.append(
                    f"machine {machine} overlap: job {a.job_id} "
                    f"[{a.start},{a.end}) vs job {b.job_id} [{b.start},{b.end})"
                )

    # (3) no intra-job parallelism, plus migration/preemption counting
    migratory: List[int] = []
    preemptions = 0
    by_job: Dict[int, List[Segment]] = {}
    for seg in schedule.segments:
        by_job.setdefault(seg.job_id, []).append(seg)
    for job_id, segs in by_job.items():
        segs.sort(key=lambda s: (s.start, s.end))
        for a, b in zip(segs, segs[1:]):
            if b.start < a.end:
                violations.append(
                    f"job {job_id} runs on machines {a.machine} and "
                    f"{b.machine} simultaneously at {b.start}"
                )
            elif b.start > a.end or b.machine != a.machine:
                preemptions += 1
        if len({s.machine for s in segs}) > 1:
            migratory.append(job_id)

    # (4) work completion
    unfinished: Dict[int, Fraction] = {}
    for job in instance:
        got = schedule.work_of(job.id, speed)
        if got != job.processing:
            if got < job.processing:
                unfinished[job.id] = job.processing - got
                violations.append(
                    f"job {job.id} received {got} < p_j = {job.processing}"
                )
            else:
                violations.append(
                    f"job {job.id} received {got} > p_j = {job.processing}"
                )

    return FeasibilityReport(
        feasible=not violations,
        violations=tuple(violations),
        machines_used=schedule.machines_used,
        migratory_jobs=tuple(sorted(migratory)),
        preemptions=preemptions,
        unfinished=unfinished,
    )


def reference_base_scale(instance: Instance) -> int:
    """LCM of all denominators appearing in the instance data."""
    scale = 1
    for j in instance:
        for d in (
            j.release.denominator,
            j.deadline.denominator,
            j.processing.denominator,
        ):
            scale = scale * d // math.gcd(scale, d)
    return scale


def reference_intervals(
    instance: Instance, base: int
) -> List[Tuple[Fraction, Fraction]]:
    """Elementary intervals between consecutive release/deadline events."""
    # Deduplicate and sort via exact base-scaled integer keys: the
    # map p ↦ p·base_scale is strictly monotone and injective, so
    # the point order is identical to sorting the Fractions — minus
    # Fraction.__hash__/__lt__ on every comparison.
    uniq: Dict[int, Fraction] = {}
    for j in instance:
        for p in (j.release, j.deadline):
            uniq[p.numerator * (base // p.denominator)] = p
    # Keys are unique and the map is injective, so consecutive
    # points are strictly increasing — no ``b > a`` filter needed.
    points = [uniq[key] for key in sorted(uniq)]
    return list(zip(points, points[1:]))


def reference_build_tables(
    instance: Instance,
    elementary: List[Tuple[Fraction, Fraction]],
    base_scale: int,
) -> SimpleNamespace:
    """One integer sweep: live counts, sparsification, and job tables.

    The sweep indexes jobs into the elementary intervals through O(1)
    endpoint lookups (every release starts an elementary interval and every
    deadline ends one, by construction of the event points) — no per-job
    Fraction bisection survives into the per-probe path.
    """
    t = SimpleNamespace()
    n = len(instance)
    m_el = len(elementary)
    t.elementary_count = m_el
    t.base_scale = base_scale
    t.topology = None
    if n == 0:
        t.intervals = []
        t.start_base = t.len_base = _EMPTY_Q
        t.demand_base = _EMPTY_Q
        t.k0 = t.k1 = t.src = t.edf = _EMPTY_I
        t.n_nodes, t.n_edges = 2, 0
        t.dropped = 0
        t.max_live = t.zero_laxity_max = 0
        t.total_demand_base = 0
        return t

    # Work in base-scaled *integer* coordinates throughout: a point ``p``
    # becomes ``p.numerator · (base_scale // p.denominator)`` (exact by the
    # LCM property).  Integer dict keys avoid Fraction.__hash__ — which
    # computes a modular inverse per call — on the hot cold-build path.
    base = base_scale
    pts_int = [
        a.numerator * (base // a.denominator) for a, _ in elementary
    ]
    last = elementary[-1][1]
    pts_int.append(last.numerator * (base // last.denominator))
    start_index = {pi: k for k, pi in enumerate(pts_int)}
    len_el = [pts_int[k + 1] - pts_int[k] for k in range(m_el)]

    live = [0] * (m_el + 1)   # live-count diff array over elementary intervals
    zl = [0] * (m_el + 1)     # same, restricted to zero-laxity jobs
    demand_base = array("q", bytes(8 * n))
    i0s = array("i", bytes(4 * n))
    i1s = array("i", bytes(4 * n))
    for idx, job in enumerate(instance):
        p = job.processing
        d = p.numerator * (base // p.denominator)
        demand_base[idx] = d
        r, dl = job.release, job.deadline
        i0 = start_index[r.numerator * (base // r.denominator)]
        i1 = start_index[dl.numerator * (base // dl.denominator)]
        i0s[idx] = i0
        i1s[idx] = i1
        live[i0] += 1
        live[i1] -= 1
        if pts_int[i1] - pts_int[i0] == d:  # window length == processing
            zl[i0] += 1
            zl[i1] -= 1

    kept: List[Tuple[Fraction, Fraction]] = []
    start_base: List[int] = []
    len_base: List[int] = []
    newindex = array("i", bytes(4 * m_el)) if m_el else _EMPTY_I
    dropped = 0
    cur = zcur = max_live = zl_max = 0
    for k in range(m_el):
        cur += live[k]
        zcur += zl[k]
        if cur > max_live:
            max_live = cur
        if zcur > zl_max:
            zl_max = zcur
        if cur == 0:
            dropped += 1  # no live job: no arc can ever reach this interval
            newindex[k] = -1
            continue
        newindex[k] = len(kept)
        # Share the elementary tuple: both lists live as long as the cache,
        # and each extra tuple is one more object for the cyclic GC to
        # traverse (about 10^5 of them at n = 10^5).
        kept.append(elementary[k])
        start_base.append(pts_int[k])
        len_base.append(len_el[k])

    k0s = array("i", bytes(4 * n))
    k1s = array("i", bytes(4 * n))
    srcs = array("i", bytes(4 * n))
    acc = 2 * len(kept)  # sink arcs occupy edge ids [0, 2K)
    for idx in range(n):
        # A job is live throughout [i0, i1), so both boundary elementary
        # intervals are kept and already mapped.
        k0 = newindex[i0s[idx]]
        k1 = newindex[i1s[idx] - 1] + 1
        k0s[idx] = k0
        k1s[idx] = k1
        srcs[idx] = acc
        acc += 2 * (1 + k1 - k0)  # source arc + window arcs, paired ids

    t.intervals = kept
    try:
        t.start_base = array("q", start_base)
    except OverflowError:  # a start past int64 stays a Python int
        t.start_base = start_base
    t.len_base = array("q", len_base)
    t.demand_base = demand_base
    t.k0, t.k1, t.src = k0s, k1s, srcs
    t.edf = array("i", sorted(range(n), key=lambda i: (k1s[i], k0s[i], i)))
    t.n_nodes = 2 + n + len(kept)
    t.n_edges = acc // 2
    t.dropped = dropped
    t.max_live = max_live
    t.zero_laxity_max = zl_max
    t.total_demand_base = sum(demand_base)
    return t


def reference_tables(instance: Instance) -> SimpleNamespace:
    """The library's former ``Fraction`` sweep, for the integer scan.

    :func:`reference_base_scale`, :func:`reference_intervals` and
    :func:`reference_build_tables` are the former ``base_scale``,
    ``intervals`` and ``_build_tables`` bodies.  The result carries the
    former tables (``intervals`` is the kept list) plus ``elementary``,
    ``span_length`` and ``total_work`` as the cache derived them.
    """
    base_scale = reference_base_scale(instance)
    elementary = reference_intervals(instance, base_scale)
    t = reference_build_tables(instance, elementary, base_scale)
    t.elementary = elementary
    t.span_length = (
        elementary[-1][1] - elementary[0][0] if elementary else Fraction(0)
    )
    t.total_work = Fraction(t.total_demand_base, base_scale)
    return t


# -- former bodies of the served certify's integer paths --------------------


def work_map(pieces) -> Dict[Any, Dict[int, int]]:
    """A flow's :class:`~repro.offline.dinic.FlowPieces` in the former
    ``work_by_job`` shape: ``work[job_id][k]``, the raw flow per kept
    interval, with a (possibly empty) row for every job."""
    ids = pieces.ids
    work: Dict[Any, Dict[int, int]] = {job_id: {} for job_id in ids}
    offsets = pieces.offsets
    for k in range(len(offsets) - 1):
        for i in range(offsets[k], offsets[k + 1]):
            work[ids[pieces.jobs[i]]][k] = pieces.amounts[i]
    return work


def flow_pieces(work: Dict[Any, Dict[int, int]], n_iv: int, kern) -> FlowPieces:
    """What ``kern.gather`` reads off a network whose window arcs carry
    ``work`` (:func:`work_map`'s inverse): job index ``idx`` is the
    ``idx``-th key of ``work``, its window the kept intervals from its
    first to its last key, in the network's edge layout."""
    ids = list(work)
    k0 = array("i", [min(row, default=0) for row in work.values()])
    k1 = array("i", [max(row, default=-1) + 1 for row in work.values()])
    src = array("i")
    acc = 2 * n_iv  # sink arcs first, then each job's source and window arcs
    for a, b in zip(k0, k1):
        src.append(acc)
        acc += 2 * (1 + b - a)
    cap = array("q", bytes(8 * acc))
    for idx, row in enumerate(work.values()):
        for k, amount in row.items():
            cap[src[idx] + 3 + 2 * (k - k0[idx])] = amount  # the arc's flow
    offsets, jobs, amounts = kern.gather(
        len(ids), n_iv, k0, k1, src, id_rank(ids), cap
    )
    return FlowPieces(offsets, jobs, amounts, ids, kern)


def tick_bounds(intervals: Sequence[Tuple[Fraction, Fraction]]) -> SimpleNamespace:
    """Kept ``(a, b)`` pairs as the integer bounds extraction reads from the
    tables: ``start_base`` and ``len_base`` over ``base_scale``."""
    base = math.lcm(*(x.denominator for pair in intervals for x in pair))
    return SimpleNamespace(
        base_scale=base,
        start_base=array("q", [int(a * base) for a, _ in intervals]),
        len_base=array("q", [int((b - a) * base) for a, b in intervals]),
    )


def reference_wrap(
    pieces: Iterable[Tuple[int, Any]], start: Any, end: Any, m: int
) -> List[Tuple[int, int, Any, Any]]:
    """The former ``flow._wrap``, verbatim.

    McNaughton's wrap-around loop: ``(job_id, machine, a, b)`` pieces.

    It only adds, subtracts and compares times, so it runs on integer
    ticks and on Fractions alike.
    """
    length = end - start
    if length <= 0:
        raise ValueError("empty elementary interval")
    out: List[Tuple[int, int, Any, Any]] = []
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


def _to_ticks(x: Fraction, ticks: int) -> int:
    """The former ``flow._to_ticks``, verbatim."""
    value, rest = divmod(x.numerator * ticks, x.denominator)
    if rest:
        raise ValueError(f"time {x} is not a multiple of 1/{ticks}")
    return value


def reference_tick_schedule_from_work(
    work: Dict[int, Dict[int, int]],
    intervals: Sequence[Tuple[Fraction, Fraction]],
    m: int,
    ticks: int,
) -> Tuple[Segment, ...]:
    """The former integer-tick ``schedule_from_work``, verbatim but for the
    last step: its own ``runs`` merge in time order and a Fraction memo,
    then the reference normalization (:func:`reference_merge_adjacent`,
    where the library normalized with ``Schedule(...)``): the merged,
    sorted segment tuple.

    Turns a feasible flow's work map into an explicit migratory schedule.
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
        for job_id, machine, start, end in reference_wrap(pieces, a, b, m):
            runs[(job_id, machine, end)] = runs.pop((job_id, machine, start), start)
    fractions: Dict[int, Fraction] = {}

    def at(tick: int) -> Fraction:
        value = fractions.get(tick)
        if value is None:
            value = fractions[tick] = Fraction(tick, ticks)
        return value

    return reference_merge_adjacent(
        Segment(job_id, machine, at(start), at(end))
        for (job_id, machine, end), start in runs.items()
    )


def reference_job_fields(
    release: Numeric, processing: Numeric, deadline: Numeric, id: int = 0
) -> Tuple[Fraction, Fraction, Fraction]:
    """The former ``Fraction`` body of ``Job.__post_init__``, verbatim on
    plain arguments: the job's ``(release, processing, deadline)``, or the
    ``ValueError`` it raised."""
    release = to_fraction(release)
    processing = to_fraction(processing)
    deadline = to_fraction(deadline)
    if processing <= 0:
        raise ValueError(f"job {id}: processing time must be positive")
    if deadline < release + processing:
        raise ValueError(
            f"job {id}: window [{release}, {deadline}) too "
            f"short for processing time {processing}"
        )
    return release, processing, deadline


def reference_jsonable(value):
    """The former ``obs.sinks.jsonable``, verbatim: one ``isinstance``
    chain.

    Recursively convert ``value`` into something ``json.dump`` accepts.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): reference_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [reference_jsonable(v) for v in value]
    return str(value)


def reference_schedule_to_dict(segments: Iterable[Segment]) -> Dict[str, Any]:
    """The former ``schedule_to_dict``, verbatim: one entry per segment.

    Lossless dictionary form of a schedule.
    """
    def enc(x: Fraction):
        num, den = x.numerator, x.denominator
        if den == 1:
            return num
        return f"{num}/{den}"

    return {
        "format": 1,
        "kind": "schedule",
        "segments": [
            {
                "job": s.job_id,
                "machine": s.machine,
                "start": enc(s.start),
                "end": enc(s.end),
            }
            for s in segments
        ],
    }


def reference_encode(payload: Any) -> str:
    """The former served-body encoder, verbatim: the generic dump of the
    payload's JSON form."""
    return json.dumps(jsonable(payload), sort_keys=True)


def _window_density_grid(
    instance: Instance, starts: int = 64, widths: int = 32
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The former ``window_density_grid``, verbatim:
    ``(start_grid, width_grid, density)`` over an (a, w) grid.

    ``density[i, k] = C(S, [a_i, a_i + w_k)) / w_k``.
    """
    if len(instance) == 0:
        return np.zeros(0), np.zeros(0), np.zeros((0, 0))
    r = np.array([float(j.release) for j in instance])
    d = np.array([float(j.deadline) for j in instance])
    lax = np.array([float(j.laxity) for j in instance])
    lo, hi = r.min(), d.max()
    span = hi - lo
    start_grid = lo + span * np.arange(starts) / starts
    width_grid = span * (1 + np.arange(widths)) / widths
    a = start_grid[:, None, None]
    w = width_grid[None, :, None]
    overlap = np.minimum(a + w, d[None, None, :]) - np.maximum(a, r[None, None, :])
    contrib = np.clip(overlap - lax[None, None, :], 0.0, None)
    contrib[overlap <= 0] = 0.0
    density = contrib.sum(axis=2) / width_grid[None, :]
    return start_grid, width_grid, density


def reference_grid_winner(
    instance: Instance, starts: int = 64, widths: int = 32
) -> Dict[str, Any]:
    """The former ``grid_winner``, verbatim: the densest window of a float
    (start, width) grid, with the exact ``ceil(C/|I|)`` of that window as
    its ``bound`` (a lower bound on OPT that a single window need not
    make tight)."""
    if len(instance) == 0:
        return {
            "bound": 0,
            "window": None,
            "grid_density": 0.0,
            "grid": {"starts": starts, "widths": widths},
        }
    start_grid, width_grid, density = _window_density_grid(instance, starts, widths)
    i, k = np.unravel_index(np.argmax(density), density.shape)
    a = Fraction(start_grid[i]).limit_denominator(10**9)
    b = a + Fraction(width_grid[k]).limit_denominator(10**9)
    return {
        "bound": machines_bound(instance, IntervalUnion.single(a, b)),
        "window": (a, b),
        "grid_density": float(density[i, k]),
        "grid": {"starts": starts, "widths": widths},
    }
