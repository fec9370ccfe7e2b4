"""Independent feasibility oracles the flow kernels are cross-checked against.

Both answer :mod:`repro.offline.flow`'s question by other means, and
neither is on any runtime path:

* the generic ``networkx`` max-flow formulation of Horn's network, built
  over *every* elementary interval between the instance's sorted
  release/deadline points (the unsparsified network, so each cross-check
  also tests the kernels' sparsification) at the kernels' integer scale,
  with a min-cut witness extractor and an optimum that bisects over its
  verdicts;
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
(``tests/test_tables.py``).
"""

from __future__ import annotations

import math
from array import array
from fractions import Fraction
from types import SimpleNamespace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np
from scipy.optimize import linprog

from repro.model.instance import Instance
from repro.model.intervals import IntervalUnion, Numeric, to_fraction
from repro.model.schedule import FeasibilityReport, Schedule, Segment
from repro.offline.feascache import cache_for
from repro.offline.flow import schedule_from_work
from repro.offline.optimum import window_concurrency
from repro.offline.workload import scaled_lower_bound
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


def _network(
    instance: Instance, m: int, speed: Fraction
) -> Tuple[nx.DiGraph, List[Tuple[Fraction, Fraction]], int]:
    intervals = elementary_intervals(instance)
    scale = cache_for(instance).scale_for(speed)
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
    """The optimum by bisection over networkx verdicts, in the library's
    search range; :class:`ValueError` when no machine count works."""
    if len(instance) == 0:
        return 0
    speed = to_fraction(speed)
    if any(j.processing > speed * j.window for j in instance):
        raise ValueError(f"infeasible at every machine count at speed {speed}")

    def feasible(m: int) -> bool:
        return max_flow_assignment(instance, m, speed)[0]

    lo = max(1, scaled_lower_bound(instance, speed))
    hi = max(lo, window_concurrency(instance))
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
        return FeasibleCertificate(
            m, speed, schedule_from_work(raw, intervals, m, ticks)
        )
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
    t.topology_c = None
    if n == 0:
        t.intervals = []
        t.len_base = _EMPTY_Q
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
