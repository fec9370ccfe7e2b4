"""The ``py`` kernel: the compiled kernel's entry points in pure Python.

Every function here has the name, arguments, buffers and result of the
:class:`~repro.offline.kernel.abi.DinicCKernel` method of the same name, so
:class:`~repro.offline.dinic.FeasibilityNetwork` calls either kernel
without asking which one it holds (:func:`repro.offline.kernel.get` turns a
kernel name into a kernel).  This module is the reference the C source in
:mod:`~repro.offline.kernel.codegen` mirrors step for step; it is what the
``dinic`` backend runs, and what hosts without a compiler run.

Its ``wrap_interval`` is McNaughton's wrap-around loop on one interval,
which :func:`repro.offline.flow.mcnaughton` runs on Fractions too; the
``wrap`` entry point runs it on every kept interval's integer ticks.

Buffers are the compiled kernel's: ``cap`` is the live ``array('q')``
capacity buffer (the reverse edge of ``e`` is ``e ^ 1``, forward ids are
even).  The topology ``(to, head, elist)`` and the per-interval
capacities are plain lists here (list indexing skips the per-access
``int`` boxing of ``array``, and the inner loops do nothing but index
them), while the job tables (``k0``, ``k1``, ``src``, ``edf``) are the
cache's ``array('i')`` tables.  Integers are Python ints until they are
stored into ``cap``, so a value past int64 raises ``OverflowError`` at the
same store where the compiled kernel returns its overflow status.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, compress
from typing import Iterable, List, Optional, Sequence, Tuple, TypeVar

#: The name :func:`repro.offline.kernel.get` knows this kernel by.
name = "py"


def _bfs(
    to: Sequence[int], head: Sequence[int], elist: Sequence[int], cap: array,
    s: int, t: int, level: List[int], minus1: List[int],
) -> List[int]:
    """Level graph over the residual network, written into ``level``."""
    level[:] = minus1
    level[s] = 0
    frontier = [s]
    depth = 0
    while frontier:
        depth += 1
        nxt: List[int] = []
        push = nxt.append
        for u in frontier:
            for e in elist[head[u] : head[u + 1]]:
                if cap[e]:
                    v = to[e]
                    if level[v] < 0:
                        level[v] = depth
                        push(v)
        if level[t] >= 0:
            # Deeper levels cannot lie on a shortest s→t path; the DFS
            # only follows level+1 arcs, so stop expanding here.
            break
        frontier = nxt
    return level


def max_flow(
    n: int, to: Sequence[int], head: Sequence[int], elist: Sequence[int],
    cap: array, s: int, t: int, limit: Optional[int] = None,
    stats: Optional[array] = None,
) -> int:
    """Push a maximum flow from ``s`` to ``t``; returns the amount *added*.

    Starting from the current residual capacities, so repeated calls
    after capacity increases implement a warm start.  Blocking flows are
    found by an iterative DFS with current-arc pointers (no recursion
    limits at scale).

    ``limit`` is an optional *known upper bound* on the flow still missing
    (e.g. the unmet demand in a feasibility probe).  Once the added flow
    reaches it the routine returns immediately — the bound certifies
    maximality, so the final disconnection BFS is skipped; a ``limit`` of
    at most 0 returns 0 at once.  ``stats`` (an ``array('q')`` of length
    >= 3), when given, receives ``(phases, paths, retreats)``.
    """
    if limit is not None and limit <= 0:
        return 0
    level = [-1] * n
    minus1 = [-1] * n
    it = head[:n]
    added = 0
    phases = paths = retreats = 0
    while True:
        phases += 1
        _bfs(to, head, elist, cap, s, t, level, minus1)
        if level[t] < 0:
            if stats is not None:
                stats[0], stats[1], stats[2] = phases, paths, retreats
            return added
        # Blocking flow: iterative DFS with current-arc pointers into the
        # CSR edge list (`it` is reset in place every phase).
        it[:] = head[:n]
        path: List[int] = []  # edge ids from s to the current node
        u = s
        while True:
            if u == t:
                paths += 1
                aug = min(cap[e] for e in path)
                added += aug
                for e in path:
                    cap[e] -= aug
                    cap[e ^ 1] += aug
                if limit is not None and added >= limit:
                    if stats is not None:
                        stats[0], stats[1], stats[2] = phases, paths, retreats
                    return added
                # Retreat to the shallowest saturated edge.
                cut = next(i for i, e in enumerate(path) if not cap[e])
                del path[cut + 1 :]
                e = path.pop()
                u = to[e ^ 1]
                it[u] += 1
                continue
            i = it[u]
            end = head[u + 1]
            lu = level[u] + 1
            e = -1
            while i < end:
                e = elist[i]
                v = to[e]
                if cap[e] and level[v] == lu:
                    break
                i += 1
            it[u] = i
            if i < end:
                path.append(e)
                u = v
            elif path:
                retreats += 1
                level[u] = -1  # dead end: prune from this phase
                e = path.pop()
                u = to[e ^ 1]
                it[u] += 1
            else:
                break  # source exhausted: blocking flow complete


def greedy_blocking(
    n_jobs: int, edf: Sequence[int], k0: Sequence[int], k1: Sequence[int],
    src: Sequence[int], cap: array,
) -> int:
    """A blocking flow on the depth-3 level graph, by direct layout walk.

    Every augmenting path of the *first* Dinic phase has the shape
    ``s → job → interval → t``; pushing greedily along the arithmetic edge
    layout (each job's intervals left to right) saturates, for every such
    path, its source, window, or sink arc — exactly a blocking flow — in
    one allocation-free O(E) pass with no path bookkeeping.  Dinic
    afterwards only reroutes.

    Jobs are visited in ``edf`` order (deadline ascending, then release,
    then canonical index): any fixed order yields a blocking flow, but
    earliest-deadline-first with leftmost filling is near-optimal for this
    interval-structured network, so the rerouting left for Dinic — the
    expensive part of an infeasibility proof — is minimal.  Returns the
    flow pushed.
    """
    pushed = 0
    for idx in edf:
        se = src[idx]
        resid = cap[se]
        if not resid:
            continue
        sent = 0
        e = se + 2
        for k in range(k0[idx], k1[idx]):
            r = cap[e]
            if r:
                ks = 2 * k
                room = cap[ks]
                if room:
                    push = resid
                    if r < push:
                        push = r
                    if room < push:
                        push = room
                    cap[e] = r - push
                    cap[e + 1] += push  # forward ids are even: e^1 == e+1
                    cap[ks] = room - push
                    cap[ks + 1] += push
                    resid -= push
                    sent += push
                    if not resid:
                        break
            e += 2
        if sent:
            cap[se] = resid
            cap[se + 1] += sent
            pushed += sent
    return pushed


def build_topology(
    n_jobs: int, n_iv: int, k0: Sequence[int], k1: Sequence[int],
    src: Sequence[int], n_edges2: int, n_nodes: int,
) -> Tuple[List[int], List[int], List[int]]:
    """The feasibility network's CSR topology ``(to, head, elist)``.

    The edge layout is fully determined by the job window table, so both
    the edge targets and the CSR adjacency are written directly — node
    degrees are known in closed form (source: one arc per job; sink: one
    per interval; job: source arc + window arcs; interval: sink arc + one
    per covering job), with no generic counting sort.  ``elist`` holds each
    node's incident edge ids in ascending order, exactly what a counting
    sort yields.  ``n_edges2`` is the paired edge count ``2 · n_edges``;
    ``n_nodes`` sizes ``head``.
    """
    base_iv = 2 + n_jobs
    to = [0] * n_edges2
    cover = [0] * (n_iv + 1)
    for k in range(n_iv):
        ks = 2 * k
        to[ks] = 1  # SINK
        to[ks + 1] = base_iv + k
    for idx in range(n_jobs):
        jn = 2 + idx
        e = src[idx]
        to[e] = jn  # to[e + 1] stays 0 == SOURCE
        a, b = k0[idx], k1[idx]
        cover[a] += 1
        cover[b] -= 1
        for k in range(a, b):
            e += 2
            to[e] = base_iv + k
            to[e + 1] = jn
    head = [0] * (n_nodes + 1)
    head[1] = n_jobs            # source's arcs
    head[2] = n_jobs + n_iv     # sink's (reverse) arcs
    for idx in range(n_jobs):
        head[3 + idx] = head[2 + idx] + 1 + k1[idx] - k0[idx]
    running = 0
    for k in range(n_iv):
        running += cover[k]
        head[base_iv + k + 1] = head[base_iv + k] + 1 + running
    elist = [0] * n_edges2
    for idx in range(n_jobs):
        elist[idx] = src[idx]           # source list (head[0] == 0)
    p = head[1]
    for k in range(n_iv):
        elist[p + k] = 2 * k + 1        # sink list
    ivfill = head[base_iv : base_iv + n_iv]
    for k in range(n_iv):
        elist[ivfill[k]] = 2 * k        # each interval list starts with its sink arc
        ivfill[k] += 1
    for idx in range(n_jobs):
        p = head[2 + idx]
        e = src[idx]
        elist[p] = e + 1                # reverse source arc heads the job list
        p += 1
        for k in range(k0[idx], k1[idx]):
            e += 2
            elist[p] = e
            p += 1
            elist[ivfill[k]] = e + 1    # reverse window arc on the interval
            ivfill[k] += 1
    return to, head, elist


def scale_caps(len_base: Sequence[int], lenfac: int) -> List[int]:
    """Per-interval unit capacities ``len_base[k] * lenfac``."""
    return [lb * lenfac for lb in len_base]


def fill_caps(
    n_jobs: int, k0: Sequence[int], k1: Sequence[int], src: Sequence[int],
    demand_base: Sequence[int], demfac: int, iv_caps: Sequence[int],
    cap: array,
) -> None:
    """Cold capacity fill (source demands + window arcs) into ``cap``.

    Sink arcs stay 0 (``m = 0``); ``cap`` must be zero-initialized.
    """
    for idx in range(n_jobs):
        e = src[idx]
        cap[e] = demand_base[idx] * demfac
        e += 2
        for k in range(k0[idx], k1[idx]):
            cap[e] = iv_caps[k]
            e += 2


def grow_sinks(delta: int, iv_caps: Sequence[int], cap: array) -> None:
    """Grow every sink arc by ``delta`` machines' worth of capacity.

    A capacity past int64 raises at its interval: the intervals before it
    are grown, it and the rest untouched.
    """
    for k, c in enumerate(iv_caps):
        cap[2 * k] += delta * c


def drain(
    n_jobs: int, delta: int, iv_caps: Sequence[int], to: Sequence[int],
    head: Sequence[int], elist: Sequence[int], src: Sequence[int],
    cap: array,
) -> int:
    """Shrink every sink arc by ``delta`` machines, evicting flow.

    For interval ``k`` the sink arc loses ``delta·|E_k|`` capacity:
    residual headroom absorbs what it can; the remainder must come out of
    routed flow, so it is pulled back along the interval's incoming job
    arcs (their reverse arcs hold the per-arc flow) and off those jobs'
    source arcs.  The result is a *valid* flow saturating no sink arc
    beyond its new capacity; conservation guarantees the walk always finds
    enough incoming flow (``excess = f_k − m'·|E_k| ≤ f_k``).  Returns the
    flow drained.
    """
    drained = 0
    for k, c in enumerate(iv_caps):
        cut = delta * c
        ks = 2 * k
        avail = cap[ks]
        if avail >= cut:
            cap[ks] = avail - cut
            continue
        excess = cut - avail
        cap[ks] = 0
        cap[ks + 1] -= excess
        drained += excess
        node = 2 + n_jobs + k
        for i in range(head[node], head[node + 1]):
            e = elist[i]
            # Odd ids incident to an interval node are exactly the
            # reverse window arcs; cap[e] is the forward arc's flow.
            if e & 1 and cap[e]:
                take = cap[e] if cap[e] < excess else excess
                cap[e] -= take
                cap[e - 1] += take
                se = src[to[e] - 2]  # that job's source arc
                cap[se] += take
                cap[se + 1] -= take
                excess -= take
                if not excess:
                    break
    return drained


def sweep(r: Sequence[int], p: Sequence[int], d: Sequence[int]) -> tuple:
    """The network tables of ``n >= 1`` jobs from their base-scaled
    releases (in order), processing times and deadlines.

    Plain ints throughout: sorted unique event points, live and
    zero-laxity counts by prefix sums, the kept intervals (those with a
    live job) as their starts and lengths, each job's kept window and
    source arc, and the EDF order.  Returns ``(start_base, len_base, k0,
    k1, src, edf, elementary_count, n_edges, max_live, zero_laxity_max,
    total_demand_base, span_base)``; ``start_base`` (each kept interval's
    start) is a list of Python ints where a start passes int64.
    """
    n = len(r)
    points = sorted({*r, *d})
    at = dict(zip(points, range(len(points))))
    i0s = [at[x] for x in r]
    i1s = [at[x] for x in d]
    m_el = len(points) - 1
    # Difference arrays over elementary intervals: a job is live in
    # [i0, i1), and zero-laxity when its window is exactly p_j long.
    live = [0] * len(points)
    zero = [0] * len(points)
    for i0, i1, rj, pj, dj in zip(i0s, i1s, r, p, d):
        live[i0] += 1
        live[i1] -= 1
        if dj - rj == pj:
            zero[i0] += 1
            zero[i1] -= 1
    live = list(accumulate(live))
    # No live job: no arc can ever reach the interval, so it is dropped.
    kept = list(compress(range(m_el), live))
    # rank[k]: kept intervals before elementary interval k.  A job is live
    # throughout [i0, i1), so both ends of its window are kept.
    rank = list(accumulate(map(bool, live), initial=0))
    k0s = [rank[i] for i in i0s]
    k1s = [rank[i] for i in i1s]
    srcs: List[int] = []
    acc = 2 * len(kept)  # sink arcs occupy edge ids [0, 2K)
    for a, b in zip(k0s, k1s):
        srcs.append(acc)
        acc += 2 * (1 + b - a)  # source arc + window arcs, paired ids
    # Jobs come in release order, so k0 never decreases with the index and
    # a stable sort on k1 alone yields the (k1, k0, idx) order.
    edf = sorted(range(n), key=k1s.__getitem__)
    starts = [points[k] for k in kept]
    try:
        start_base = array("q", starts)
    except OverflowError:
        start_base = starts
    return (
        start_base,
        array("q", [points[k + 1] - points[k] for k in kept]),
        array("i", k0s), array("i", k1s), array("i", srcs), array("i", edf),
        m_el, acc // 2, max(live), max(accumulate(zero)), sum(p),
        points[-1] - points[0],
    )


def gather(
    n_jobs: int, n_iv: int, k0: Sequence[int], k1: Sequence[int],
    src: Sequence[int], rank: Sequence[int], cap: array,
) -> Tuple[List[int], List[int], List[int]]:
    """A flow's positive window arcs, grouped by kept interval.

    Returns ``(offsets, jobs, amounts)``: interval ``k``'s pieces are
    ``jobs[offsets[k] : offsets[k + 1]]`` (job indices) with their flow
    ``amounts``, by decreasing amount, then by ``rank`` (per job index: its
    id's rank among the instance's ids), so the order is the one the
    wrap-around needs and does not depend on the ids' size or type.
    """
    groups: List[List[Tuple[int, int, int]]] = [[] for _ in range(n_iv)]
    for idx in range(n_jobs):
        e = src[idx] + 3  # the first window arc's reverse: its flow
        r = rank[idx]
        for k in range(k0[idx], k1[idx]):
            amount = cap[e]
            if amount:
                groups[k].append((-amount, r, idx))
            e += 2
    offsets = [0] * (n_iv + 1)
    jobs: List[int] = []
    amounts: List[int] = []
    for k, group in enumerate(groups):
        if group:
            group.sort()
            for amount, _, idx in group:
                jobs.append(idx)
                amounts.append(-amount)
        offsets[k + 1] = len(jobs)
    return offsets, jobs, amounts


#: A point in time: integer ticks or an exact Fraction.
_Time = TypeVar("_Time")


def wrap_interval(
    pieces: Iterable[Tuple[int, _Time]], start: _Time, end: _Time, m: int,
    ids: Optional[Sequence] = None,
) -> List[Tuple[int, int, _Time, _Time]]:
    """McNaughton's wrap-around loop on one interval: ``(job, machine, a,
    b)`` pieces from ``(job, machine time)`` ones.

    It only adds, subtracts and compares times, so it runs on integer
    ticks and on Fractions alike.  An error names the job as ``ids[job]``
    when ``ids`` is given.
    """
    length = end - start
    if length <= 0:
        raise ValueError("empty elementary interval")
    out: List[Tuple[int, int, _Time, _Time]] = []
    machine = 0
    cursor = start
    for job, amount in pieces:
        if amount <= 0:
            continue
        if amount > length:
            raise ValueError(
                f"piece of job {job if ids is None else ids[job]} "
                "exceeds interval length"
            )
        remaining = amount
        while remaining > 0:
            if machine >= m:
                raise ValueError("pieces exceed machine capacity")
            take = min(end - cursor, remaining)
            out.append((job, machine, cursor, cursor + take))
            cursor += take
            remaining -= take
            if cursor == end:
                machine += 1
                cursor = start
    return out


def wrap(
    m: int, offsets: Sequence[int], jobs: Sequence[int],
    amounts: Sequence[int], start_base: Sequence[int],
    len_base: Sequence[int], f: int, ids: Sequence,
) -> List[int]:
    """McNaughton's wrap-around rule on every kept interval with pieces.

    Interval ``k`` spans ``[start_base[k]·f, (start_base[k] +
    len_base[k])·f)`` in ticks, and its pieces (:func:`gather`'s order)
    are wrapped onto at most ``m`` machines by :func:`wrap_interval`.
    Returns one flat list of ``(job, machine, start, end)`` quadruples,
    job indices and Python ints, so a tick past int64 is exact; an error
    names the job by its id in ``ids``.
    """
    out: List[int] = []
    for k in range(len(offsets) - 1):
        a, b = offsets[k], offsets[k + 1]
        if a == b:
            continue
        start = start_base[k] * f
        for piece in wrap_interval(
            zip(jobs[a:b], amounts[a:b]), start, start + len_base[k] * f, m, ids
        ):
            out += piece
    return out
