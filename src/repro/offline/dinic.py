"""A flat-buffer integer Dinic max-flow kernel for the feasibility core.

Horn's feasibility test (``flow.py``) is the inner loop of every experiment:
``migratory_optimum`` binary-searches it, and the analysis layer calls that
optimum for every sampled instance.  Earlier revisions stored the graph in
Python lists of lists; this module keeps the graph in flat preallocated
buffers so a probe is allocation-free and snapshots are single ``memcpy``s:

* :class:`Dinic` — max-flow on CSR adjacency.  Capacities live in one flat
  ``array('q')`` buffer (``cap``; the reverse edge of edge ``e`` is
  ``e ^ 1``), and per-node edge lists are a classic head/edge-list CSR pair
  (``_head`` offsets into ``_elist``, kept as plain lists because the inner
  loops do nothing but index them).  Blocking
  flows are found by an iterative DFS with current-arc pointers (no
  recursion limits at scale); the per-phase ``level``/``it`` scratch
  buffers are preallocated once and reset by slice copies.  A compiled
  kernel (``kernel="c"``, lazily built by :mod:`repro.offline.kernel`)
  runs the whole phase loop natively over the *same* capacity buffer,
  zero-copy, mirroring the Python loop step for step so its flows are
  bit-identical.
* :class:`FeasibilityNetwork` — the ``source → job → interval → sink``
  network specialized to the job/interval bipartite structure.  Edge ids
  are *arithmetic*: sink arc of interval ``k`` is ``2k``, and each job's
  source arc and window arcs occupy one contiguous block of even ids, so
  the solver needs no per-job edge lists at all.  Each ``solve`` starts
  with a greedy pass over that layout which is exactly a blocking flow on
  the depth-3 level graph (every augmenting path in the first Dinic phase
  is ``s → job → interval → t``); Dinic then only reroutes the remainder.
  Sink capacities ``m·|E_k|`` are *grown in place*, so a solved flow at
  ``m`` machines warm-starts the probe at any ``m' > m``.

Snapshots (:meth:`FeasibilityNetwork.snapshot` / ``restore``) capture the
capacity buffer as immutable ``bytes`` (one ``memcpy``); ``restore`` copies
them back into the live buffer through a ``memoryview`` without allocating
a new array, which makes the warm start usable inside a *binary* search,
whose probe sequence is not monotone.

Everything is integral: callers scale rational data by the common
denominator (see ``feascache.FeasibilityCache.scale_for``), so
``flow == total demand`` is an exact feasibility verdict.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import core as _obs
from . import kernel as _ckernel

#: Level-graph kernels accepted by :meth:`Dinic.max_flow`.
KERNELS = ("py", "c")

_EMPTY_I = array("i")


def _flush_max_flow(
    kernel: str, t0: int, phases: int, paths: int, retreats: int, added: int
) -> None:
    """Report one :meth:`Dinic.max_flow` call to the obs layer.

    Called only when a sink listens, so the no-sink path pays nothing; both
    kernels report the same counter and histogram names.
    """
    dt = time.perf_counter_ns() - t0
    _obs.incr("dinic.bfs_phases", phases)
    _obs.incr("dinic.aug_paths", paths)
    _obs.incr("dinic.retreats", retreats)
    _obs.incr("dinic.flow_pushed", added)
    _obs.observe("dinic.max_flow_ns", dt)
    _obs.observe("dinic.max_flow_%s_ns" % kernel, dt)
    _obs.observe("dinic.phases_per_call", phases)
    _obs.observe("dinic.flow_per_call", added)


class Dinic:
    """Integer max-flow on flat CSR buffers.

    Edges are stored in pairs: ``add_edge`` appends the forward edge at an
    even index ``e`` and its reverse (capacity 0) at ``e ^ 1``; the flow on
    ``e`` is therefore ``cap[e ^ 1]`` as long as callers only ever *grow*
    forward capacities (the warm-start contract).

    The graph is built with :meth:`add_edge` and frozen by :meth:`finalize`
    (called automatically by the first solve), which packs ``cap`` into a
    flat ``array('q')`` and builds the CSR adjacency.  After finalization
    the topology is fixed; only capacities may change.
    """

    __slots__ = (
        "n", "to", "cap", "_head", "_elist",
        "_level", "_it", "_minus1", "_c_csr",
    )

    def __init__(self, n_nodes: int) -> None:
        self.n = n_nodes
        self.to: List[int] = []          # packed to array('i') by finalize
        self.cap: List[int] = []         # packed to array('q') by finalize
        self._head: Optional[array] = None
        self._elist: Optional[array] = None
        self._c_csr = None

    # -- construction ---------------------------------------------------------

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        """Add ``u → v`` with the given capacity; returns the edge id."""
        if self._head is not None:
            raise RuntimeError("graph is finalized; capacities only may change")
        e = len(self.to)
        self.to.append(v)
        self.cap.append(capacity)
        self.to.append(u)
        self.cap.append(0)
        return e

    @property
    def frozen(self) -> bool:
        return self._head is not None

    @classmethod
    def from_csr(
        cls, n_nodes: int, to: List[int], cap: array,
        head: List[int], elist: List[int],
    ) -> "Dinic":
        """A solver over prebuilt CSR structure (already finalized).

        ``to``/``head``/``elist`` are immutable after finalization, so they
        can be *shared* between solvers over the same topology (different
        speeds, different kernels) — only ``cap`` and the scratch buffers
        are private.
        """
        d = cls(n_nodes)
        d.to = to
        d.cap = cap
        d._head, d._elist = head, elist
        d._level = [-1] * n_nodes
        d._minus1 = [-1] * n_nodes
        d._it = head[:n_nodes]
        return d

    def finalize(self) -> None:
        """Freeze the edge set and build the CSR adjacency.

        Idempotent.  The capacity buffer is packed into a flat ``array('q')``
        (so snapshots are single ``memcpy``s and the compiled kernel reads
        it zero-copy)
        while the static topology — ``to``, the ``head`` offsets, and the
        ``elist`` edge ids — stays in plain Python lists: list indexing skips
        the per-access ``int`` boxing of ``array`` and the DFS/BFS inner
        loops do nothing but index these.  Also preallocates the per-phase
        scratch buffers (``level``, current-arc pointers, and the ``-1``
        reset template) so every subsequent probe is allocation-free.
        """
        if self._head is not None:
            return
        n, m = self.n, len(self.to)
        to = self.to
        cap = array("q", self.cap)
        # Counting sort of edge ids by tail node: head[u] .. head[u+1] are
        # the positions of u's incident edge ids inside elist.
        counts = [0] * (n + 1)
        for e in range(m):
            counts[to[e ^ 1] + 1] += 1
        for u in range(n):
            counts[u + 1] += counts[u]
        head = counts
        fill = head[:n]
        elist = [0] * m
        for e in range(m):
            u = to[e ^ 1]
            elist[fill[u]] = e
            fill[u] += 1
        self.cap = cap
        self._head, self._elist = head, elist
        self._level = [-1] * n
        self._minus1 = [-1] * n
        self._it = head[:n]

    # -- introspection --------------------------------------------------------

    def residual_reachable(self, s: int) -> List[bool]:
        """Nodes reachable from ``s`` through positive-residual edges.

        After :meth:`max_flow` has terminated this is the source side of a
        minimum cut (max-flow/min-cut duality): every edge leaving the
        returned set is saturated.  The reachable set is the unique
        *minimal* source side over all minimum cuts, so it does not depend
        on which maximum flow the solver happened to find.
        """
        self.finalize()
        seen = [False] * self.n
        seen[s] = True
        stack = [s]
        to, cap, head, elist = self.to, self.cap, self._head, self._elist
        while stack:
            u = stack.pop()
            for e in elist[head[u] : head[u + 1]]:
                v = to[e]
                if cap[e] and not seen[v]:
                    seen[v] = True
                    stack.append(v)
        return seen

    # -- the kernel -----------------------------------------------------------

    def _bfs_py(self, s: int, t: int) -> List[int]:
        """Level graph over the residual network (pure-stdlib kernel)."""
        level = self._level
        level[:] = self._minus1
        level[s] = 0
        to, cap, head, elist = self.to, self.cap, self._head, self._elist
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

    def _csr_c(self) -> Tuple[array, array, array]:
        """The CSR topology as int32 arrays for the compiled kernel.

        Built once per solver (feasibility networks on the compiled path
        share theirs through ``NetworkTables.topology_c`` instead); list
        topologies are copied, array topologies passed through zero-copy.
        """
        if self._c_csr is None:
            to = self.to if isinstance(self.to, array) else array("i", self.to)
            head = (self._head if isinstance(self._head, array)
                    else array("i", self._head))
            elist = (self._elist if isinstance(self._elist, array)
                     else array("i", self._elist))
            self._c_csr = (to, head, elist)
        return self._c_csr

    def _max_flow_c(self, s: int, t: int, limit: Optional[int]) -> int:
        """The ``"c"`` kernel: one native call covers every phase.

        Counters come back from the kernel's stats block, so the pinned
        ``dinic.*`` counter snapshots are identical across kernels.
        """
        ck = _ckernel.load()
        to, head, elist = self._csr_c()
        climit = -1 if limit is None else limit
        if not _obs.enabled():
            return ck.max_flow(self.n, to, head, elist, self.cap, s, t, climit)
        t0 = time.perf_counter_ns()
        stats = array("q", (0, 0, 0))
        added = ck.max_flow(
            self.n, to, head, elist, self.cap, s, t, climit, stats
        )
        _flush_max_flow("c", t0, stats[0], stats[1], stats[2], added)
        return added

    def max_flow(self, s: int, t: int, kernel: str = "py",
                 limit: Optional[int] = None) -> int:
        """Push a maximum flow from ``s`` to ``t``; returns the amount *added*.

        Starting from the current residual capacities, so repeated calls
        after capacity increases implement a warm start.  ``kernel``
        selects the implementation: ``"py"`` (pure stdlib, default) or
        ``"c"`` (the compiled kernel of :mod:`repro.offline.kernel`, which
        runs BFS *and* the blocking-flow DFS natively — identical results).

        ``limit`` is an optional *known upper bound* on the flow still
        missing (e.g. the unmet demand in a feasibility probe).  Once the
        added flow reaches it the routine returns immediately — the bound
        certifies maximality, so the final disconnection BFS is skipped.
        """
        self.finalize()
        if kernel not in KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
        if limit is not None and limit <= 0:
            return 0
        if kernel == "c":
            return self._max_flow_c(s, t, limit)
        to, cap, head, elist = self.to, self.cap, self._head, self._elist
        it = self._it
        added = 0
        # Local accumulators: the inner loops stay free of any obs calls;
        # each return below flushes them once, and only when a sink listens.
        phases = paths = retreats = 0
        t0 = time.perf_counter_ns() if _obs.enabled() else 0
        while True:
            phases += 1
            level = self._bfs_py(s, t)
            if level[t] < 0:
                if _obs.enabled():
                    _flush_max_flow(kernel, t0, phases, paths, retreats, added)
                return added
            # Blocking flow: iterative DFS with current-arc pointers into
            # the CSR edge list (allocation-free: `it` is reset in place).
            it[:] = head[: self.n]
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
                        if _obs.enabled():
                            _flush_max_flow(
                                kernel, t0, phases, paths, retreats, added
                            )
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


def _feasibility_topology(
    n: int, n_iv: int, k0s: Sequence[int], k1s: Sequence[int],
    srcs: Sequence[int], e2: int,
) -> Tuple[List[int], List[int], List[int]]:
    """Build the shared CSR topology ``(to, head, elist)`` arithmetically.

    The feasibility network's edge layout is fully determined by the job
    window table, so both the edge targets and the CSR adjacency can be
    written directly — node degrees are known in closed form (source: one
    arc per job; sink: one per interval; job: source arc + window arcs;
    interval: sink arc + one per covering job), which skips the generic
    counting sort of :meth:`Dinic.finalize`.  The produced ``elist`` holds
    each node's incident edge ids in ascending order, exactly what the
    counting sort yields, and what the compiled kernel's ``build_topology``
    writes; ``e2`` is the paired edge count ``2 · NetworkTables.n_edges``.
    """
    base_iv = 2 + n
    to = [0] * e2
    cover = [0] * (n_iv + 1)
    for k in range(n_iv):
        ks = 2 * k
        to[ks] = 1  # SINK
        to[ks + 1] = base_iv + k
    for idx in range(n):
        jn = 2 + idx
        e = srcs[idx]
        to[e] = jn  # to[e + 1] stays 0 == SOURCE
        k0, k1 = k0s[idx], k1s[idx]
        cover[k0] += 1
        cover[k1] -= 1
        for k in range(k0, k1):
            e += 2
            to[e] = base_iv + k
            to[e + 1] = jn
    n_nodes = base_iv + n_iv
    head = [0] * (n_nodes + 1)
    head[1] = n                 # source's arcs
    head[2] = n + n_iv          # sink's (reverse) arcs
    for idx in range(n):
        head[3 + idx] = head[2 + idx] + 1 + k1s[idx] - k0s[idx]
    running = 0
    for k in range(n_iv):
        running += cover[k]
        head[base_iv + k + 1] = head[base_iv + k] + 1 + running
    elist = [0] * e2
    for idx in range(n):
        elist[idx] = srcs[idx]          # source list (head[0] == 0)
    p = head[1]
    for k in range(n_iv):
        elist[p + k] = 2 * k + 1        # sink list
    ivfill = head[base_iv : base_iv + n_iv]
    for k in range(n_iv):
        elist[ivfill[k]] = 2 * k        # each interval list starts with its sink arc
        ivfill[k] += 1
    for idx in range(n):
        p = head[2 + idx]
        e = srcs[idx]
        elist[p] = e + 1                # reverse source arc heads the job list
        p += 1
        for k in range(k0s[idx], k1s[idx]):
            e += 2
            elist[p] = e
            p += 1
            elist[ivfill[k]] = e + 1    # reverse window arc on the interval
            ivfill[k] += 1
    return to, head, elist


class FeasibilityNetwork:
    """Horn's feasibility network with in-place machine-count scaling.

    Nodes: ``0`` source, ``1`` sink, then one per job, then one per
    interval (the *sparsified* interval list when fed by the cache).
    Built once per ``(instance, speed)`` with the sink arcs at ``m = 0``;
    :meth:`set_machines` grows them to ``m · |E_k|``.

    The edge layout is arithmetic, so no per-edge Python structures
    survive construction:

    * interval ``k``'s sink arc is edge ``2k``;
    * job ``idx``'s source arc is ``_src[idx]`` and its window arcs are the
      contiguous even ids ``_src[idx] + 2 .. _src[idx] + 2(k1−k0)``, arc
      ``i`` feeding interval ``k0 + i``.

    ``instance`` is an instance or its job tuple (the cache passes the
    tuple); ``scale`` comes from the caller.  With ``tables`` (the per-instance
    cache's :class:`~repro.offline.feascache.NetworkTables`, passed with
    its ``intervals`` view) the build reads only integer tables and counts,
    never an interval's pairs.  Without, the stand-alone reference build
    works from ``intervals`` and the jobs' ``Fraction`` data, resolving
    job → interval ranges through O(1) dict lookups on the interval
    endpoints (every job's release starts, and deadline ends, an
    interval).
    """

    SOURCE = 0
    SINK = 1

    __slots__ = (
        "dinic",
        "kernel",
        "iv_caps",
        "job_ids",
        "total_demand",
        "machines",
        "flow",
        "_k0",
        "_k1",
        "_src",
        "_edf",
        "_ck",
        "_cap_mv",
        "n_nodes",
        "n_edges",
    )

    def __init__(
        self,
        instance,
        speed: Fraction,
        intervals: Sequence[Tuple[Fraction, Fraction]],
        scale: int,
        kernel: str = "py",
        tables=None,
    ) -> None:
        n = len(instance)
        n_iv = len(intervals)
        # The compiled kernel is resolved once per network; an explicit
        # kernel="c" request raises KernelUnavailable here (the "auto"
        # backend checks availability before ever asking for "c").
        ck = _ckernel.load() if kernel == "c" else None
        if tables is not None:
            # Integer path: the cache's table scan did all the per-job work.
            # ``speed·scale`` is an integer multiple of ``base_scale`` by
            # the scale_for contract, so every capacity is two int
            # multiplications away.
            sp = speed * scale
            base = tables.base_scale
            if sp.denominator != 1 or sp.numerator % base:
                raise ValueError(
                    "scale incompatible with tables; use cache.scale_for(speed)"
                )
            lenfac = sp.numerator // base       # len_base → interval capacity
            demfac = scale // base              # demand_base → demand
            demand_base = tables.demand_base
            k0s, k1s, srcs = tables.k0, tables.k1, tables.src
            edf = tables.edf
            total = tables.total_demand_base * demfac
            if ck is not None:
                # Compiled build: topology, capacity scaling, and the cold
                # fill all happen natively over the shared int32/int64
                # buffers — identical contents to the Python build.
                iv_caps = ck.scale_caps(tables.len_base, lenfac)
                if tables.topology_c is None:
                    tables.topology_c = ck.build_topology(
                        n, n_iv, k0s, k1s, srcs, 2 * tables.n_edges, 2 + n + n_iv
                    )
                to_l, head, elist = tables.topology_c
                cap_arr = array("q", bytes(8 * len(to_l)))
                ck.fill_caps(
                    n, k0s, k1s, srcs, demand_base, demfac, iv_caps, cap_arr
                )
                dinic = Dinic.from_csr(2 + n + n_iv, to_l, cap_arr, head, elist)
                dinic._c_csr = (to_l, head, elist)
            else:
                iv_caps = [lb * lenfac for lb in tables.len_base]
                if tables.topology is None:
                    tables.topology = _feasibility_topology(
                        n, n_iv, k0s, k1s, srcs, 2 * tables.n_edges
                    )
                to_l, head, elist = tables.topology
                cap_arr = array("q", bytes(8 * len(to_l)))
                for idx in range(n):
                    e = srcs[idx]
                    cap_arr[e] = demand_base[idx] * demfac
                    e += 2
                    for k in range(k0s[idx], k1s[idx]):
                        cap_arr[e] = iv_caps[k]
                        e += 2
                dinic = Dinic.from_csr(2 + n + n_iv, to_l, cap_arr, head, elist)
        else:
            # Stand-alone path (no cache): compute the tables inline.
            dinic = Dinic(2 + n + n_iv)
            # One exact multiplication per interval; job→interval arcs reuse
            # it (a job cannot self-parallelize, so its per-interval cap
            # equals the interval's unit capacity).
            sp = speed * scale
            iv_caps = [int((b - a) * sp) for a, b in intervals]
            add_edge = dinic.add_edge
            for k in range(n_iv):
                add_edge(2 + n + k, self.SINK, 0)  # sink arc of interval k == 2k
            # Every job's release starts an interval and every deadline ends
            # one (dropping empty intervals cannot erase a boundary inside a
            # live window), so ranges are O(1) dict lookups.
            start_at = {a: k for k, (a, _) in enumerate(intervals)}
            end_at = {b: k for k, (_, b) in enumerate(intervals)}
            k0s = array("i", bytes(4 * n)) if n else _EMPTY_I
            k1s = array("i", bytes(4 * n)) if n else _EMPTY_I
            srcs = array("i", bytes(4 * n)) if n else _EMPTY_I
            total = 0
            for idx, job in enumerate(instance):
                demand = int(job.processing * scale)
                total += demand
                k0 = start_at[job.release]
                k1 = end_at[job.deadline] + 1
                k0s[idx] = k0
                k1s[idx] = k1
                srcs[idx] = add_edge(self.SOURCE, 2 + idx, demand)
                jn = 2 + idx
                for k in range(k0, k1):
                    add_edge(jn, 2 + n + k, iv_caps[k])
            edf = array("i", sorted(range(n), key=lambda i: (k1s[i], k0s[i], i)))
            dinic.finalize()
            if ck is not None:
                # The stand-alone build keeps the generic list construction;
                # only the per-interval capacities move to the int64 layout
                # the native grow/greedy entry points read.
                iv_caps = array("q", iv_caps)
        self.dinic = dinic
        self.kernel = kernel
        self._ck = ck
        self.iv_caps = iv_caps
        self.job_ids = [job.id for job in instance]
        self.total_demand = total
        self.machines = 0
        self.flow = 0
        self._k0, self._k1, self._src = k0s, k1s, srcs
        self._edf = edf
        self._cap_mv = memoryview(dinic.cap)
        self.n_nodes = dinic.n
        self.n_edges = len(dinic.to) // 2
        if _obs.enabled():
            _obs.incr("network.nodes", self.n_nodes)
            _obs.incr("network.edges", self.n_edges)

    # -- warm-started probing -------------------------------------------------

    def set_machines(self, m: int) -> None:
        """Retarget the sink capacities to ``m`` machines, in place.

        Growing is a pure capacity bump on the sink arcs (the residual flow
        stays valid and maximal-so-far, which is the warm start).  Shrinking
        *drains*: excess flow on over-capacity intervals is pushed back to
        the source, leaving a valid (no longer maximum) flow that the next
        :meth:`solve` completes — far cheaper than re-solving from scratch
        when the binary search steps downward, because the greedy pass skips
        every job that stayed saturated.  Both steps run natively on the
        compiled kernel (``repro_grow_sinks``, ``repro_drain``) and in
        Python otherwise, with byte-identical results; a capacity past
        int64 raises ``OverflowError`` on either, at the same interval.
        """
        delta = m - self.machines
        if delta > 0:
            if self._ck is not None:
                self._ck.grow_sinks(delta, self.iv_caps, self.dinic.cap)
            else:
                cap = self.dinic.cap
                for k, c in enumerate(self.iv_caps):
                    cap[2 * k] += delta * c
        elif delta < 0:
            if self._ck is not None:
                to, head, elist = self.dinic._csr_c()
                drained = self._ck.drain(
                    len(self.job_ids), -delta, self.iv_caps, to, head, elist,
                    self._src, self.dinic.cap,
                )
            else:
                drained = self._drain(-delta)
            self.flow -= drained
            if _obs.enabled() and drained:
                _obs.incr("dinic.flow_drained", drained)
        self.machines = m

    def _drain(self, delta: int) -> int:
        """Shrink every sink capacity by ``delta`` machines, evicting flow.

        For interval ``k`` the sink arc loses ``delta·|E_k|`` capacity:
        residual headroom absorbs what it can; the remainder must come out
        of routed flow, so it is pulled back along the interval's incoming
        job arcs (their reverse arcs hold the per-arc flow) and off those
        jobs' source arcs.  The result is a *valid* flow saturating no sink
        arc beyond its new capacity; conservation guarantees the walk always
        finds enough incoming flow (``excess = f_k − m'·|E_k| ≤ f_k``).
        Returns the flow drained.  On the compiled kernel ``repro_drain``
        runs the same walk natively.
        """
        dinic = self.dinic
        cap = dinic.cap
        to, head, elist = dinic.to, dinic._head, dinic._elist
        n = len(self.job_ids)
        srcs = self._src
        drained = 0
        for k, c in enumerate(self.iv_caps):
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
            node = 2 + n + k
            for i in range(head[node], head[node + 1]):
                e = elist[i]
                # Odd ids incident to an interval node are exactly the
                # reverse window arcs; cap[e] is the forward arc's flow.
                if e & 1 and cap[e]:
                    take = cap[e] if cap[e] < excess else excess
                    cap[e] -= take
                    cap[e - 1] += take
                    se = srcs[to[e] - 2]  # that job's source arc
                    cap[se] += take
                    cap[se + 1] -= take
                    excess -= take
                    if not excess:
                        break
        return drained

    def _greedy_blocking(self) -> int:
        """A blocking flow on the depth-3 level graph, by direct layout walk.

        Every augmenting path of the *first* Dinic phase has the shape
        ``s → job → interval → t``; pushing greedily along the arithmetic
        edge layout (each job's intervals left to right) saturates, for
        every such path, its source, window, or sink arc — exactly a
        blocking flow — in one allocation-free O(E) pass with no path
        bookkeeping.  Dinic afterwards only reroutes.

        Jobs are visited in EDF order (deadline ascending, then release,
        then canonical index): any fixed order yields a blocking flow, but
        earliest-deadline-first with leftmost filling is near-optimal for
        this interval-structured network, so the rerouting left for Dinic
        — the expensive part of an infeasibility proof — is minimal.

        On the compiled kernel the identical pass (same EDF order, same
        left-to-right fill) runs natively; the pinned
        ``dinic.greedy_pushed`` counters agree across kernels.
        """
        if self._ck is not None:
            return self._ck.greedy_blocking(
                len(self.job_ids), self._edf, self._k0, self._k1,
                self._src, self.dinic.cap,
            )
        cap = self.dinic.cap
        k0s, k1s, srcs = self._k0, self._k1, self._src
        pushed = 0
        for idx in self._edf:
            se = srcs[idx]
            resid = cap[se]
            if not resid:
                continue
            sent = 0
            e = se + 2
            for k in range(k0s[idx], k1s[idx]):
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

    def solve(self) -> int:
        """Continue the max flow on the current residual; returns the total.

        Two fast exits keep probes cheap: when the greedy blocking pass
        alone saturates the demand the Dinic loop never runs, and when it
        does run it stops as soon as the residual demand is met (``limit``)
        instead of paying a final disconnection BFS.  Either way the
        network carries a *maximum* flow on return (saturated demand is a
        maximality certificate; otherwise Dinic ran to disconnection).
        """
        if not _obs.enabled():
            remaining = self.total_demand - self.flow
            if remaining:
                remaining -= self._greedy_blocking()
                if remaining:
                    remaining -= self.dinic.max_flow(
                        self.SOURCE, self.SINK, self.kernel, limit=remaining
                    )
                self.flow = self.total_demand - remaining
            return self.flow
        with _obs.span("dinic.solve", m=self.machines, kernel=self.kernel,
                       jobs=len(self.job_ids), intervals=len(self.iv_caps)):
            remaining = self.total_demand - self.flow
            if remaining:
                greedy = self._greedy_blocking()
                _obs.incr("dinic.greedy_pushed", greedy)
                remaining -= greedy
                if remaining:
                    remaining -= self.dinic.max_flow(
                        self.SOURCE, self.SINK, self.kernel, limit=remaining
                    )
                self.flow = self.total_demand - remaining
        return self.flow

    @property
    def feasible(self) -> bool:
        return self.flow == self.total_demand

    def snapshot(self) -> Tuple[int, bytes, int]:
        """Copy-on-write state: ``(machines, capacity bytes, flow)``.

        The capacity buffer is captured as immutable ``bytes`` (a single
        ``memcpy``); snapshots can be restored any number of times and are
        never copied again.
        """
        return (self.machines, self.dinic.cap.tobytes(), self.flow)

    def restore(self, state: Tuple[int, bytes, int]) -> None:
        """Copy a snapshot back into the live buffer (no new allocation)."""
        self.machines, blob, self.flow = state
        self._cap_mv[:] = memoryview(blob).cast("q")

    # -- extraction -----------------------------------------------------------

    def min_cut(self) -> Tuple[List[int], List[int]]:
        """Source side of a minimum cut as ``(job_ids, interval_indices)``.

        Meaningful only while the network carries a *maximum* flow (the
        cache's invariant after :meth:`solve`).  When the flow falls short of
        the total demand, the cut witnesses Theorem 1's overloaded-interval
        characterization: with ``S`` the returned jobs and ``I`` the union of
        the returned elementary intervals, every admissible ``job → interval``
        arc leaving the set is saturated, so

            Σ_{j ∈ S} (p_j − s·(|I(j)| − |I(j) ∩ I|))  >  m · s · |I|,

        i.e. the mandatory work of ``S`` inside ``I`` exceeds the machine
        capacity — a solver-independent proof of infeasibility at ``m``.
        """
        seen = self.dinic.residual_reachable(self.SOURCE)
        n = len(self.job_ids)
        jobs = [jid for idx, jid in enumerate(self.job_ids) if seen[2 + idx]]
        ivs = [k for k in range(len(self.iv_caps)) if seen[2 + n + k]]
        return jobs, ivs

    def work_by_job(self) -> Dict[int, Dict[int, int]]:
        """``work[job_id][k]`` — the raw flow per (sparsified) interval.

        Flow is work in units of ``1/scale``, so it is also machine time in
        ticks of ``1/(scale·speed)`` (an integer tick base at every speed;
        see :func:`repro.offline.flow.schedule_from_work`).
        """
        cap = self.dinic.cap
        k0s, k1s, srcs = self._k0, self._k1, self._src
        work: Dict[int, Dict[int, int]] = {}
        for idx, job_id in enumerate(self.job_ids):
            row: Dict[int, int] = {}
            e = srcs[idx] + 2
            for k in range(k0s[idx], k1s[idx]):
                amount = cap[e ^ 1]  # flow on the forward edge, in work units
                if amount:
                    row[k] = amount
                e += 2
            work[job_id] = row
        return work
