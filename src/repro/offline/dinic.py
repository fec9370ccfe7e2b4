"""Horn's feasibility network on flat buffers, over one Dinic kernel.

Horn's feasibility test (``flow.py``) is the inner loop of every experiment:
``migratory_optimum`` binary-searches it, and the analysis layer calls that
optimum for every sampled instance.  :class:`FeasibilityNetwork` keeps the
graph in flat buffers so a probe allocates nothing but per-call scratch
and snapshots are single ``memcpy``s:

* Capacities live in one flat ``array('q')`` buffer (``cap``; the reverse
  edge of edge ``e`` is ``e ^ 1``), and per-node edge lists are a classic
  head/edge-list CSR pair (``head`` offsets into ``elist``).
* The network is the ``source → job → interval → sink`` network
  specialized to the job/interval bipartite structure, built from the
  per-instance integer tables (:mod:`repro.offline.feascache`) alone.
  Edge ids are *arithmetic*: sink arc of interval ``k`` is ``2k``, and
  each job's source arc and window arcs occupy one contiguous block of
  even ids, so the solver needs no per-job edge lists at all.  Each ``solve`` starts
  with a greedy pass over that layout which is exactly a blocking flow on
  the depth-3 level graph (every augmenting path in the first Dinic phase
  is ``s → job → interval → t``); Dinic then only reroutes the remainder.
  Sink capacities ``m·|E_k|`` are *grown in place*, so a solved flow at
  ``m`` machines warm-starts the probe at any ``m' > m``.
* Every step — topology, capacity fill, sink growth, drain, greedy pass,
  blocking-flow loop, and extraction's gather of the flow's pieces — is a
  call on one kernel object with one interface
  (:mod:`repro.offline.kernel`): the pure-Python ``py`` kernel
  (:mod:`repro.offline.kernel.py`) or the compiled ``c`` kernel, which
  mirrors it step for step over the same buffers, so flows and capacity
  bytes are bit-identical.

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
from fractions import Fraction
from typing import Any, List, NamedTuple, Sequence, Tuple

from ..obs import core as _obs
from . import kernel as _kernel

#: The int64 bound on every flow sum a kernel keeps.
_INT64_LIMIT = 2**63


def _flush_max_flow(
    kernel: str, t0: int, phases: int, paths: int, retreats: int, added: int
) -> None:
    """Report one kernel ``max_flow`` call of :meth:`FeasibilityNetwork.solve`
    to the obs layer.

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


class FlowPieces(NamedTuple):
    """A flow's positive window arcs (:meth:`FeasibilityNetwork.work_by_job`).

    Kept interval ``k``'s pieces are ``jobs[offsets[k] : offsets[k + 1]]``
    (job indices into ``ids``) with their flow ``amounts``: work in units
    of ``1/scale``, so machine time in ticks of ``1/(scale·speed)``.
    Within an interval they run by decreasing amount, then by job id, the
    order McNaughton's wrap-around needs; ``kernel`` gathered them and
    wraps them (:func:`repro.offline.flow.schedule_from_work`).
    """

    offsets: Sequence[int]
    jobs: Sequence[int]
    amounts: Sequence[int]
    ids: Sequence[Any]
    kernel: Any


def id_rank(ids: Sequence[Any]) -> array:
    """Per index: the rank of ``ids[index]`` among ``ids`` (distinct), as
    the int32 array a kernel's ``gather`` orders ties by."""
    rank = array("i", bytes(4 * len(ids)))
    for r, idx in enumerate(sorted(range(len(ids)), key=ids.__getitem__)):
        rank[idx] = r
    return rank


class FeasibilityNetwork:
    """Horn's feasibility network with in-place machine-count scaling.

    Nodes: ``0`` source, ``1`` sink, then one per job, then one per kept
    (*sparsified*) interval of the tables.
    Built once per ``(instance, speed)`` with the sink arcs at ``m = 0``;
    :meth:`set_machines` grows them to ``m · |E_k|``.

    The edge layout is arithmetic, so no per-edge Python structures
    survive construction:

    * interval ``k``'s sink arc is edge ``2k``;
    * job ``idx``'s source arc is ``_src[idx]`` and its window arcs are the
      contiguous even ids ``_src[idx] + 2 .. _src[idx] + 2(k1−k0)``, arc
      ``i`` feeding interval ``k0 + i``.

    The network owns its buffers: the CSR topology ``to``/``head``/
    ``elist`` (``elist[head[u] : head[u + 1]]`` are node ``u``'s incident
    edge ids; the reverse edge of ``e`` is ``e ^ 1``) and the capacity
    buffer ``cap``, one flat ``array('q')``, so snapshots are single
    ``memcpy``s.  Every step runs on one kernel object
    (:func:`repro.offline.kernel.get` of ``kernel``), ``"py"`` or ``"c"``,
    which share one interface and write the same bytes.

    ``jobs`` is the instance's job tuple (or the instance) and ``tables``
    its :class:`~repro.offline.feascache.NetworkTables`, the one source of
    the build: it reads only integer tables and counts, never an
    interval's pairs, reuses (or fills) ``tables.topology`` for the
    kernel, and keeps ``tables`` for extraction's id ranks.  ``scale``
    comes from the caller (``FeasibilityCache.scale_for``).

    Every flow sum either kernel keeps (greedy, Dinic, drain, the reverse
    arcs) is at most the total demand, so a total demand past int64 raises
    ``OverflowError`` here, on both kernels, before the first solve.
    """

    SOURCE = 0
    SINK = 1

    __slots__ = (
        "kernel",
        "to",
        "head",
        "elist",
        "cap",
        "iv_caps",
        "job_ids",
        "tables",
        "total_demand",
        "machines",
        "flow",
        "_k0",
        "_k1",
        "_src",
        "_edf",
        "_cap_mv",
        "n_nodes",
        "n_edges",
    )

    def __init__(
        self, jobs, speed: Fraction, scale: int, kernel: str, tables
    ) -> None:
        n = len(jobs)
        n_iv = len(tables.len_base)
        n_nodes = 2 + n + n_iv
        # An explicit kernel="c" request raises KernelUnavailable here (the
        # "auto" backend checks availability before ever asking for "c").
        kern = _kernel.get(kernel)
        # The cache's table scan did all the per-job work.  ``speed·scale``
        # is an integer multiple of ``base_scale`` by the scale_for
        # contract, so every capacity is two int multiplications away.
        sp = speed * scale
        base = tables.base_scale
        if sp.denominator != 1 or sp.numerator % base:
            raise ValueError(
                "scale incompatible with tables; use cache.scale_for(speed)"
            )
        lenfac = sp.numerator // base       # len_base → interval capacity
        demfac = scale // base              # demand_base → demand
        k0s, k1s, srcs = tables.k0, tables.k1, tables.src
        total = tables.total_demand_base * demfac
        iv_caps = kern.scale_caps(tables.len_base, lenfac)
        topology = tables.topology.get(kern.name)
        if topology is None:
            topology = tables.topology[kern.name] = kern.build_topology(
                n, n_iv, k0s, k1s, srcs, 2 * tables.n_edges, n_nodes
            )
        to, head, elist = topology
        cap = array("q", bytes(8 * len(to)))
        kern.fill_caps(
            n, k0s, k1s, srcs, tables.demand_base, demfac, iv_caps, cap
        )
        if total >= _INT64_LIMIT:
            raise OverflowError(
                f"total demand {total} does not fit int64: the flow sums "
                "of the kernels would pass 2**63 - 1"
            )
        self.kernel = kern
        self.to, self.head, self.elist, self.cap = to, head, elist, cap
        self.iv_caps = iv_caps
        self.job_ids = [job.id for job in jobs]
        self.tables = tables
        self.total_demand = total
        self.machines = 0
        self.flow = 0
        self._k0, self._k1, self._src = k0s, k1s, srcs
        self._edf = tables.edf
        self._cap_mv = memoryview(cap)
        self.n_nodes = n_nodes
        self.n_edges = len(to) // 2
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
        every job that stayed saturated.  A capacity past int64 raises
        ``OverflowError`` on either kernel, at the same interval.
        """
        delta = m - self.machines
        if delta > 0:
            self.kernel.grow_sinks(delta, self.iv_caps, self.cap)
        elif delta < 0:
            drained = self.kernel.drain(
                len(self.job_ids), -delta, self.iv_caps, self.to, self.head,
                self.elist, self._src, self.cap,
            )
            self.flow -= drained
            if _obs.enabled() and drained:
                _obs.incr("dinic.flow_drained", drained)
        self.machines = m

    def solve(self) -> int:
        """Continue the max flow on the current residual; returns the total.

        Two fast exits keep probes cheap: when the greedy blocking pass
        alone saturates the demand the Dinic loop never runs, and when it
        does run it stops as soon as the residual demand is met (``limit``)
        instead of paying a final disconnection BFS.  Either way the
        network carries a *maximum* flow on return (saturated demand is a
        maximality certificate; otherwise Dinic ran to disconnection).
        """
        kern = self.kernel
        if not _obs.enabled():
            remaining = self.total_demand - self.flow
            if remaining:
                remaining -= kern.greedy_blocking(
                    len(self.job_ids), self._edf, self._k0, self._k1,
                    self._src, self.cap,
                )
                if remaining:
                    remaining -= kern.max_flow(
                        self.n_nodes, self.to, self.head, self.elist,
                        self.cap, self.SOURCE, self.SINK, remaining,
                    )
                self.flow = self.total_demand - remaining
            return self.flow
        with _obs.span("dinic.solve", m=self.machines, kernel=kern.name,
                       jobs=len(self.job_ids), intervals=len(self.iv_caps)):
            remaining = self.total_demand - self.flow
            if remaining:
                greedy = kern.greedy_blocking(
                    len(self.job_ids), self._edf, self._k0, self._k1,
                    self._src, self.cap,
                )
                _obs.incr("dinic.greedy_pushed", greedy)
                remaining -= greedy
                if remaining:
                    t0 = time.perf_counter_ns()
                    stats = array("q", bytes(24))
                    added = kern.max_flow(
                        self.n_nodes, self.to, self.head, self.elist,
                        self.cap, self.SOURCE, self.SINK, remaining, stats,
                    )
                    _flush_max_flow(
                        kern.name, t0, stats[0], stats[1], stats[2], added
                    )
                    remaining -= added
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
        return (self.machines, self.cap.tobytes(), self.flow)

    def restore(self, state: Tuple[int, bytes, int]) -> None:
        """Copy a snapshot back into the live buffer (no new allocation)."""
        self.machines, blob, self.flow = state
        self._cap_mv[:] = memoryview(blob).cast("q")

    # -- extraction -----------------------------------------------------------

    def min_cut(self) -> Tuple[List[int], List[int]]:
        """Source side of a minimum cut as ``(job_ids, interval_indices)``.

        Meaningful only while the network carries a *maximum* flow (the
        cache's invariant after :meth:`solve`).  The source side is the set
        of nodes reachable from the source through positive-residual edges:
        the unique *minimal* source side over all minimum cuts, so it does
        not depend on which maximum flow the kernel happened to find.  When
        the flow falls short of the total demand, the cut witnesses
        Theorem 1's overloaded-interval characterization: with ``S`` the
        returned jobs and ``I`` the union of the returned elementary
        intervals, every admissible ``job → interval`` arc leaving the set
        is saturated, so

            Σ_{j ∈ S} (p_j − s·(|I(j)| − |I(j) ∩ I|))  >  m · s · |I|,

        i.e. the mandatory work of ``S`` inside ``I`` exceeds the machine
        capacity — a solver-independent proof of infeasibility at ``m``.
        """
        to, cap, head, elist = self.to, self.cap, self.head, self.elist
        seen = [False] * self.n_nodes
        seen[self.SOURCE] = True
        stack = [self.SOURCE]
        while stack:
            u = stack.pop()
            for e in elist[head[u] : head[u + 1]]:
                v = to[e]
                if cap[e] and not seen[v]:
                    seen[v] = True
                    stack.append(v)
        n = len(self.job_ids)
        jobs = [jid for idx, jid in enumerate(self.job_ids) if seen[2 + idx]]
        ivs = [k for k in range(len(self.iv_caps)) if seen[2 + n + k]]
        return jobs, ivs

    def work_by_job(self) -> FlowPieces:
        """The raw flow per (sparsified) interval, as :class:`FlowPieces`:
        one kernel ``gather`` over the window arcs.

        Flow is work in units of ``1/scale``, so it is also machine time in
        ticks of ``1/(scale·speed)`` (an integer tick base at every speed;
        see :func:`repro.offline.flow.schedule_from_work`).
        """
        ids = self.job_ids
        offsets, jobs, amounts = self.kernel.gather(
            len(ids), len(self.iv_caps), self._k0, self._k1, self._src,
            self.tables.id_rank(), self.cap,
        )
        return FlowPieces(offsets, jobs, amounts, ids, self.kernel)
