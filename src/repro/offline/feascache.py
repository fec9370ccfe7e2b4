"""Per-instance memoization for the feasibility core.

Every analysis entry point (``analysis.metrics``, ``analysis.competitive``,
``analysis.search``, ``offline.nonmigratory``, ``realtime.analysis``)
bottoms out in the same two primitives: the elementary-interval structure of
an instance and the feasibility verdict at some ``(m, speed)``.  Before this
module each caller recomputed both from scratch — the binary search in
``migratory_optimum`` alone re-derived the event intervals and the common
denominator on *every* probe.

:class:`FeasibilityCache` hangs off the :class:`~repro.model.instance.Instance`
itself (instances are immutable, so nothing can invalidate the memo):

* ``intervals`` / ``base_scale`` — computed once per instance,
* ``tables`` — the speed-independent *integer* form of the network inputs
  (:class:`NetworkTables`): sparsified event intervals, per-job interval
  ranges, base-scaled lengths and demands, the EDF probe order, and — after
  the first build — the shared CSR topology, so a second speed (or kernel)
  costs one capacity array instead of a graph construction,
* ``verdicts`` — resolved ``(m, speed, kernel)`` answers, shared by every
  caller that probes the same instance,
* per-``(speed, kernel)`` :class:`~repro.offline.dinic.FeasibilityNetwork`
  solvers with snapshot/restore, so a binary search's non-monotone probe
  sequence costs one network build plus warm-started residual pushes
  (growing ``m`` only bumps sink capacities; shrinking drains the excess
  flow in place; revisiting a probed ``m`` restores its snapshot).

The network is built over the *sparsified* event intervals: elementary
intervals whose live-job set is empty are dropped — they carry no job arc,
so no flow can ever enter them.  Verdicts, maximum flows on the surviving
arcs, work maps, schedules, and residual-reachability min cuts are provably
unchanged, since a dropped interval is invisible to every augmenting path.
Nothing merges: every elementary boundary is some job's release or
deadline, and with ``p_j > 0`` (so ``r_j < d_j``) that job enters or leaves
the live set there, so adjacent intervals never share a live set.  The
reduction is surfaced through the ``network.intervals_*`` obs counters and
``repro profile --network``; ``tests/test_sparsify.py`` checks it against
two references built over every elementary interval: the networkx oracle
and the stand-alone :class:`~repro.offline.dinic.FeasibilityNetwork` build.

``stats`` counts probes/hits so tests can pin the ``O(log(hi − lo))``
probe-complexity contract and the cross-caller cache behaviour.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..model.instance import Instance
from ..obs import core as _obs
from .dinic import FeasibilityNetwork

_EMPTY_I = array("i")
_EMPTY_Q = array("q")


@dataclass
class CacheStats:
    """Counters for the cache's observable behaviour (used by tests).

    Every increment is mirrored to the ``cache.*`` counters of
    :mod:`repro.obs` when a sink is attached, so the same numbers are
    available both on the cache object and in captured traces.
    """

    probes: int = 0  # feasibility questions answered by a flow computation
    verdict_hits: int = 0  # answered from the (m, speed) memo
    network_builds: int = 0  # cold FeasibilityNetwork constructions
    restores: int = 0  # snapshot restores (probe below current m)

    def bump(self, field_name: str) -> None:
        """Increment one counter, mirroring it to the obs layer."""
        setattr(self, field_name, getattr(self, field_name) + 1)
        _obs.incr("cache." + field_name)

    def snapshot(self) -> "CacheStats":
        """An immutable-by-convention copy (carried on certificates)."""
        return replace(self)

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


class NetworkTables:
    """Speed-independent integer form of the feasibility-network inputs.

    Everything here is derived once per instance; per speed only two
    integer multipliers remain (``base_scale → scale`` for demands,
    ``· speed`` for capacities), so a network build is pure integer array
    work.  ``topology`` starts ``None`` and is filled by the first
    :class:`~repro.offline.dinic.FeasibilityNetwork` build with the shared
    immutable CSR arrays ``(to, head, elist)``; later builds (other speeds,
    the other kernel) reuse them and only allocate a capacity array.
    """

    __slots__ = (
        "intervals",       # kept (a, b) Fraction pairs fed to the network
        "len_base",        # per kept interval: (b − a) · base_scale, int
        "demand_base",     # per job: p_j · base_scale, int
        "k0", "k1",        # per job: kept-interval window [k0, k1)
        "src",             # per job: source edge id (layout arithmetic)
        "edf",             # job indices sorted by (k1, k0, idx)
        "n_nodes", "n_edges",
        "elementary_count", "dropped",  # sparsification outcome
        "max_live",        # window concurrency (max live-set size)
        "zero_laxity_max",  # max concurrency among zero-laxity jobs
        "total_demand_base",
        "base_scale",
        "topology",        # None | (to, head, elist) as plain lists
        "topology_c",      # None | the same CSR as int32 arrays ("c" kernel)
    )


def _build_tables(
    instance: Instance,
    elementary: List[Tuple[Fraction, Fraction]],
    base_scale: int,
) -> NetworkTables:
    """One integer sweep: live counts, sparsification, and job tables.

    The sweep indexes jobs into the elementary intervals through O(1)
    endpoint lookups (every release starts an elementary interval and every
    deadline ends one, by construction of the event points) — no per-job
    Fraction bisection survives into the per-probe path.
    """
    t = NetworkTables()
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


class _SpeedState:
    """Incremental solver state for one ``(instance, speed, kernel)`` triple."""

    __slots__ = ("network", "snapshots")

    def __init__(self, network: FeasibilityNetwork) -> None:
        self.network = network
        # m → (machines, cap bytes, flow); always contains the m = 0 base.
        # Snapshots are immutable bytes (copy-on-write: captured by one
        # memcpy, restored in place, never copied again).
        self.snapshots: Dict[int, Tuple[int, bytes, int]] = {
            0: network.snapshot()
        }


class FeasibilityCache:
    """Instance-lifetime memo for Horn's feasibility flow."""

    __slots__ = ("instance", "_intervals", "_base_scale",
                 "_tables", "_verdicts", "_speed_states", "stats")

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self._intervals: Optional[List[Tuple[Fraction, Fraction]]] = None
        self._base_scale: Optional[int] = None
        self._tables: Optional[NetworkTables] = None
        self._verdicts: Dict[Tuple[int, Fraction, str], bool] = {}
        self._speed_states: Dict[Tuple[Fraction, str], _SpeedState] = {}
        self.stats = CacheStats()

    # -- memoized instance structure -----------------------------------------

    @property
    def intervals(self) -> List[Tuple[Fraction, Fraction]]:
        """Elementary intervals between consecutive release/deadline events.

        Always the *unsparsified* event structure — the stable coordinate
        system of the workload characterization.  The (possibly smaller)
        interval list actually fed to the network is
        :attr:`network_intervals`.
        """
        if self._intervals is None:
            # Deduplicate and sort via exact base-scaled integer keys: the
            # map p ↦ p·base_scale is strictly monotone and injective, so
            # the point order is identical to sorting the Fractions — minus
            # Fraction.__hash__/__lt__ on every comparison.
            base = self.base_scale
            uniq: Dict[int, Fraction] = {}
            for j in self.instance:
                for p in (j.release, j.deadline):
                    uniq[p.numerator * (base // p.denominator)] = p
            # Keys are unique and the map is injective, so consecutive
            # points are strictly increasing — no ``b > a`` filter needed.
            points = [uniq[key] for key in sorted(uniq)]
            self._intervals = list(zip(points, points[1:]))
        return self._intervals

    @property
    def base_scale(self) -> int:
        """LCM of all denominators appearing in the instance data."""
        if self._base_scale is None:
            scale = 1
            for j in self.instance:
                for d in (
                    j.release.denominator,
                    j.deadline.denominator,
                    j.processing.denominator,
                ):
                    scale = scale * d // math.gcd(scale, d)
            self._base_scale = scale
        return self._base_scale

    @property
    def tables(self) -> NetworkTables:
        """The integer network tables (built on first use)."""
        if self._tables is None:
            self._tables = _build_tables(
                self.instance, self.intervals, self.base_scale
            )
        return self._tables

    @property
    def network_intervals(self) -> List[Tuple[Fraction, Fraction]]:
        """The interval list the networks are built over (sparsified)."""
        return self.tables.intervals

    @property
    def window_concurrency(self) -> int:
        """Max number of job windows alive at once (free sweep byproduct)."""
        return self.tables.max_live

    @property
    def zero_laxity_concurrency(self) -> int:
        """Max overlap among zero-laxity windows (free sweep byproduct)."""
        return self.tables.zero_laxity_max

    @property
    def total_work(self) -> Fraction:
        """``Σ_j p_j`` from the integer tables."""
        return Fraction(self.tables.total_demand_base, self.base_scale)

    @property
    def span_length(self) -> Fraction:
        """Length of the event span (0 for an empty instance)."""
        intervals = self.intervals
        if not intervals:
            return Fraction(0)
        return intervals[-1][1] - intervals[0][0]

    def scale_for(self, speed: Fraction) -> int:
        """Scale making both ``p_j`` and ``(b − a)·speed`` integral.

        ``lcm(base, q) · q`` for ``speed = p/q`` — the extra factor of ``q``
        guarantees divisibility of the *product* of two fractional factors.
        """
        q = speed.denominator
        base = self.base_scale
        return (base * q // math.gcd(base, q)) * q

    # -- incremental feasibility ----------------------------------------------

    def _state_for(self, speed: Fraction, kernel: str = "py") -> _SpeedState:
        key = (speed, kernel)
        state = self._speed_states.get(key)
        if state is None:
            tables = self.tables
            network = FeasibilityNetwork(
                self.instance, speed, tables.intervals, self.scale_for(speed),
                kernel=kernel, tables=tables,
            )
            state = _SpeedState(network)
            self._speed_states[key] = state
            self.stats.bump("network_builds")
            if _obs.enabled():
                _obs.incr("network.intervals_dropped", tables.dropped)
                _obs.gauge("network.intervals_elementary", tables.elementary_count)
                _obs.gauge("network.intervals_kept", len(tables.intervals))
        return state

    def solved_network(
        self, m: int, speed: Fraction, kernel: str = "py"
    ) -> FeasibilityNetwork:
        """The speed's network holding a maximum flow at exactly ``m``.

        Invariant: outside this method the network always carries a maximum
        flow for its current machine count, and every probed ``m`` has a
        post-solve snapshot.  A request above the current state grows the
        sink capacities in place and continues on the residual; a request
        below an already-probed ``m`` restores its snapshot (pure memcpy);
        a *new* ``m`` below the current state drains the excess flow in
        place (:meth:`~repro.offline.dinic.FeasibilityNetwork.set_machines`)
        so the re-solve only re-places the evicted work.
        """
        state = self._state_for(speed, kernel)
        network = state.network
        if m != network.machines:
            exact = state.snapshots.get(m)
            if exact is not None:
                # This m was probed before: restoring is a pure memcpy into
                # the live buffer (the snapshot bytes stay shared).
                network.restore(exact)
                self.stats.bump("restores")
        if m != network.machines:
            if _obs.enabled():
                t0 = time.perf_counter_ns()
                network.set_machines(m)
                network.solve()
                _obs.observe("feascache.probe_ns", time.perf_counter_ns() - t0)
                _obs.observe("feascache.probe_m", m)
            else:
                network.set_machines(m)
                network.solve()
            state.snapshots[m] = network.snapshot()
            self.stats.bump("probes")
            self._verdicts[(m, speed, kernel)] = network.feasible
        return network

    def feasible(self, m: int, speed: Fraction, kernel: str = "py") -> bool:
        """Memoized feasibility verdict, warm-starting across probes."""
        if len(self.instance) == 0:
            return True
        if m <= 0:
            return False
        cached = self._verdicts.get((m, speed, kernel))
        if cached is not None:
            self.stats.bump("verdict_hits")
            return cached
        return self.solved_network(m, speed, kernel).feasible


def cache_for(instance: Instance) -> FeasibilityCache:
    """The instance's cache, created on first request.

    The cache lives in a slot on the (immutable) instance, so it shares the
    instance's lifetime exactly: no global registry, no id-reuse hazards,
    and equal-but-distinct instances keep independent solvers.
    """
    cache = instance._feas_cache
    if cache is None:
        cache = FeasibilityCache(instance)
        object.__setattr__(instance, "_feas_cache", cache)
    return cache
