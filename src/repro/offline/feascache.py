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

* ``tables`` — the speed-independent *integer* form of the network inputs
  (:class:`NetworkTables`), built by one integer scan of the jobs: the base
  scale, sparsified event intervals, per-job interval ranges, base-scaled
  lengths and demands, the EDF probe order, window concurrency and span,
  and — after the first build — the shared CSR topology, so a second speed
  (or kernel) costs one capacity array instead of a graph construction,
* ``intervals`` / ``network_intervals`` — the elementary and the kept
  ``(a, b)`` ``Fraction`` pairs, built from the jobs' own ``Fraction``
  objects only when extraction, a certificate or the workload
  characterization asks (one tuple per kept interval, shared by both),
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

A search, the bounds (``window_concurrency``, ``scaled_lower_bound``) and
the network sizes (``len(tables.intervals)``, ``repro profile --network``)
read only the integer tables, so a cold ``migratory_optimum`` builds no
``Fraction`` interval list.  Besides the build itself, that spares the
cyclic garbage collector: at n = 10⁵ the ~126k tuples of an elementary
list push its pending count past a quarter of the objects the instance
keeps alive, which triggers a full (generation-2) collection.
``tests/test_tables.py`` checks the scan field by field against the
``Fraction`` sweep kept as ``tests/oracles.py::reference_tables`` and pins
the laziness.

``stats`` counts probes/hits so tests can pin the ``O(log(hi − lo))``
probe-complexity contract and the cross-caller cache behaviour.
"""

from __future__ import annotations

import math
import time
from array import array
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from itertools import accumulate, compress
from typing import Dict, Iterator, List, Optional, Tuple

from ..model.instance import Instance
from ..model.job import Job
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

    Everything here is derived once per instance by one integer scan of the
    jobs (:func:`_build_tables`); per speed only two integer multipliers
    remain (``base_scale → scale`` for demands, ``· speed`` for
    capacities), so a network build is pure integer array work.
    ``topology`` starts ``None`` and is filled by the first
    :class:`~repro.offline.dinic.FeasibilityNetwork` build with the shared
    immutable CSR arrays ``(to, head, elist)``; later builds (other speeds,
    the other kernel) reuse them and only allocate a capacity array.

    The ``Fraction`` interval lists are lazy: :meth:`kept_intervals` and
    :meth:`elementary_intervals` build them from the jobs' own ``Fraction``
    objects on first use (extraction, certificates, the workload
    characterization), and share one tuple per kept interval.
    :attr:`intervals` is a view of the kept list whose ``len`` builds
    nothing.
    """

    __slots__ = (
        "jobs",            # the instance's job tuple (the lazy lists' source)
        "kept",            # per kept interval: its elementary index
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
        "span_base",       # (last event − first event) · base_scale
        "base_scale",
        "topology",        # None | (to, head, elist) as plain lists
        "topology_c",      # None | the same CSR as int32 arrays ("c" kernel)
        "_elementary",     # None | the elementary (a, b) Fraction pairs
        "_kept_pairs",     # None | the kept (a, b) Fraction pairs
    )

    @property
    def intervals(self) -> "KeptIntervals":
        """The kept ``(a, b)`` pairs the network is built over (a view)."""
        return KeptIntervals(self)

    def kept_intervals(self) -> List[Tuple[Fraction, Fraction]]:
        """The kept ``(a, b)`` Fraction pairs, built on first use."""
        if self._kept_pairs is None:
            pairs = self._elementary
            if pairs is None:
                pairs = self._pairs()
            self._kept_pairs = [pairs[k] for k in self.kept]
        return self._kept_pairs

    def elementary_intervals(self) -> List[Tuple[Fraction, Fraction]]:
        """Every elementary ``(a, b)`` Fraction pair, built on first use."""
        if self._elementary is None:
            pairs = self._pairs()
            if self._kept_pairs is not None:
                # One tuple per kept interval, whichever list came first.
                for k, pair in zip(self.kept, self._kept_pairs):
                    pairs[k] = pair
            self._elementary = pairs
        return self._elementary

    def _pairs(self) -> List[Tuple[Fraction, Fraction]]:
        """Fresh elementary pairs over the jobs' own release/deadline objects.

        A job's window starts at the left end of its first kept interval
        and ends at the right end of its last, and every event point is
        some job's release or deadline, so the walk fills every point.
        """
        points: List[Optional[Fraction]] = [None] * (self.elementary_count + 1)
        kept = self.kept
        for job, k0, k1 in zip(self.jobs, self.k0, self.k1):
            points[kept[k0]] = job.release
            points[kept[k1 - 1] + 1] = job.deadline
        return list(zip(points, points[1:]))


class KeptIntervals(Sequence):
    """``NetworkTables.intervals``: the kept pairs as a read-only sequence.

    ``len`` reads the integer tables, so sizing a network, the
    ``network.intervals_kept`` gauge and ``repro profile --network`` never
    build a ``Fraction``; indexing or iterating builds the kept list once
    (:meth:`NetworkTables.kept_intervals`).
    """

    __slots__ = ("_tables",)

    def __init__(self, tables: NetworkTables) -> None:
        self._tables = tables

    def __len__(self) -> int:
        return len(self._tables.len_base)

    def __getitem__(self, k):
        return self._tables.kept_intervals()[k]

    def __iter__(self) -> Iterator[Tuple[Fraction, Fraction]]:
        return iter(self._tables.kept_intervals())


def _scan(jobs: Sequence[Job]) -> Tuple[int, List[int], List[int], List[int]]:
    """``(base_scale, r, p, d)``: every job's data as base-scaled ints.

    Each numerator and denominator is read once.  ``base_scale`` is the LCM
    of the distinct denominators, so ``x ↦ x · base_scale`` maps every
    value to an exact integer and preserves order.
    """
    rn: List[int] = []
    rd: List[int] = []
    pn: List[int] = []
    pd: List[int] = []
    dn: List[int] = []
    dd: List[int] = []
    for job in jobs:
        r, p, d = job.release, job.processing, job.deadline
        rn.append(r.numerator)
        rd.append(r.denominator)
        pn.append(p.numerator)
        pd.append(p.denominator)
        dn.append(d.numerator)
        dd.append(d.denominator)
    base = math.lcm(*{*rd, *pd, *dd})
    # A value already over the base denominator (every value of integer
    # data) needs no multiply: base // b == 1.
    return (
        base,
        [a * (base // b) if b != base else a for a, b in zip(rn, rd)],
        [a * (base // b) if b != base else a for a, b in zip(pn, pd)],
        [a * (base // b) if b != base else a for a, b in zip(dn, dd)],
    )


def _sweep(
    t: NetworkTables, rel: List[int], dem: List[int], dl: List[int]
) -> None:
    """Fill ``t``'s tables from base-scaled ``r``, ``p`` and ``d`` (n ≥ 1).

    Plain ints throughout: sorted unique event points, live and
    zero-laxity counts by prefix sums, the kept intervals (those with a
    live job), each job's kept window and source arc, and the EDF order.
    """
    n = len(rel)
    points = sorted({*rel, *dl})
    at = dict(zip(points, range(len(points))))
    i0s = [at[x] for x in rel]
    i1s = [at[x] for x in dl]
    m_el = len(points) - 1
    # Difference arrays over elementary intervals: a job is live in
    # [i0, i1), and zero-laxity when its window is exactly p_j long.
    live = [0] * len(points)
    zero = [0] * len(points)
    for i0, i1, r, p, d in zip(i0s, i1s, rel, dem, dl):
        live[i0] += 1
        live[i1] -= 1
        if d - r == p:
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
    for k0, k1 in zip(k0s, k1s):
        srcs.append(acc)
        acc += 2 * (1 + k1 - k0)  # source arc + window arcs, paired ids
    t.kept = array("i", kept)
    t.len_base = array("q", [points[k + 1] - points[k] for k in kept])
    t.demand_base = array("q", dem)
    t.k0, t.k1, t.src = array("i", k0s), array("i", k1s), array("i", srcs)
    # Jobs come in release order, so k0 never decreases with the index and
    # a stable sort on k1 alone yields the (k1, k0, idx) order.
    t.edf = array("i", sorted(range(n), key=k1s.__getitem__))
    t.n_nodes = 2 + n + len(kept)
    t.n_edges = acc // 2
    t.elementary_count = m_el
    t.dropped = m_el - len(kept)
    t.max_live = max(live)
    t.zero_laxity_max = max(accumulate(zero))
    t.total_demand_base = sum(dem)
    t.span_base = points[-1] - points[0]


def _build_tables(instance: Instance) -> NetworkTables:
    """The instance's network tables: one integer scan, one integer sweep.

    No ``Fraction`` is built, hashed or compared: the scan reads each job's
    numerators and denominators once, and everything after it runs on
    base-scaled ints.
    """
    t = NetworkTables()
    t.jobs = instance.jobs
    t.topology = t.topology_c = None
    t._elementary = t._kept_pairs = None
    t.base_scale, rel, dem, dl = _scan(instance.jobs)
    if not rel:
        t.kept = t.k0 = t.k1 = t.src = t.edf = _EMPTY_I
        t.len_base = t.demand_base = _EMPTY_Q
        t.n_nodes, t.n_edges = 2, 0
        t.elementary_count = t.dropped = 0
        t.max_live = t.zero_laxity_max = 0
        t.total_demand_base = t.span_base = 0
        return t
    _sweep(t, rel, dem, dl)
    return t


class _SpeedState:
    """Incremental solver state for one ``(instance, speed, kernel)`` triple."""

    __slots__ = ("network", "snapshots")

    def __init__(self, network: FeasibilityNetwork) -> None:
        self.network = network
        # m → (machines, cap bytes, flow), one per probed m: the post-solve
        # state as immutable bytes (copy-on-write: captured by one memcpy,
        # restored in place, never copied again).
        self.snapshots: Dict[int, Tuple[int, bytes, int]] = {}


class FeasibilityCache:
    """Instance-lifetime memo for Horn's feasibility flow."""

    __slots__ = ("instance", "_tables", "_verdicts", "_speed_states", "stats")

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self._tables: Optional[NetworkTables] = None
        self._verdicts: Dict[Tuple[int, Fraction, str], bool] = {}
        self._speed_states: Dict[Tuple[Fraction, str], _SpeedState] = {}
        self.stats = CacheStats()

    # -- memoized instance structure -----------------------------------------

    @property
    def tables(self) -> NetworkTables:
        """The integer network tables (built on first use)."""
        if self._tables is None:
            self._tables = _build_tables(self.instance)
        return self._tables

    @property
    def intervals(self) -> List[Tuple[Fraction, Fraction]]:
        """Elementary intervals between consecutive release/deadline events.

        Always the *unsparsified* event structure — the stable coordinate
        system of the workload characterization.  The (possibly smaller)
        interval list actually fed to the network is
        :attr:`network_intervals`.  Built on first access.
        """
        return self.tables.elementary_intervals()

    @property
    def network_intervals(self) -> List[Tuple[Fraction, Fraction]]:
        """The interval list the networks are built over (sparsified)."""
        return self.tables.kept_intervals()

    @property
    def base_scale(self) -> int:
        """LCM of all denominators appearing in the instance data."""
        return self.tables.base_scale

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
        return Fraction(self.tables.span_base, self.base_scale)

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
