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
  (:class:`NetworkTables`), built by one integer scan of the jobs and one
  sweep (native where the compiled kernel loads): the base scale,
  sparsified event intervals, per-job interval ranges, base-scaled lengths
  and demands, the EDF probe order, window concurrency and span, and —
  after the first build — each kernel's shared CSR topology, so a second
  speed costs one capacity array instead of a graph construction.  They
  are the core's one interval representation: extraction reads the kept
  intervals' integer bounds (``start_base``, ``len_base``), and
  ``tables.intervals`` builds a kept interval's ``(a, b)`` ``Fraction``
  pair from them only when a reader (an infeasible certificate's min-cut
  region) indexes it,
* per-``(speed, kernel)`` :class:`~repro.offline.dinic.FeasibilityNetwork`
  solvers with snapshot/restore, so a binary search's non-monotone probe
  sequence costs one network build plus warm-started residual pushes
  (growing ``m`` only bumps sink capacities; shrinking drains the excess
  flow in place; revisiting a probed ``m`` restores its snapshot).  Each
  probed ``m``'s post-solve snapshot is also its verdict (its flow against
  the total demand), shared by every caller that probes the same
  instance.

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
and ``tests/oracles.py::reference_network``, the same kernels on a network
built from the jobs' ``Fraction`` data.

A search, the bounds (``window_concurrency``, ``scaled_lower_bound``) and
the network sizes (``len(tables.intervals)``, ``repro profile --network``)
read only the integer tables, and an infeasible certificate builds only
its cut's pairs, so the instance keeps no ``Fraction`` interval list: at
n = 10⁵ the ~126k tuples of such a list would push the cyclic garbage
collector's pending count past a quarter of the objects the instance
keeps alive, which triggers a full (generation-2) collection.
``tests/test_tables.py`` checks the tables and the view field by field
against the ``Fraction`` sweep kept as
``tests/oracles.py::reference_tables``, through both kernels' sweeps, and
pins which pairs each reader builds.

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
from typing import Dict, List, Optional, Tuple

from ..model.instance import Instance
from ..model.job import Job
from ..obs import core as _obs
from . import kernel as _kernel
from .dinic import FeasibilityNetwork, id_rank

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
    verdict_hits: int = 0  # answered from a probed m's snapshot
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
    ``topology`` maps a kernel name to the shared immutable CSR arrays
    ``(to, head, elist)`` its first
    :class:`~repro.offline.dinic.FeasibilityNetwork` build wrote; later
    builds on that kernel (other speeds) reuse them and only allocate a
    capacity array.

    :attr:`intervals` is the one view of the kept intervals as ``(a, b)``
    ``Fraction`` pairs (:class:`KeptIntervals`): it builds a pair only when
    indexed and keeps none.  Extraction reads the integer bounds
    (``start_base``, ``len_base``) and :meth:`id_rank` instead.
    """

    __slots__ = (
        "jobs",            # the instance's job tuple (id_rank's source)
        "start_base",      # per kept interval: a · base_scale, int
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
        "topology",        # kernel name → its (to, head, elist)
        "_rank",           # None | per job: its id's rank (id_rank)
    )

    def id_rank(self) -> array:
        """Per job: its id's rank among the instance's ids (built on first
        use), the tie order of extraction's pieces."""
        if self._rank is None:
            self._rank = id_rank([job.id for job in self.jobs])
        return self._rank

    @property
    def intervals(self) -> "KeptIntervals":
        """The kept ``(a, b)`` pairs the network is built over (a view)."""
        return KeptIntervals(self)


class KeptIntervals(Sequence):
    """``NetworkTables.intervals``: the kept pairs as a read-only sequence.

    ``len`` reads ``len_base``, so sizing a network, the
    ``network.intervals_kept`` gauge and ``repro profile --network`` build
    no ``Fraction``.  ``view[k]`` builds that one pair from
    ``start_base[k]``, ``len_base[k]`` and ``base_scale`` and caches
    nothing, so an infeasible certificate's min-cut region costs its own
    pairs and the instance keeps none.  Every bound is exact, since
    ``start_base`` is the event point times ``base_scale``; Python ints
    keep it so where ``start_base`` passes int64.  Negative indices index
    as a list's do, and past the end raises ``IndexError``.
    """

    __slots__ = ("_tables",)

    def __init__(self, tables: NetworkTables) -> None:
        self._tables = tables

    def __len__(self) -> int:
        return len(self._tables.len_base)

    def __getitem__(self, k: int) -> Tuple[Fraction, Fraction]:
        t = self._tables
        start = t.start_base[k]
        return (Fraction(start, t.base_scale),
                Fraction(start + t.len_base[k], t.base_scale))


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


def _build_tables(jobs: Sequence[Job]) -> NetworkTables:
    """The network tables of a job tuple: one integer scan, one integer sweep.

    No ``Fraction`` is built, hashed or compared: the scan reads each job's
    numerators and denominators once, and everything after it runs on
    base-scaled ints.  The sweep runs in the compiled kernel wherever that
    kernel is available (the test ``backend="auto"`` makes) and the data
    fit int64, else in the ``py`` kernel; both return the same tables.
    """
    t = NetworkTables()
    t.jobs = jobs
    t.topology = {}
    t._rank = None
    t.base_scale, rel, dem, dl = _scan(jobs)
    if not rel:
        t.k0 = t.k1 = t.src = t.edf = _EMPTY_I
        t.start_base = t.len_base = t.demand_base = _EMPTY_Q
        t.n_nodes, t.n_edges = 2, 0
        t.elementary_count = t.dropped = 0
        t.max_live = t.zero_laxity_max = 0
        t.total_demand_base = t.span_base = 0
        return t
    swept = None
    if _kernel.available():
        try:
            r, p, d = array("q", rel), array("q", dem), array("q", dl)
        except OverflowError:
            pass  # a value past int64: the py sweep runs on Python ints
        else:
            # None when the span or the total demand passes int64.
            swept = _kernel.load().sweep(r, p, d)
    if swept is None:
        swept = _kernel.py.sweep(rel, dem, dl)
        p = array("q", dem)
    (t.start_base, t.len_base, t.k0, t.k1, t.src, t.edf,
     t.elementary_count, t.n_edges, t.max_live, t.zero_laxity_max,
     t.total_demand_base, t.span_base) = swept
    t.demand_base = p
    t.n_nodes = 2 + len(rel) + len(t.len_base)
    t.dropped = t.elementary_count - len(t.len_base)
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

    __slots__ = ("jobs", "_tables", "_speed_states", "stats")

    def __init__(self, instance: Instance) -> None:
        # The job tuple, not the instance: the instance holds this cache,
        # so a back reference would make a cycle that only a full garbage
        # collection frees, and a warm serve pool evicts instances often.
        self.jobs = instance.jobs
        self._tables: Optional[NetworkTables] = None
        self._speed_states: Dict[Tuple[Fraction, str], _SpeedState] = {}
        self.stats = CacheStats()

    # -- memoized instance structure -----------------------------------------

    @property
    def tables(self) -> NetworkTables:
        """The integer network tables (built on first use)."""
        if self._tables is None:
            self._tables = _build_tables(self.jobs)
        return self._tables

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
                self.jobs, speed, self.scale_for(speed), kernel, tables
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

        A probe is all or nothing: one that raises (a capacity past int64
        in the sink growth, say) may leave the buffer half grown, so the
        speed's state is dropped and the next probe builds afresh.
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
            try:
                if _obs.enabled():
                    t0 = time.perf_counter_ns()
                    network.set_machines(m)
                    network.solve()
                    _obs.observe("feascache.probe_ns", time.perf_counter_ns() - t0)
                    _obs.observe("feascache.probe_m", m)
                else:
                    network.set_machines(m)
                    network.solve()
            except BaseException:
                del self._speed_states[(speed, kernel)]
                raise
            state.snapshots[m] = network.snapshot()
            self.stats.bump("probes")
        return network

    def feasible(self, m: int, speed: Fraction, kernel: str = "py") -> bool:
        """Memoized feasibility verdict, warm-starting across probes.

        A probed ``m``'s snapshot holds its post-solve flow, so comparing
        it with the total demand answers again without touching the
        network.
        """
        if not self.jobs:
            return True
        if m <= 0:
            return False
        state = self._speed_states.get((speed, kernel))
        snap = state.snapshots.get(m) if state is not None else None
        if snap is not None:
            self.stats.bump("verdict_hits")
            return snap[2] == state.network.total_demand
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
