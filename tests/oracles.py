"""Independent feasibility oracles the flow kernels are cross-checked against.

Both answer :mod:`repro.offline.flow`'s question by other means, and
neither is on any runtime path:

* the generic ``networkx`` max-flow formulation of Horn's network, built
  over the kernels' own (sparsified by default) intervals and integer
  scale so work maps and cut indices line up, with a min-cut witness
  extractor and an optimum that bisects over its verdicts;
* the float-based HiGHS LP relaxation (``scipy.optimize.linprog``) over
  ``x[j,k]``, the machine time job ``j`` gets in elementary interval ``k``:
  ``Σ_k x[j,k] = p_j``, ``0 ≤ x[j,k] ≤ |E_k|``, ``Σ_j x[j,k] ≤ m·|E_k|``,
  and ``x[j,k] = 0`` unless ``E_k ⊆ [r_j, d_j)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import networkx as nx
import numpy as np
from scipy.optimize import linprog

from repro.model.instance import Instance
from repro.model.intervals import IntervalUnion, Numeric, to_fraction
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


def _network(
    instance: Instance, m: int, speed: Fraction, sparsify: bool
) -> Tuple[nx.DiGraph, List[Tuple[Fraction, Fraction]], int]:
    cache = cache_for(instance, sparsify=sparsify)
    intervals, scale = cache.network_intervals, cache.scale_for(speed)
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


def max_flow_assignment(
    instance: Instance, m: int, speed: Numeric = 1, sparsify: bool = True
) -> Tuple[bool, Dict[int, Dict[int, Fraction]], List[Tuple[Fraction, Fraction]]]:
    """``(feasible, work, intervals)``, like the library's ``max_flow_assignment``."""
    if len(instance) == 0:
        return True, {}, []
    if m <= 0:
        return False, {}, []
    speed = to_fraction(speed)
    graph, intervals, scale = _network(instance, m, speed, sparsify)
    total = sum(int(j.processing * scale) for j in instance)
    flow_value, flow_dict = nx.maximum_flow(
        graph, _SOURCE, _SINK, flow_func=nx.algorithms.flow.dinitz
    )
    work: Dict[int, Dict[int, Fraction]] = {}
    for job in instance:
        row: Dict[int, Fraction] = {}
        for node, amount in flow_dict.get(("job", job.id), {}).items():
            if amount > 0 and isinstance(node, tuple) and node[0] == "iv":
                # amount is work in scaled units; machine time = work / speed
                row[node[1]] = Fraction(amount, scale) / speed
        work[job.id] = row
    return flow_value == total, work, intervals


def networkx_min_cut(
    instance: Instance, m: int, speed: Numeric = 1, sparsify: bool = True
) -> Tuple[List[int], List[int]]:
    """Source side ``(job_ids, interval_indices)`` of a minimum cut.

    networkx returns the maximal source side (everything that cannot reach
    the sink), not the kernel's minimal one; either is a Theorem 1 witness.
    """
    if len(instance) == 0:
        return [], []
    graph, _, _ = _network(instance, m, to_fraction(speed), sparsify)
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


def certify(
    instance: Instance, m: int, speed: Numeric = 1, sparsify: bool = True
) -> Certificate:
    """A certificate built from the networkx flow (feasible) or cut.

    At ``m = 0`` networkx's maximal cut side takes the zero-demand gaps too,
    so, as in :func:`repro.verify.certify`, all jobs and windows witness.
    """
    speed = to_fraction(speed)
    if m == 0 and len(instance):
        return InfeasibleCertificate(
            0, speed, tuple(j.id for j in instance), instance.intervals()
        )
    feasible, work, intervals = max_flow_assignment(instance, m, speed, sparsify)
    if feasible:
        return FeasibleCertificate(m, speed, schedule_from_work(work, intervals, m))
    job_ids, iv_idx = networkx_min_cut(instance, m, speed, sparsify)
    return InfeasibleCertificate(
        m, speed, tuple(job_ids),
        IntervalUnion.from_pairs(intervals[k] for k in iv_idx),
    )


def certified_optimum(
    instance: Instance, speed: Numeric = 1, sparsify: bool = True
) -> CertifiedOptimum:
    """The networkx optimum with certificates at ``m`` and ``m − 1``."""
    speed = to_fraction(speed)
    unsat = unsat_certificate(instance, speed)
    if unsat is not None:
        raise Unsatisfiable("infeasible at every machine count", unsat)
    m = migratory_optimum(instance, speed)
    below = certify(instance, m - 1, speed, sparsify) if m > 0 else None
    return CertifiedOptimum(m, certify(instance, m, speed, sparsify), below)


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
