"""The workload characterization of the optimum (Theorem 1).

For a finite union of intervals ``I`` the *contribution* of job ``j`` is

    C(j, I) = max(0, |I ∩ I(j)| − ℓ_j),

the least processing ``j`` must receive inside ``I`` in any feasible
schedule (at most ``ℓ_j`` of the overlap can be idled away).  Theorem 1
states that the optimal machine count is exactly

    m = max_I ceil( C(S, I) / |I| ).

The maximum over *all* finite unions is the LP dual of the feasibility flow,
so this module offers:

* exact contributions for arbitrary unions,
* the classical single-interval bound (max density over all event-point
  interval pairs),
* a greedy union-improvement pass that grows a union by any interval that
  raises its density — this often certifies the optimum directly and is the
  form of bound used in the paper's MediumFit analysis (Lemma 8).
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from typing import Iterable, List, Optional, Tuple

from ..model.instance import Instance
from ..model.intervals import Interval, IntervalUnion, Numeric, positive_speed
from ..model.job import Job
from .feascache import cache_for


def contribution(job: Job, region: IntervalUnion) -> Fraction:
    """``C(j, I) = max(0, |I ∩ I(j)| − ℓ_j)``."""
    overlap = region.intersect_interval(job.interval).length
    return max(Fraction(0), overlap - job.laxity)


def total_contribution(instance: Instance, region: IntervalUnion) -> Fraction:
    """``C(S, I) = Σ_j C(j, I)``."""
    return sum((contribution(j, region) for j in instance), Fraction(0))


def density(instance: Instance, region: IntervalUnion) -> Fraction:
    """``C(S, I) / |I|`` (zero for an empty region)."""
    length = region.length
    if length == 0:
        return Fraction(0)
    return total_contribution(instance, region) / length


def machines_bound(instance: Instance, region: IntervalUnion) -> int:
    """``ceil(C(S, I)/|I|)`` — a valid lower bound on OPT for any region."""
    d = density(instance, region)
    return ceil(d) if d > 0 else 0


def _candidate_points(instance: Instance) -> List[Fraction]:
    """Endpoints at which contributions have their breakpoints.

    ``C(j, [a,b))`` is piecewise linear in ``a`` and ``b`` with breakpoints
    at ``r_j``, ``d_j``, ``r_j + ℓ_j`` and ``d_j − ℓ_j``.  Restricting the
    search to these endpoints keeps every produced bound *valid* (any
    interval gives a lower bound by Theorem 1); experiment E-T1 measures how
    often the restriction is also tight against the exact flow optimum.
    """
    pts = set()
    for j in instance:
        pts.update((j.release, j.deadline, j.latest_start, j.earliest_finish))
    return sorted(pts)


def best_single_interval(
    instance: Instance,
) -> Tuple[Fraction, Optional[Interval]]:
    """Max density over single candidate intervals, with an argmax witness."""
    points = _candidate_points(instance)
    best = Fraction(0)
    witness: Optional[Interval] = None
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            region = IntervalUnion.single(a, b)
            d = density(instance, region)
            if d > best:
                best = d
                witness = Interval(a, b)
    return best, witness


def single_interval_lower_bound(instance: Instance) -> int:
    """``max ceil(C(S,[a,b))/(b−a))`` over candidate single intervals."""
    best, _ = best_single_interval(instance)
    return ceil(best) if best > 0 else 0


def greedy_union_lower_bound(
    instance: Instance, max_rounds: int = 8
) -> Tuple[int, IntervalUnion]:
    """Grow a union greedily by any candidate interval that raises density.

    Starting from the best single interval, repeatedly add the candidate
    interval whose inclusion maximizes the resulting density, stopping when
    no addition improves it.  Returns ``(bound, union)``; the bound is always
    a valid lower bound on OPT by Theorem 1.
    """
    best, witness = best_single_interval(instance)
    if witness is None:
        return 0, IntervalUnion.empty()
    region = IntervalUnion([witness])
    points = _candidate_points(instance)
    candidates = [
        Interval(a, b) for i, a in enumerate(points) for b in points[i + 1 :]
    ]
    for _ in range(max_rounds):
        current = density(instance, region)
        best_gain = current
        best_region: Optional[IntervalUnion] = None
        for cand in candidates:
            extended = region.union(IntervalUnion([cand]))
            if extended == region:
                continue
            d = density(instance, extended)
            if d > best_gain:
                best_gain = d
                best_region = extended
        if best_region is None:
            break
        region = best_region
    d = density(instance, region)
    return (ceil(d) if d > 0 else 0), region


def trivial_lower_bounds(instance: Instance) -> int:
    """Cheap combination: span density and zero-laxity window concurrency."""
    if len(instance) == 0:
        return 0
    span = instance.span
    span_density = (
        ceil(instance.total_work / span.length) if span.length > 0 else 0
    )
    return max(1, span_density, instance.zero_laxity_concurrency())


def scaled_lower_bound(instance: Instance, speed: Numeric = 1) -> int:
    """Speed-aware trivial lower bound on the speed-``speed`` optimum.

    The span-density component scales exactly: ``m`` speed-``s`` machines
    provide ``m·s·|span|`` work capacity, so ``m ≥ ⌈W / (s·|span|)⌉``.  The
    zero-laxity-concurrency component does **not** scale as ``⌈c/s⌉`` for
    ``s > 1``: a fast machine can interleave several ex-zero-laxity jobs'
    (now sub-window) mandatory work inside one window, so concurrency is
    only a valid bound when ``s ≤ 1`` (where a zero-laxity job still needs
    its whole window).  At ``speed == 1`` this coincides with
    :func:`trivial_lower_bounds`.
    """
    speed = positive_speed(speed)
    if len(instance) == 0:
        return 0
    # Both components come from the per-instance cache's integer tables
    # (semantically identical to instance.total_work / instance.span /
    # instance.zero_laxity_concurrency, but computed once per instance).
    cache = cache_for(instance)
    span_length = cache.span_length
    bound = 1
    if span_length > 0:
        bound = max(bound, ceil(cache.total_work / (speed * span_length)))
    if speed <= 1:
        bound = max(bound, cache.zero_laxity_concurrency)
    return bound
