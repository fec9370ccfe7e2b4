"""Certified feasibility verdicts: ``certify`` and ``certified_optimum``.

``certify(instance, m)`` answers the feasibility question *with a receipt*:

* feasible → a schedule extracted from the max flow and re-verified by
  :meth:`Schedule.verify` with exact arithmetic on at most ``m`` machines;
* infeasible → a minimum cut of the feasibility network converted into an
  overloaded interval set ``(S, I)`` and checked against Theorem 1 by pure
  workload arithmetic.

Certificates are checked before they are returned (``check=True``), so a
solver bug surfaces as a :class:`CertificationError` at the call site
instead of silently poisoning downstream experiments.

``certified_optimum`` sandwiches the optimum: a feasible certificate at
``m`` plus an infeasible certificate at ``m − 1``.  Instances that are
infeasible at *every* machine count (``speed < 1`` with a job whose window
is shorter than its slowed-down processing time) raise
:class:`Unsatisfiable`, which carries the degenerate ``|I| = 0`` witness.
"""

from __future__ import annotations

from typing import Optional

from ..model.instance import Instance
from ..model.intervals import IntervalUnion, Numeric, positive_speed
from ..model.schedule import Schedule
from ..obs import core as _obs
from ..offline.feascache import cache_for
from ..offline.flow import (
    DEFAULT_BACKEND,
    _DINIC_KERNELS,
    _tick_base,
    resolve_backend,
    schedule_from_work,
)
from ..offline.optimum import migratory_optimum
from .certificates import (
    Certificate,
    CertifiedOptimum,
    FeasibleCertificate,
    InfeasibleCertificate,
)
from .checkers import check_certificate


class Unsatisfiable(ValueError):
    """No machine count is feasible; carries the ``|I| = 0`` witness."""

    def __init__(self, message: str, certificate: InfeasibleCertificate) -> None:
        super().__init__(message)
        self.certificate = certificate


def unsat_certificate(
    instance: Instance, speed: Numeric = 1
) -> Optional[InfeasibleCertificate]:
    """The degenerate witness that no machine count works, if one exists.

    A job with ``p_j > s·|I(j)|`` cannot finish even running alone for its
    whole window (it cannot self-parallelize); with ``I = ∅`` its mandatory
    work ``C_s(j, ∅) = p_j − s·|I(j)| > 0`` exceeds the zero capacity at
    every ``m``.  Returns ``None`` when no such job exists.
    """
    speed = positive_speed(speed)
    culprits = tuple(j.id for j in instance if j.processing > speed * j.window)
    if not culprits:
        return None
    return InfeasibleCertificate(0, speed, culprits, IntervalUnion.empty())


def certify(
    instance: Instance,
    m: int,
    speed: Numeric = 1,
    backend: str = DEFAULT_BACKEND,
    check: bool = True,
) -> Certificate:
    """Feasibility verdict at ``m`` machines with an attached witness."""
    backend = resolve_backend(backend)
    speed = positive_speed(speed)
    if m < 0:
        raise ValueError("machine count must be non-negative")

    cert: Certificate
    with _obs.span("verify.certify", m=m, backend=backend, speed=str(speed)):
        if len(instance) == 0:
            cert = FeasibleCertificate(m, speed, Schedule([]))
        elif m == 0:
            # Zero machines, at least one job: the whole instance over the whole
            # event span is overloaded (C_s(S, I) ≥ Σ min(p_j, s·|I(j)|) > 0).
            cert = InfeasibleCertificate(
                0, speed, tuple(j.id for j in instance), instance.intervals()
            )
        else:
            cache = cache_for(instance)
            network = cache.solved_network(m, speed, _DINIC_KERNELS[backend])
            if network.feasible:
                schedule = schedule_from_work(
                    network.work_by_job(), cache.tables, m,
                    _tick_base(cache.scale_for(speed), speed),
                )
                cert = FeasibleCertificate(
                    m, speed, schedule, cache_stats=cache.stats.snapshot()
                )
            else:
                # Cut indices refer to the kept intervals the network was
                # built over; the view builds only the cut's pairs.
                intervals = cache.tables.intervals
                job_ids, iv_idx = network.min_cut()
                cert = InfeasibleCertificate(
                    m,
                    speed,
                    tuple(job_ids),
                    IntervalUnion.from_pairs(intervals[k] for k in iv_idx),
                    cache_stats=cache.stats.snapshot(),
                )
        if check:
            with _obs.span("verify.check", kind=cert.kind, m=m):
                check_certificate(instance, cert).require()
            _obs.incr("verify.certificates_checked")
            _obs.incr(
                "verify.feasible_checked"
                if cert.kind == "feasible"
                else "verify.infeasible_checked"
            )
    return cert


def certified_optimum(
    instance: Instance,
    speed: Numeric = 1,
    backend: str = DEFAULT_BACKEND,
    check: bool = True,
) -> CertifiedOptimum:
    """The exact optimum with certificates on both sides.

    Raises :class:`Unsatisfiable` (with the degenerate witness attached)
    when no machine count is feasible.
    """
    backend = resolve_backend(backend)
    speed = positive_speed(speed)
    unsat = unsat_certificate(instance, speed)
    if unsat is not None:
        if check:
            check_certificate(instance, unsat).require()
        raise Unsatisfiable(
            "infeasible at every machine count: a job's window is shorter "
            f"than its processing time at speed {speed}",
            unsat,
        )
    with _obs.span("verify.certified_optimum", backend=backend, speed=str(speed)):
        m = migratory_optimum(instance, speed, backend=backend)
        feasible = certify(instance, m, speed, backend=backend, check=check)
        assert isinstance(feasible, FeasibleCertificate)
        infeasible: Optional[InfeasibleCertificate] = None
        if m > 0:
            below = certify(instance, m - 1, speed, backend=backend, check=check)
            assert isinstance(below, InfeasibleCertificate)
            infeasible = below
    stats = None
    if len(instance) > 0:
        # Snapshot *after* both sandwich probes: the total solver effort.
        stats = cache_for(instance).stats.snapshot()
    return CertifiedOptimum(m, feasible, infeasible, cache_stats=stats)
