"""Certificate types for feasibility verdicts.

Theorem 1 characterizes the migratory optimum as

    m  =  max_I  ceil( C(S, I) / |I| ),

a maximum over finite unions of intervals ``I``, which gives every verdict
of the feasibility core a short, independently checkable witness:

* **feasible at m** — an explicit :class:`~repro.model.schedule.Schedule`
  that :meth:`~repro.model.schedule.Schedule.verify` accepts with exact
  :class:`~fractions.Fraction` arithmetic on at most ``m`` machines;
* **infeasible at m** — an *overloaded interval set* ``(S, I)``: a job set
  ``S`` and an interval union ``I`` whose mandatory workload exceeds the
  machine capacity,

      C_s(S, I)  =  Σ_{j ∈ S} max(0, p_j − s·(|I(j)| − |I(j) ∩ I|))
                 >  m · s · |I|,

  the speed-``s`` generalization of the paper's ``C(S, I) > m·|I|`` (at
  ``s = 1`` the summand reduces to ``max(0, |I ∩ I(j)| − ℓ_j)``).  The
  degenerate witness ``|I| = 0`` with ``C_s(S, I) > 0`` certifies
  infeasibility at *every* machine count (a job that cannot finish even
  running alone throughout its window — only possible for ``s < 1``).

Both checks use only model-layer arithmetic — no reference to the solver
that produced the certificate (see :mod:`repro.verify.checkers`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil
from typing import Any, Dict, Optional, Tuple, Union

from ..model.instance import Instance
from ..model.intervals import IntervalUnion, to_fraction
from ..model.io import schedule_from_dict, schedule_to_dict
from ..model.job import Job
from ..model.schedule import Schedule
from ..offline.feascache import CacheStats


def mandatory_work(job: Job, region: IntervalUnion, speed: Fraction) -> Fraction:
    """``C_s(j, I)`` — work ``j`` must receive inside ``I`` at speed ``s``.

    Outside ``I`` (but inside its own window) the job can absorb at most
    ``s · (|I(j)| − |I(j) ∩ I|)`` work, so the rest is forced into ``I``.
    Pure interval arithmetic — the infeasibility checker's only primitive.
    """
    outside = job.window - region.intersect_interval(job.interval).length
    return max(Fraction(0), job.processing - speed * outside)


@dataclass(frozen=True)
class FeasibleCertificate:
    """Witness that ``instance`` is feasible on ``machines`` speed-``speed`` machines."""

    machines: int
    speed: Fraction
    schedule: Schedule
    #: Snapshot of the producing cache's counters at certification time
    #: (``None`` where no network answered: no jobs) — the canonical
    #: carrier for solver-effort stats.
    cache_stats: Optional[CacheStats] = field(
        default=None, compare=False, repr=False
    )

    kind = "feasible"

    def describe(self) -> str:
        s = self.schedule
        return (
            f"feasible @ m={self.machines} (speed {self.speed}): schedule with "
            f"{len(s)} segments on {s.machines_used} machines"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "feasible",
            "machines": self.machines,
            "speed": str(self.speed),
            "schedule": schedule_to_dict(self.schedule),
            **(
                {"cache_stats": self.cache_stats.as_dict()}
                if self.cache_stats is not None
                else {}
            ),
        }


@dataclass(frozen=True)
class InfeasibleCertificate:
    """Overloaded interval set ``(S, I)`` refuting feasibility at ``machines``."""

    machines: int
    speed: Fraction
    jobs: Tuple[int, ...]  # S — job ids contributing mandatory work
    region: IntervalUnion  # I — finite union of intervals
    #: Snapshot of the producing cache's counters (``None`` where no
    #: network answered: ``m = 0`` or the ``|I| = 0`` witness).
    cache_stats: Optional[CacheStats] = field(
        default=None, compare=False, repr=False
    )

    kind = "infeasible"

    def contribution(self, instance: Instance) -> Fraction:
        """``C_s(S, I)`` by direct arithmetic over the instance data."""
        return sum(
            (mandatory_work(instance.job(j), self.region, self.speed)
             for j in set(self.jobs)),
            Fraction(0),
        )

    @property
    def capacity(self) -> Fraction:
        """``m · s · |I|`` — total work the machines can do inside ``I``."""
        return self.machines * self.speed * self.region.length

    def required_machines(self, instance: Instance) -> Optional[int]:
        """``ceil(C_s(S,I) / (s·|I|))`` — the lower bound the witness proves.

        ``None`` when ``|I| = 0`` (the degenerate witness: no machine count
        suffices).
        """
        length = self.region.length
        if length == 0:
            return None
        return ceil(self.contribution(instance) / (self.speed * length))

    def describe(self, instance: Optional[Instance] = None) -> str:
        region = " ∪ ".join(map(repr, self.region)) or "∅"
        text = (
            f"infeasible @ m={self.machines} (speed {self.speed}): "
            f"S = {len(set(self.jobs))} jobs, I = {region} (|I| = {self.region.length})"
        )
        if instance is not None:
            c = self.contribution(instance)
            need = self.required_machines(instance)
            bound = "every m" if need is None else f"m ≥ {need}"
            text += f", C(S,I) = {c} > {self.capacity} = m·s·|I|  ⟹  {bound}"
        return text

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "infeasible",
            "machines": self.machines,
            "speed": str(self.speed),
            "jobs": list(self.jobs),
            "region": [[str(c.start), str(c.end)] for c in self.region],
            **(
                {"cache_stats": self.cache_stats.as_dict()}
                if self.cache_stats is not None
                else {}
            ),
        }


Certificate = Union[FeasibleCertificate, InfeasibleCertificate]


def certificate_from_dict(data: Dict[str, Any]) -> Certificate:
    """Inverse of ``Certificate.to_dict`` (lossless rational round-trip)."""
    kind = data.get("kind")
    speed = to_fraction(data["speed"])
    stats = (
        CacheStats(**data["cache_stats"]) if "cache_stats" in data else None
    )
    if kind == "feasible":
        return FeasibleCertificate(
            data["machines"],
            speed,
            schedule_from_dict(data["schedule"]),
            cache_stats=stats,
        )
    if kind == "infeasible":
        return InfeasibleCertificate(
            data["machines"],
            speed,
            tuple(data["jobs"]),
            IntervalUnion.from_pairs(
                (to_fraction(a), to_fraction(b)) for a, b in data["region"]
            ),
            cache_stats=stats,
        )
    raise ValueError(f"unknown certificate kind {kind!r}")


@dataclass(frozen=True)
class CertifiedOptimum:
    """The optimum ``machines`` sandwiched by certificates on both sides.

    ``feasible`` witnesses OPT ≤ m; ``infeasible`` (an overloaded interval
    set at ``m − 1`` machines) witnesses OPT ≥ m.  ``infeasible`` is ``None``
    exactly when ``machines = 0`` (the empty instance has nothing to refute).
    """

    machines: int
    feasible: FeasibleCertificate
    infeasible: Optional[InfeasibleCertificate]
    #: Snapshot of the cache counters after both sandwich probes (``None``
    #: without jobs) — total solver effort spent establishing the optimum.
    cache_stats: Optional[CacheStats] = field(
        default=None, compare=False, repr=False
    )

    def describe(self, instance: Optional[Instance] = None) -> str:
        lines = [f"certified optimum: {self.machines}", "  " + self.feasible.describe()]
        if self.infeasible is not None:
            lines.append("  " + self.infeasible.describe(instance))
        return "\n".join(lines)
