"""Least Laxity First — the strong migratory baseline of Phillips et al.

LLF runs, at every point in time, the ``k`` unfinished jobs of smallest
laxity ``ℓ_j(t) = d_j − t − p_j(t)``.  Phillips et al. proved LLF is
``O(log Δ)``-competitive for machine minimization, versus EDF's ``Ω(Δ)``;
experiment E-BL reproduces this separation.

A running job's laxity is constant while it runs (deadline and remaining
work both recede), while a waiting job's laxity falls at unit rate.  A
priority inversion can therefore appear strictly between releases and
completions; :meth:`LLF.next_wakeup` computes the earliest crossover time in
closed form so the event-driven engine never misses a swap.

Equal laxities are broken by the earlier deadline (for equal laxity, the
smaller remaining work), then by job id.  A waiting job tied with a running
one drops below it an instant later, so no fixed choice follows LLF there;
the deadline tie-break keeps the event-driven policy optimal on one
machine, as LLF is.  An id tie-break is not: on ``(r, p, d)`` = (0, 2, 8),
(0, 1, 7), (0, 5, 7) it keeps the deadline-8 job running from the tie at
``t = 4`` until both deadline-7 jobs reach zero laxity together, and misses.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .base import JobState, Policy
from .edf import stable_machine_assignment
from .engine import OnlineEngine


class LLF(Policy):
    """Migratory Least Laxity First with exact crossover wake-ups."""

    migratory = True

    def _ranked(
        self, engine: OnlineEngine
    ) -> List[Tuple[Fraction, Fraction, int, JobState]]:
        """Active jobs as ``(laxity, deadline, id, state)``, best first."""
        t = engine.time
        # ids are unique, so the comparison never reaches the states
        return sorted(
            (s.laxity_at(t), s.job.deadline, s.job.id, s)
            for s in engine.active_jobs()
        )

    def select(self, engine: OnlineEngine) -> Dict[int, int]:
        ranked = self._ranked(engine)
        chosen = [job_id for _, _, job_id, _ in ranked[: engine.machines]]
        return stable_machine_assignment(engine, chosen)

    def next_wakeup(self, engine: OnlineEngine) -> Optional[Fraction]:
        """Earliest future time a waiting job's laxity undercuts a running one.

        Running jobs keep laxity constant; a waiting job's laxity decreases
        at rate one.  The first inversion with the *largest* running laxity
        happens after exactly ``ℓ_wait(t) − max ℓ_run(t)`` time units (only
        relevant when all machines are busy and someone waits).
        """
        ranked = self._ranked(engine)
        k = engine.machines
        if len(ranked) <= k or k == 0:
            return None
        max_running_laxity = ranked[k - 1][0]
        min_waiting_laxity = ranked[k][0]
        gap = min_waiting_laxity - max_running_laxity
        wakeups = []
        if gap > 0:
            wakeups.append(engine.time + gap)
        # Safety wake-up: a waiting job whose laxity reaches zero must start
        # immediately; with laxity ties (gap == 0) the deadline tie-break
        # holds the current choice until then (continuous-time LLF is
        # ill-defined under ties; this is a deterministic discretization).
        for laxity, _, _, _ in ranked[k:]:
            if laxity > 0:
                wakeups.append(engine.time + laxity)
                break  # ranked by laxity: the first positive one is minimal
        future = [w for w in wakeups if w > engine.time]
        return min(future) if future else None
