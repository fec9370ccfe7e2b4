"""The exact mandatory-load profile of an instance (Theorem 1).

Inside an interval union ``I`` a job must run at least
``C(j, I) = max(0, |I ∩ I(j)| − ℓ_j)``, and Theorem 1 reads the optimum off
these contributions: ``OPT = max_I ⌈C(S, I)/|I|⌉``.  :class:`MandatoryProfile`
takes both from the feasibility core:

* the *density* ``C(S, E_k)/|E_k|`` of every kept elementary interval
  ``E_k`` of the feasibility network, the least average number of busy
  machines any feasible schedule shows inside ``E_k``, summed on the
  integer tables (dropped intervals have no live job: density 0);
* the bound ``OPT``, proved by the min cut at ``OPT − 1``: the densest
  union, returned by :func:`~repro.verify.certify` as an infeasible
  certificate already re-checked by the independent checker, whose
  :meth:`~repro.verify.InfeasibleCertificate.required_machines` is the
  reported bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from ..model.instance import Instance
from ..offline.feascache import NetworkTables, cache_for
from ..offline.optimum import migratory_optimum
from ..verify import InfeasibleCertificate, certify

_BLOCKS = " ▁▂▃▄▅▆▇█"


def _interval_loads(tables: NetworkTables) -> List[int]:
    """``C(S, E_k) · base_scale`` for every kept interval ``E_k``, in order.

    A job is live in every kept interval of its window ``[k0, k1)`` (none
    inside a window is dropped), so ``|E_k ∩ I(j)| = |E_k|`` there and 0
    elsewhere, and each ``E_k`` longer than ``ℓ_j`` gets ``|E_k| − ℓ_j``.
    """
    start, length = tables.start_base, tables.len_base
    loads = [0] * len(length)
    for k0, k1, demand in zip(tables.k0, tables.k1, tables.demand_base):
        laxity = start[k1 - 1] + length[k1 - 1] - start[k0] - demand
        for k in range(k0, k1):
            if length[k] > laxity:
                loads[k] += length[k] - laxity
    return loads


@dataclass(frozen=True)
class MandatoryProfile:
    """Per-interval mandatory densities, their peak, and the bound OPT."""

    tables: NetworkTables
    #: per kept interval ``E_k``: ``C(S, E_k) · base_scale``
    loads: List[int]
    #: the largest density (0 without jobs)
    peak: Fraction
    #: OPT, as the witness proves it (0 without jobs)
    bound: int
    #: the checked min cut at ``bound − 1`` (``None`` without jobs)
    witness: Optional[InfeasibleCertificate]

    @classmethod
    def of(cls, instance: Instance) -> "MandatoryProfile":
        """The profile of ``instance`` (``OverflowError`` where its flow
        passes int64, as every flow command raises)."""
        tables = cache_for(instance).tables
        loads = _interval_loads(tables)
        length = tables.len_base
        top = 0
        for k in range(1, len(loads)):
            if loads[k] * length[top] > loads[top] * length[k]:
                top = k
        peak = Fraction(loads[top], length[top]) if loads else Fraction(0)
        m = migratory_optimum(instance)
        witness = certify(instance, m - 1) if m else None
        bound = witness.required_machines(instance) if witness else 0
        return cls(tables, loads, peak, bound, witness)

    def density(self, k: int) -> Fraction:
        """``C(S, E_k)/|E_k|`` of kept interval ``k``."""
        return Fraction(self.loads[k], self.tables.len_base[k])

    def sparkline(self, width: int) -> str:
        """The densities in ``width`` columns of equal time, scaled to the peak.

        A column shows the densest kept interval it overlaps; one that
        overlaps none (an idle stretch) reads blank.
        """
        if not self.peak:
            return _BLOCKS[0] * width
        pn, pd = self.peak.numerator, self.peak.denominator
        start, length = self.tables.start_base, self.tables.len_base
        lo = start[0]
        span = start[-1] + length[-1] - lo
        levels = [0] * width
        for a, size, load in zip(start, length, self.loads):
            # Column c covers [lo + c·span/width, lo + (c + 1)·span/width).
            first = (a - lo) * width // span
            last = ((a + size - lo) * width - 1) // span
            level = (len(_BLOCKS) - 1) * load * pd // (size * pn)
            for c in range(first, last + 1):
                levels[c] = max(levels[c], level)
        return "".join(_BLOCKS[level] for level in levels)
