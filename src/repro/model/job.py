"""The job model: release date, deadline, processing time, and derived data.

Notation follows Section 2 of the paper:

* ``I(j) = [r_j, d_j)`` is the job's (processing) interval,
* ``ℓ_j = d_j − r_j − p_j`` is the *laxity*,
* a job is *α-loose* if ``p_j ≤ α (d_j − r_j)`` and *α-tight* otherwise,
* ``a_j = r_j + ℓ_j`` is the latest time the job must start processing
  (equivalently, be committed to a machine) in any feasible schedule,
* ``f_j = d_j − ℓ_j`` is the earliest time it can be finished.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .intervals import Interval, Numeric, to_fraction

_next_auto_id = 0


def _auto_id() -> int:
    global _next_auto_id
    _next_auto_id += 1
    return _next_auto_id - 1


@dataclass(frozen=True)
class Job:
    """An immutable job ``(r_j, p_j, d_j)`` with exact rational data.

    ``id`` identifies the job within an instance; ``label`` is free-form and
    used by adversaries/generators to tag roles (e.g. ``"critical"``).
    """

    release: Fraction
    processing: Fraction
    deadline: Fraction
    id: int = field(default_factory=_auto_id)
    label: str = ""

    def __post_init__(self) -> None:
        release, processing, deadline = self.release, self.processing, self.deadline
        if type(release) is not Fraction:
            release = to_fraction(release)
            object.__setattr__(self, "release", release)
        if type(processing) is not Fraction:
            processing = to_fraction(processing)
            object.__setattr__(self, "processing", processing)
        if type(deadline) is not Fraction:
            deadline = to_fraction(deadline)
            object.__setattr__(self, "deadline", deadline)
        # p > 0 and d ≥ r + p, on numerators and (positive) denominators
        p_num, p_den = processing.numerator, processing.denominator
        if p_num <= 0:
            raise ValueError(f"job {self.id}: processing time must be positive")
        r_den, d_den = release.denominator, deadline.denominator
        if (deadline.numerator * r_den * p_den
                < (release.numerator * p_den + p_num * r_den) * d_den):
            raise ValueError(
                f"job {self.id}: window [{self.release}, {self.deadline}) too "
                f"short for processing time {self.processing}"
            )

    # -- derived quantities (Section 2) -------------------------------------

    @property
    def window(self) -> Fraction:
        """Window length ``d_j − r_j``."""
        return self.deadline - self.release

    @property
    def laxity(self) -> Fraction:
        """``ℓ_j = d_j − r_j − p_j``."""
        return self.window - self.processing

    @property
    def interval(self) -> Interval:
        """``I(j) = [r_j, d_j)``."""
        return Interval(self.release, self.deadline)

    @property
    def latest_start(self) -> Fraction:
        """``a_j = r_j + ℓ_j``: latest feasible (re)start if never processed."""
        return self.release + self.laxity

    @property
    def earliest_finish(self) -> Fraction:
        """``f_j = d_j − ℓ_j``: earliest possible completion time."""
        return self.deadline - self.laxity

    # -- classification ------------------------------------------------------

    def is_loose(self, alpha: Numeric) -> bool:
        """True iff the job is α-loose: ``p_j ≤ α (d_j − r_j)``."""
        return self.processing <= to_fraction(alpha) * self.window

    def is_tight(self, alpha: Numeric) -> bool:
        """True iff the job is α-tight (the complement of α-loose)."""
        return not self.is_loose(alpha)

    @property
    def density(self) -> Fraction:
        """``p_j / (d_j − r_j)`` — the minimal α for which the job is α-loose."""
        return self.processing / self.window

    # -- time-dependent helpers ---------------------------------------------

    def laxity_at(self, t: Numeric, remaining: Optional[Numeric] = None) -> Fraction:
        """Laxity at time ``t`` given remaining work (defaults to ``p_j``)."""
        t = to_fraction(t)
        rem = self.processing if remaining is None else to_fraction(remaining)
        return self.deadline - t - rem

    def covers(self, t: Numeric) -> bool:
        """True iff ``t ∈ I(j)``."""
        return self.interval.contains(t)

    # -- transforms (Section 4) -----------------------------------------------

    def inflated(self, s: Numeric) -> "Job":
        """The job ``j^s`` with processing time scaled by ``s`` (Lemma 4).

        Requires the inflated job to still fit its window.
        """
        s = to_fraction(s)
        return Job(self.release, self.processing * s, self.deadline, id=self.id, label=self.label)

    def trim_left(self, gamma: Numeric) -> "Job":
        """The job ``j^γ`` with window ``[r_j + γ ℓ_j, d_j)`` (Lemma 3)."""
        gamma = to_fraction(gamma)
        return Job(
            self.release + gamma * self.laxity, self.processing, self.deadline,
            id=self.id, label=self.label,
        )

    def trim_right(self, gamma: Numeric) -> "Job":
        """The job ``j^0`` with window ``[r_j, d_j − γ ℓ_j)`` (Lemma 3)."""
        gamma = to_fraction(gamma)
        return Job(
            self.release, self.processing, self.deadline - gamma * self.laxity,
            id=self.id, label=self.label,
        )

    def scaled(self, scale: Numeric, shift: Numeric) -> "Job":
        """Affine time transform: ``t ↦ scale·t + shift`` with ``scale > 0``."""
        s, h = to_fraction(scale), to_fraction(shift)
        if s <= 0:
            raise ValueError("scale must be positive")
        return Job(
            s * self.release + h, s * self.processing, s * self.deadline + h,
            id=self.id, label=self.label,
        )

    def with_id(self, new_id: int) -> "Job":
        return Job(self.release, self.processing, self.deadline, id=new_id, label=self.label)

    def with_label(self, label: str) -> "Job":
        return Job(self.release, self.processing, self.deadline, id=self.id, label=label)

    def __repr__(self) -> str:
        tag = f" {self.label!r}" if self.label else ""
        return (
            f"Job(id={self.id}{tag}, r={self.release}, p={self.processing}, "
            f"d={self.deadline})"
        )
