"""Substrate: exact job/instance/interval/schedule model."""

from .intervals import (
    Interval,
    IntervalUnion,
    Numeric,
    event_points,
    positive_speed,
    to_fraction,
)
from .job import Job
from .instance import Instance, dominates, paper_order_key
from .schedule import FeasibilityReport, Schedule, Segment
from . import io

__all__ = [
    "Interval",
    "IntervalUnion",
    "Numeric",
    "event_points",
    "positive_speed",
    "to_fraction",
    "Job",
    "Instance",
    "dominates",
    "paper_order_key",
    "FeasibilityReport",
    "Schedule",
    "Segment",
    "io",
]
