"""Metrics, Gantt rendering, and experiment reporting."""

from .competitive import RatioProfile, profile_matrix, ratio_profile
from .gantt import render_gantt, render_witness
from .profile import MandatoryProfile
from .metrics import ScheduleStats, evaluate_schedule, theorem2_bound, theorem13_bound
from .report import format_table, print_table
from .search import BadInstance, SearchReport, find_bad_instance
from .speed import min_speed, speed_machines_tradeoff
from .stats import bootstrap_ci, max_ci, mean_ci
from .svg import render_svg, save_svg, witness_svg

__all__ = [
    "RatioProfile",
    "profile_matrix",
    "ratio_profile",
    "MandatoryProfile",
    "render_gantt",
    "render_witness",
    "ScheduleStats",
    "evaluate_schedule",
    "theorem2_bound",
    "theorem13_bound",
    "format_table",
    "print_table",
    "BadInstance",
    "SearchReport",
    "find_bad_instance",
    "min_speed",
    "speed_machines_tradeoff",
    "bootstrap_ci",
    "max_ci",
    "mean_ci",
    "render_svg",
    "save_svg",
    "witness_svg",
]
