"""Substrate: exact offline optima (migratory flow, non-migratory search)."""

from .nonpreemptive import (
    exact_np_optimum,
    np_first_fit,
    single_machine_np_feasible,
    single_machine_np_schedule,
)
from .migration_elimination import eliminate_migration, majority_machine, theorem2_blowup
from .dinic import FeasibilityNetwork
from .feascache import CacheStats, FeasibilityCache, cache_for
from .flow import (
    BACKENDS,
    DEFAULT_BACKEND,
    available_backends,
    max_flow_assignment,
    mcnaughton,
    migratory_feasible,
    migratory_schedule,
    resolve_backend,
    schedule_from_work,
)
from .nonmigratory import (
    edf_single_machine_schedule,
    exact_nonmigratory_optimum,
    first_fit_assignment,
    first_fit_nonmigratory,
    nonmigratory_optimum_bounds,
    schedule_from_assignment,
    single_machine_feasible,
)
from .optimum import migratory_optimum, optimal_migratory_schedule, window_concurrency
from .workload import (
    best_single_interval,
    contribution,
    density,
    greedy_union_lower_bound,
    machines_bound,
    scaled_lower_bound,
    single_interval_lower_bound,
    total_contribution,
    trivial_lower_bounds,
)

__all__ = [
    "FeasibilityNetwork",
    "CacheStats",
    "FeasibilityCache",
    "cache_for",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "available_backends",
    "resolve_backend",
    "scaled_lower_bound",
    "exact_np_optimum",
    "np_first_fit",
    "single_machine_np_feasible",
    "single_machine_np_schedule",
    "eliminate_migration",
    "majority_machine",
    "theorem2_blowup",
    "max_flow_assignment",
    "mcnaughton",
    "migratory_feasible",
    "migratory_schedule",
    "schedule_from_work",
    "edf_single_machine_schedule",
    "exact_nonmigratory_optimum",
    "first_fit_assignment",
    "first_fit_nonmigratory",
    "nonmigratory_optimum_bounds",
    "schedule_from_assignment",
    "single_machine_feasible",
    "migratory_optimum",
    "optimal_migratory_schedule",
    "window_concurrency",
    "best_single_interval",
    "contribution",
    "density",
    "greedy_union_lower_bound",
    "machines_bound",
    "single_interval_lower_bound",
    "total_contribution",
    "trivial_lower_bounds",
]
