"""Tests for speed-requirement measurement (related-work machinery), and
the typed ``ValueError`` every speed-taking entry point raises for a
non-positive speed."""

from fractions import Fraction

import pytest

from repro.analysis.speed import min_speed, speed_machines_tradeoff
from repro.generators import uniform_random_instance
from repro.model import Instance, Job
from repro.offline.flow import (
    max_flow_assignment,
    migratory_feasible,
    migratory_schedule,
)
from repro.offline.nonmigratory import (
    edf_single_machine_schedule,
    first_fit_assignment,
    first_fit_nonmigratory,
    schedule_from_assignment,
    single_machine_feasible,
)
from repro.offline.optimum import migratory_optimum, optimal_migratory_schedule
from repro.offline.workload import scaled_lower_bound
from repro.online.edf import EDF
from repro.online.engine import OnlineEngine, min_machines, simulate, succeeds
from repro.online.nonmigratory import FirstFitEDF
from repro.verify import certified_optimum, certify, differential_optimum
from repro.verify.certify import unsat_certificate
from repro.verify.differential import differential_check, differential_sweep


class TestMinSpeed:
    def test_trivially_feasible_speed_one(self):
        inst = Instance([Job(0, 1, 3, id=0)])
        assert min_speed(lambda: EDF(), inst, 1) == 1

    def test_exact_speed_for_parallel_units(self, parallel_units):
        # EDF serializes the third unit job after the first two finish, so
        # it needs speed 2 on 2 machines (an optimal migratory schedule
        # would need only 3/2 — EDF pays for its rigidity here)
        s = min_speed(lambda: EDF(), parallel_units, 2)
        assert s == 2

    def test_single_machine_speed_three(self, parallel_units):
        assert min_speed(lambda: EDF(), parallel_units, 1) == 3

    def test_hi_cap_returns_none(self, parallel_units):
        assert min_speed(lambda: EDF(), parallel_units, 1, hi=2) is None

    def test_empty_instance(self):
        assert min_speed(lambda: EDF(), Instance([]), 1) == 1

    def test_monotone_in_machines(self):
        inst = uniform_random_instance(20, seed=2)
        m = migratory_optimum(inst)
        s_low = min_speed(lambda: FirstFitEDF(), inst, m)
        s_high = min_speed(lambda: FirstFitEDF(), inst, m + 2)
        assert s_high <= s_low

    def test_precision_grid(self, parallel_units):
        s = min_speed(lambda: EDF(), parallel_units, 2, precision=Fraction(1, 4))
        assert s == 2  # representable on the coarser grid too


class TestTradeoff:
    def test_curve_monotone(self):
        inst = uniform_random_instance(20, seed=5)
        m = migratory_optimum(inst)
        curve = speed_machines_tradeoff(
            lambda: FirstFitEDF(), inst, range(m, m + 4)
        )
        speeds = [s for _, s in curve if s is not None]
        assert speeds == sorted(speeds, reverse=True)

    def test_clt_constant_plausible(self):
        """CLT [3]: speed 5.828 suffices non-migratorily on m machines.

        Our first-fit black box is not their algorithm, but on random
        instances its empirical speed requirement at m machines should sit
        far below that worst-case constant."""
        worst = Fraction(1)
        for seed in range(4):
            inst = uniform_random_instance(18, seed=seed)
            m = migratory_optimum(inst)
            s = min_speed(lambda: FirstFitEDF(), inst, m)
            assert s is not None
            worst = max(worst, s)
        assert worst <= Fraction(1166, 200)  # 5.83


# ---------------------------------------------------------------------------
# a non-positive speed is a typed ValueError at every entry point

_TWO = Instance([Job(0, 1, 2, id=0), Job(0, 1, 2, id=1)])

#: Every public entry point that takes a machine speed, on two jobs.
SPEED_ENTRY_POINTS = {
    "max_flow_assignment": lambda s: max_flow_assignment(_TWO, 2, s),
    "migratory_feasible": lambda s: migratory_feasible(_TWO, 2, s),
    "migratory_schedule": lambda s: migratory_schedule(_TWO, 2, s),
    "migratory_optimum": lambda s: migratory_optimum(_TWO, s),
    "optimal_migratory_schedule": lambda s: optimal_migratory_schedule(_TWO, s),
    "scaled_lower_bound": lambda s: scaled_lower_bound(_TWO, s),
    "single_machine_feasible": lambda s: single_machine_feasible(list(_TWO), s),
    "edf_single_machine_schedule": lambda s: edf_single_machine_schedule(
        list(_TWO), s
    ),
    "first_fit_assignment": lambda s: first_fit_assignment(_TWO, s),
    "schedule_from_assignment": lambda s: schedule_from_assignment(
        _TWO, {0: 0, 1: 1}, s
    ),
    "first_fit_nonmigratory": lambda s: first_fit_nonmigratory(_TWO, s),
    "certify": lambda s: certify(_TWO, 2, s),
    "certify_unchecked": lambda s: certify(_TWO, 2, s, check=False),
    "certified_optimum": lambda s: certified_optimum(_TWO, s),
    "certified_optimum_unchecked": lambda s: certified_optimum(
        _TWO, s, check=False
    ),
    "unsat_certificate": lambda s: unsat_certificate(_TWO, s),
    "differential_check": lambda s: differential_check(_TWO, 2, s),
    "differential_optimum": lambda s: differential_optimum(_TWO, s),
    "differential_sweep": lambda s: differential_sweep([_TWO], speeds=[s]),
    "OnlineEngine": lambda s: OnlineEngine(EDF(), machines=2, speed=s),
    "simulate": lambda s: simulate(EDF(), _TWO, 2, s),
    "succeeds": lambda s: succeeds(EDF(), _TWO, 2, s),
    "min_machines": lambda s: min_machines(lambda k: EDF(), _TWO, speed=s),
}


@pytest.mark.parametrize("speed", [0, -1, "-1/2"])
@pytest.mark.parametrize("entry_point", sorted(SPEED_ENTRY_POINTS))
def test_non_positive_speed_is_a_value_error(entry_point, speed):
    with pytest.raises(ValueError, match=r"^speed must be positive, got "):
        SPEED_ENTRY_POINTS[entry_point](speed)


def test_positive_speeds_still_answer():
    for entry_point in SPEED_ENTRY_POINTS.values():
        entry_point("1/2")
        entry_point(Fraction(3, 2))
