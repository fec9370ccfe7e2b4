"""Differential testing: flow solver vs independent LP formulation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.model import Instance, Job
from repro.offline.flow import migratory_feasible
from repro.offline.optimum import migratory_optimum

from tests.oracles import lp_feasible
from tests.strategies import instances_st


class TestAgreement:
    def test_known_cases(self, parallel_units, mcnaughton_instance):
        for inst, m, expected in [
            (parallel_units, 2, False),
            (parallel_units, 3, True),
            (mcnaughton_instance, 1, False),
            (mcnaughton_instance, 2, True),
        ]:
            assert lp_feasible(inst, m) is expected
            assert migratory_feasible(inst, m) is expected

    def test_empty(self):
        assert lp_feasible(Instance([]), 0) is True

    def test_zero_machines(self):
        assert lp_feasible(Instance([Job(0, 1, 1, id=0)]), 0) is False

    @given(instances_st(max_size=7))
    @settings(max_examples=40, deadline=None)
    def test_differential_at_optimum(self, inst):
        """Both oracles must agree exactly at m = OPT and m = OPT − 1.

        The boundary is where float LP could disagree; random integer-grid
        instances keep the LP comfortably away from degenerate ties."""
        m = migratory_optimum(inst)
        assert lp_feasible(inst, m) is True
        if m > 1:
            assert lp_feasible(inst, m - 1) is False

    @given(instances_st(max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_differential_with_speed(self, inst):
        m = migratory_optimum(inst, speed=2)
        assert lp_feasible(inst, m, speed=2) is True

    def test_fractional_instance(self):
        inst = Instance(
            [Job(Fraction(1, 3), Fraction(5, 7), Fraction(13, 6), id=0),
             Job(Fraction(1, 2), Fraction(5, 7), Fraction(13, 6), id=1)]
        )
        for m in (1, 2):
            assert lp_feasible(inst, m) == migratory_feasible(inst, m)
