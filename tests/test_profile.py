"""Tests for the exact mandatory-load profile (``repro.analysis.profile``)."""

import json
import os

import pytest
from hypothesis import given, settings

from repro.analysis.profile import MandatoryProfile
from repro.generators import uniform_random_instance
from repro.model import Instance, Job
from repro.model.intervals import IntervalUnion
from repro.model.io import load
from repro.offline.optimum import migratory_optimum
from repro.offline.workload import density, single_interval_lower_bound
from repro.verify import check_certificate

from tests import oracles
from tests.strategies import instances_st

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "data", "corpus")

with open(os.path.join(CORPUS_DIR, "expectations.json"), "r", encoding="utf-8") as fh:
    OPTIMA = {
        case["file"]: case["optimum"]
        for case in json.load(fh)["cases"]
        if case["speed"] == "1"
    }

CORPUS_FILES = sorted(
    name for name in os.listdir(CORPUS_DIR)
    if name.endswith(".json") and name != "expectations.json"
)


def assert_densities_exact(instance):
    """Every kept interval's density is Theorem 1's ``C(S, E_k)/|E_k|``,
    and the peak is their maximum."""
    profile = MandatoryProfile.of(instance)
    pairs = list(profile.tables.intervals)
    assert len(profile.loads) == len(pairs)
    for k, (a, b) in enumerate(pairs):
        assert profile.density(k) == density(instance, IntervalUnion.single(a, b))
    assert profile.peak == max(map(profile.density, range(len(pairs))), default=0)


def assert_bound_certified(instance, optimum):
    """The bound is ``optimum``, proved by a checked witness at one less."""
    profile = MandatoryProfile.of(instance)
    assert profile.bound == optimum
    witness = profile.witness
    assert witness.machines == optimum - 1
    assert check_certificate(instance, witness).ok
    assert witness.required_machines(instance) == optimum
    return profile


class TestLoadProfile:
    """The per-interval mandatory densities and their sparkline."""

    def test_empty(self):
        profile = MandatoryProfile.of(Instance([]))
        assert profile.loads == [] and profile.peak == 0
        assert profile.sparkline(8) == " " * 8

    def test_shape(self):
        inst = uniform_random_instance(20, seed=1)
        profile = MandatoryProfile.of(inst)
        assert len(profile.loads) == len(profile.tables.intervals) > 0
        assert min(profile.loads) >= 0
        assert len(profile.sparkline(128)) == 128

    def test_zero_laxity_block_shows_full_density(self):
        inst = Instance([Job(0, 10, 10, id=0), Job(0, 10, 10, id=1)])
        profile = MandatoryProfile.of(inst)
        assert profile.peak == 2
        assert profile.sparkline(10) == "█" * 10

    def test_idle_region_zero(self):
        inst = Instance([Job(7, 1, 8, id=0), Job(107, 1, 108, id=1)])
        profile = MandatoryProfile.of(inst)
        # [8, 107) has no live job: dropped from the network, blank in the
        # sparkline (one column per time unit).
        assert list(profile.tables.intervals) == [(7, 8), (107, 108)]
        assert profile.sparkline(101) == "█" + " " * 99 + "█"

    @given(instances_st(max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_densities_match_theorem_1(self, inst):
        assert_densities_exact(inst)

    def test_densities_match_theorem_1_on_fractional_data(self):
        inst = load(os.path.join(CORPUS_DIR, "fractional_thirds.json"))
        assert MandatoryProfile.of(inst).tables.base_scale > 1
        assert_densities_exact(inst)


class TestApproxBound:
    """The profile's lower bound: OPT itself, with its min-cut witness."""

    def test_empty(self):
        profile = MandatoryProfile.of(Instance([]))
        assert profile.bound == 0 and profile.witness is None

    @given(instances_st(max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_sound_lower_bound(self, inst):
        assert_bound_certified(inst, oracles.migratory_optimum(inst))

    @given(instances_st(max_size=6))
    @settings(max_examples=20, deadline=None)
    def test_at_least_exact_single_interval(self, inst):
        assert MandatoryProfile.of(inst).bound >= single_interval_lower_bound(inst)

    def test_finds_obvious_peak(self, parallel_units):
        profile = assert_bound_certified(parallel_units, 3)
        assert profile.peak == 3

    def test_scales_to_thousands(self):
        inst = uniform_random_instance(2000, horizon=2000, seed=3)
        profile = assert_bound_certified(inst, migratory_optimum(inst))
        assert profile.bound >= oracles.reference_grid_winner(inst)["bound"]


@pytest.mark.parametrize("name", CORPUS_FILES)
def test_corpus_bound_is_the_optimum_and_at_least_the_grid(name):
    instance = load(os.path.join(CORPUS_DIR, name))
    profile = assert_bound_certified(instance, OPTIMA[name])
    assert profile.bound >= oracles.reference_grid_winner(instance)["bound"]
