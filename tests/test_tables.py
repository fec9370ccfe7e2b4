"""The integer table scan against the former ``Fraction`` sweep.

The feasibility cache builds its network tables with one integer scan of
the jobs (``feascache._build_tables``) and builds the ``Fraction`` interval
lists only on demand.  The ``Fraction`` sweep it replaced lives on as
``tests/oracles.py::reference_tables``; this module pins the two to each
other and pins the laziness:

* every table field, both interval lists, ``base_scale``, ``span_length``
  and ``total_work`` equal the reference's, on the golden corpus, on
  generated instances and on hypothesis instances built to hit every sweep
  case (mixed denominators, a large common offset, identical, touching and
  nested windows, zero-laxity jobs and idle gaps);
* the search, the bounds and ``len(tables.intervals)`` build no
  ``Fraction`` interval list, ``certify`` builds only the kept one, and the
  two lists share one tuple per kept interval whichever is built first.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import laminar_instance, uniform_random_instance
from repro.model import Instance, Job
from repro.model.io import load
from repro.offline.feascache import cache_for
from repro.offline.optimum import migratory_optimum, window_concurrency
from repro.offline.workload import scaled_lower_bound
from repro.verify import certify

from tests import oracles

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "data", "corpus")

with open(os.path.join(CORPUS_DIR, "expectations.json"), encoding="utf-8") as fh:
    CASES = json.load(fh)["cases"]

FILES = sorted({case["file"] for case in CASES})

#: Every integer field of the tables, compared value and type.
FIELDS = (
    "len_base", "demand_base", "k0", "k1", "src", "edf",
    "n_nodes", "n_edges", "elementary_count", "dropped",
    "max_live", "zero_laxity_max", "total_demand_base", "base_scale",
)


def _built(tables):
    """Which Fraction interval lists exist: ``(elementary, kept)``."""
    return tables._elementary is not None, tables._kept_pairs is not None


def assert_tables_match(instance: Instance) -> None:
    ref = oracles.reference_tables(instance)
    for kept_first in (True, False):
        cache = cache_for(Instance(list(instance)))  # a cold cache each pass
        tables = cache.tables
        for name in FIELDS:
            got, want = getattr(tables, name), getattr(ref, name)
            assert got == want, name
            assert type(got) is type(want), name
            assert getattr(got, "typecode", None) == getattr(want, "typecode", None)
        assert len(tables.intervals) == len(ref.intervals)
        assert cache.base_scale == ref.base_scale
        assert cache.span_length == ref.span_length
        assert cache.total_work == ref.total_work
        assert cache.window_concurrency == ref.max_live
        assert cache.zero_laxity_concurrency == ref.zero_laxity_max
        if kept_first:
            kept, elementary = cache.network_intervals, cache.intervals
        else:
            elementary, kept = cache.intervals, cache.network_intervals
        assert kept == ref.intervals
        assert elementary == ref.elementary
        assert list(tables.intervals) == ref.intervals


@st.composite
def sweep_instances(draw, max_jobs: int = 8):
    """Windows drawn to hit every case of the sweep."""
    denominators = st.sampled_from([1, 2, 3, 4, 5, 6, 7])
    offset = draw(st.sampled_from([0, 10**9, 2**63 + 1]))
    jobs = []
    for i in range(draw(st.integers(1, max_jobs))):
        kind = draw(st.sampled_from(["fresh", "same", "touch", "nest"]))
        if not jobs or kind == "fresh":
            dr, dw = draw(denominators), draw(denominators)
            gap = draw(st.integers(0, 2)) * 100  # bursts with idle time between
            release = offset + gap + Fraction(draw(st.integers(0, 10 * dr)), dr)
            window = Fraction(draw(st.integers(1, 8 * dw)), dw)
        else:
            other = draw(st.sampled_from(jobs))
            if kind == "same":
                release, window = other.release, other.window
            elif kind == "touch":
                dw = draw(denominators)
                release = other.deadline
                window = Fraction(draw(st.integers(1, 8 * dw)), dw)
            else:  # nested inside the other window
                lead = Fraction(draw(st.integers(0, 3)), 4)
                release = other.release + lead * other.window
                window = (other.deadline - release) * Fraction(
                    draw(st.integers(1, 4)), 4
                )
        if draw(st.booleans()):
            processing = window  # zero laxity
        else:
            processing = window * Fraction(draw(st.integers(1, 7)), 8)
        jobs.append(Job(release, processing, release + window, id=i))
    return Instance(jobs)


class TestAgainstReference:
    @pytest.mark.parametrize("name", FILES)
    def test_golden_corpus(self, name):
        assert_tables_match(load(os.path.join(CORPUS_DIR, name)))

    @pytest.mark.parametrize(
        "instance",
        [
            uniform_random_instance(2000, horizon=4000, seed=3),
            uniform_random_instance(500, horizon=50, seed=4),  # many shared points
            laminar_instance(5, fanout=3, seed=5),
        ],
        ids=["uniform-2000", "uniform-dense", "laminar"],
    )
    def test_generated(self, instance):
        assert_tables_match(instance)

    def test_empty_instance(self):
        assert_tables_match(Instance([]))

    @given(sweep_instances())
    @settings(max_examples=150, deadline=None)
    def test_sweep_cases(self, instance):
        assert_tables_match(instance)


class TestLaziness:
    @pytest.mark.parametrize("case", [c for c in CASES if not c.get("unsat")],
                             ids=lambda c: f"{c['file']}@s={c['speed']}")
    def test_search_and_bounds_build_no_interval_list(self, case):
        instance = load(os.path.join(CORPUS_DIR, case["file"]))
        speed = Fraction(case["speed"])
        assert migratory_optimum(instance, speed) == case["optimum"]
        window_concurrency(instance)
        scaled_lower_bound(instance, speed)
        tables = cache_for(instance).tables
        assert len(tables.intervals) == tables.elementary_count - tables.dropped
        assert _built(tables) == (False, False)

    @pytest.mark.parametrize("name", FILES)
    def test_certify_builds_only_the_kept_list(self, name):
        instance = load(os.path.join(CORPUS_DIR, name))
        m = migratory_optimum(instance)
        tables = cache_for(instance).tables
        assert certify(instance, m).kind == "feasible"
        assert _built(tables) == (False, True)
        assert certify(instance, m - 1).kind == "infeasible"
        assert _built(tables) == (False, True)

    @pytest.mark.parametrize("kept_first", [True, False])
    @pytest.mark.parametrize("name", FILES)
    def test_kept_pairs_are_elementary_tuples(self, name, kept_first):
        cache = cache_for(load(os.path.join(CORPUS_DIR, name)))
        tables = cache.tables
        if kept_first:
            kept, elementary = cache.network_intervals, cache.intervals
        else:
            elementary, kept = cache.intervals, cache.network_intervals
        assert _built(tables) == (True, True)
        assert len(kept) == len(tables.kept)
        for k, pair in zip(tables.kept, kept):
            assert pair is elementary[k]
        # Built once: later reads return the same lists.
        assert cache.intervals is elementary
        assert cache.network_intervals is kept
