"""The integer table scan against the former ``Fraction`` sweep.

The feasibility cache builds its network tables with one integer scan of
the jobs (``feascache._build_tables``), and ``tables.intervals`` builds a
kept interval's ``Fraction`` pair from them only when indexed.  The sweep
after the scan runs in the compiled kernel (``repro_sweep``) where it is
available and the values fit int64, else in Python (``kernel.py.sweep``).
The ``Fraction`` sweep they replaced lives on as
``tests/oracles.py::reference_tables``; this module pins both sweeps to it
and pins which pairs each reader builds:

* every table field, the kept pairs of ``tables.intervals``,
  ``base_scale``, ``span_length`` and ``total_work`` equal the
  reference's, through either sweep, on the golden corpus, on generated
  instances and on hypothesis instances built to hit every sweep case
  (mixed denominators, a large common offset, identical, touching and
  nested windows, zero-laxity jobs and idle gaps);
* the compiled sweep builds the corpus and generated tables, and
  ``kernel.py.sweep`` those whose values pass int64;
* the search, the bounds, ``len(tables.intervals)`` and a feasible
  ``certify`` read no pair, an infeasible ``certify`` reads exactly its
  min cut's pairs, and it leaves no object behind on the instance.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators import laminar_instance, uniform_random_instance
from repro.model import Instance, Job
from repro.model.intervals import IntervalUnion
from repro.model.io import load
from repro.offline import kernel
from repro.offline.feascache import KeptIntervals, cache_for
from repro.offline.flow import _DINIC_KERNELS, resolve_backend
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
    "start_base", "len_base", "demand_base", "k0", "k1", "src", "edf",
    "n_nodes", "n_edges", "elementary_count", "dropped",
    "max_live", "zero_laxity_max", "total_demand_base", "base_scale",
)


@contextlib.contextmanager
def pairs_read():
    """The kept indices every ``tables.intervals[k]`` reads, in order."""
    read = []
    real = KeptIntervals.__getitem__

    def spy(self, k):
        read.append(k)
        return real(self, k)

    with mock.patch.object(KeptIntervals, "__getitem__", spy):
        yield read


def cold_cache(instance: Instance, compiled: bool):
    """A cold cache with its tables built, and whether ``kernel.py.sweep``
    built them.

    ``compiled=False`` hides the compiled kernel from the table build, so
    ``kernel.py.sweep`` runs; otherwise the build picks its sweep itself.
    """
    with contextlib.ExitStack() as stack:
        spy = stack.enter_context(
            mock.patch.object(kernel.py, "sweep", wraps=kernel.py.sweep)
        )
        if not compiled:
            stack.enter_context(
                mock.patch.object(kernel, "available", return_value=False)
            )
        cache = cache_for(Instance(list(instance)))
        cache.tables
    return cache, spy.called


def assert_tables_match(instance: Instance, fits_int64: bool = True) -> None:
    """Both sweeps' tables equal the reference's.  Where the compiled
    kernel is available and ``fits_int64`` holds, it must have built its
    leg's tables; where the values pass int64, ``kernel.py.sweep`` must
    have."""
    ref = oracles.reference_tables(instance)
    legs = (False, True) if kernel.available() else (False,)
    for compiled in legs:
        cache, python_swept = cold_cache(instance, compiled)
        if len(instance):  # an empty instance runs neither sweep
            assert python_swept is not (compiled and fits_int64)
        assert_cache_matches(cache, ref)


def assert_cache_matches(cache, ref) -> None:
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
    assert list(tables.intervals) == ref.intervals
    if ref.intervals:  # a list's negative index, and its end
        assert tables.intervals[-1] == ref.intervals[-1]
        with pytest.raises(IndexError):
            tables.intervals[len(ref.intervals)]


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
        fits = instance.max_deadline * cache_for(instance).base_scale < 2**63
        assert_tables_match(instance, fits_int64=fits)

    @pytest.mark.parametrize("offset", [2**63 + 1, -(2**63) - 5])
    def test_values_past_int64_take_the_python_sweep(self, offset):
        jobs = [Job(offset, 2, offset + 3, id=0),
                Job(offset + 1, Fraction(1, 3), offset + 2, id=1),
                Job(offset + 5, 1, offset + 6, id=2)]
        assert_tables_match(Instance(jobs), fits_int64=False)

    def test_span_past_int64_takes_the_python_sweep(self):
        """Every value fits int64, their span does not."""
        jobs = [Job(-(2**62), 1, -(2**62) + 1, id=0),
                Job(2**62, 1, 2**62 + 1, id=1)]
        assert_tables_match(Instance(jobs), fits_int64=False)

    def test_total_demand_past_int64_takes_the_python_sweep(self):
        jobs = [Job(0, 2**62, 2**62, id=i) for i in range(3)]
        assert_tables_match(Instance(jobs), fits_int64=False)


class TestLaziness:
    @pytest.mark.parametrize("case", [c for c in CASES if not c.get("unsat")],
                             ids=lambda c: f"{c['file']}@s={c['speed']}")
    def test_search_and_bounds_build_no_interval_list(self, case):
        """The search, the bounds, the network size and a feasible
        certificate (extracted from the integer bounds) read no pair."""
        instance = load(os.path.join(CORPUS_DIR, case["file"]))
        speed = Fraction(case["speed"])
        with pairs_read() as read:
            assert migratory_optimum(instance, speed) == case["optimum"]
            window_concurrency(instance)
            scaled_lower_bound(instance, speed)
            tables = cache_for(instance).tables
            assert len(tables.intervals) == (
                tables.elementary_count - tables.dropped
            )
            assert certify(instance, case["optimum"], speed).kind == "feasible"
        assert read == []

    @pytest.mark.parametrize("name", FILES)
    def test_certify_builds_only_the_kept_list(self, name):
        """An infeasible certificate's min-cut region reads exactly the
        cut's kept pairs, once each, in order (at m − 1 = 0 the witness is
        the whole instance, which reads none)."""
        instance = load(os.path.join(CORPUS_DIR, name))
        m = migratory_optimum(instance)
        with pairs_read() as read:
            cert = certify(instance, m - 1)
        assert cert.kind == "infeasible"
        if m == 1:
            assert read == []
            return
        network = cache_for(instance).solved_network(
            m - 1, Fraction(1), _DINIC_KERNELS[resolve_backend()]
        )
        _, cut = network.min_cut()
        assert read == cut != []
        ref = oracles.reference_tables(instance).intervals
        assert cert.region == IntervalUnion.from_pairs(ref[k] for k in cut)

    def test_infeasible_certify_keeps_no_objects(self):
        """A dropped infeasible certificate leaves no tracked object on the
        warm instance: its pairs go with it."""
        certify(Instance([Job(0, 2, 2, id=0), Job(0, 2, 2, id=1)]), 1)  # warm-up
        instance = uniform_random_instance(2000, horizon=4000, seed=3)
        m = migratory_optimum(instance)
        gc.collect()
        before = len(gc.get_objects())
        assert certify(instance, m - 1).kind == "infeasible"
        gc.collect()
        assert len(gc.get_objects()) <= before
