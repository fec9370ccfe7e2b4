"""Differential tests: the Dinic kernels vs. the networkx oracle.

The dedicated Dinic solver (``repro.offline.dinic``) is the only runtime
flow path; the generic networkx formulation lives in ``tests/oracles.py``
precisely so the two independent implementations can be cross-checked.
Property tests here assert they agree on ``(feasible, total flow)`` across
random, laminar, and agreeable instances, with fractional data and speeds
below 1, and that the oracle's own certificates — its flow as a schedule,
its minimum cut as a Theorem 1 witness — pass the solver-independent
checker.  When the compiled kernel is available, ``dinic_c`` joins the
cross-check and must reproduce the python kernel's work map exactly, and
on large-denominator instances at the int64 edge (``TestInt64Edge``) the
two kernels must give the same verdict or both raise ``OverflowError``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adversary.migration_gap import MigrationGapAdversary
from repro.generators import agreeable_instance, laminar_instance
from repro.model import Instance, Job
from repro.offline import kernel as _kernel
from repro.offline.flow import max_flow_assignment, migratory_feasible
from repro.offline.optimum import migratory_optimum
from repro.online import FirstFitEDF
from repro.verify import check_certificate

from tests import oracles
from tests.strategies import instances_st

SPEEDS = [
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(3, 2),
    Fraction(2),
]

speeds_st = st.sampled_from(SPEEDS)
machines_st = st.integers(0, 5)


@st.composite
def fractional_instances_st(draw, max_size: int = 6):
    """Instances with non-integer releases/processing times/deadlines."""
    n = draw(st.integers(1, max_size))
    jobs = []
    for i in range(n):
        denom = draw(st.sampled_from([1, 2, 3, 4]))
        release = Fraction(draw(st.integers(0, 40)), denom)
        processing = Fraction(draw(st.integers(1, 12)), denom)
        slack = Fraction(draw(st.integers(0, 16)), denom)
        jobs.append(Job(release, processing, release + processing + slack, id=i))
    return Instance(jobs)


#: The eight largest primes below 10⁶.
PRIMES_1E6 = (999983, 999979, 999961, 999959, 999953, 999931, 999917, 999907)


@st.composite
def large_denominator_instances_st(draw, max_size: int = 6):
    """Jobs whose denominators are 1 or one to three of :data:`PRIMES_1E6`.

    Three such primes make a base scale near 10¹⁸: the scaled times of
    these short windows still fit int64, while the total demand of a few
    jobs may not — the int64 edge, where the kernels must still agree.
    """
    primes = draw(
        st.lists(st.sampled_from(PRIMES_1E6), min_size=1, max_size=3, unique=True)
    )
    denominators = st.sampled_from((1, *primes))
    jobs = []
    for i in range(draw(st.integers(1, max_size))):
        q = draw(denominators)
        release = Fraction(draw(st.integers(0, 2 * q)), q)
        q = draw(denominators)
        processing = Fraction(draw(st.integers(q, 4 * q)), q)
        q = draw(denominators)
        slack = Fraction(draw(st.integers(0, q)), q)
        jobs.append(Job(release, processing, release + processing + slack, id=i))
    return Instance(jobs)


def cold_verdict(instance: Instance, m: int, backend: str):
    """``migratory_feasible`` on a cold copy of ``instance``, or
    ``OverflowError`` when it raises one."""
    try:
        return migratory_feasible(Instance(list(instance)), m, backend=backend)
    except OverflowError:
        return OverflowError


def assert_backends_agree(instance: Instance, m: int, speed: Fraction) -> None:
    """Kernels and oracle: same verdict and the same maximum-flow value.

    The oracle's network is unsparsified, so this also checks that the
    kernels drop exactly the intervals no window covers.

    The compiled kernel must match the python kernel *bit for bit* — same
    work map, not just the same total — because it is the same algorithm on
    the same buffers; on compiler-less hosts that leg drops out and the
    dinic-vs-networkx check still runs.
    """
    fd, wd, ivd = max_flow_assignment(instance, m, speed, backend="dinic")
    fn, wn, ivn = oracles.max_flow_assignment(instance, m, speed)
    assert fd == fn
    # The oracle builds over every elementary interval; the kernels keep
    # exactly those some job window covers.
    assert ivd == [
        (a, b) for a, b in ivn
        if any(j.release <= a and b <= j.deadline for j in instance)
    ]
    total_d = sum((sum(row.values(), Fraction(0)) for row in wd.values()), Fraction(0))
    total_n = sum((sum(row.values(), Fraction(0)) for row in wn.values()), Fraction(0))
    assert total_d == total_n
    assert migratory_feasible(instance, m, speed, backend="dinic") == fn
    # At infeasible probes this wraps the oracle's networkx_min_cut witness
    # in an InfeasibleCertificate; feasible ones extract its flow.
    cert = oracles.certify(instance, m, speed)
    assert cert.kind == ("feasible" if fn else "infeasible")
    assert check_certificate(instance, cert).ok
    if _kernel.available():
        fc, wc, ivc = max_flow_assignment(instance, m, speed, backend="dinic_c")
        assert (fc, ivc) == (fd, ivd)
        assert wc == wd
        assert migratory_feasible(instance, m, speed, backend="dinic_c") == fd


class TestBackendsAgree:
    @given(instances_st(max_size=7), machines_st, speeds_st)
    @settings(max_examples=60, deadline=None)
    def test_random_instances(self, inst, m, speed):
        assert_backends_agree(inst, m, speed)

    @given(fractional_instances_st(), machines_st, speeds_st)
    @settings(max_examples=60, deadline=None)
    def test_fractional_instances(self, inst, m, speed):
        assert_backends_agree(inst, m, speed)

    @given(
        st.integers(1, 2),
        st.integers(2, 3),
        st.integers(1, 2),
        st.integers(0, 1000),
        machines_st,
        speeds_st,
    )
    @settings(max_examples=40, deadline=None)
    def test_laminar_instances(self, depth, fanout, per_node, seed, m, speed):
        inst = laminar_instance(
            depth, fanout=fanout, jobs_per_node=per_node, seed=seed
        )
        assert_backends_agree(inst, m, speed)

    @given(st.integers(1, 9), st.integers(0, 1000), machines_st, speeds_st)
    @settings(max_examples=40, deadline=None)
    def test_agreeable_instances(self, n, seed, m, speed):
        inst = agreeable_instance(n, seed=seed)
        assert inst.is_agreeable()
        assert_backends_agree(inst, m, speed)


class TestOptimumAgrees:
    @given(instances_st(max_size=6), st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)]))
    @settings(max_examples=30, deadline=None)
    def test_optimum_matches_networkx(self, inst, speed):
        assert migratory_optimum(inst, speed, backend="dinic") == (
            oracles.migratory_optimum(inst, speed)
        )

    @given(fractional_instances_st(max_size=5))
    @settings(max_examples=20, deadline=None)
    def test_fractional_optimum_matches(self, inst):
        assert migratory_optimum(inst, backend="dinic") == (
            oracles.migratory_optimum(inst)
        )

    @given(instances_st(max_size=6), st.sampled_from([Fraction(1), Fraction(1, 2)]))
    @settings(max_examples=30, deadline=None)
    def test_compiled_optimum_matches(self, inst, speed):
        if not _kernel.available():
            return
        if speed < 1 and any(j.processing > speed * j.window for j in inst):
            return  # unsatisfiable at every m for both backends
        assert migratory_optimum(inst, speed, backend="dinic_c") == (
            migratory_optimum(inst, speed, backend="dinic")
        )


class TestOracleScale:
    def test_oracle_answers_past_int64(self):
        """The oracle keeps its own exact scale, so it answers where the
        library's int64 tables cannot: the depth-6 Lemma 2 adversary
        (n = 63, an 87-bit base scale) has OPT 2, with a checked witness,
        and the instance's feasibility cache stays unbuilt."""
        instance = MigrationGapAdversary(FirstFitEDF(), machines=9).run(6).instance
        assert oracles.reference_base_scale(instance).bit_length() == 87
        verdicts = [oracles.max_flow_assignment(instance, m)[0] for m in (1, 2, 3, 4)]
        assert verdicts == [False, True, True, True]
        assert oracles.migratory_optimum(instance) == 2
        cert = oracles.certify(instance, 2)
        assert cert.kind == "feasible"
        assert check_certificate(instance, cert).ok
        assert instance._feas_cache is None


@pytest.mark.skipif(not _kernel.available(), reason="no compiled kernel")
class TestInt64Edge:
    @given(large_denominator_instances_st())
    @settings(max_examples=100, deadline=None)
    def test_kernels_agree_or_both_overflow(self, inst):
        """One answer per instance at every m from 1 to n + 1: the same
        verdict on both kernels, or ``OverflowError`` on both."""
        for m in range(1, len(inst) + 2):
            assert cold_verdict(inst, m, "dinic") == cold_verdict(
                inst, m, "dinic_c"
            ), m
