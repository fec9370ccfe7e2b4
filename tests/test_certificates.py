"""Property-based round-trip tests for the certificate layer.

For random instances (both flow backends, several speeds):

* ``certified_optimum`` returns a feasible certificate at ``m`` whose
  schedule passes ``Schedule.verify`` with exact arithmetic on ≤ m machines,
  and an infeasible certificate at ``m − 1`` satisfying
  ``ceil(C_s(S,I)/(s·|I|)) > m − 1`` by direct ``Fraction`` arithmetic;
* corrupted certificates are *rejected* by the checkers — the checkers, not
  the solver, are the trust anchor, so they get adversarial tests of their
  own.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import Instance, Job, Schedule, Segment
from repro.model.intervals import IntervalUnion
from repro.offline.feascache import cache_for
from repro.offline.flow import available_backends
from repro.verify import (
    FeasibleCertificate,
    InfeasibleCertificate,
    Unsatisfiable,
    CertificationError,
    certificate_from_dict,
    certified_optimum,
    certify,
    check_certificate,
    mandatory_work,
    unsat_certificate,
)

from tests.strategies import instances_st

SPEEDS = [Fraction(1), Fraction(1, 2), Fraction(3, 2)]

backends_st = st.sampled_from(available_backends())
speeds_st = st.sampled_from(SPEEDS)


def assert_certified_optimum(instance: Instance, speed: Fraction, backend: str) -> None:
    try:
        co = certified_optimum(instance, speed, backend=backend, check=False)
    except Unsatisfiable as exc:
        # Degenerate witness: some job cannot finish at any machine count.
        cert = exc.certificate
        assert cert.region.length == 0
        assert check_certificate(instance, cert).ok, cert.describe(instance)
        assert any(
            instance.job(j).processing > speed * instance.job(j).window
            for j in cert.jobs
        )
        return

    m = co.machines
    feas = co.feasible
    assert feas.machines == m
    report = feas.schedule.verify(instance, speed, machines=m)
    assert report.feasible, (
        f"feasible certificate rejected at m={m}: {report.violations[:3]} "
        f"(backend {backend})"
    )

    if m > 0:
        infeas = co.infeasible
        assert infeas is not None
        assert infeas.machines == m - 1
        assert check_certificate(instance, infeas).ok, infeas.describe(instance)
        # The Theorem 1 arithmetic, redone from scratch right here:
        contribution = sum(
            (mandatory_work(instance.job(j), infeas.region, speed)
             for j in set(infeas.jobs)),
            Fraction(0),
        )
        length = infeas.region.length
        if length == 0:
            assert contribution > 0
        else:
            assert ceil(contribution / (speed * length)) > m - 1
            assert contribution > (m - 1) * speed * length


class TestRoundTrip:
    """Acceptance: 200 random instances, certified on both backends."""

    @given(instances_st(max_size=7), speeds_st, backends_st)
    @settings(max_examples=200, deadline=None)
    def test_certified_optimum_round_trip(self, inst, speed, backend):
        assert_certified_optimum(inst, speed, backend)

    @given(instances_st(max_size=6), st.integers(0, 4), backends_st)
    @settings(max_examples=60, deadline=None)
    def test_certify_matches_kind(self, inst, m, backend):
        """certify(m) returns a *checked* certificate matching the verdict."""
        from repro.offline.flow import migratory_feasible

        cert = certify(inst, m, backend=backend)  # check=True: must not raise
        assert (cert.kind == "feasible") == migratory_feasible(
            inst, m, backend=backend
        )

    @given(instances_st(max_size=6), speeds_st)
    @settings(max_examples=40, deadline=None)
    def test_serialization_round_trip(self, inst, speed):
        try:
            co = certified_optimum(inst, speed)
        except Unsatisfiable as exc:
            co = None
            certs = [exc.certificate]
        else:
            certs = [c for c in (co.feasible, co.infeasible) if c is not None]
        for cert in certs:
            clone = certificate_from_dict(cert.to_dict())
            assert clone.kind == cert.kind
            assert clone.machines == cert.machines
            assert clone.speed == cert.speed
            assert check_certificate(inst, clone).ok


class TestCopies:
    """Certificates cross process boundaries (a sweep task may return one)
    and get deep-copied: a schedule survives both with its runs."""

    @pytest.mark.parametrize("copy_of", [
        lambda cert: pickle.loads(pickle.dumps(cert)), copy.deepcopy,
    ], ids=["pickle", "deepcopy"])
    def test_feasible_certificate_survives(self, copy_of):
        inst = Instance([Job(0, 2, 3, id=i) for i in range(3)])
        for cert in (certify(inst, 2), FeasibleCertificate(
            2, Fraction(1), Schedule([Segment(0, 0, 0, Fraction(1, 2))])
        )):
            clone = copy_of(cert)
            assert clone.schedule is not cert.schedule
            assert clone.schedule.segments == cert.schedule.segments
            assert clone.schedule.verify(inst, machines=2) == (
                cert.schedule.verify(inst, machines=2)
            )
            assert clone.to_dict() == cert.to_dict()


class TestCheckersRejectCorruption:
    """The checkers must catch doctored witnesses (mutation-gate support)."""

    def _instance(self) -> Instance:
        return Instance([Job(0, 2, 3, id=i) for i in range(3)])

    def test_feasible_cert_with_dropped_segment_fails(self):
        inst = self._instance()
        cert = certified_optimum(inst).feasible
        broken = FeasibleCertificate(
            cert.machines, cert.speed, Schedule(list(cert.schedule)[:-1])
        )
        assert not check_certificate(inst, broken).ok

    def test_feasible_cert_over_machine_budget_fails(self):
        inst = self._instance()
        schedule = Schedule([Segment(i, i, 0, 2) for i in range(3)])
        assert schedule.verify(inst).feasible  # fine on 3 machines...
        cert = FeasibleCertificate(2, Fraction(1), schedule)
        result = check_certificate(inst, cert)  # ...but not as an m=2 witness
        assert not result.ok
        assert any("machines" in r for r in result.reasons)

    def test_infeasible_cert_with_weak_region_fails(self):
        inst = self._instance()
        # [0, 30) dilutes the overload: C(S, I) = 6 <= 1·1·30.
        cert = InfeasibleCertificate(
            1, Fraction(1), (0, 1, 2), IntervalUnion.single(0, 30)
        )
        assert not check_certificate(inst, cert).ok

    def test_infeasible_cert_with_unknown_jobs_fails(self):
        inst = self._instance()
        cert = InfeasibleCertificate(
            1, Fraction(1), (0, 99), IntervalUnion.single(0, 3)
        )
        result = check_certificate(inst, cert)
        assert not result.ok
        assert any("unknown" in r for r in result.reasons)

    def test_duplicate_job_ids_not_double_counted(self):
        inst = self._instance()
        # S = (0, 0): one job's mandatory work (2) does not beat capacity 3.
        cert = InfeasibleCertificate(
            1, Fraction(1), (0, 0), IntervalUnion.single(0, 3)
        )
        assert not check_certificate(inst, cert).ok

    def test_require_raises(self):
        inst = self._instance()
        cert = InfeasibleCertificate(5, Fraction(1), (0,), IntervalUnion.single(0, 3))
        with pytest.raises(CertificationError):
            check_certificate(inst, cert).require()


class TestCacheReuse:
    """Satellite fix: schedule extraction must not re-solve feasibility."""

    def test_optimal_schedule_reuses_binary_search_flow(self):
        from repro.offline.optimum import optimal_migratory_schedule

        inst = Instance([Job(i % 4, 3, (i % 4) + 9, id=i) for i in range(12)])
        m = certified_optimum(inst).machines  # warm the cache
        cache = cache_for(inst)
        probes_before = cache.stats.probes
        builds_before = cache.stats.network_builds
        m2, schedule = optimal_migratory_schedule(inst)
        assert m2 == m
        assert schedule is not None
        assert schedule.verify(inst, machines=m).feasible
        # Extraction rode the cached residual flow: no new probes, no builds.
        assert cache.stats.probes == probes_before
        assert cache.stats.network_builds == builds_before

    def test_certify_reuses_cached_verdicts(self):
        inst = Instance([Job(0, 2, 3, id=i) for i in range(3)])
        certified_optimum(inst)
        cache = cache_for(inst)
        probes_before = cache.stats.probes
        certified_optimum(inst)  # every probe answered from the memo
        assert cache.stats.probes == probes_before


def test_unsat_certificate_none_when_satisfiable():
    inst = Instance([Job(0, 2, 3, id=0)])
    assert unsat_certificate(inst, Fraction(1)) is None
    assert unsat_certificate(inst, Fraction(2, 3)) is None
    cert = unsat_certificate(inst, Fraction(1, 2))
    assert cert is not None and check_certificate(inst, cert).ok
