"""Differential verification harness: every available kernel, side by side.

The pure-Python Dinic kernel and, where it builds, the compiled one answer
the same feasibility question.  This module runs them side by side on the
same ``(instance, m, speed)`` probes and *arbitrates with certificates*:
the backends must agree verdict-for-verdict and each verdict must come with
a certificate that passes the solver-independent checkers — the
certificate, not the majority, is the ground truth.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..model.instance import Instance
from ..model.intervals import Numeric, positive_speed
from ..obs import core as _obs
from ..offline.flow import available_backends, migratory_feasible
from ..offline.optimum import migratory_optimum
from .certify import certify, unsat_certificate
from .checkers import check_certificate


@dataclass(frozen=True)
class DifferentialRecord:
    """One cross-checked probe ``(m, speed)`` on one instance."""

    m: int
    speed: Fraction
    verdicts: Tuple[Tuple[str, bool], ...]  # backend → feasible
    failures: Tuple[str, ...]  # backend disagreements / bad certificates
    #: backend → seconds spent on this probe (verdict + certificate + check),
    #: so disagreement cost is attributable.
    timings: Tuple[Tuple[str, float], ...] = field(default=(), compare=False)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class DifferentialReport:
    """Aggregated outcome of a differential sweep."""

    records: Tuple[DifferentialRecord, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    @property
    def failures(self) -> List[str]:
        return [f for r in self.records for f in r.failures]

    @property
    def backend_seconds(self) -> Dict[str, float]:
        """Total wall time attributed to each backend across all probes."""
        totals: Dict[str, float] = {}
        for r in self.records:
            for backend, sec in r.timings:
                totals[backend] = totals.get(backend, 0.0) + sec
        return totals

    def summary(self) -> str:
        status = "OK" if self.ok else f"FAILED ({len(self.failures)} failures)"
        seconds = self.backend_seconds
        timing = (
            " ["
            + ", ".join(f"{b} {s:.3f}s" for b, s in sorted(seconds.items()))
            + "]"
            if seconds
            else ""
        )
        return f"differential: {len(self.records)} probes {status}{timing}"


def differential_check(
    instance: Instance,
    m: int,
    speed: Numeric = 1,
    backends: Optional[Sequence[str]] = None,
) -> DifferentialRecord:
    """Cross-check one probe: verdicts and certificates of every backend.

    ``backends`` defaults to :func:`~repro.offline.flow.available_backends`
    — every backend this process can actually run (``dinic_c`` drops
    out on compiler-less hosts instead of failing the harness).
    """
    if backends is None:
        backends = available_backends()
    speed = positive_speed(speed)
    failures: List[str] = []
    verdicts: Dict[str, bool] = {}
    timings: List[Tuple[str, float]] = []
    _obs.incr("differential.probes")
    for backend in backends:
        t0 = time.perf_counter()
        with _obs.span("differential.backend", backend=backend, m=m):
            verdict = migratory_feasible(instance, m, speed, backend=backend)
            verdicts[backend] = verdict
            cert = certify(instance, m, speed, backend=backend, check=False)
            if (cert.kind == "feasible") != verdict:
                failures.append(
                    f"{backend}: verdict {verdict} but certificate kind {cert.kind}"
                )
            result = check_certificate(instance, cert)
            if not result.ok:
                failures.append(
                    f"{backend}: invalid {cert.kind} certificate at m={m}: "
                    + "; ".join(result.reasons[:3])
                )
        timings.append((backend, time.perf_counter() - t0))
    if len(set(verdicts.values())) > 1:
        failures.append(f"backends disagree at m={m}: {verdicts}")
        _obs.incr("differential.disagreements")
    return DifferentialRecord(
        m=m,
        speed=speed,
        verdicts=tuple(sorted(verdicts.items())),
        failures=tuple(failures),
        timings=tuple(timings),
    )


def differential_optimum(
    instance: Instance,
    speed: Numeric = 1,
    backends: Optional[Sequence[str]] = None,
) -> DifferentialReport:
    """Cross-check the certified optimum: probes at OPT and OPT − 1.

    Every backend must compute the same optimum; unsatisfiable instances
    (``speed < 1``) must carry a valid degenerate witness instead.
    """
    if backends is None:
        backends = available_backends()
    speed = positive_speed(speed)
    unsat = unsat_certificate(instance, speed)
    if unsat is not None:
        failures: List[str] = []
        result = check_certificate(instance, unsat)
        if not result.ok:
            failures.append("invalid unsat witness: " + "; ".join(result.reasons[:3]))
        record = DifferentialRecord(
            m=-1,
            speed=speed,
            verdicts=tuple((b, False) for b in backends),
            failures=tuple(failures),
        )
        return DifferentialReport((record,))
    optima = {b: migratory_optimum(instance, speed, backend=b) for b in backends}
    records: List[DifferentialRecord] = []
    if len(set(optima.values())) > 1:
        records.append(
            DifferentialRecord(
                m=-1,
                speed=speed,
                verdicts=(),
                failures=(f"backends disagree on the optimum: {optima}",),
            )
        )
    m = max(optima.values())
    records.append(differential_check(instance, m, speed, backends))
    if m > 0:
        records.append(differential_check(instance, m - 1, speed, backends))
    return DifferentialReport(tuple(records))


def differential_sweep(
    instances: Iterable[Instance],
    speeds: Sequence[Numeric] = (1,),
    backends: Optional[Sequence[str]] = None,
    n_jobs: int = 1,
    chunksize: int = 1,
) -> DifferentialReport:
    """Run :func:`differential_optimum` over a corpus of instances/speeds.

    With ``n_jobs != 1`` the probes fan out through :mod:`repro.runner`
    (one work item per instance × speed); the record order and contents are
    bit-identical to the serial path for every worker count.  The backend
    set is resolved *here* (to the available backends by default) so every
    worker cross-checks the same set regardless of its own environment.
    """
    if backends is None:
        backends = available_backends()
    if n_jobs != 1:
        from ..runner import SweepPlan, run_sweep

        plan = SweepPlan.build(
            (
                "differential_optimum",
                instance,
                {"speed": str(positive_speed(speed)), "backends": tuple(backends)},
            )
            for instance in instances
            for speed in speeds
        )
        sweep = run_sweep(plan, n_jobs=n_jobs, chunksize=chunksize)
        failed = sweep.errors + sweep.failed + sweep.crashes + sweep.cancelled
        if failed:
            raise RuntimeError(
                f"differential sweep failed on item {failed[0].index}: "
                f"{failed[0].error}"
            )
        return DifferentialReport(
            tuple(record for records in sweep.values() for record in records)
        )
    records: List[DifferentialRecord] = []
    for instance in instances:
        for speed in speeds:
            records.extend(differential_optimum(instance, speed, backends).records)
    return DifferentialReport(tuple(records))
