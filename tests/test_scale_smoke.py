"""Scale smoke tests: a feasibility probe and a certify at n = 100,000.

The flat-buffer kernel's contract is that a single warm probe stays linear
in the network size — no quadratic interval indexing, no per-edge Python
object graphs.  This test is the canary: it builds a 100k-job instance,
answers one feasibility question at the window-concurrency upper bound, and
must finish inside a hard wall-clock budget enforced by
:func:`repro.runner.faults.time_limit` (SIGALRM where available).  A
regression to quadratic behaviour blows the budget by an order of
magnitude rather than shaving a margin.

The certify smoke holds the certificate path to the same budget: McNaughton
extraction and the exact one-pass checker on integer ticks must stay near
linear in the segment count (a per-job rescan of every segment, as the
checker once did, needs ~10⁵ × 2·10⁵ segment visits).
"""

from __future__ import annotations

import pytest

from repro.generators import uniform_random_instance
from repro.model import Instance
from repro.offline.feascache import cache_for
from repro.offline.flow import migratory_feasible, resolve_backend
from repro.runner.faults import ItemTimeout, time_limit
from repro.verify import certify

#: Wall-clock budget (seconds) for build + tables + one probe on the
#: fastest available backend (``auto``: dinic_c → dinic).  The
#: observed time on a development machine is ~4 s with the compiled kernel
#: (the probe itself is ~60 ms; the rest is instance + table construction);
#: the budget leaves ~10× headroom for slow compiler-less CI boxes while
#: still catching superlinear blowups (the pre-flat-buffer implementation
#: would need several minutes).
SMOKE_BUDGET_S = 45


@pytest.mark.slow
def test_100k_probe_within_budget():
    backend = resolve_backend()  # the fastest backend this host can run
    jobs = list(uniform_random_instance(100_000, horizon=200_000, seed=42))
    try:
        with time_limit(SMOKE_BUDGET_S, label="n=100k probe"):
            instance = Instance(jobs)
            cache = cache_for(instance)
            hi = cache.window_concurrency
            assert hi > 0
            assert migratory_feasible(instance, hi, backend=backend)
    except ItemTimeout:  # pragma: no cover - the failure mode under test
        pytest.fail(
            f"n=100,000 feasibility probe exceeded {SMOKE_BUDGET_S}s budget "
            f"on backend {backend}"
        )
    # The probe really ran at scale through the sparsified network.
    tables = cache.tables
    assert tables.n_edges >= 100_000  # ≥ one source arc per job
    assert cache.stats.probes == 1


@pytest.mark.slow
def test_100k_certify_within_budget():
    backend = resolve_backend()
    jobs = list(uniform_random_instance(100_000, horizon=200_000, seed=42))
    try:
        with time_limit(SMOKE_BUDGET_S, label="n=100k certify"):
            instance = Instance(jobs)
            m = cache_for(instance).window_concurrency
            cert = certify(instance, m, backend=backend, check=True)
    except ItemTimeout:  # pragma: no cover - the failure mode under test
        pytest.fail(
            f"n=100,000 certify exceeded {SMOKE_BUDGET_S}s budget "
            f"on backend {backend}"
        )
    assert cert.kind == "feasible"
    assert cert.schedule.machines_used <= m
    assert len(cert.schedule) >= 100_000  # ≥ one segment per job
