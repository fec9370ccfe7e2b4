"""The compiled Dinic kernel: build cache, fallback ladder, bit-identity.

Four angles on ``repro.offline.kernel``:

* **Build cache** — the shared object is compiled once per source content
  into ``REPRO_KERNEL_CACHE``; a second load is a pure ``dlopen`` (cache
  hit, no compiler), and a warm cache keeps working after the compiler
  disappears.
* **Fallback ladder** — with no compiler and a cold cache (or with
  ``REPRO_DINIC_C=off``) the kernel reports unavailable,
  ``kernel.get("c")`` raises, ``auto`` resolves past ``dinic_c``, and the
  solver stack keeps answering; only an *explicit* ``backend="dinic_c"``
  request surfaces :class:`KernelUnavailable`.
* **Bit-identity** — the C kernel is the same algorithm as the python
  kernel on the same buffers, so its residual capacity array (not just the
  flow value) must match byte for byte, on random CSR graphs and through
  the full certificate pipeline over the golden corpus.
* **Kill set** (``TestKillSet``) — small deterministic py-vs-c equality
  checks wired into ``tools/mutation_smoke.py``; with ``auto`` resolving
  to ``dinic_c`` everywhere else, these are what keep mutants of the
  python kernel (its drain included) and of the C dispatch dead.
* **The int64 edge** (``TestInt64Edge``) — where a capacity passes int64
  both kernels raise ``OverflowError``, and the probe leaves nothing
  behind; none wraps into a different answer.
"""

from __future__ import annotations

import json
import os
import random
import time
from array import array
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.generators import uniform_random_instance
from repro.model import Instance, Job
from repro.model.io import load
from repro.offline import kernel
from repro.offline.dinic import FeasibilityNetwork
from repro.offline.feascache import cache_for
from repro.offline.flow import (
    available_backends,
    migratory_feasible,
    resolve_backend,
)
from repro.offline.kernel import KernelUnavailable
from repro.offline.kernel.codegen import ABI_VERSION, source_hash
from repro.offline.optimum import migratory_optimum, window_concurrency
from repro.offline.workload import scaled_lower_bound
from repro.verify import Unsatisfiable, certified_optimum, certify

from tests import oracles
from tests.strategies import instances_st

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "data", "corpus")

with open(os.path.join(CORPUS_DIR, "expectations.json"), "r", encoding="utf-8") as fh:
    CORPUS_CASES = json.load(fh)["cases"]

HAVE_COMPILER = kernel.find_compiler() is not None

needs_compiler = pytest.mark.skipif(
    not HAVE_COMPILER, reason="no C compiler on this host"
)


@pytest.fixture(autouse=True)
def _neutral_disable_knob(monkeypatch):
    """Shield this module from an ambient ``REPRO_DINIC_C=off``.

    The no-kernel CI leg disables the compiled kernel for the *product*
    code, but this file tests the kernel machinery itself and sets the
    knob explicitly where the disabled path is under test
    (``test_disable_env_wins_even_with_compiler``).  Without this, the
    build-cache and bit-identity tests would fail on that leg instead of
    exercising the real build.
    """
    if os.environ.get(kernel.DISABLE_ENV):
        monkeypatch.delenv(kernel.DISABLE_ENV)
        kernel.reset()
        yield
        kernel.reset()
    else:
        yield


@pytest.fixture
def kernel_memo():
    """Reset the process-wide kernel memo around a test that flips env knobs.

    The memo is reset again at teardown so later tests re-resolve against
    the real environment (their first load is a cache hit on the real
    cache, no compiler needed).
    """
    kernel.reset()
    yield
    kernel.reset()


def random_csr(rng: random.Random, n: int, arcs: int):
    """A random small flow network in CSR form: ``[n, to, head, elist,
    cap]`` as the ``py`` kernel reads them (paired edges, reverse at
    ``e ^ 1``)."""
    to, caps = [], []
    for _ in range(arcs):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            to += (v, u)
            caps += (rng.randrange(0, 9), 0)
    head, elist = oracles.reference_csr(n, to)
    return [n, to, head, elist, array("q", caps)]


def clone(d: list) -> list:
    """The same network as the compiled kernel reads it: int32 topology
    and a private cap copy."""
    n, to, head, elist, cap = d
    return [n, array("i", to), array("i", head), array("i", elist),
            array("q", cap)]


def max_flow(d: list, s: int, t: int, name: str, limit=None) -> int:
    """One ``max_flow`` call of the kernel called ``name`` on ``d``."""
    return kernel.get(name).max_flow(*d, s, t, limit)


def downward_probes(instance: Instance, speed: Fraction) -> list:
    """A probe sequence with fresh downward steps (drains), not restores:
    window concurrency, the lower bound, their midpoint, back up, then
    below the lower bound."""
    hi = window_concurrency(instance)
    lo = max(1, scaled_lower_bound(instance, speed))
    return [hi, lo, (lo + hi) // 2, hi + 1, max(1, lo - 1)]


def probe_trail(instance: Instance, speed: Fraction, kern: str, probes) -> list:
    """``(flow, cap bytes, dinic.flow_drained so far)`` after every probe
    of a cold cache on ``kern``."""
    cache = cache_for(Instance(list(instance)))
    trail = []
    with obs.capture() as reg:
        for m in probes:
            net = cache.solved_network(m, speed, kern)
            drained = reg.snapshot()["counters"].get("dinic.flow_drained", 0)
            trail.append((net.flow, net.cap.tobytes(), drained))
    return trail


def pieces(work) -> list:
    """A flow's :class:`~repro.offline.dinic.FlowPieces` as plain lists
    (``offsets``, ``jobs``, ``amounts``, ``ids``), whichever kernel
    gathered them."""
    return [list(part) for part in work[:4]]


def cert_dict(cert) -> dict:
    """A certificate's payload without the solver-effort bookkeeping.

    ``cache_stats`` counts probes against the *shared* per-instance cache,
    so the second backend to run sees larger totals; the witness itself —
    schedule or overloaded set — is what must be identical.
    """
    payload = cert.to_dict()
    payload.pop("cache_stats", None)
    return payload


class TestBuildCache:
    @needs_compiler
    def test_cold_build_then_cache_hit(self, kernel_memo, monkeypatch, tmp_path):
        monkeypatch.setenv(kernel.CACHE_ENV, str(tmp_path))
        kernel.reset()
        kernel.load()
        first = kernel.build_info()
        assert first["available"] is True
        assert first["cache_hit"] is False
        assert first["compiler"]
        assert first["path"].startswith(str(tmp_path))
        assert first["key"] == source_hash()

        kernel.reset()
        kernel.load()
        second = kernel.build_info()
        assert second["cache_hit"] is True
        assert second["compiler"] is None
        assert second["path"] == first["path"]

    @needs_compiler
    def test_warm_cache_needs_no_compiler(self, kernel_memo, monkeypatch, tmp_path):
        monkeypatch.setenv(kernel.CACHE_ENV, str(tmp_path))
        kernel.reset()
        kernel.load()  # compile into the fresh cache

        # The compiler vanishes; the cached object must still dlopen.
        monkeypatch.setenv(kernel.CC_ENV, str(tmp_path / "no-such-cc"))
        kernel.reset()
        assert kernel.find_compiler() is None
        kernel.load()
        assert kernel.build_info()["cache_hit"] is True

    @needs_compiler
    def test_cache_key_is_content_addressed(self, kernel_memo, monkeypatch, tmp_path):
        monkeypatch.setenv(kernel.CACHE_ENV, str(tmp_path))
        kernel.reset()
        kernel.load()
        info = kernel.build_info()
        # The object lives under a prefix of the source hash, so editing
        # the generated C (or bumping ABI_VERSION) can never collide with
        # this directory.
        assert ABI_VERSION == 4
        assert os.path.dirname(info["path"]).endswith(info["key"][:24])


class TestFallbackLadder:
    def test_no_compiler_cold_cache_unavailable(self, kernel_memo, monkeypatch, tmp_path):
        monkeypatch.setenv(kernel.CACHE_ENV, str(tmp_path / "empty"))
        monkeypatch.setenv(kernel.CC_ENV, str(tmp_path / "no-such-cc"))
        kernel.reset()
        with pytest.raises(KernelUnavailable):
            kernel.load()
        assert not kernel.available()
        with pytest.raises(KernelUnavailable):
            kernel.get("c")
        assert resolve_backend("auto") == "dinic"
        assert "dinic_c" not in available_backends()
        assert "error" in kernel.build_info()

    def test_disable_env_wins_even_with_compiler(self, kernel_memo, monkeypatch):
        monkeypatch.setenv(kernel.DISABLE_ENV, "off")
        kernel.reset()
        assert kernel.disabled()
        assert not kernel.available()
        assert resolve_backend("auto") != "dinic_c"
        assert kernel.build_info()["disabled"] is True

    def test_auto_still_solves_without_kernel(self, kernel_memo, monkeypatch, tmp_path):
        monkeypatch.setenv(kernel.CACHE_ENV, str(tmp_path / "empty"))
        monkeypatch.setenv(kernel.CC_ENV, str(tmp_path / "no-such-cc"))
        kernel.reset()
        inst = Instance([Job(0, 2, 3, id=i) for i in range(3)])
        assert migratory_feasible(inst, 2, backend="auto")
        assert not migratory_feasible(inst, 1, backend="auto")

    def test_explicit_dinic_c_request_surfaces_error(
        self, kernel_memo, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(kernel.CACHE_ENV, str(tmp_path / "empty"))
        monkeypatch.setenv(kernel.CC_ENV, str(tmp_path / "no-such-cc"))
        kernel.reset()
        inst = Instance([Job(0, 2, 3, id=i) for i in range(3)])
        with pytest.raises(KernelUnavailable):
            migratory_feasible(inst, 2, backend="dinic_c")


@needs_compiler
class TestBitIdentical:
    """C kernel vs python kernel: same residual caps, byte for byte."""

    def test_random_graphs_full_and_limited(self):
        rng = random.Random(9)
        for trial in range(120):
            n = rng.randrange(2, 12)
            d_py = random_csr(rng, n, rng.randrange(1, 4 * n))
            d_c = clone(d_py)
            s, t = rng.sample(range(n), 2)
            limit = rng.choice([None, None, rng.randrange(0, 12)])
            f_py = max_flow(d_py, s, t, "py", limit)
            f_c = max_flow(d_c, s, t, "c", limit)
            assert f_py == f_c, f"trial {trial}: flow {f_py} != {f_c}"
            assert d_py[4].tobytes() == d_c[4].tobytes(), f"trial {trial}"

    def test_drain_and_regrow_match(self):
        """Warm-start sequence (grow, drain, restore) sees the same bytes."""
        rng = random.Random(23)
        jobs = []
        for i in range(25):
            release = rng.randrange(0, 20)
            processing = rng.randrange(1, 6)
            deadline = release + processing + rng.randrange(0, 8)
            jobs.append(Job(release, processing, deadline, id=i))
        cache = cache_for(Instance(jobs))
        for m in (3, 1, 5, 2, 4, 2):
            net_py = cache.solved_network(m, 1, "py")
            state_py = (net_py.feasible, net_py.snapshot())
            net_c = cache.solved_network(m, 1, "c")
            state_c = (net_c.feasible, net_c.snapshot())
            assert state_py == state_c, f"diverged at m={m}"

    @given(instances_st(max_size=10), st.sampled_from(["1", "1/2", "3/2"]))
    @settings(max_examples=60, deadline=None)
    def test_drains_match(self, instance, speed):
        """The native drain is the Python one: same caps, flow and drained
        counter after every probe of a sequence with downward steps."""
        speed = Fraction(speed)
        probes = downward_probes(instance, speed)
        assert probe_trail(instance, speed, "py", probes) == probe_trail(
            instance, speed, "c", probes
        )

    @pytest.mark.parametrize(
        "case",
        CORPUS_CASES,
        ids=lambda c: f"{c['file']}@s={c['speed']}",
    )
    def test_corpus_certificates_identical(self, case):
        instance = load(os.path.join(CORPUS_DIR, case["file"]))
        speed = Fraction(case["speed"])
        if case.get("unsat"):
            for backend in ("dinic", "dinic_c"):
                with pytest.raises(Unsatisfiable):
                    certified_optimum(instance, speed, backend=backend)
            return
        co_py = certified_optimum(instance, speed, backend="dinic")
        co_c = certified_optimum(instance, speed, backend="dinic_c")
        assert co_py.machines == co_c.machines
        assert cert_dict(co_py.feasible) == cert_dict(co_c.feasible)
        if co_py.infeasible is None:
            assert co_c.infeasible is None
        else:
            assert cert_dict(co_py.infeasible) == cert_dict(co_c.infeasible)


@needs_compiler
class TestKillSet:
    """Fast deterministic py-vs-c checks for the mutation smoke gate."""

    def test_fixed_graph_caps_identical(self):
        rng = random.Random(4)
        d_py = random_csr(rng, 8, 24)
        d_c = clone(d_py)
        assert max_flow(d_py, 0, 7, "py") == max_flow(d_c, 0, 7, "c")
        assert d_py[4].tobytes() == d_c[4].tobytes()

    @pytest.mark.parametrize("name", ["overload_six.json", "nested_tight.json",
                                      "fractional_thirds.json"])
    def test_corpus_pair_certificates(self, name):
        instance = load(os.path.join(CORPUS_DIR, name))
        co_py = certified_optimum(instance, backend="dinic")
        co_c = certified_optimum(instance, backend="dinic_c")
        assert co_py.machines == co_c.machines
        assert cert_dict(co_py.feasible) == cert_dict(co_c.feasible)

    def test_standalone_build_matches_tables_build(self):
        """The reference build (``oracles.reference_network``) and the
        tables build make the *same network*, byte for byte.

        Production always goes through the cache's integer tables; the
        reference builds from the ``Fraction`` data, with its own topology
        sort and a cold capacity buffer written without the kernels'
        ``scale_caps`` and ``fill_caps``, so any drift between the two
        (topology, capacities, or post-solve residual) is a bug in one of
        them — for the python and the compiled build alike.
        """
        inst = Instance(
            [Job(0, 3, 5, id=0), Job(1, 2, 4, id=1), Job(2, 4, 9, id=2),
             Job(0, 1, 2, id=3), Job(3, 2, 6, id=4)]
        )
        cache = cache_for(inst)
        tables = cache.tables
        scale = cache.scale_for(Fraction(1))
        for kern in ("py", "c"):
            standalone = oracles.reference_network(
                inst, Fraction(1), list(tables.intervals), scale, kern
            )
            cached = FeasibilityNetwork(inst, Fraction(1), scale, kern, tables)
            for part in ("to", "head", "elist"):
                assert list(getattr(standalone, part)) == list(
                    getattr(cached, part)
                ), (kern, part)
            assert standalone.cap.tobytes() == cached.cap.tobytes()
            for m in (1, 2, 3):
                standalone.set_machines(m)
                cached.set_machines(m)
                standalone.solve()
                cached.solve()
                assert standalone.feasible == cached.feasible, (kern, m)
                assert standalone.cap.tobytes() == (
                    cached.cap.tobytes()
                ), (kern, m)

    def test_topology_builders_agree(self):
        """Python and native CSR builders write the same ``(to, head, elist)``."""
        rng = random.Random(7)
        ck = kernel.load()
        for n, n_iv in ((0, 3), (1, 1), (5, 4), (12, 9)):
            k0s, k1s, srcs, acc = [], [], [], 2 * n_iv
            for _ in range(n):
                k0 = rng.randrange(n_iv)
                k1 = rng.randrange(k0 + 1, n_iv + 1)
                k0s.append(k0)
                k1s.append(k1)
                srcs.append(acc)
                acc += 2 * (1 + k1 - k0)
            py = kernel.py.build_topology(
                n, n_iv, k0s, k1s, srcs, acc, 2 + n + n_iv
            )
            c = ck.build_topology(
                n, n_iv, array("i", k0s), array("i", k1s), array("i", srcs),
                acc, 2 + n + n_iv,
            )
            assert [list(part) for part in c] == [list(part) for part in py], n

    def test_drain_paths_match(self):
        """One fixed probe sequence with two drains that evict flow."""
        instance = uniform_random_instance(40, horizon=80, seed=2)
        probes = downward_probes(instance, Fraction(1))
        trail = probe_trail(instance, Fraction(1), "py", probes)
        assert trail == probe_trail(instance, Fraction(1), "c", probes)
        drained = [step[2] for step in trail]
        assert 0 < drained[1] < drained[-1]  # both drains evicted flow

    def test_greedy_and_grow_paths_match(self):
        inst = Instance(
            [Job(0, 3, 5, id=0), Job(1, 2, 4, id=1), Job(2, 4, 9, id=2),
             Job(0, 1, 2, id=3)]
        )
        cache = cache_for(inst)
        for m in (1, 2, 3):
            net_py = cache.solved_network(m, 1, "py")
            feas_py, snap_py = net_py.feasible, net_py.snapshot()
            work_py = pieces(net_py.work_by_job()) if feas_py else None
            net_c = cache.solved_network(m, 1, "c")
            assert net_c.feasible == feas_py
            assert net_c.snapshot() == snap_py
            if feas_py:
                assert pieces(net_c.work_by_job()) == work_py

    def test_observed_solve_matches_plain(self):
        """With a sink listening, solves reach the same flows, and the
        durations they observe fit inside the wall time."""
        # Dinic both runs to disconnection (m = 3) and stops at the limit.
        instance = uniform_random_instance(40, horizon=80, seed=2)
        for kern in ("py", "c"):
            def flows():
                cache = cache_for(Instance(list(instance)))
                return [(net.flow, net.snapshot()) for net in (
                    cache.solved_network(m, 1, kern) for m in (3, 4, 3, 5, 2)
                )]

            expected = flows()
            t0 = time.perf_counter_ns()
            with obs.capture() as reg:
                got = flows()
            wall = time.perf_counter_ns() - t0
            assert got == expected, kern
            hist = reg.snapshot()["hists"]["dinic.max_flow_ns"]
            assert 0 < hist["max"] <= wall, kern


#: Three jobs whose denominators are primes just below 10⁶, so the base
#: scale is ~10¹⁸ and the last interval's unit capacity ~3·10¹⁸.
_PRIMES = (999983, 999979, 999961)


def large_denominators() -> Instance:
    return Instance(
        [Job(Fraction(i, q), 1 + Fraction(1, q), 3, id=i)
         for i, q in enumerate(_PRIMES)]
    )


@needs_compiler
class TestInt64Edge:
    """Past int64 both kernels raise; the compiled one used to wrap."""

    @pytest.mark.parametrize("m, speed", [
        (40, 1),                            # m · |E_k| in the sink growth
        (2**64, 1),                         # the machine step itself
        (2, Fraction(2**33 + 1, 2**33)),    # the length factor of the build
    ], ids=["sink-capacity", "machine-step", "length-factor"])
    def test_both_kernels_raise(self, m, speed):
        for backend in ("dinic", "dinic_c"):
            with pytest.raises(OverflowError):
                migratory_feasible(large_denominators(), m, speed, backend=backend)

    def test_failed_growth_leaves_the_same_buffer(self):
        """A probe whose sink growth raises part way leaves nothing behind:
        the next probe on the same cache answers, and leaves the buffer, as
        on a fresh cache, on both kernels (a half-grown buffer once read
        ``True`` at m = 1 here)."""
        def instance():
            q0, q1, q2 = _PRIMES
            return Instance([
                Job(0, 1, 1, id=0), Job(0, 1, 1, id=1), Job(1, 1, 4, id=2),
                Job(Fraction(1, q0), Fraction(1, q1), 4 - Fraction(1, q2), id=3),
            ])

        for kern, backend in (("py", "dinic"), ("c", "dinic_c")):
            cache = cache_for(instance())
            with pytest.raises(OverflowError):
                cache.solved_network(4, Fraction(1), kern)
            fresh = cache_for(instance()).solved_network(1, Fraction(1), kern)
            again = cache.solved_network(1, Fraction(1), kern)
            assert not fresh.feasible
            assert again.feasible == fresh.feasible, kern
            assert again.cap.tobytes() == fresh.cap.tobytes(), kern
            raised = instance()
            with pytest.raises(OverflowError):
                migratory_feasible(raised, 4, backend=backend)
            assert migratory_feasible(raised, 1, backend=backend) is False

    def test_total_demand_past_int64_raises_on_both(self):
        """Every capacity fits int64 but the total demand (3·2⁶² units)
        does not, so a flow sum could wrap: both kernels raise before the
        first solve instead of answering differently."""
        h = 2**61

        def instance():
            return Instance([Job(0, 2 * h, 2 * h, id=0), Job(0, h, h, id=1),
                             Job(h, h, 2 * h, id=2), Job(0, 2 * h, 2 * h, id=3)])

        for backend in ("dinic", "dinic_c"):
            with pytest.raises(OverflowError):
                migratory_feasible(instance(), 3, backend=backend)
            with pytest.raises(OverflowError):
                certify(instance(), 3, backend=backend)
            with pytest.raises(OverflowError):
                migratory_optimum(instance(), backend=backend)

    def test_fitting_machine_count_still_solves(self):
        """The scan's values fit int64, so the native sweep builds the
        tables, and a machine count whose capacities fit still solves."""
        instance = large_denominators()
        with mock.patch.object(kernel.py, "sweep") as python_sweep:
            cache_for(instance).tables
        python_sweep.assert_not_called()
        assert migratory_feasible(instance, 2, backend="dinic_c")
        assert migratory_feasible(large_denominators(), 2, backend="dinic")


class TestResolution:
    def test_auto_resolves_to_best(self):
        resolved = resolve_backend("auto")
        assert resolved == ("dinic_c" if kernel.available() else "dinic")

    def test_available_backends_subset(self):
        got = available_backends()
        assert got == (("dinic", "dinic_c") if kernel.available() else ("dinic",))

    def test_concrete_backends_pass_through(self):
        assert resolve_backend("dinic") == "dinic"
        assert resolve_backend("dinic_c") == "dinic_c"
        for removed in ("dinic_np", "networkx", "no-such-backend"):
            with pytest.raises(ValueError, match="expected one of"):
                resolve_backend(removed)
