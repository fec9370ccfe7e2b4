"""Seeded regression corpus with golden certified-optimum expectations.

Each corpus instance is archived JSON (lossless rationals) with a golden
``(optimum, certificate kind)`` expectation in ``expectations.json``.  The
corpus pins the feasibility core end to end on hand-picked structures —
tight agreeable, laminar, Lemma 2 adversary prefixes, separated overload
bursts, fractional data, and a speed-<1 unsatisfiable instance — on every
available kernel and on the networkx oracle of ``tests/oracles.py``.  It is
also the kill-set of the mutation smoke gate
(``tools/mutation_smoke.py``), so it must stay fast and deterministic.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import partial

import pytest

from repro.model import Instance
from repro.model.io import load
from repro.offline import optimum as optimum_mod
from repro.offline.flow import available_backends
from repro.offline.optimum import migratory_optimum, window_concurrency
from repro.offline.workload import scaled_lower_bound
from repro.verify import (
    Unsatisfiable,
    certified_optimum,
    check_certificate,
    certificate_from_dict,
)

from tests import oracles

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "data", "corpus")

with open(os.path.join(CORPUS_DIR, "expectations.json"), "r", encoding="utf-8") as fh:
    CASES = json.load(fh)["cases"]


def _case_id(case) -> str:
    return f"{case['file']}@s={case['speed']}"


#: ``(certified_optimum, migratory_optimum)`` per kernel, and the oracle's.
SOLVERS = {
    b: (partial(certified_optimum, backend=b), partial(migratory_optimum, backend=b))
    for b in available_backends()
}
SOLVERS["networkx"] = (oracles.certified_optimum, oracles.migratory_optimum)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
@pytest.mark.parametrize("backend", list(SOLVERS))
def test_corpus_certified_optimum(case, backend):
    instance = load(os.path.join(CORPUS_DIR, case["file"]))
    speed = Fraction(case["speed"])
    certified, optimum = SOLVERS[backend]

    if case.get("unsat"):
        with pytest.raises(Unsatisfiable) as excinfo:
            certified(instance, speed)
        cert = excinfo.value.certificate
        assert cert.region.length == 0
        assert check_certificate(instance, cert).ok
        # The raw optimum search must refuse the instance up front rather
        # than searching forever (pins the speed-<1 every-m guard).
        with pytest.raises(ValueError):
            optimum(instance, speed)
        return

    co = certified(instance, speed)
    assert co.machines == case["optimum"], (
        f"{case['file']}: optimum {co.machines} != golden {case['optimum']} "
        f"({backend} backend)"
    )
    # Feasible side: the schedule re-verifies exactly on ≤ m machines.
    assert check_certificate(instance, co.feasible).ok
    assert co.feasible.machines == co.machines
    # Infeasible side: the overloaded interval set holds by pure arithmetic
    # and proves the matching lower bound.
    if case.get("infeasible_kind") == "none":
        assert co.infeasible is None
    else:
        assert co.infeasible is not None
        assert check_certificate(instance, co.infeasible).ok
        if case["infeasible_kind"] == "degenerate":
            assert co.infeasible.region.length == 0
        else:
            required = co.infeasible.required_machines(instance)
            assert required is not None and required >= co.machines


@pytest.mark.parametrize(
    "case",
    [c for c in CASES if not c.get("unsat") and c["speed"] == "1"],
    ids=_case_id,
)
def test_corpus_certificate_roundtrip(case):
    """Certificates survive a JSON round-trip and still check out."""
    instance = load(os.path.join(CORPUS_DIR, case["file"]))
    co = certified_optimum(instance)
    for cert in filter(None, (co.feasible, co.infeasible)):
        clone = certificate_from_dict(json.loads(json.dumps(cert.to_dict())))
        assert clone.kind == cert.kind
        assert check_certificate(instance, clone).ok


def _recorded_search(instance, speed, monkeypatch):
    """``(optimum, [(m, verdict), ...])`` of one search, probes in order."""
    probes = []
    feasible = optimum_mod.migratory_feasible

    def spy(inst, m, *args, **kwargs):
        verdict = feasible(inst, m, *args, **kwargs)
        probes.append((m, verdict))
        return verdict

    monkeypatch.setattr(optimum_mod, "migratory_feasible", spy)
    return migratory_optimum(Instance(list(instance)), speed), probes


def _assert_never_reprobes_refuted(probes):
    for i, (m, _) in enumerate(probes):
        refuted = [r for r, verdict in probes[:i] if not verdict]
        assert all(m > r for r in refuted), probes


@pytest.mark.parametrize(
    "case", [c for c in CASES if not c.get("unsat")], ids=_case_id
)
def test_corpus_search_stays_in_its_bracket(case, monkeypatch):
    """The search probes window concurrency first (always feasible: give
    every job its own machine for its whole window), then bisects down to
    ``max(1, workload lower bound)`` and never below it."""
    instance = load(os.path.join(CORPUS_DIR, case["file"]))
    speed = Fraction(case["speed"])
    lo = max(1, scaled_lower_bound(instance, speed))
    hi = max(lo, window_concurrency(instance))
    opt, probes = _recorded_search(instance, speed, monkeypatch)
    assert opt == case["optimum"]
    assert probes[0] == (hi, True)
    assert all(lo <= m <= hi for m, _ in probes), (lo, hi, probes)
    _assert_never_reprobes_refuted(probes)


@pytest.mark.parametrize(
    "name", ["parallel_units.json", "nested_tight.json", "climbing_nine.json"]
)
def test_search_recovers_from_an_infeasible_bracket(name, monkeypatch):
    """From a too-low bracket the search grows geometrically, then bisects
    above the last refuted count — it never probes a refuted count again."""
    instance = load(os.path.join(CORPUS_DIR, name))
    expected = migratory_optimum(instance)
    monkeypatch.setattr(optimum_mod, "window_concurrency", lambda inst: 1)
    monkeypatch.setattr(optimum_mod, "scaled_lower_bound", lambda inst, s: 1)
    opt, probes = _recorded_search(instance, 1, monkeypatch)
    assert opt == expected
    assert probes[0] == (1, False)
    _assert_never_reprobes_refuted(probes)


def test_corpus_has_enough_instances():
    files = [f for f in os.listdir(CORPUS_DIR) if f != "expectations.json"]
    assert len(files) >= 12
    assert {c["file"] for c in CASES} == set(files)
