"""The sweep task registry: picklable-by-name work functions.

Process pools ship work by pickling, and lambdas/closures do not pickle —
so every task a :class:`~repro.runner.plan.WorkItem` can name lives here (or
is added via :func:`register_task`) and is referenced by its string name.
Each task takes the materialized instance plus the item's keyword params and
returns plain picklable data (numbers, strings, dataclasses of those).

Tasks run inside a worker's :func:`repro.obs.capture` scope, so anything
they count through the obs layer lands in the item snapshot and is merged
back into the parent's registry.

Tasks must be **idempotent and deterministic**: the crash-only runner may
execute the same item more than once — transient retries, a re-run after a
worker crash, a journal resume re-running an unsettled group — and keeps
exactly one outcome.  A task that mutated external state per call would
make retried runs diverge from clean ones.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Dict

from ..model.instance import Instance

__all__ = ["TASKS", "POLICIES", "register_task", "resolve_policy"]


def _policies() -> Dict[str, Callable]:
    from ..online.edf import EDF, NonPreemptiveEDF
    from ..online.llf import LLF
    from ..online.nonmigratory import BestFitEDF, EmptiestFitEDF, FirstFitEDF

    return {
        "edf": EDF,
        "llf": LLF,
        "npedf": NonPreemptiveEDF,
        "firstfit": FirstFitEDF,
        "bestfit": BestFitEDF,
        "emptiestfit": EmptiestFitEDF,
    }


#: Online policies sweepable by name (mirrors the CLI's policy table).
POLICIES = _policies()


def resolve_policy(name: str) -> Callable:
    try:
        return POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; known: {sorted(POLICIES)}"
        ) from None


def task_ratio_sample(instance: Instance, *, policy: str, family: str = "") -> Dict[str, Any]:
    """One competitive-ratio sample: ``machines(policy) / OPT`` on one instance.

    Returns ``None``-bearing dict for degenerate instances (empty or OPT 0)
    so aggregators can skip them exactly like the serial sweep does.
    """
    from ..offline.optimum import migratory_optimum
    from ..online.engine import min_machines

    if len(instance) == 0:
        return {"policy": policy, "family": family, "ratio": None}
    m = migratory_optimum(instance)
    if m == 0:
        return {"policy": policy, "family": family, "ratio": None}
    cls = resolve_policy(policy)
    k = min_machines(lambda _: cls(), instance)
    return {
        "policy": policy,
        "family": family,
        "m": m,
        "k": k,
        "ratio": Fraction(k, m),
    }


def task_certified_optimum(
    instance: Instance, *, speed: str = "1", backend: str = "auto"
) -> Dict[str, Any]:
    """Certified optimum of one instance; unsat instances report ``optimum=None``.

    ``backend`` is resolved before the solve and the concrete name is
    recorded in the result, so sweep snapshots say which kernel actually
    answered (``auto`` resolves identically in every worker of a run).
    """
    from ..offline.flow import resolve_backend
    from ..verify import Unsatisfiable, certified_optimum

    resolved = resolve_backend(backend)
    try:
        co = certified_optimum(instance, Fraction(speed), backend=resolved)
    except Unsatisfiable:
        return {"optimum": None, "unsat": True, "backend": resolved}
    return {"optimum": co.machines, "unsat": False, "backend": resolved}


def task_min_machines(instance: Instance, *, policy: str, speed: str = "1") -> int:
    """Minimum machine count at which the named policy succeeds."""
    from ..online.engine import min_machines

    cls = resolve_policy(policy)
    return min_machines(lambda _: cls(), instance, speed=Fraction(speed))


def task_differential_optimum(
    instance: Instance,
    *,
    speed: str = "1",
    backends=None,
):
    """Differential cross-check at the certified optimum (records tuple)."""
    from ..verify.differential import differential_optimum

    return differential_optimum(instance, Fraction(speed), backends=backends).records


def task_corpus_case(
    instance: Instance,
    *,
    name: str,
    speed: str = "1",
    expect_optimum=None,
    unsat: bool = False,
) -> Dict[str, Any]:
    """Re-verify one golden-corpus case against its expectation."""
    from ..verify import Unsatisfiable, certified_optimum, check_certificate

    result: Dict[str, Any] = {"name": name, "speed": speed, "ok": False}
    try:
        co = certified_optimum(instance, Fraction(speed))
    except Unsatisfiable as exc:
        result["unsat"] = True
        result["ok"] = unsat and check_certificate(instance, exc.certificate).ok
        return result
    result["optimum"] = co.machines
    checks = [check_certificate(instance, co.feasible).ok]
    if co.infeasible is not None:
        checks.append(check_certificate(instance, co.infeasible).ok)
    result["ok"] = (
        not unsat
        and (expect_optimum is None or co.machines == expect_optimum)
        and all(checks)
    )
    return result


#: Name → callable registry used by the pool workers.
TASKS: Dict[str, Callable[..., Any]] = {
    "ratio_sample": task_ratio_sample,
    "certified_optimum": task_certified_optimum,
    "min_machines": task_min_machines,
    "differential_optimum": task_differential_optimum,
    "corpus_case": task_corpus_case,
}


def register_task(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Register a custom task (must be a module-level, picklable function).

    With the default fork start method workers inherit the parent's
    registry, so tests and scripts may register tasks at runtime; under
    spawn the registration must happen at import time of a module the
    worker also imports.
    """
    TASKS[name] = fn
    return fn
