"""Deterministic sweep plans: seed splitting, work items, grouped chunks.

A :class:`SweepPlan` is an ordered list of :class:`WorkItem`\\ s, each naming
a registered task (:mod:`repro.runner.tasks`) and the instance it operates
on — either a generator :class:`InstanceSpec` (cheap to ship to a worker,
materialized there) or an inline :class:`~repro.model.instance.Instance`.

Three properties make plans safe to parallelize:

* **Seed splitting** — :func:`split_seed` derives child seeds from a root
  seed SeedSequence-style (SHA-256 of ``root:index``), so a plan built from
  one root seed assigns every item an independent, reproducible stream that
  does not depend on execution order, worker count, or platform hash
  randomization.
* **Stable grouping** — every item has a ``group`` key derived from its
  instance content (never from the salted builtin ``hash``).  Items sharing
  a group share one materialized instance — and therefore one warm
  :class:`~repro.offline.feascache.FeasibilityCache` — inside a worker.
* **Group-preserving chunking** — :meth:`SweepPlan.chunks` packs whole
  groups into chunks of at least ``chunksize`` items and never splits a
  group across chunks.  Chunk boundaries are a function of the plan and
  ``chunksize`` alone (never of the worker count), which is what makes
  merged observability counters bit-identical for every ``n_jobs``.
* **Group-preserving sharding** — :meth:`SweepPlan.shard` cuts the plan
  into ``n`` disjoint shards for multi-host fan-out.  A shard is itself a
  :class:`SweepPlan` (a whole plan is shard ``(0, 1)`` of itself) that
  carries its ``shard_id``, the parent's item count and the parent's
  fingerprint.  The partition is a pure function of the plan and
  ``(k, n)`` (every host computes the same split), never splits a group,
  and keeps parent-plan item indices — so per-shard journals can later be
  folded back into one canonical report by
  :func:`repro.runner.merge.merge_journals`.

:func:`plan_from_spec` builds the plan a sweep spec names (``kind``
ratio / differential / corpus, the same fields ``repro sweep`` takes and
``/v1/sweeps`` accepts): both front ends build their plan with it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..generators import (
    agreeable_instance,
    laminar_random,
    loose_instance,
    tight_instance,
    uniform_random_instance,
)
from ..model.instance import Instance

__all__ = [
    "FAMILIES",
    "InstanceSpec",
    "SweepPlan",
    "WorkItem",
    "chunk_items",
    "instance_key",
    "plan_from_spec",
    "split_seed",
]

#: Picklable-by-name instance families usable in an :class:`InstanceSpec`.
#: Each maker takes ``(n, seed, **params)`` and returns an
#: :class:`~repro.model.instance.Instance`.
FAMILIES = {
    "uniform": lambda n, seed, **kw: uniform_random_instance(n, seed=seed, **kw),
    "loose": lambda n, seed, alpha="1/2", **kw: loose_instance(
        n, Fraction(alpha), seed=seed, **kw
    ),
    "tight": lambda n, seed, alpha="1/2", **kw: tight_instance(
        n, Fraction(alpha), seed=seed, **kw
    ),
    "agreeable": lambda n, seed, **kw: agreeable_instance(n, seed=seed, **kw),
    "laminar": lambda n, seed, **kw: laminar_random(n, seed=seed, **kw),
}


def split_seed(root_seed: int, index: int) -> int:
    """Deterministic child seed ``index`` of ``root_seed``.

    SHA-256 based (not the salted builtin ``hash``), so the same plan built
    in any process on any platform yields the same seeds.  Returns a
    non-negative 63-bit integer, valid for :mod:`random` and numpy alike.
    """
    digest = hashlib.sha256(f"repro.runner:{root_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def instance_key(instance: Instance) -> str:
    """Content-derived stable key for an inline instance (grouping only)."""
    h = hashlib.sha256()
    for j in instance:
        h.update(f"{j.id}|{j.release}|{j.processing}|{j.deadline}|{j.label};".encode())
    return "inline:" + h.hexdigest()[:16]


@dataclass(frozen=True)
class InstanceSpec:
    """A picklable recipe for a generated instance: ``FAMILIES[family](n, seed)``."""

    family: str
    n: int
    seed: int
    #: extra generator kwargs as sorted ``(name, value)`` pairs (picklable)
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; known: {sorted(FAMILIES)}"
            )

    def build(self) -> Instance:
        return FAMILIES[self.family](self.n, self.seed, **dict(self.params))

    @property
    def key(self) -> str:
        """Stable grouping key (plain field dump, no salted hashing)."""
        extra = ",".join(f"{k}={v}" for k, v in self.params)
        return f"spec:{self.family}:n={self.n}:seed={self.seed}:{extra}"


@dataclass(frozen=True)
class WorkItem:
    """One unit of sweep work: a task applied to one instance.

    Exactly one of ``spec`` / ``instance`` is set.  ``params`` are keyword
    arguments for the task (sorted tuple pairs, so items stay hashable and
    picklable).  ``group`` keys items that share a materialized instance.
    """

    index: int
    task: str
    spec: Optional[InstanceSpec] = None
    instance: Optional[Instance] = None
    params: Tuple[Tuple[str, Any], ...] = ()
    group: str = ""

    def __post_init__(self) -> None:
        if (self.spec is None) == (self.instance is None):
            raise ValueError("exactly one of spec/instance must be given")
        if not self.group:
            key = self.spec.key if self.spec else instance_key(self.instance)
            object.__setattr__(self, "group", key)

    def materialize(self, table: Dict[str, Instance]) -> Instance:
        """The item's instance, shared through ``table`` by group key."""
        got = table.get(self.group)
        if got is None:
            got = self.instance if self.instance is not None else self.spec.build()
            table[self.group] = got
        return got

    @property
    def kwargs(self) -> Dict[str, Any]:
        return dict(self.params)


def chunk_items(
    items: Sequence[WorkItem], chunksize: int = 1
) -> List[Tuple[WorkItem, ...]]:
    """Group-preserving chunks of at least ``chunksize`` items.

    Consecutive items of the same group always land in the same chunk.
    Shared by :meth:`SweepPlan.chunks` and the journal-resume path (which
    chunks only the *pending* items — skipping settled groups keeps the
    remaining groups whole, so the rule still holds).
    """
    if chunksize < 1:
        raise ValueError("chunksize must be >= 1")
    chunks: List[Tuple[WorkItem, ...]] = []
    current: List[WorkItem] = []
    for item in items:
        if (
            current
            and len(current) >= chunksize
            and item.group != current[-1].group
        ):
            chunks.append(tuple(current))
            current = []
        current.append(item)
    if current:
        chunks.append(tuple(current))
    return chunks


@dataclass(frozen=True)
class SweepPlan:
    """An ordered, immutable batch of work items, or one shard of one.

    A whole plan is densely indexed and is shard ``(0, 1)`` of itself.  A
    shard from :meth:`shard` keeps its items' **parent-plan indices** and
    canonical order — results, journals, and
    :class:`~repro.runner.faults.FaultPlan` indices all speak the parent's
    index space — and its :meth:`fingerprint` is the *parent's*: a shard
    journal is identified by the pair ``(parent fingerprint, shard_id)``,
    which is what both the resume path and
    :func:`repro.runner.merge.merge_journals` validate.  A shard runs
    anywhere a plan does: ``run_sweep(plan.shard(k, n), ...)``.
    """

    items: Tuple[WorkItem, ...]
    #: ``(k, n)`` — this plan's identity within its parent plan
    shard_id: Tuple[int, int] = (0, 1)
    #: item count of the parent plan (a shard may hold fewer)
    plan_items: int = -1
    #: the parent's fingerprint; set on shards only
    parent_fingerprint: Optional[str] = None

    def __post_init__(self) -> None:
        if self.shard_id != (0, 1):
            return
        for expected, item in enumerate(self.items):
            if item.index != expected:
                raise ValueError(
                    f"item {expected} carries index {item.index}; plans must "
                    "be densely indexed in order"
                )
        object.__setattr__(self, "plan_items", len(self.items))

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def chunks(self, chunksize: int = 1) -> List[Tuple[WorkItem, ...]]:
        """Group-preserving chunks of at least ``chunksize`` items.

        Consecutive items of the same group always land in the same chunk
        (so they share one warm instance/cache in a worker, and cache
        counters cannot depend on how chunks are distributed).  The split is
        a pure function of the plan and ``chunksize`` — never of ``n_jobs``.
        """
        return chunk_items(self.items, chunksize)

    def fingerprint(self) -> str:
        """SHA-256 identity of the plan's work content.

        Covers every item's index, task, group key (instance content or
        generator recipe), and task parameters — everything that determines
        what a sweep computes.  The journal header pins this value so a
        resume cannot silently apply another plan's results.  A shard
        returns its parent's (shard identity travels separately).
        """
        if self.parent_fingerprint is not None:
            return self.parent_fingerprint
        h = hashlib.sha256()
        for item in self.items:
            h.update(
                f"{item.index}|{item.task}|{item.group}|{item.params!r}\n".encode()
            )
        return h.hexdigest()

    def shard(self, k: int, n: int) -> "SweepPlan":
        """Deterministic, group-preserving shard ``k`` of ``n``.

        Groups are numbered in first-appearance (plan) order, and group
        ``g`` lands on shard ``g % n``; items keep their parent-plan
        indices and canonical order.  The partition is a **pure function
        of the plan** and ``(k, n)`` — every host that builds the same
        plan computes the same split, with no coordination — and it never
        splits a group, so each shard reproduces exactly the warm-cache
        counter pattern its items have in the unsharded run.  That
        invariant is what makes :func:`repro.runner.merge.merge_journals`
        byte-identical to a single-host sweep.  A shard cannot be sharded
        again; shard ``(0, 1)`` is the plan itself.
        """
        if self.shard_id != (0, 1):
            raise ValueError(
                f"shard {self.shard_id[0]}/{self.shard_id[1]} cannot be "
                "sharded again; shard the whole plan"
            )
        if n < 1:
            raise ValueError("shard count must be >= 1")
        if not 0 <= k < n:
            raise ValueError(
                f"shard index must satisfy 0 <= k < n; got shard {k}/{n}"
            )
        if n == 1:
            return self
        ordinal: Dict[str, int] = {}
        for item in self.items:
            ordinal.setdefault(item.group, len(ordinal))
        selected = tuple(
            item for item in self.items if ordinal[item.group] % n == k
        )
        return SweepPlan(selected, (k, n), len(self.items), self.fingerprint())

    # -- builders ------------------------------------------------------------

    @classmethod
    def build(
        cls,
        entries: Iterable[Tuple[str, Union[InstanceSpec, Instance], Dict[str, Any]]],
    ) -> "SweepPlan":
        """Plan from ``(task, spec_or_instance, task_kwargs)`` triples."""
        items: List[WorkItem] = []
        for index, (task, target, kwargs) in enumerate(entries):
            params = tuple(sorted(kwargs.items()))
            if isinstance(target, InstanceSpec):
                items.append(WorkItem(index, task, spec=target, params=params))
            else:
                items.append(WorkItem(index, task, instance=target, params=params))
        return cls(tuple(items))

    @classmethod
    def competitive(
        cls,
        policies: Sequence[str],
        families: Sequence[str],
        n: int = 30,
        seeds: Union[int, Sequence[int]] = 5,
        root_seed: int = 0,
        family_params: Optional[Dict[str, Dict[str, Any]]] = None,
    ) -> "SweepPlan":
        """Ratio sweep: every policy on every seeded family instance.

        ``seeds`` is either an explicit seed list or a count — a count is
        expanded with :func:`split_seed` from ``root_seed``.  Items are
        ordered family → seed → policy, so all policies of one instance sit
        in one group (one materialization, shared feasibility cache).
        """
        if isinstance(seeds, int):
            seed_list = [split_seed(root_seed, i) for i in range(seeds)]
        else:
            seed_list = list(seeds)
        entries = []
        for family in families:
            params = dict((family_params or {}).get(family, {}))
            for seed in seed_list:
                spec = InstanceSpec(family, n, seed, tuple(sorted(params.items())))
                for policy in policies:
                    entries.append(
                        ("ratio_sample", spec, {"policy": policy, "family": family})
                    )
        return cls.build(entries)

    @classmethod
    def differential(
        cls,
        targets: Sequence[Union[InstanceSpec, Instance]],
        speeds: Sequence[Any] = ("1",),
    ) -> "SweepPlan":
        """Differential verification of each target at each speed."""
        return cls.build(
            ("differential_optimum", target, {"speed": str(speed)})
            for target in targets
            for speed in speeds
        )

    @classmethod
    def corpus(cls, corpus_dir: str) -> "SweepPlan":
        """Re-verify a golden corpus directory (see ``tests/data/corpus``).

        Each ``expectations.json`` case becomes one item checking the
        certified optimum (or unsatisfiability) against the golden value.
        """
        import json
        import os

        from ..model.io import load

        with open(
            os.path.join(corpus_dir, "expectations.json"), "r", encoding="utf-8"
        ) as fh:
            cases = json.load(fh)["cases"]
        entries = []
        for case in cases:
            instance = load(os.path.join(corpus_dir, case["file"]))
            entries.append(
                (
                    "corpus_case",
                    instance,
                    {
                        "name": case["file"],
                        "speed": case["speed"],
                        "expect_optimum": case.get("optimum"),
                        "unsat": bool(case.get("unsat")),
                    },
                )
            )
        return cls.build(entries)


def plan_from_spec(spec: Dict[str, Any]) -> SweepPlan:
    """Build the :class:`SweepPlan` a sweep spec describes.

    ``spec["kind"]`` is ``ratio`` (``policies``, ``families``, ``n``,
    ``seeds``, ``root_seed``), ``differential`` (``families``, ``n``,
    ``seeds``, ``root_seed``, ``speeds``) or ``corpus`` (``dir``).  Pure
    function of the spec: every daemon generation that reads the same
    ``<id>.spec.json`` builds the byte-identical plan (same fingerprint),
    which is what lets a restart resume the old journal at all.
    """
    kind = spec["kind"]
    if kind == "ratio":
        return SweepPlan.competitive(
            policies=spec["policies"],
            families=spec["families"],
            n=spec["n"],
            seeds=spec["seeds"],
            root_seed=spec["root_seed"],
        )
    if kind == "differential":
        specs = [
            InstanceSpec(family, spec["n"], split_seed(spec["root_seed"], i))
            for family in spec["families"]
            for i in range(spec["seeds"])
        ]
        return SweepPlan.differential(specs, speeds=spec["speeds"])
    return SweepPlan.corpus(spec["dir"])
