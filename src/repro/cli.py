"""Command-line interface.

Subcommands (``python -m repro <cmd> …`` or the ``repro`` entry point):

* ``generate``  — write a seeded instance of any class to JSON
* ``classify``  — name the structure of an instance (loose/agreeable/…)
* ``opt``       — exact migratory optimum (optionally non-migratory bounds)
* ``solve``     — schedule with the dispatcher or a named paper algorithm
* ``simulate``  — run a classic online policy at a fixed machine count
* ``gantt``     — render a schedule JSON as an ASCII chart
* ``adversary`` — run the Lemma 2 or Lemma 9 adversary against a policy
* ``verify``    — certified feasibility verdicts and backend cross-checks
* ``stats``     — one-shot observability report (counters + span timings +
  latency histogram quantiles); ``--prom`` renders the snapshot in
  Prometheus text exposition format
* ``trace``     — post-hoc analysis of a ``--trace`` JSONL file: hotspot
  table (self vs. cumulative span time), folded stacks for
  flamegraph.pl/speedscope, and ``trace diff a.jsonl b.jsonl``
* ``sweep``     — parallel seeded sweeps (ratio / differential / corpus)
  across worker processes, bit-identical to the serial run; ``--shard k/n``
  runs one group-preserving shard for multi-host fan-out,
  ``sweep merge j0.jsonl j1.jsonl …`` folds the shard journals back into
  the canonical unsharded report, ``--progress`` renders a live stderr
  ticker, and ``sweep status journal.jsonl`` reports a run's progress
  from its durable journal alone

Every subcommand accepts ``--trace OUT.jsonl``: the run's full span/counter
event stream (see :mod:`repro.obs`) is written as JSON lines for offline
analysis.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import obs
from .analysis.gantt import render_gantt, render_witness
from .analysis.profile import MandatoryProfile
from .analysis.svg import save_svg
from .core.adversary.agreeable_lb import AgreeableAdversary
from .core.adversary.migration_gap import MigrationGapAdversary
from .core.agreeable import AgreeableAlgorithm
from .core.laminar import LaminarAlgorithm
from .core.loose import LooseAlgorithm
from .core.splitter import classify, dispatch
from .generators import (
    agreeable_instance,
    laminar_random,
    loose_instance,
    tight_instance,
    uniform_random_instance,
)
from .model import Instance, Schedule
from .model.io import InstanceFormatError, load, save
from .offline.flow import BACKENDS, DEFAULT_BACKEND, PAST_INT64, resolve_backend
from .offline.nonmigratory import nonmigratory_optimum_bounds
from .offline.optimum import migratory_optimum
from .verify import (
    Unsatisfiable,
    certified_optimum,
    certify,
    check_certificate,
    differential_optimum,
)
from .online.edf import EDF, NonPreemptiveEDF
from .online.engine import min_machines, simulate
from .online.llf import LLF
from .online.nonmigratory import BestFitEDF, EmptiestFitEDF, FirstFitEDF

POLICIES = {
    "edf": EDF,
    "llf": LLF,
    "npedf": NonPreemptiveEDF,
    "firstfit": FirstFitEDF,
    "bestfit": BestFitEDF,
    "emptiestfit": EmptiestFitEDF,
}

GENERATORS = {
    "uniform": lambda args: uniform_random_instance(args.n, seed=args.seed),
    "loose": lambda args: loose_instance(args.n, Fraction(args.alpha), seed=args.seed),
    "tight": lambda args: tight_instance(args.n, Fraction(args.alpha), seed=args.seed),
    "agreeable": lambda args: agreeable_instance(args.n, seed=args.seed),
    "laminar": lambda args: laminar_random(args.n, seed=args.seed),
}


def _load_instance(path: str) -> Instance:
    try:
        obj = load(path)
    except InstanceFormatError as exc:
        raise SystemExit(str(exc)) from None
    if not isinstance(obj, Instance):
        raise SystemExit(f"{path} does not contain an instance")
    return obj


def cmd_generate(args) -> int:
    instance = GENERATORS[args.kind](args)
    save(instance, args.output)
    print(f"wrote {len(instance)}-job {args.kind} instance to {args.output}")
    return 0


def cmd_classify(args) -> int:
    instance = _load_instance(args.instance)
    kind = classify(instance)
    print(f"n = {len(instance)}")
    print(f"class = {kind}")
    print(f"max density = {float(instance.max_density):.3f}")
    print(f"agreeable = {instance.is_agreeable()}, laminar = {instance.is_laminar()}")
    return 0


def cmd_opt(args) -> int:
    instance = _load_instance(args.instance)
    m = migratory_optimum(instance, backend=args.backend)
    print(f"migratory optimum: {m}")
    if args.nonmigratory:
        lo, hi = nonmigratory_optimum_bounds(instance, exact_threshold=args.exact_threshold)
        kind = "exact" if lo == hi else "bounds"
        print(f"non-migratory optimum ({kind}): [{lo}, {hi}]")
    return 0


def cmd_solve(args) -> int:
    instance = _load_instance(args.instance)
    if args.algorithm == "auto":
        result = dispatch(instance)
        schedule, machines, name = result.schedule, result.machines, result.algorithm
        print(f"class = {result.instance_class}; guarantee: {result.guarantee}")
    elif args.algorithm == "loose":
        alpha = instance.max_density
        run = LooseAlgorithm(alpha).run(instance)
        schedule, machines, name = run.schedule, run.machines, "LooseAlgorithm"
    elif args.algorithm == "agreeable":
        run = AgreeableAlgorithm().run(instance)
        schedule, machines, name = run.schedule, run.machines, "AgreeableAlgorithm"
    elif args.algorithm == "laminar":
        run = LaminarAlgorithm().run(instance)
        schedule, machines, name = run.schedule, run.machines, "LaminarAlgorithm"
    else:
        raise SystemExit(f"unknown algorithm {args.algorithm}")
    report = schedule.verify(instance)
    print(f"{name}: {machines} machines, feasible = {report.feasible}, "
          f"migrations = {report.migrations}, preemptions = {report.preemptions}")
    if not report.feasible:
        return 1
    if args.output:
        save(schedule, args.output)
        print(f"schedule written to {args.output}")
    return 0


def cmd_simulate(args) -> int:
    instance = _load_instance(args.instance)
    policy_cls = POLICIES[args.policy]
    if args.machines is None:
        k = min_machines(lambda k: policy_cls(), instance)
        print(f"minimum machines for {args.policy}: {k}")
        return 0
    engine = simulate(policy_cls(), instance, machines=args.machines,
                      speed=Fraction(args.speed))
    print(f"{args.policy} on {args.machines} machines (speed {args.speed}): "
          f"missed = {engine.missed_jobs or 'none'}")
    if args.gantt:
        print(render_gantt(engine.schedule(), width=args.width))
    return 1 if engine.missed_jobs else 0


def cmd_gantt(args) -> int:
    obj = load(args.schedule)
    if not isinstance(obj, Schedule):
        raise SystemExit(f"{args.schedule} does not contain a schedule")
    print(render_gantt(obj, width=args.width))
    return 0


def cmd_svg(args) -> int:
    obj = load(args.schedule)
    if not isinstance(obj, Schedule):
        raise SystemExit(f"{args.schedule} does not contain a schedule")
    save_svg(obj, args.output, width=args.width, title=args.title)
    print(f"SVG written to {args.output}")
    return 0


def cmd_profile(args) -> int:
    import json as _json

    instance = _load_instance(args.instance)
    profile = MandatoryProfile.of(instance)
    network = None
    if args.network:
        tables = profile.tables
        # A dropped interval is one node and one sink arc: no job arc
        # reaches it, so the unsparsified sizes follow from the tables.
        dropped = tables.dropped
        network = {
            "intervals_elementary": tables.elementary_count,
            "intervals_kept": len(tables.intervals),
            "intervals_dropped": dropped,
            "nodes_before": tables.n_nodes + dropped,
            "nodes_after": tables.n_nodes,
            "edges_before": tables.n_edges + dropped,
            "edges_after": tables.n_edges,
        }
    witness = profile.witness
    if args.json:
        payload = {
            "instance": args.instance,
            "n": len(instance),
            "peak_density": str(profile.peak),
            "lower_bound": profile.bound,
            "witness": None if witness is None else {
                "jobs": list(witness.jobs),
                "region": [[str(c.start), str(c.end)] for c in witness.region],
            },
            **({"network": network} if network else {}),
        }
        print(_json.dumps(payload, indent=2))
        return 0
    print(f"n = {len(instance)}, mandatory-load peak = {float(profile.peak):.2f}, "
          f"certified lower bound on m = {profile.bound}")
    if witness is not None:
        print(f"witness: C(S, I) = {witness.contribution(instance)} > "
              f"{witness.capacity} = {witness.machines}·|I| for "
              f"{len(set(witness.jobs))} jobs S and {len(witness.region)} "
              f"interval(s) I, |I| = {witness.region.length}")
    if network:
        print("feasibility network (event-interval sparsification):")
        print(f"  intervals: {network['intervals_elementary']} elementary → "
              f"{network['intervals_kept']} kept "
              f"({network['intervals_dropped']} dropped)")
        print(f"  nodes:     {network['nodes_before']} → {network['nodes_after']}")
        print(f"  edges:     {network['edges_before']} → {network['edges_after']}")
    if profile.peak:
        print(profile.sparkline(args.width))
    return 0


def cmd_realtime(args) -> int:
    import json as _json

    from .realtime import PeriodicTask, TaskSet, provisioning_report

    with open(args.taskset, "r", encoding="utf-8") as fh:
        spec = _json.load(fh)
    ts = TaskSet()
    for item in spec["tasks"]:
        ts.add(PeriodicTask(
            wcet=Fraction(str(item["wcet"])),
            period=Fraction(str(item["period"])),
            deadline=Fraction(str(item["deadline"])) if "deadline" in item else None,
            phase=Fraction(str(item.get("phase", 0))),
            name=item.get("name", ""),
        ))
    report = provisioning_report(ts, horizon=args.horizon)
    print(f"tasks = {report.n_tasks}, jobs = {report.n_jobs}, "
          f"U = {report.utilization:.3f} (⌈U⌉ = {report.utilization_bound})")
    print(f"migratory optimum = {report.migratory_opt}")
    print(f"recommended (non-migratory, {report.algorithm} on "
          f"{report.instance_class} class) = {report.recommended_machines} "
          f"machines ({report.overhead:.2f}× the optimum)")
    return 0


def cmd_verify(args) -> int:
    """Certified verdicts: check schedules, certify optima, cross-check backends."""
    import json as _json

    instance = _load_instance(args.instance)
    speed = Fraction(args.speed)
    exit_code = 0

    if args.schedule:
        obj = load(args.schedule)
        if not isinstance(obj, Schedule):
            raise SystemExit(f"{args.schedule} does not contain a schedule")
        report = obj.verify(instance, speed, machines=args.m)
        bound = f" on ≤ {args.m} machines" if args.m is not None else ""
        print(f"schedule{bound}: feasible = {report.feasible}, "
              f"machines used = {report.machines_used}, "
              f"migrations = {report.migrations}")
        for violation in report.violations[:10]:
            print(f"  violation: {violation}")
        return 0 if report.feasible else 1

    if args.m is not None:
        cert = certify(instance, args.m, speed, backend=args.backend, check=False)
        result = check_certificate(instance, cert)
        print(cert.describe(instance) if cert.kind == "infeasible" else cert.describe())
        print(f"certificate check: {'ok' if result.ok else 'FAILED'}")
        for reason in result.reasons[:10]:
            print(f"  {reason}")
        exit_code = 0 if result.ok else 1
        if args.output and result.ok:
            with open(args.output, "w", encoding="utf-8") as fh:
                _json.dump(cert.to_dict(), fh, indent=2)
            print(f"certificate written to {args.output}")
        return exit_code

    try:
        co = certified_optimum(instance, speed, backend=args.backend)
    except Unsatisfiable as exc:
        print("infeasible at every machine count")
        print("  " + exc.certificate.describe(instance))
        return 0
    print(co.describe(instance))
    if args.differential:
        report = differential_optimum(instance, speed)
        print(report.summary())
        for failure in report.failures[:10]:
            print(f"  {failure}")
        exit_code = 0 if report.ok else 1
    if args.output:
        payload = {
            "optimum": co.machines,
            "feasible": co.feasible.to_dict(),
            **({"infeasible": co.infeasible.to_dict()} if co.infeasible else {}),
        }
        with open(args.output, "w", encoding="utf-8") as fh:
            _json.dump(payload, fh, indent=2)
        print(f"certificates written to {args.output}")
    return exit_code


def cmd_stats(args) -> int:
    """One-shot observability report: counters and span timings for a run."""
    import json as _json

    instance = _load_instance(args.instance)
    speed = Fraction(args.speed)
    backend = resolve_backend(args.backend)
    with obs.capture() as registry:
        try:
            co = certified_optimum(instance, speed, backend=backend)
            headline = f"certified optimum: {co.machines}"
            optimum = co.machines
        except Unsatisfiable:
            headline = "infeasible at every machine count"
            optimum = None
        if args.policy and optimum:
            engine = simulate(POLICIES[args.policy](), instance,
                              machines=optimum, speed=speed)
            headline += (
                f"; {args.policy} at m={optimum}: "
                f"missed = {engine.missed_jobs or 'none'}"
            )
    if args.prom:
        print(obs.render_prometheus(registry.snapshot()), end="")
        return 0
    from .offline import kernel as _kernel

    kernel_info = _kernel.build_info() if backend == "dinic_c" else None
    if args.json:
        payload = {
            "instance": args.instance,
            "speed": str(speed),
            "backend": backend,
            "backend_requested": args.backend,
            **({"kernel": kernel_info} if kernel_info else {}),
            "optimum": optimum,
            "hist_quantiles": registry.hist_quantiles(),
            **registry.snapshot(),
        }
        print(_json.dumps(payload, indent=2))
        return 0
    print(headline)
    note = f" (requested {args.backend})" if args.backend != backend else ""
    print(f"backend: {backend}{note}")
    if kernel_info and "path" in kernel_info:
        hit = "cache hit" if kernel_info["cache_hit"] else "compiled"
        print(f"kernel: {hit} via {kernel_info['compiler'] or 'cached object'} "
              f"at {kernel_info['path']}")
    print(registry.summary())
    return 0


def cmd_trace(args) -> int:
    """Analyze (or diff) JSONL trace files written by ``--trace``."""
    import json as _json

    files = list(args.files)
    mode = "analyze"
    if files and files[0] in ("analyze", "diff"):
        mode = files.pop(0)

    if mode == "diff":
        if len(files) != 2:
            raise SystemExit(
                "trace diff expects exactly two trace files: "
                "repro trace diff before.jsonl after.jsonl"
            )
        before, after = obs.load_trace(files[0]), obs.load_trace(files[1])
        if args.json:
            print(_json.dumps(
                obs.diff_traces(before, after, top=args.top), indent=2
            ))
        else:
            print(obs.render_diff(before, after, top=args.top))
        return 0

    if len(files) != 1:
        raise SystemExit(
            "trace expects one trace file (or 'diff A B'): "
            "repro trace run.jsonl"
        )
    summary = obs.load_trace(files[0])
    if args.folded:
        folded = obs.folded_stacks(summary)
        if args.folded == "-":
            print(folded)
        else:
            with open(args.folded, "w", encoding="utf-8") as fh:
                fh.write(folded + ("\n" if folded else ""))
    if args.json:
        print(_json.dumps({
            "file": files[0],
            "records": summary.records,
            "skipped": summary.skipped,
            "hotspots": obs.hotspots(summary, top=args.top),
            "counters": summary.counters,
            "events": summary.events,
        }, indent=2))
        return 0
    print(f"{files[0]}: {summary.records} records"
          + (f" ({summary.skipped} skipped)" if summary.skipped else ""))
    print(obs.render_hotspots(summary, top=args.top))
    if args.folded and args.folded != "-":
        print(f"folded stacks written to {args.folded}")
    return 0


def cmd_sweep(args) -> int:
    """Deterministic parallel sweeps over seeded instance batches."""
    import json as _json

    from .analysis.competitive import profiles_from_samples
    from .analysis.report import print_table
    from .runner import (
        FAMILIES,
        FaultPlan,
        InstanceSpec,
        JournalError,
        SweepPlan,
        journal_status,
        merge_journals,
        run_sweep,
        split_seed,
    )
    from .runner.tasks import POLICIES as SWEEP_POLICIES
    from .verify.differential import DifferentialReport

    if args.kind == "status":
        # Progress of a journaled sweep, from the durable file alone — no
        # plan flags, no running process required.
        if len(args.journals) != 1:
            raise SystemExit(
                "sweep status expects exactly one journal, e.g. "
                "repro sweep status journal.jsonl"
            )
        try:
            status = journal_status(args.journals[0])
        except JournalError as exc:
            raise SystemExit(str(exc))
        if args.json:
            print(_json.dumps(status, indent=2))
            return 0 if status["complete"] else 1
        k, n = status["shard"]
        shard_note = f" (shard {k}/{n} of a {status['plan_items']}-item plan)" \
            if (k, n) != (0, 1) else ""
        print(f"journal: {status['path']}{shard_note}")
        print(f"plan fingerprint: {status['plan']}")
        by_status = ", ".join(
            f"{count} {name}" for name, count in status["by_status"].items()
        ) or "none"
        print(f"items: {status['settled']}/{status['shard_items']} settled "
              f"({by_status}), {status['remaining']} remaining")
        if status["retries"]:
            print(f"retries: {status['retries']}")
        if status["dropped"]:
            print(f"torn tail: {status['dropped']} corrupt trailing line(s) "
                  f"(resume will heal them)")
        if status["rate"] is not None:
            eta = (f", eta ~{status['eta_seconds']:.0f}s"
                   if status["remaining"] else "")
            print(f"throughput: {status['rate']:.1f} items/s over "
                  f"{status['elapsed_seconds']:.1f}s{eta}")
        print("state: " + ("complete" if status["complete"]
                           else "incomplete (resume with --resume)"))
        return 0 if status["complete"] else 1

    if args.kind == "merge":
        # Fold N shard journals into the canonical unsharded report.  The
        # journals are self-describing (fingerprint, shard identity, parent
        # item count), so no plan flags are needed — or allowed.
        if not args.journals:
            raise SystemExit(
                "sweep merge requires at least one shard journal, e.g. "
                "repro sweep merge shard0.jsonl shard1.jsonl shard2.jsonl"
            )
        if args.shard:
            raise SystemExit("--shard does not apply to 'sweep merge'")
        try:
            report = merge_journals(args.journals)
        except JournalError as exc:
            raise SystemExit(str(exc))
        if args.snapshot:
            with open(args.snapshot, "w", encoding="utf-8") as fh:
                _json.dump(report.snapshot(), fh, indent=2)
        if args.prom:
            with open(args.prom, "w", encoding="utf-8") as fh:
                fh.write(obs.render_prometheus(report.snapshot()))
        if args.json:
            print(_json.dumps(report.snapshot(), indent=2))
        elif report.results and all(
            r.task == "ratio_sample" for r in report.results
        ):
            profiles = profiles_from_samples(report.values())
            print_table(
                f"repro sweep merge ({len(args.journals)} shard journal(s))",
                ["policy", "family", "samples", "worst", "avg", "median"],
                [p.row() for p in profiles],
            )
            print()
            print(report.summary())
        else:
            print(report.summary())
        return 0 if report.ok else 1

    if args.journals:
        raise SystemExit(
            "positional journal arguments only apply to 'sweep merge' "
            "and 'sweep status'"
        )
    if args.resume and not args.journal:
        raise SystemExit("--resume requires --journal")

    policies = [p for p in args.policies.split(",") if p]
    families = [f for f in args.families.split(",") if f]
    for policy in policies:
        if policy not in SWEEP_POLICIES:
            raise SystemExit(f"unknown policy {policy!r}; known: {sorted(SWEEP_POLICIES)}")
    for family in families:
        if family not in FAMILIES:
            raise SystemExit(f"unknown family {family!r}; known: {sorted(FAMILIES)}")

    if args.kind == "ratio":
        plan = SweepPlan.competitive(
            policies=policies,
            families=families,
            n=args.n,
            seeds=args.seeds,
            root_seed=args.root_seed,
        )
    elif args.kind == "differential":
        specs = [
            InstanceSpec(family, args.n, split_seed(args.root_seed, i))
            for family in families
            for i in range(args.seeds)
        ]
        plan = SweepPlan.differential(
            specs, speeds=[s for s in args.speeds.split(",") if s]
        )
    elif args.kind == "corpus":
        plan = SweepPlan.corpus(args.dir)
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown sweep kind {args.kind}")

    if args.shard:
        try:
            k_text, n_text = args.shard.split("/", 1)
            k, n = int(k_text), int(n_text)
        except ValueError:
            raise SystemExit(
                f"--shard expects K/N (e.g. 1/3); got {args.shard!r}"
            )
        try:
            plan = plan.shard(k, n)
        except ValueError as exc:
            raise SystemExit(str(exc))

    faults = None
    if args.chaos:
        try:
            faults = FaultPlan.parse(args.chaos)
        except ValueError as exc:
            raise SystemExit(str(exc))

    ticker = None
    if args.progress:
        def ticker(sample) -> None:
            sys.stderr.write("\r" + sample.render() + "\x1b[K")
            sys.stderr.flush()

    # SIGTERM behaves like Ctrl-C: run_sweep's interrupt path flushes and
    # fsyncs the journal and reports the cut-short items as "cancelled",
    # so a supervisor's polite kill never leaves a torn journal tail.
    import signal as _signal

    def _sigterm(signum, frame):
        raise KeyboardInterrupt

    old_sigterm = None
    try:
        old_sigterm = _signal.signal(_signal.SIGTERM, _sigterm)
    except ValueError:
        pass  # not the main thread (embedded use): keep default behavior

    try:
        report = run_sweep(
            plan,
            n_jobs=args.workers,
            chunksize=args.chunksize,
            item_timeout=args.item_timeout,
            retry=args.retries,
            faults=faults,
            journal=args.journal,
            resume=args.resume,
            progress=ticker,
            progress_interval=0.2 if args.progress else 1.0,
        )
    except KeyboardInterrupt:
        # The interrupt landed outside run_sweep's own catch (e.g. between
        # chunks on the serial path) — the journal is already synced by its
        # finally; report the cancellation instead of a traceback.
        print("sweep interrupted; journal flushed"
              + (f": {args.journal} (re-run with --resume)" if args.journal
                 else ""))
        return 130
    finally:
        if old_sigterm is not None:
            _signal.signal(_signal.SIGTERM, old_sigterm)
        if ticker is not None:
            sys.stderr.write("\n")
            sys.stderr.flush()

    if args.snapshot:
        with open(args.snapshot, "w", encoding="utf-8") as fh:
            _json.dump(report.snapshot(), fh, indent=2)
    if args.prom:
        with open(args.prom, "w", encoding="utf-8") as fh:
            fh.write(obs.render_prometheus(report.snapshot()))

    exit_code = 0 if report.ok else 1
    if args.json:
        print(_json.dumps(report.snapshot(), indent=2))
    elif args.kind == "ratio":
        profiles = profiles_from_samples(report.values())
        print_table(
            f"repro sweep ratio (n={args.n}, seeds={args.seeds}, "
            f"workers={args.workers})",
            ["policy", "family", "samples", "worst", "avg", "median"],
            [p.row() for p in profiles],
        )
        print()
        print(report.summary())
    elif args.kind == "differential":
        diff = DifferentialReport(
            tuple(rec for records in report.values() for rec in records)
        )
        print(diff.summary())
        for failure in diff.failures[:10]:
            print(f"  {failure}")
        print(report.summary())
        exit_code = exit_code or (0 if diff.ok else 1)
    else:  # corpus
        rows = [
            (v["name"], v["speed"], v.get("optimum", "-"), v["ok"])
            for v in report.values()
        ]
        print_table(
            f"repro sweep corpus ({args.dir})",
            ["case", "speed", "optimum", "ok"],
            rows,
        )
        print()
        print(report.summary())
        if not all(v["ok"] for v in report.values()):
            exit_code = 1
    bad_items = report.errors + report.failed + report.crashes + report.cancelled
    for bad in bad_items[:10]:
        print(f"  item {bad.index} [{bad.task}] {bad.status}: {bad.error}")
    if bad_items and args.journal:
        print(f"  journal: {args.journal} (re-run with --resume to retry)")
    return exit_code


def cmd_serve(args) -> int:
    """Run the crash-only scheduling daemon (see ``repro.serve``)."""
    from .serve import ServeDaemon

    daemon = ServeDaemon(
        journal_dir=args.journal_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queue=args.max_queue,
        request_timeout=args.request_timeout,
        sweep_workers=args.sweep_workers,
        max_body=args.max_body,
    )
    return daemon.run()


def cmd_adversary(args) -> int:
    policy_cls = POLICIES[args.policy]
    if args.kind == "migration-gap":
        adv = MigrationGapAdversary(policy_cls(), machines=args.k + 3)
        res = adv.run(args.k)
        print(f"forced {res.machines_forced} machines with {res.n_jobs} jobs "
              f"(policy: {args.policy})")
        rep = res.offline_witness().verify(res.instance)
        print(f"offline witness: feasible = {rep.feasible} on "
              f"{rep.machines_used} machines")
        if args.gantt:
            print(render_witness(res.node, width=args.width))
        if args.output:
            save(res.instance, args.output)
            print(f"instance written to {args.output}")
        return 0
    if args.kind == "agreeable":
        adv = AgreeableAdversary(policy_cls(), m=args.m, machines=args.machines)
        res = adv.run(max_rounds=args.rounds)
        print(f"capacity {args.machines}/{args.m} = "
              f"{args.machines / args.m:.3f}: "
              f"{'MISSED a deadline' if res.missed else 'survived'} "
              f"after {res.rounds_played} rounds")
        if args.output:
            save(res.instance, args.output)
            print(f"instance written to {args.output}")
        return 0
    raise SystemExit(f"unknown adversary {args.kind}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Online machine minimization: algorithms, optima, and "
        "adversaries from Chen–Megow–Schewior (SPAA 2016).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared by every subcommand: stream the run's observability events.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--trace",
        metavar="OUT.jsonl",
        default=None,
        help="write the run's span/counter event stream as JSON lines",
    )

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("generate", help="generate a seeded instance")
    p.add_argument("kind", choices=sorted(GENERATORS))
    p.add_argument("-n", type=int, default=30)
    p.add_argument("--alpha", default="1/2", help="looseness for loose/tight")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = add_parser("classify", help="classify an instance JSON")
    p.add_argument("instance")
    p.set_defaults(func=cmd_classify)

    p = add_parser("opt", help="exact optima of an instance")
    p.add_argument("instance")
    p.add_argument("--backend", default=DEFAULT_BACKEND,
                   choices=["auto", *sorted(BACKENDS)])
    p.add_argument("--nonmigratory", action="store_true")
    p.add_argument("--exact-threshold", type=int, default=14)
    p.set_defaults(func=cmd_opt)

    p = add_parser("solve", help="schedule with a paper algorithm")
    p.add_argument("instance")
    p.add_argument("--algorithm", default="auto",
                   choices=["auto", "loose", "agreeable", "laminar"])
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_solve)

    p = add_parser("simulate", help="run a classic online policy")
    p.add_argument("instance")
    p.add_argument("--policy", default="edf", choices=sorted(POLICIES))
    p.add_argument("--machines", type=int, default=None,
                   help="fixed machine count (omit to search the minimum)")
    p.add_argument("--speed", default="1")
    p.add_argument("--gantt", action="store_true")
    p.add_argument("--width", type=int, default=100)
    p.set_defaults(func=cmd_simulate)

    p = add_parser("gantt", help="render a schedule JSON")
    p.add_argument("schedule")
    p.add_argument("--width", type=int, default=100)
    p.set_defaults(func=cmd_gantt)

    p = add_parser("svg", help="render a schedule JSON to SVG")
    p.add_argument("schedule")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--width", type=int, default=900)
    p.add_argument("--title", default="")
    p.set_defaults(func=cmd_svg)

    p = add_parser("profile", help="mandatory-load profile of an instance")
    p.add_argument("--network", action="store_true",
                   help="also report feasibility-network size before/after "
                        "event-interval sparsification")
    p.add_argument("instance")
    p.add_argument("--width", type=int, default=80)
    p.add_argument("--json", action="store_true",
                   help="emit the profile (incl. the bound's witness) as JSON")
    p.set_defaults(func=cmd_profile)

    p = add_parser("realtime", help="provision machines for a task set JSON")
    p.add_argument("taskset", help='JSON: {"tasks": [{"wcet": 1, "period": 4, ...}]}')
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(func=cmd_realtime)

    p = add_parser(
        "verify",
        help="certified feasibility verdicts and backend cross-checks",
    )
    p.add_argument("instance")
    p.add_argument("--m", type=int, default=None,
                   help="certify at this machine count (default: certified optimum)")
    p.add_argument("--speed", default="1")
    p.add_argument("--backend", default=DEFAULT_BACKEND,
                   choices=["auto", *sorted(BACKENDS)])
    p.add_argument("--schedule",
                   help="verify this schedule JSON against the instance instead")
    p.add_argument("--differential", action="store_true",
                   help="cross-check every available kernel at OPT and OPT−1")
    p.add_argument("-o", "--output", help="write the certificate(s) as JSON")
    p.set_defaults(func=cmd_verify)

    p = add_parser(
        "stats",
        help="one-shot observability report (counters + span timings)",
    )
    p.add_argument("instance")
    p.add_argument("--speed", default="1")
    p.add_argument("--backend", default=DEFAULT_BACKEND,
                   choices=["auto", *sorted(BACKENDS)])
    p.add_argument("--policy", default=None, choices=sorted(POLICIES),
                   help="also simulate this policy at the optimum "
                        "(adds engine.* counters)")
    p.add_argument("--json", action="store_true",
                   help="emit the counter/span snapshot as JSON")
    p.add_argument("--prom", action="store_true",
                   help="emit the snapshot in Prometheus text exposition "
                        "format (counters, gauges, histograms, span totals)")
    p.set_defaults(func=cmd_stats)

    p = add_parser(
        "trace",
        help="analyze a --trace JSONL file (hotspots, folded stacks, diffs)",
    )
    p.add_argument("files", nargs="+", metavar="FILE",
                   help="trace file; or 'analyze FILE'; or 'diff A B' for a "
                        "before/after comparison")
    p.add_argument("--top", type=int, default=20,
                   help="rows in the hotspot/diff table (default 20)")
    p.add_argument("--folded", metavar="OUT.txt", default=None,
                   help="write folded stacks (flamegraph.pl/speedscope "
                        "input) to this file ('-' for stdout)")
    p.add_argument("--json", action="store_true",
                   help="emit the hotspot rows (or diff rows) as JSON")
    p.set_defaults(func=cmd_trace)

    p = add_parser(
        "sweep",
        help="deterministic parallel sweep (process-pool fan-out)",
    )
    p.add_argument("kind",
                   choices=["ratio", "differential", "corpus", "merge",
                            "status"])
    p.add_argument("journals", nargs="*", metavar="JOURNAL",
                   help="shard journals to fold ('merge' kind), or the one "
                        "journal to report on ('status' kind)")
    p.add_argument("--shard", metavar="K/N", default=None,
                   help="run only the deterministic, group-preserving shard "
                        "K of N (0 <= K < N); every host computes the same "
                        "partition, journals stamp the shard identity, and "
                        "'sweep merge' folds the journals back together")
    p.add_argument("--policies", default="edf,firstfit",
                   help="comma-separated policy names (ratio sweeps)")
    p.add_argument("--families", default="uniform",
                   help="comma-separated instance families")
    p.add_argument("-n", type=int, default=30, help="jobs per instance")
    p.add_argument("--seeds", type=int, default=5,
                   help="seed count (split deterministically from --root-seed)")
    p.add_argument("--root-seed", type=int, default=0)
    p.add_argument("--speeds", default="1",
                   help="comma-separated speeds (differential sweeps)")
    p.add_argument("--dir", default="tests/data/corpus",
                   help="corpus directory (corpus sweeps)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (1 = serial fast path, no pool)")
    p.add_argument("--chunksize", type=int, default=4,
                   help="minimum items per worker chunk (groups never split)")
    p.add_argument("--json", action="store_true",
                   help="emit results + merged counter snapshot as JSON")
    p.add_argument("--snapshot", metavar="OUT.json",
                   help="also write the merged snapshot to this file")
    p.add_argument("--prom", metavar="OUT.prom", default=None,
                   help="also write the merged snapshot in Prometheus text "
                        "exposition format to this file")
    p.add_argument("--progress", action="store_true",
                   help="render a live single-line progress ticker "
                        "(done/failed/retried counts, throughput, ETA) on "
                        "stderr while the sweep runs")
    p.add_argument("--journal", metavar="OUT.jsonl", default=None,
                   help="append every completed item to this durable, "
                        "checksummed journal as the sweep runs")
    p.add_argument("--resume", action="store_true",
                   help="restore settled groups from --journal and run only "
                        "the rest (requires --journal)")
    p.add_argument("--retries", type=int, default=None, metavar="K",
                   help="transient-failure retry budget per item "
                        "(default 2; exhausted items are quarantined as "
                        "'failed', not fatal)")
    p.add_argument("--item-timeout", type=float, default=None, metavar="SEC",
                   help="per-item deadline in seconds (timeouts are "
                        "transient: retried, then quarantined)")
    p.add_argument("--chaos", metavar="SPEC", default=None,
                   help="inject deterministic faults for chaos testing, "
                        "e.g. 'sigkill:2,transient:4,hang:0@1' "
                        "(kind:item-index[@attempt])")
    p.set_defaults(func=cmd_sweep)

    p = add_parser(
        "serve",
        help="run the crash-only HTTP scheduling daemon",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8123,
                   help="TCP port (0 binds an ephemeral port; the daemon "
                        "prints the bound address on startup)")
    p.add_argument("--workers", type=int, default=4,
                   help="compute threads for certify/optimum requests")
    p.add_argument("--journal-dir", default="serve-journal",
                   help="durable queue directory: sweep specs, item "
                        "journals, and finished reports live here; a "
                        "restarted daemon resumes every unfinished sweep "
                        "it finds")
    p.add_argument("--max-queue", type=int, default=8,
                   help="pending-sweep bound; a full queue answers 429 "
                        "with Retry-After instead of growing a backlog")
    p.add_argument("--request-timeout", type=float, default=10.0,
                   metavar="SEC",
                   help="per-request deadline; overruns answer 503 with "
                        "Retry-After while the computation finishes in "
                        "the background and warms the cache")
    p.add_argument("--sweep-workers", type=int, default=1,
                   help="max worker processes per sweep (specs may ask "
                        "for fewer)")
    p.add_argument("--max-body", type=int, default=1_000_000,
                   help="request body size bound in bytes (413 beyond)")
    p.set_defaults(func=cmd_serve)

    p = add_parser("adversary", help="run a lower-bound adversary")
    p.add_argument("kind", choices=["migration-gap", "agreeable"])
    p.add_argument("--policy", default="firstfit", choices=sorted(POLICIES))
    p.add_argument("--k", type=int, default=5, help="migration-gap depth")
    p.add_argument("--m", type=int, default=40, help="agreeable: optimum m")
    p.add_argument("--machines", type=int, default=44,
                   help="agreeable: the policy's machine budget")
    p.add_argument("--rounds", type=int, default=15)
    p.add_argument("--gantt", action="store_true")
    p.add_argument("--width", type=int, default=100)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_adversary)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    sink = obs.attach(obs.JsonlSink(trace_path)) if trace_path else None
    try:
        return args.func(args)
    except OverflowError:
        raise SystemExit(PAST_INT64) from None
    finally:
        if sink is not None:
            obs.detach(sink)
            sink.close()


if __name__ == "__main__":
    sys.exit(main())
