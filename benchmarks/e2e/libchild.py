"""Library process of the ``optimum_1e5`` workload (started by ``run.py``).

Makes one small ``migratory_optimum`` call and prints ``{"ready": true}``:
the parent times spawn → ready as one cold start.  With ``--timed`` it then
runs the timed phase on fresh copies of one large generated instance,
sampling the host's speed on the calling thread meanwhile, checks every
answer, and prints ``{"result": {...}}``.  The peak RSS is read before the
checks, so it covers the timed calls only.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import workloads as wl  # noqa: E402
from repro.offline.optimum import migratory_optimum  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--timed", action="store_true")
    args = parser.parse_args(argv)

    wl.optimum_probe(wl.FULL, args.seed)
    print(json.dumps({"ready": True}), flush=True)
    if not args.timed:
        return 0
    base = wl.optimum_base(wl.FULL, args.seed)
    with wl.ProbeSignal() as speed:
        phase = wl.run_optimum_calls(base, args.seconds, migratory_optimum)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, messages = wl.check_optimum_answers(base, phase.records)
    result = {
        "latencies": phase.latencies,
        "done": phase.done,
        "spans": phase.spans,
        "attempted": phase.attempted,
        "busy_s": phase.busy_s,
        "probe_starts": speed.starts,
        "probe_costs": speed.costs,
        "failed": failed,
        "messages": messages,
        "rss_mb": rss_mb,
    }
    print(json.dumps({"result": result}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
