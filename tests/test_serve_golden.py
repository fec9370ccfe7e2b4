"""Served bodies, byte for byte: SHA-256 digests of every golden response.

``tests/data/serve_golden.json`` holds the SHA-256 of each ``/v1/optimum``
body and each ``/v1/certify`` body at ``m`` = 1, 3, OPT and OPT − 1, sent
through :class:`~repro.serve.testclient.TestClient`, for every case of the
golden corpus and for three generated n = 1000 instances (one with
fractional data).  A change to extraction, normalization, decoding or
encoding that alters a single byte of a served certificate fails here and
names the request.

The digests are a record, not a specification: after a deliberate change
to the response format, regenerate them with::

    PYTHONPATH=src python -m tests.test_serve_golden --write
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from fractions import Fraction
from typing import Dict, Iterator, List, Tuple

from repro.generators import uniform_random_instance
from repro.model import Instance, Job
from repro.model.io import instance_to_dict, load
from repro.serve import ServeApp, TestClient

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
CORPUS_DIR = os.path.join(DATA_DIR, "corpus")
GOLDEN = os.path.join(DATA_DIR, "serve_golden.json")


def fractional_instance(n: int, seed: int) -> Instance:
    """``n`` jobs whose ``r``, ``p`` and slack have denominators 1–7."""
    rng = random.Random(seed)
    jobs = []
    for i in range(n):
        release = Fraction(rng.randint(0, 2000 * 7), rng.randint(1, 7))
        processing = Fraction(rng.randint(1, 10 * 5), rng.randint(1, 5))
        slack = Fraction(rng.randint(0, 10 * 3), rng.randint(1, 3))
        jobs.append(Job(release, processing, release + processing + slack, id=i))
    return Instance(jobs)


def golden_cases() -> List[Tuple[str, Instance, str]]:
    """``(name, instance, speed)`` for every golden request group."""
    with open(os.path.join(CORPUS_DIR, "expectations.json"), encoding="utf-8") as fh:
        corpus = json.load(fh)["cases"]
    cases = [
        (f"{case['file']}@{case['speed']}",
         load(os.path.join(CORPUS_DIR, case["file"])), case["speed"])
        for case in corpus
    ]
    cases.append(("uniform_n1000_seed1@1",
                  uniform_random_instance(1000, horizon=2000, seed=1), "1"))
    cases.append(("uniform_n1000_seed2@3/2",
                  uniform_random_instance(1000, horizon=2000, seed=2), "3/2"))
    cases.append(("fractional_n1000_seed3@1", fractional_instance(1000, 3), "1"))
    return cases


def served_bodies() -> Iterator[Tuple[str, bytes]]:
    """``(request name, response body)`` for every golden request."""
    client = TestClient(ServeApp())
    try:
        for name, instance, speed in golden_cases():
            payload = {"instance": instance_to_dict(instance), "speed": speed}
            optimum = client.post("/v1/optimum", json=payload)
            assert optimum.status == 200, (name, optimum.text)
            yield f"{name} optimum", optimum.body
            machines = [1, 3]
            opt = optimum.json().get("optimum")
            if opt is not None:
                machines += [opt, opt - 1]
            for m in sorted(set(machines)):
                certify = client.post("/v1/certify", json={**payload, "m": m})
                assert certify.status == 200, (name, m, certify.text)
                yield f"{name} certify m={m}", certify.body
    finally:
        client.app.close()


def digests() -> Dict[str, str]:
    return {name: hashlib.sha256(body).hexdigest() for name, body in served_bodies()}


def test_served_bodies_match_golden_digests():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = digests()
    assert sorted(got) == sorted(golden)
    changed = [name for name in golden if got[name] != golden[name]]
    assert not changed, f"{len(changed)} served bodies changed: {changed[:10]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_serve_golden --write")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
