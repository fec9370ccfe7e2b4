"""The served certify's integer paths against their former bodies.

A served ``/v1/certify`` runs on integers from the JSON fields to the JSON
body; the bodies they replaced live on in ``tests/oracles.py``.  This
module pins each path to its reference with hypothesis:

* ``Schedule.from_ticks`` equals ``Schedule`` of the same pieces as
  ``Fraction`` segments and the reference normalization, errors included
  (touching, duplicate, unsorted and multi-machine pieces, composite tick
  bases), and shares one ``Fraction`` per distinct tick;
* ``schedule_from_work`` equals the former integer extraction with its own
  run merge, through both kernels' ``gather`` and ``wrap`` twins, which
  write the same ints (ids out of paper order, past int64, tick factors);
* ``schedule_to_dict``, ``segments_json`` and the served body equal the
  per-segment encoding and the generic dump of the same payload;
* ``Job`` accepts and rejects exactly as the ``Fraction`` validation did,
  with the same message;
* ``jsonable`` returns what the ``isinstance`` chain returned;
* ``instance_from_dict`` decodes to the reference's jobs and shares one
  ``Fraction`` per distinct raw value.
"""

from __future__ import annotations

import enum
import json
from fractions import Fraction
from typing import Any, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import Job, Schedule, Segment
from repro.model.intervals import IntervalUnion
from repro.model.io import (
    InstanceFormatError,
    instance_from_dict,
    schedule_to_dict,
    segments_json,
)
from repro.obs.sinks import jsonable
from repro.offline import kernel
from repro.offline.flow import schedule_from_work
from repro.serve.app import Response, _certificate_body, encode_body
from repro.verify import FeasibleCertificate, InfeasibleCertificate

from tests import oracles


def _outcome(fn) -> Any:
    """``fn()``, or the type and text of the ``ValueError`` it raised."""
    try:
        return fn()
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _shares_ticks(segments) -> bool:
    """Every distinct endpoint value is one ``Fraction`` object."""
    points = [x for s in segments for x in (s.start, s.end)]
    return len({id(x) for x in points}) == len(set(points))


# -- Schedule.from_ticks and the shared normalizer ----------------------------

#: Composite and prime tick bases, so the pieces' Fractions reduce unevenly.
BASES = st.sampled_from([1, 2, 3, 4, 6, 7, 12, 30, 77, 360])


@st.composite
def tick_pieces(draw, valid: bool = True):
    """Integer ``(job, machine, start, end)`` pieces: small ranges make
    touching and duplicate pieces common; chains are split runs, shuffled."""
    piece = st.tuples(
        st.integers(0, 3), st.integers(0, 3), st.integers(0, 12), st.integers(1, 5),
    ).map(lambda t: (t[0], t[1], t[2], t[2] + t[3]))
    pieces = draw(st.lists(piece, max_size=12))
    for job_id, machine, start, cuts in draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 12),
                  st.lists(st.integers(1, 4), min_size=2, max_size=4)),
        max_size=3,
    )):
        for length in cuts:
            pieces.append((job_id, machine, start, start + length))
            start += length
    if not valid and pieces:
        i = draw(st.integers(0, len(pieces) - 1))
        job_id, machine, start, end = pieces[i]
        pieces[i] = draw(st.sampled_from([
            (job_id, machine, start, start),
            (job_id, machine, end, start),
            (job_id, -1, start, end),
            (job_id, -2, end, start),
        ]))
    return draw(st.permutations(pieces))


def _as_segments(pieces, base) -> List[Segment]:
    return [
        Segment(job_id, machine, Fraction(start, base), Fraction(end, base))
        for job_id, machine, start, end in pieces
    ]


class TestFromTicks:
    @settings(max_examples=150, deadline=None)
    @given(tick_pieces(), BASES)
    def test_matches_fraction_schedule_and_reference(self, pieces, base):
        got = Schedule.from_ticks(pieces, base)
        segments = _as_segments(pieces, base)
        assert got.segments == Schedule(segments).segments
        assert got.segments == oracles.reference_merge_adjacent(segments)
        assert _shares_ticks(got.segments)

    @settings(max_examples=100, deadline=None)
    @given(tick_pieces(valid=False), BASES)
    def test_errors_match(self, pieces, base):
        got = _outcome(lambda: Schedule.from_ticks(pieces, base).segments)
        reference = _outcome(lambda: Schedule(_as_segments(pieces, base)).segments)
        assert got == reference

    def test_touching_duplicate_and_multi_machine(self):
        pieces = [(0, 1, 4, 6), (0, 1, 2, 4), (0, 0, 2, 4), (1, 0, 4, 5),
                  (1, 0, 4, 5), (0, 1, 6, 9), (1, 0, 5, 6)]
        got = Schedule.from_ticks(pieces, 6)
        assert got.segments == oracles.reference_merge_adjacent(
            _as_segments(pieces, 6)
        )
        assert got.segments == (
            Segment(0, 0, Fraction(1, 3), Fraction(2, 3)),
            Segment(0, 1, Fraction(1, 3), Fraction(3, 2)),
            Segment(1, 0, Fraction(2, 3), Fraction(5, 6)),
            Segment(1, 0, Fraction(2, 3), 1),
        )

    def test_first_bad_piece_raises(self):
        with pytest.raises(ValueError, match="job 7 has non-positive length"):
            Schedule.from_ticks([(0, 0, 0, 1), (7, -1, 3, 3), (8, -1, 0, 1)], 2)
        with pytest.raises(ValueError, match="machine index must be non-negative"):
            Schedule.from_ticks([(0, 0, 0, 1), (8, -1, 0, 1), (7, 0, 3, 3)], 2)

    def test_empty(self):
        assert Schedule.from_ticks([], 5).segments == ()

    def test_unmerged_segments_are_the_callers(self):
        segments = _as_segments(
            [(0, 0, 3, 4), (0, 0, 1, 3), (1, 1, 1, 2), (2, 0, 4, 6), (1, 1, 0, 1)], 2
        )
        got = Schedule(segments).segments
        assert got == (
            Segment(1, 1, 0, 1), Segment(0, 0, Fraction(1, 2), 2),
            Segment(2, 0, 2, 3),
        )
        assert got[2] is segments[3]  # the one run of a single segment


# -- extraction against the former integer body --------------------------------


#: Job ids as callers pick them: out of paper order, negative, past int64.
IDS = (-7, 0, 2, 3, 10**20)

#: The kernels whose ``gather`` and ``wrap`` twins run here.
KERNELS = ("py", "c") if kernel.available() else ("py",)


@st.composite
def flows(draw):
    """A work map over consecutive on-grid intervals (a grid of ``1/grid``,
    machine time in ticks of ``1/(grid·f)``); a piece may overrun its
    interval or a machine budget, so the wrap errors are compared too."""
    grid = draw(st.sampled_from([1, 2, 3, 6]))
    f = draw(st.sampled_from([1, 2, 3]))
    m = draw(st.integers(1, 3))
    bounds = [draw(st.integers(0, 4))]
    for _ in range(draw(st.integers(1, 5))):
        bounds.append(bounds[-1] + draw(st.integers(1, 4)))
    intervals = [
        (Fraction(a, grid), Fraction(b, grid)) for a, b in zip(bounds, bounds[1:])
    ]
    overrun = draw(st.booleans())
    work: dict = {}
    for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
        length = (b - a) * f
        room = m * length
        for job_id in draw(st.permutations(IDS)):
            cap = length + overrun if overrun else min(length, room)
            if cap <= 0 or draw(st.booleans()):
                continue
            amount = draw(st.integers(1, cap))
            room -= amount
            work.setdefault(job_id, {})[k] = amount
    order = draw(st.permutations(list(work)))
    return {job_id: work[job_id] for job_id in order}, intervals, m, grid * f


class TestScheduleFromWork:
    @settings(max_examples=150, deadline=None)
    @given(flows())
    def test_matches_former_integer_body(self, flow):
        """Both kernels' ``gather`` and ``wrap`` write the same ints, and
        the schedule they extract is the reference's, errors included."""
        work, intervals, m, ticks = flow
        bounds = oracles.tick_bounds(intervals)
        reference = _outcome(
            lambda: oracles.reference_tick_schedule_from_work(work, intervals, m, ticks)
        )
        gathered, wrapped = [], []
        for name in KERNELS:
            pieces = oracles.flow_pieces(work, len(intervals), kernel.get(name))
            gathered.append([list(part) for part in pieces[:3]])
            got = _outcome(
                lambda: schedule_from_work(pieces, bounds, m, ticks).segments
            )
            assert got == reference
            if got and isinstance(got[0], Segment):
                assert _shares_ticks(got)
            wrapped.append(_outcome(lambda: list(pieces.kernel.wrap(
                m, *pieces[:3], bounds.start_base, bounds.len_base,
                ticks // bounds.base_scale, pieces.ids,
            ))))
        assert gathered.count(gathered[0]) == len(gathered)
        assert wrapped.count(wrapped[0]) == len(wrapped)


# -- the served encoding against the generic one -------------------------------


class TestServedEncoding:
    """``schedule_to_dict`` and the served body write the runs as the
    per-segment encoder and the generic dump wrote the segments."""

    @settings(max_examples=150, deadline=None)
    @given(tick_pieces(), BASES, st.sampled_from([0, -20, 2**70]), st.permutations(IDS))
    def test_runs_encode_like_segments(self, pieces, base, shift, ids):
        pieces = [(ids[job], machine, start + shift, end + shift)
                  for job, machine, start, end in pieces]
        schedule = Schedule.from_ticks(pieces, base)
        reference = oracles.reference_schedule_to_dict(schedule.segments)
        assert schedule_to_dict(schedule) == reference
        assert segments_json(schedule) == json.dumps(
            reference["segments"], sort_keys=True
        )
        cert = FeasibleCertificate(2, Fraction(3, 2), schedule)
        for payload, served in (
            (cert.to_dict(), _certificate_body(cert)),
            ({"satisfiable": True, "optimum": 2, "feasible": cert.to_dict()},
             {"satisfiable": True, "optimum": 2, "feasible": _certificate_body(cert)}),
        ):
            assert encode_body(Response(200, served))[0] == (
                oracles.reference_encode(payload).encode()
            )

    def test_other_payloads_encode_generically(self):
        cert = InfeasibleCertificate(
            1, Fraction(1), (3, 1), IntervalUnion.from_pairs([(0, Fraction(1, 2))])
        )
        for payload in (
            {"error": {"code": "bad_request", "message": "ünïcode"}},
            {"b": [{"z": 1, "a": Fraction(1, 3)}], "a": {2: None, 1: (True, 0.5)}},
            {"infeasible": _certificate_body(cert), "satisfiable": False},
            [], {},
        ):
            assert encode_body(Response(200, payload))[0] == (
                oracles.reference_encode(payload).encode()
            )


# -- Job validation against the Fraction body ----------------------------------

#: Job data as callers pass it: ints, Fractions with mixed denominators,
#: rational strings, floats, negatives, and one unparsable string.
VALUES = st.one_of(
    st.integers(-6, 12),
    st.builds(Fraction, st.integers(-24, 48), st.sampled_from([1, 2, 3, 4, 6, 7])),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-12, 24), st.sampled_from([1, 3, 5])),
    st.sampled_from([0.5, 1.25, -0.75, 2.0, 0.1]),
    st.just("one"),
)


def _job_outcome(release, processing, deadline, job_id):
    try:
        job = Job(release, processing, deadline, id=job_id)
        got = (job.release, job.processing, job.deadline)
        assert all(type(x) is Fraction for x in got)
        return got
    except ValueError as exc:
        return type(exc).__name__, str(exc)


class TestJobValidation:
    @settings(max_examples=300, deadline=None)
    @given(VALUES, VALUES, VALUES, st.integers(0, 3))
    def test_matches_fraction_validation(self, release, processing, deadline, job_id):
        assert _job_outcome(release, processing, deadline, job_id) == _outcome(
            lambda: oracles.reference_job_fields(release, processing, deadline, job_id)
        )

    @settings(max_examples=150, deadline=None)
    @given(VALUES, VALUES, st.sampled_from([-1, 0, 1]), st.sampled_from([1, 2, 3, 7]))
    def test_window_edge_matches(self, release, processing, sign, den):
        """``d = r + p`` exactly, and one tick of ``1/den`` either side."""
        try:
            deadline = (
                Fraction(release) + Fraction(processing) + Fraction(sign, den)
            )
        except (ValueError, TypeError):
            return
        assert _job_outcome(release, processing, deadline, 5) == _outcome(
            lambda: oracles.reference_job_fields(release, processing, deadline, 5)
        )

    def test_fractions_are_kept_not_copied(self):
        r, p, d = Fraction(1, 3), Fraction(1, 2), Fraction(5, 6)
        job = Job(r, p, d, id=0)
        assert job.release is r and job.processing is p and job.deadline is d

    @pytest.mark.parametrize("args, message", [
        ((0, 0, 1), "job 9: processing time must be positive"),
        ((0, Fraction(-1, 2), 1), "job 9: processing time must be positive"),
        ((Fraction(1, 3), Fraction(1, 2), Fraction(4, 5)),
         "job 9: window [1/3, 4/5) too short for processing time 1/2"),
    ])
    def test_messages(self, args, message):
        with pytest.raises(ValueError) as excinfo:
            Job(*args, id=9)
        assert str(excinfo.value) == message


# -- jsonable against the isinstance chain -------------------------------------


class Color(enum.IntEnum):
    RED = 1
    BLUE = 2


class Opaque:
    def __str__(self) -> str:
        return "opaque"


LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**20, 10**20),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.sampled_from([Color.RED, Color.BLUE, np.int64(7), np.int32(-3),
                     np.float64(0.5), Opaque()]),
)
KEYS = st.one_of(
    st.text(max_size=3), st.integers(-3, 3), st.booleans(), st.none(),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    st.sampled_from([Color.RED, (1, "a")]),
)
HASHABLE = st.one_of(st.integers(-3, 3), st.text(max_size=2), st.booleans())
NESTED = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4),
        st.frozensets(HASHABLE, max_size=4),
        st.sets(HASHABLE, max_size=4),
    ),
    max_leaves=20,
)


class TestJsonable:
    @settings(max_examples=200, deadline=None)
    @given(NESTED)
    def test_matches_isinstance_chain(self, value):
        got, reference = jsonable(value), oracles.reference_jsonable(value)
        # repr tells True from 1 and a member from its value, which == does not
        assert repr(got) == repr(reference)
        assert got == reference

    def test_exact_json_passes_through_unchanged(self):
        payload = {"a": [1, "b", None, (2, 3)], "c": {"d": []}}
        assert jsonable(payload) == {"a": [1, "b", None, [2, 3]], "c": {"d": []}}


# -- decoding against the reference jobs ----------------------------------------

RAW = st.one_of(
    st.integers(-2, 12),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-4, 24), st.sampled_from([1, 2, 3])),
)


@st.composite
def raw_instances(draw):
    """Instance payloads whose raw values repeat across jobs."""
    jobs = []
    for i in range(draw(st.integers(0, 8))):
        job = {"id": i, "release": draw(RAW), "processing": draw(RAW),
               "deadline": draw(RAW)}
        if draw(st.booleans()):
            job["label"] = draw(st.sampled_from(["", "x", "critical"]))
        jobs.append(job)
    return {"kind": "instance", "jobs": draw(st.permutations(jobs))}


def _reference_decode(payload) -> Any:
    rows = []
    for i, item in enumerate(payload["jobs"]):
        try:
            fields = oracles.reference_job_fields(
                Fraction(item["release"]), Fraction(item["processing"]),
                Fraction(item["deadline"]), item["id"],
            )
        except ValueError as exc:
            return "InstanceFormatError", f"jobs[{i}]: {exc}"
        rows.append((*fields, item["id"], item.get("label", "")))
    return sorted(rows, key=lambda row: (row[0], -row[2], row[3]))


class TestDecode:
    @settings(max_examples=150, deadline=None)
    @given(raw_instances())
    def test_matches_reference_and_shares_fractions(self, payload):
        try:
            instance = instance_from_dict(payload)
        except InstanceFormatError as exc:
            assert _reference_decode(payload) == ("InstanceFormatError", str(exc))
            return
        assert [
            (j.release, j.processing, j.deadline, j.id, j.label) for j in instance
        ] == _reference_decode(payload)
        # one Fraction object per distinct raw value
        by_raw: dict = {}
        for item in payload["jobs"]:
            job = instance.job(item["id"])
            for name, value in (("release", item["release"]),
                                ("processing", item["processing"]),
                                ("deadline", item["deadline"])):
                by_raw.setdefault(value, set()).add(id(getattr(job, name)))
        assert all(len(objects) == 1 for objects in by_raw.values())
        assert len({i for objects in by_raw.values() for i in objects}) == len(by_raw)
