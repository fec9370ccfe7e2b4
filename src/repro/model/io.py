"""JSON (de)serialization for instances and schedules.

Exact rationals are stored as ``"num/den"`` strings so round-trips are
lossless — a requirement for archiving adversarial instances, whose data
has denominators that no float can represent (see DESIGN.md §4).  A JSON
number decodes by the model's own rule (:func:`~repro.model.intervals.to_fraction`),
so ``0.1`` in a payload is the same instant as ``Job(0.1, …)``; a boolean
is not a number here.

Malformed input never escapes as a bare ``KeyError``/``TypeError``: every
structural problem — invalid JSON, wrong/missing ``kind``, a missing or
unparsable field — raises :class:`InstanceFormatError` carrying the source
(file path when known) and the offending location (``jobs[3]: missing
field 'deadline'``).  Corpus files and user-supplied instances are exactly
the inputs one fat-fingers; the error must say *where*, not just *that*.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from typing import Any, Dict, Iterable, List, Optional, Union

from .instance import Instance
from .intervals import to_fraction
from .job import Job
from .schedule import Schedule, Segment

FORMAT_VERSION = 1


class InstanceFormatError(ValueError):
    """A payload is structurally invalid; the message pins file and field."""

    def __init__(self, message: str, source: Optional[str] = None) -> None:
        self.source = source
        super().__init__(f"{source}: {message}" if source else message)


def _enc(x: Fraction) -> Union[int, str]:
    num, den = x.numerator, x.denominator
    if den == 1:
        return num
    return f"{num}/{den}"


def _field(item: Dict[str, Any], name: str, where: str, source: Optional[str]):
    """``item[name]`` or an :class:`InstanceFormatError` naming the spot."""
    if not isinstance(item, dict):
        raise InstanceFormatError(
            f"{where}: expected an object, got {type(item).__name__}", source
        )
    try:
        return item[name]
    except KeyError:
        raise InstanceFormatError(
            f"{where}: missing field {name!r}", source
        ) from None


def _dec_field(
    item: Dict[str, Any],
    name: str,
    where: str,
    source: Optional[str],
    shared: Dict[Any, Fraction],
) -> Fraction:
    """``item[name]`` as a Fraction, one per distinct raw value in
    ``shared`` (equal raw values decode to equal Fractions)."""
    value = _field(item, name, where, source)
    if type(value) is bool:  # before the lookup: True and 1 are one key
        raise InstanceFormatError(
            f"{where}: field {name!r} must be a rational, got bool", source
        )
    try:
        x = shared.get(value)
    except TypeError:  # unhashable, so not a rational either
        x = None
    if x is None:
        try:
            x = shared[value] = (
                to_fraction(value) if type(value) is float else Fraction(value)
            )
        except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
            raise InstanceFormatError(
                f"{where}: field {name!r} is not a valid rational "
                f"({value!r}): {exc}",
                source,
            ) from None
    return x


def _require(
    value: Any, kind: type, what: str, name: str, where: str,
    source: Optional[str],
) -> None:
    """Refuse a field whose JSON type is not exactly ``kind``."""
    if type(value) is not kind:
        raise InstanceFormatError(
            f"{where}: field {name!r} must be {what}, got {type(value).__name__}",
            source,
        )


def instance_to_dict(instance: Instance) -> Dict[str, Any]:
    """Lossless dictionary form of an instance."""
    return {
        "format": FORMAT_VERSION,
        "kind": "instance",
        "jobs": [
            {
                "id": j.id,
                "release": _enc(j.release),
                "processing": _enc(j.processing),
                "deadline": _enc(j.deadline),
                **({"label": j.label} if j.label else {}),
            }
            for j in instance
        ],
    }


def instance_from_dict(
    data: Dict[str, Any], source: Optional[str] = None
) -> Instance:
    if not isinstance(data, dict):
        raise InstanceFormatError(
            f"expected a JSON object, got {type(data).__name__}", source
        )
    if data.get("kind") != "instance":
        raise InstanceFormatError(
            f"not an instance payload: kind={data.get('kind')!r}", source
        )
    raw_jobs = data.get("jobs")
    if not isinstance(raw_jobs, list):
        raise InstanceFormatError(
            "missing field 'jobs' (expected a list)"
            if raw_jobs is None
            else f"field 'jobs' must be a list, got {type(raw_jobs).__name__}",
            source,
        )
    jobs: List[Job] = []
    ids = set()
    shared: Dict[Any, Fraction] = {}
    for i, item in enumerate(raw_jobs):
        where = f"jobs[{i}]"
        release = _dec_field(item, "release", where, source, shared)
        processing = _dec_field(item, "processing", where, source, shared)
        deadline = _dec_field(item, "deadline", where, source, shared)
        job_id = _field(item, "id", where, source)
        label = item.get("label", "")
        _require(job_id, int, "an integer", "id", where, source)
        _require(label, str, "a string", "label", where, source)
        try:
            job = Job(release, processing, deadline, id=job_id, label=label)
        except ValueError as exc:
            # Job's own validation (deadline < release + processing, ...)
            raise InstanceFormatError(f"{where}: {exc}", source) from None
        if job_id in ids:
            raise InstanceFormatError(
                f"{where}: duplicate job id {job_id}", source
            )
        ids.add(job_id)
        jobs.append(job)
    return Instance(jobs)


def _tick_values(schedule: Schedule) -> Dict[int, Union[int, str]]:
    """Each distinct tick of a schedule's runs, encoded once as
    :func:`_enc` encodes its ``Fraction``."""
    starts, _, _, ends = schedule.runs
    base = schedule.base
    values: Dict[int, Union[int, str]] = {}
    for tick in {*starts, *ends}:
        g = gcd(tick, base)
        values[tick] = tick // g if g == base else f"{tick // g}/{base // g}"
    return values


def schedule_to_dict(schedule: Union[Schedule, Iterable[Segment]]) -> Dict[str, Any]:
    """Lossless dictionary form of a schedule (or of bare segments).

    A :class:`Schedule`'s entries are written from its runs, so no
    :class:`Segment` is built for them.
    """
    if isinstance(schedule, Schedule):
        starts, machines, jobs, ends = schedule.runs
        value = _tick_values(schedule).__getitem__
        segments = [
            {"job": job_id, "machine": machine, "start": value(start),
             "end": value(end)}
            for start, machine, job_id, end in zip(starts, machines, jobs, ends)
        ]
    else:
        segments = [
            {
                "job": s.job_id,
                "machine": s.machine,
                "start": _enc(s.start),
                "end": _enc(s.end),
            }
            for s in schedule
        ]
    return {"format": FORMAT_VERSION, "kind": "schedule", "segments": segments}


def segments_json(schedule: Schedule) -> str:
    """``json.dumps(schedule_to_dict(schedule)["segments"], sort_keys=True)``,
    written as text straight from the runs: each distinct tick is encoded
    once and no dict or :class:`Segment` is built.  The served body's
    segment list (:func:`repro.serve.app.encode_body`).
    """
    text = {
        tick: f'"{value}"' if type(value) is str else str(value)
        for tick, value in _tick_values(schedule).items()
    }
    starts, machines, jobs, ends = schedule.runs
    return "[" + ", ".join([
        f'{{"end": {text[end]}, "job": '
        f'{job_id if type(job_id) is int else json.dumps(job_id)}, '
        f'"machine": {machine}, "start": {text[start]}}}'
        for start, machine, job_id, end in zip(starts, machines, jobs, ends)
    ]) + "]"


def schedule_from_dict(
    data: Dict[str, Any], source: Optional[str] = None
) -> Schedule:
    if not isinstance(data, dict):
        raise InstanceFormatError(
            f"expected a JSON object, got {type(data).__name__}", source
        )
    if data.get("kind") != "schedule":
        raise InstanceFormatError(
            f"not a schedule payload: kind={data.get('kind')!r}", source
        )
    raw_segments = data.get("segments")
    if not isinstance(raw_segments, list):
        raise InstanceFormatError(
            "missing field 'segments' (expected a list)"
            if raw_segments is None
            else "field 'segments' must be a list, got "
            + type(raw_segments).__name__,
            source,
        )
    segments: List[Segment] = []
    shared: Dict[Any, Fraction] = {}
    for i, item in enumerate(raw_segments):
        where = f"segments[{i}]"
        job_id = _field(item, "job", where, source)
        machine = _field(item, "machine", where, source)
        start = _dec_field(item, "start", where, source, shared)
        end = _dec_field(item, "end", where, source, shared)
        _require(job_id, int, "an integer", "job", where, source)
        _require(machine, int, "an integer", "machine", where, source)
        try:
            segment = Segment(job_id, machine, start, end)
        except ValueError as exc:
            raise InstanceFormatError(f"{where}: {exc}", source) from None
        segments.append(segment)
    return Schedule(segments)


def dumps(obj: Union[Instance, Schedule], indent: int = None) -> str:
    """Serialize an instance or schedule to a JSON string."""
    if isinstance(obj, Instance):
        return json.dumps(instance_to_dict(obj), indent=indent)
    if isinstance(obj, Schedule):
        return json.dumps(schedule_to_dict(obj), indent=indent)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def loads(text: str, source: Optional[str] = None) -> Union[Instance, Schedule]:
    """Deserialize a JSON string produced by :func:`dumps`.

    All malformed input — bad JSON, wrong kind, missing or unparsable
    fields — raises :class:`InstanceFormatError` (a ``ValueError``) whose
    message names ``source`` and the offending field.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON: {exc}", source) from None
    if not isinstance(data, dict):
        raise InstanceFormatError(
            f"expected a JSON object, got {type(data).__name__}", source
        )
    kind = data.get("kind")
    if kind == "instance":
        return instance_from_dict(data, source)
    if kind == "schedule":
        return schedule_from_dict(data, source)
    raise InstanceFormatError(f"unknown payload kind {kind!r}", source)


def save(obj: Union[Instance, Schedule], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj, indent=2))


def load(path: str) -> Union[Instance, Schedule]:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read(), source=path)
