"""Round-trip tests for JSON serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.model import Instance, Job, Schedule, Segment
from repro.model.io import (
    dumps,
    instance_from_dict,
    instance_to_dict,
    load,
    loads,
    save,
    schedule_from_dict,
    schedule_to_dict,
)

from tests.strategies import instances_st


class TestInstanceRoundTrip:
    def test_simple(self):
        inst = Instance([Job(0, 1, 2, id=0), Job(1, 2, 5, id=1, label="x")])
        again = loads(dumps(inst))
        assert again == inst
        assert again.job(1).label == "x"

    def test_fractional_data_lossless(self):
        inst = Instance([Job(Fraction(1, 3), Fraction(10, 7), Fraction(22, 7), id=0)])
        again = loads(dumps(inst))
        assert again[0].release == Fraction(1, 3)
        assert again[0].processing == Fraction(10, 7)

    @given(instances_st())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, inst):
        assert loads(dumps(inst)) == inst

    def test_adversarial_denominators(self):
        """The Lemma 2 instances have huge denominators; must survive."""
        from repro.core.adversary.migration_gap import MigrationGapAdversary
        from repro.online.nonmigratory import FirstFitEDF

        res = MigrationGapAdversary(FirstFitEDF(), machines=8).run(5)
        inst = res.instance
        assert loads(dumps(inst)) == inst

    def test_kind_checked(self):
        with pytest.raises(ValueError):
            instance_from_dict({"kind": "schedule", "segments": []})


class TestScheduleRoundTrip:
    def test_simple(self):
        sched = Schedule([Segment(0, 0, 0, 1), Segment(1, 2, Fraction(1, 2), 3)])
        again = loads(dumps(sched))
        assert list(again) == list(sched)

    def test_kind_checked(self):
        with pytest.raises(ValueError):
            schedule_from_dict({"kind": "instance", "jobs": []})

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            loads('{"kind": "mystery"}')

    def test_dumps_type_checked(self):
        with pytest.raises(TypeError):
            dumps(42)


class TestFileIO:
    def test_save_load(self, tmp_path):
        inst = Instance([Job(0, 1, 3, id=0)])
        path = tmp_path / "inst.json"
        save(inst, str(path))
        assert load(str(path)) == inst

    def test_save_load_schedule(self, tmp_path):
        sched = Schedule([Segment(0, 1, 0, 2)])
        path = tmp_path / "sched.json"
        save(sched, str(path))
        loaded = load(str(path))
        assert isinstance(loaded, Schedule)
        assert loaded.machines_used == 1

    def test_integer_encoding_compact(self):
        inst = Instance([Job(0, 1, 2, id=0)])
        text = dumps(inst)
        assert '"release": 0' in text  # ints stay ints, not "0/1"


class TestMalformedInput:
    """Every structural defect raises InstanceFormatError with location context."""

    def _err(self, fn, *args, **kwargs):
        from repro.model.io import InstanceFormatError

        with pytest.raises(InstanceFormatError) as excinfo:
            fn(*args, **kwargs)
        return str(excinfo.value)

    def test_invalid_json(self):
        msg = self._err(loads, "{not json", source="bad.json")
        assert "bad.json" in msg and "invalid JSON" in msg

    def test_non_object_payload(self):
        msg = self._err(loads, "[1, 2, 3]")
        assert "expected a JSON object" in msg

    def test_missing_job_field_names_index_and_field(self):
        payload = {
            "kind": "instance",
            "jobs": [
                {"id": 0, "release": 0, "processing": 1, "deadline": 2},
                {"id": 1, "release": 0, "processing": 1},  # no deadline
            ],
        }
        msg = self._err(instance_from_dict, payload, "corpus/x.json")
        assert "corpus/x.json" in msg
        assert "jobs[1]" in msg and "'deadline'" in msg

    def test_unparsable_rational_named(self):
        payload = {
            "kind": "instance",
            "jobs": [{"id": 0, "release": "one half", "processing": 1, "deadline": 2}],
        }
        msg = self._err(instance_from_dict, payload)
        assert "jobs[0]" in msg and "'release'" in msg

    def test_jobs_not_a_list(self):
        msg = self._err(instance_from_dict, {"kind": "instance", "jobs": "nope"})
        assert "'jobs'" in msg and "list" in msg

    def test_missing_jobs(self):
        msg = self._err(instance_from_dict, {"kind": "instance"})
        assert "missing field 'jobs'" in msg

    def test_job_entry_not_an_object(self):
        payload = {"kind": "instance", "jobs": [17]}
        msg = self._err(instance_from_dict, payload)
        assert "jobs[0]" in msg and "expected an object" in msg

    def test_semantic_job_violation_located(self):
        # deadline before release+processing: Job's own validation, relocated
        payload = {
            "kind": "instance",
            "jobs": [{"id": 0, "release": 0, "processing": 5, "deadline": 1}],
        }
        msg = self._err(instance_from_dict, payload)
        assert "jobs[0]" in msg

    def test_schedule_missing_segment_field(self):
        payload = {
            "kind": "schedule",
            "segments": [{"job": 0, "machine": 0, "start": 0}],  # no end
        }
        msg = self._err(schedule_from_dict, payload, "sched.json")
        assert "sched.json" in msg and "segments[0]" in msg and "'end'" in msg

    def test_load_names_the_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "instance", "jobs": [{"id": 0}]}')
        msg = self._err(load, str(path))
        assert "broken.json" in msg and "jobs[0]" in msg

    def test_format_error_is_a_value_error(self):
        from repro.model.io import InstanceFormatError

        assert issubclass(InstanceFormatError, ValueError)

    def test_no_bare_keyerror_ever(self):
        """The class of bug this guards against: bare KeyError escaping."""
        payloads = [
            {"kind": "instance", "jobs": [{}]},
            {"kind": "schedule", "segments": [{}]},
            {"kind": "instance", "jobs": [None]},
            {"kind": "instance", "jobs": {}},
        ]
        from repro.model.io import InstanceFormatError

        for payload in payloads:
            fn = instance_from_dict if payload["kind"] == "instance" else schedule_from_dict
            with pytest.raises(InstanceFormatError):
                fn(payload)


class TestFieldTypes:
    """Job ids are ints, labels strings, segment jobs and machines ints;
    a duplicate id names the job that repeats it."""

    def _err(self, fn, payload):
        from repro.model.io import InstanceFormatError

        with pytest.raises(InstanceFormatError) as excinfo:
            fn(payload, "req.json")
        return str(excinfo.value)

    @staticmethod
    def _jobs(**second):
        jobs = [{"id": 0, "release": 0, "processing": 1, "deadline": 2},
                {"id": 1, "release": "1/2", "processing": 1, "deadline": 3}]
        jobs[1].update(second)
        return {"kind": "instance", "jobs": jobs}

    @pytest.mark.parametrize("second, message", [
        ({"id": [1]}, "jobs[1]: field 'id' must be an integer, got list"),
        ({"id": {"a": 1}}, "jobs[1]: field 'id' must be an integer, got dict"),
        ({"id": "b"}, "jobs[1]: field 'id' must be an integer, got str"),
        ({"id": 1.5}, "jobs[1]: field 'id' must be an integer, got float"),
        ({"id": True}, "jobs[1]: field 'id' must be an integer, got bool"),
        ({"id": None}, "jobs[1]: field 'id' must be an integer, got NoneType"),
        ({"label": 7}, "jobs[1]: field 'label' must be a string, got int"),
        ({"label": None}, "jobs[1]: field 'label' must be a string, got NoneType"),
        ({"id": 0}, "jobs[1]: duplicate job id 0"),
    ])
    def test_instance_field_types(self, second, message):
        assert self._err(instance_from_dict, self._jobs(**second)) == (
            f"req.json: {message}"
        )

    def test_duplicate_names_the_repeating_job(self):
        payload = self._jobs()
        payload["jobs"].append(
            {"id": 1, "release": 0, "processing": 1, "deadline": 1}
        )
        assert self._err(instance_from_dict, payload) == (
            "req.json: jobs[2]: duplicate job id 1"
        )

    def test_labels_and_int_ids_still_load(self):
        inst = instance_from_dict(self._jobs(label="critical", id=-4))
        assert inst.job(-4).label == "critical"

    @pytest.mark.parametrize("field, value, kind", [
        ("job", "0", "str"), ("job", 0.0, "float"), ("job", None, "NoneType"),
        ("machine", [0], "list"), ("machine", 1.0, "float"),
        ("machine", False, "bool"),
    ])
    def test_segment_field_types(self, field, value, kind):
        segments = [{"job": 0, "machine": 0, "start": 0, "end": 1},
                    {"job": 1, "machine": 1, "start": "1/2", "end": 2}]
        segments[1][field] = value
        assert self._err(
            schedule_from_dict, {"kind": "schedule", "segments": segments}
        ) == (
            f"req.json: segments[1]: field {field!r} must be an integer, "
            f"got {kind}"
        )

    def test_segment_validation_still_located(self):
        segments = [{"job": 0, "machine": -1, "start": 0, "end": 1}]
        assert self._err(
            schedule_from_dict, {"kind": "schedule", "segments": segments}
        ) == "req.json: segments[0]: machine index must be non-negative"

    @pytest.mark.parametrize("second, message", [
        # True == 1 and False == 0, both already decoded for job 0
        ({"processing": True}, "field 'processing' must be a rational, got bool"),
        ({"release": False}, "field 'release' must be a rational, got bool"),
        ({"deadline": 1e400}, "field 'deadline' is not a valid rational (inf)"),
        ({"deadline": float("nan")}, "field 'deadline' is not a valid rational (nan)"),
    ])
    def test_numbers_that_are_not_rationals(self, second, message):
        assert self._err(instance_from_dict, self._jobs(**second)).startswith(
            f"req.json: jobs[1]: {message}"
        )

    def test_segment_bool_time_refused(self):
        segments = [{"job": 0, "machine": 0, "start": 0, "end": 1},
                    {"job": 1, "machine": 1, "start": 0, "end": True}]
        assert self._err(
            schedule_from_dict, {"kind": "schedule", "segments": segments}
        ) == "req.json: segments[1]: field 'end' must be a rational, got bool"

    def test_float_decodes_like_the_model(self):
        """A JSON number is the instant ``to_fraction`` makes of it, the
        same one ``Job(0.1, …)`` gets, not its binary expansion."""
        inst = instance_from_dict(self._jobs(release=0.1, processing=0.25))
        job = inst.job(1)
        assert job.release == Fraction(1, 10)
        assert job.processing == Fraction(1, 4)
        assert (job.release, job.processing) == (
            Job(0.1, 0.25, 3).release, Job(0.1, 0.25, 3).processing
        )

    def test_decoded_values_are_shared(self):
        inst = instance_from_dict(self._jobs(release=0, deadline=2))
        a, b = inst.job(0), inst.job(1)
        assert a.release is b.release and a.deadline is b.deadline
        assert a.processing is b.processing
