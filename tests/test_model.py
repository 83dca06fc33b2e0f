"""Interval algebra and core type tests.

Spans are plain (start, end) pairs, and a set of instants is a canonical
tuple of them, as `model._canonicalize` builds it. That canonical form, and
the set algebra the test oracles are written in (`brute.intersect` and
`brute.subtract`), are checked two ways: frozen examples worked out by
hand, and randomized comparison against a per-second membership oracle.
"""
from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import itertools
import pickle
import pkgutil
import tempfile
import typing
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import wtminer
from brute import contains_point, horizon, intersect, subtract, total_duration
from wtminer.analysis import AnalysisResult, CauseImpact, TransitionImpact
from wtminer.batching import Batch, BatchingConfig, BatchingResult
from wtminer.calendars import AbsoluteAvailability, CalendarParams, WeeklyCalendar
from wtminer.concurrency import (
    ConcurrencyRelation,
    EnablementResult,
    EnablementStats,
    OracleThresholds,
)
from wtminer.decomposition import WtDecomposition, _WtDecompositionSlots
from wtminer.ingest import ColumnMapping, IngestStats, LoadResult, load_log
from wtminer.model import (
    ActivityInstance,
    ConfigError,
    EventLog,
    IngestError,
    Span,
    UNKNOWN_RESOURCE,
    _ActivityInstanceSlots,
    _Record,
    _canonicalize,
    _fill,
)
from wtminer.pipeline import PipelineConfig, PipelineResult, run_pipeline
from wtminer.transitions import Transition

HORIZON = 200


def points(s: tuple[Span, ...]) -> set[int]:
    return {t for t in range(HORIZON) if contains_point(s, t)}


@st.composite
def interval_sets(draw) -> tuple[Span, ...]:
    n = draw(st.integers(min_value=0, max_value=6))
    spans = []
    for _ in range(n):
        a = draw(st.integers(min_value=0, max_value=HORIZON - 1))
        b = draw(st.integers(min_value=0, max_value=HORIZON - 1))
        spans.append((min(a, b), max(a, b)))
    return _canonicalize(spans)


class TestSingleSpan:
    """One (start, end) pair, as `_canonicalize` checks and stores it."""

    def test_duration_and_emptiness(self):
        assert total_duration(_canonicalize([(3, 8)])) == 5
        assert not _canonicalize([(4, 4)])
        assert _canonicalize([(4, 5)])

    def test_rejects_reversed_bounds(self):
        with pytest.raises(ValueError):
            _canonicalize([(5, 4)])
        with pytest.raises(ValueError):
            _canonicalize(((0, 2), (5, 4)))
        with pytest.raises(ValueError):
            _canonicalize([(1, 0)])

    def test_half_open_membership(self):
        s = _canonicalize([(2, 5)])
        assert contains_point(s, 2)
        assert contains_point(s, 4)
        assert not contains_point(s, 5)

    def test_touching_intervals_do_not_overlap(self):
        assert not intersect(_canonicalize([(0, 3)]), _canonicalize([(3, 6)]))
        assert not intersect(_canonicalize([(3, 6)]), _canonicalize([(0, 3)]))

    def test_pairwise_intersection(self):
        assert intersect(_canonicalize([(0, 4)]), _canonicalize([(3, 7)])) == ((3, 4),)
        assert intersect(_canonicalize([(0, 3)]), _canonicalize([(3, 7)])) == ()


class TestCanonicalForm:
    def test_merges_touching_and_overlapping(self):
        s = _canonicalize([(0, 3), (3, 5), (4, 8), (10, 12)])
        assert s == ((0, 8), (10, 12))

    def test_drops_empty_intervals(self):
        s = _canonicalize([(5, 5), (7, 9)])
        assert s == ((7, 9),)

    def test_sorts_input(self):
        s = _canonicalize([(10, 12), (0, 2)])
        assert s == ((0, 2), (10, 12))

    def test_empty_set(self):
        assert _canonicalize(()) == ()
        assert total_duration(_canonicalize(())) == 0


class TestSetAlgebra:
    def test_intersect_example(self):
        a = _canonicalize([(0, 4), (6, 10)])
        b = _canonicalize([(3, 7)])
        assert intersect(a, b) == ((3, 4), (6, 7))

    def test_subtract_example(self):
        a = _canonicalize([(0, 10)])
        b = _canonicalize([(2, 4), (6, 8)])
        assert subtract(a, b) == ((0, 2), (4, 6), (8, 10))

    def test_union_example(self):
        a = _canonicalize([(0, 2), (8, 10)])
        b = _canonicalize([(2, 5)])
        assert _canonicalize(a + b) == ((0, 5), (8, 10))

    def test_subtract_everything(self):
        a = _canonicalize([(3, 9)])
        assert not subtract(a, _canonicalize([(0, 20)]))

    @given(interval_sets(), interval_sets())
    def test_intersect_matches_membership_oracle(self, a, b):
        assert points(intersect(a, b)) == points(a) & points(b)

    @given(interval_sets(), interval_sets())
    def test_union_matches_membership_oracle(self, a, b):
        assert points(_canonicalize(a + b)) == points(a) | points(b)

    @given(interval_sets(), interval_sets())
    def test_subtract_matches_membership_oracle(self, a, b):
        assert points(subtract(a, b)) == points(a) - points(b)

    @given(interval_sets(), interval_sets())
    def test_partition_by_subtrahend(self, a, b):
        # Splitting A on B never changes total measure.
        assert total_duration(intersect(a, b)) + total_duration(subtract(a, b)) == total_duration(a)

    @given(interval_sets(), interval_sets())
    def test_subtract_result_disjoint_from_subtrahend(self, a, b):
        assert not intersect(subtract(a, b), b)

    @given(interval_sets(), interval_sets())
    def test_results_are_canonical(self, a, b):
        for s in (intersect(a, b), _canonicalize(a + b), subtract(a, b)):
            for (_, left_end), (right_start, _) in zip(s, s[1:]):
                assert left_end < right_start
            assert all(start < end for start, end in s)

    @given(interval_sets(), interval_sets())
    def test_fast_results_equal_their_canonical_form(self, a, b):
        # `intersect` and `subtract` return their output without re-canonicalizing.
        for result in (intersect(a, b), subtract(a, b)):
            assert result == _canonicalize(result)


class TestActivityInstance:
    def test_identity_equality(self):
        x = ActivityInstance("c1", "a", "r1", 10, 20, enabled=5)
        y = ActivityInstance("c1", "a", "r1", 10, 20, enabled=5)
        assert x != y
        assert len({x, y}) == 2
        assert {x: "x", y: "y"}[x] == "x"

    def test_waiting_and_processing(self):
        inst = ActivityInstance("c1", "a", "r1", 10, 25, enabled=4)
        assert inst.waiting == (4, 10)
        # The wait ends where processing starts, so the two spans merge.
        processing = (inst.started, inst.completed)
        assert _canonicalize((inst.waiting, processing)) == ((4, 25),)

    def test_waiting_requires_enablement(self):
        inst = ActivityInstance("c1", "a", "r1", 10, 25)
        with pytest.raises(ValueError):
            _ = inst.waiting

    def test_rejects_completion_before_start(self):
        with pytest.raises(ValueError):
            ActivityInstance("c1", "a", "r1", 10, 9)

    def test_rejects_enablement_after_start(self):
        with pytest.raises(ValueError):
            ActivityInstance("c1", "a", "r1", 10, 20, enabled=11)


# Each per-instance type and the writable base that owns its slots.
_WRITABLE_BASES = {
    ActivityInstance: _ActivityInstanceSlots,
    WtDecomposition: _WtDecompositionSlots,
}
_WRITABLE_IDS = [cls.__name__ for cls in _WRITABLE_BASES]


def _slotted_examples() -> list:
    """(object, field, new value) for the two per-instance types, the only
    ones with slots."""
    source = ActivityInstance("c1", "a", "r1", 0, 5, enabled=0)
    target = ActivityInstance("c1", "b", "r1", 9, 12, enabled=5)
    waits = ((5, 9),)
    decomposition = WtDecomposition(target, (), (), (), (), waits)
    return [
        (target, "started", 7),
        (target, "enabled", None),
        (decomposition, "batching", waits),
        (decomposition, "instance", source),
        (decomposition, "extraneous", ()),
    ]


def _frozen_examples() -> list:
    """The slotted examples, then plain frozen records, which keep their
    fields in an instance `__dict__`."""
    target = ActivityInstance("c1", "b", "r1", 9, 12, enabled=5)
    return _slotted_examples() + [
        (Transition("a", "b", (target,), 1.0, 4), "total_duration", 5),
        (
            TransitionImpact("a", "b", 1.0, 1, 4, {"extraneous": 4}, 1.0, 0.2),
            "delta",
            0.3,
        ),
        (AbsoluteAvailability(((5, 9),)), "available", ()),
    ]


class TestSlottedTypes:
    @pytest.mark.parametrize("obj, name, value", _frozen_examples())
    def test_fields_cannot_be_assigned(self, obj, name, value):
        before = getattr(obj, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, value)
        assert getattr(obj, name) == before

    @pytest.mark.parametrize("obj, name, value", _frozen_examples())
    def test_fields_cannot_be_deleted(self, obj, name, value):
        before = getattr(obj, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
        assert getattr(obj, name) == before

    @pytest.mark.parametrize("obj, name, value", _slotted_examples())
    def test_instances_have_no_dict(self, obj, name, value):
        assert not hasattr(obj, "__dict__")

    def test_constructors_set_every_slot(self):
        # Each per-instance type stores its fields in the slots of its
        # writable base before sealing the object; every slot must hold the
        # value given for it, and no slot is left out.
        source = ActivityInstance("c1", "a", "r1", 0, 5, 0)
        target = ActivityInstance("c1", "b", "r2", 9, 12, 5)
        sets = [((k, k + 1),) for k in range(5)]
        examples = [
            (target, ("c1", "b", "r2", 9, 12, 5)),
            (ActivityInstance("c2", "x", "r3", 3, 4), ("c2", "x", "r3", 3, 4, None)),
            (WtDecomposition(target, *sets), (target, *sets)),
        ]
        for obj, values in examples:
            names = _WRITABLE_BASES[type(obj)].__slots__
            assert len(names) == len(values)
            for name, value in zip(names, values):
                assert getattr(obj, name) == value


# One target per return of `Decomposer.decompose`, each the `b` of its case:
# c1 waits only for its batch with c2, c2 waits for c1's `b` on R2, c3's
# resource is unknown, and c4 does not wait. Epoch seconds.
_PIPELINE_LOG = """case_id,activity,resource,start_time,end_time
c1,a,R1,0,10
c1,b,R2,20,30
c2,a,R1,10,20
c2,b,R2,30,40
c3,a,R3,0,10
c3,b,,20,30
c4,a,R3,100,110
c4,b,R3,110,120
"""


def _pipeline_objects() -> tuple[EventLog, EventLog, tuple[WtDecomposition, ...]]:
    """The raw log from `load_log`, the enriched log from `compute_enablement`
    and the decompositions from `Decomposer.decompose` of `_PIPELINE_LOG`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        path.write_text(_PIPELINE_LOG, encoding="utf-8")
        raw = load_log(path, ColumnMapping(timestamp_format="epoch")).log
    result = run_pipeline(raw)
    return raw, result.enablement.log, result.decompositions


def _sealed_examples() -> list:
    """(public class, object) for every way the package builds one."""
    target = ActivityInstance("c1", "b", "r1", 9, 12, enabled=5)
    waits = ((5, 9),)
    raw, enriched, decompositions = _pipeline_objects()
    return [
        pytest.param(ActivityInstance, target, id="ActivityInstance"),
        pytest.param(
            ActivityInstance,
            ActivityInstance("c1", "a", "r1", 0, 5),
            id="ActivityInstance-unenabled",
        ),
        pytest.param(
            WtDecomposition,
            WtDecomposition(target, waits, waits, waits, waits, waits),
            id="WtDecomposition",
        ),
        pytest.param(ActivityInstance, raw.instances[0], id="load_log"),
        pytest.param(ActivityInstance, enriched.instances[1], id="compute_enablement"),
        *(
            pytest.param(WtDecomposition, d, id=f"decompose-{d.instance.case_id}")
            for d in decompositions
        ),
    ]


def test_pipeline_log_reaches_every_return_of_decompose():
    # What `_sealed_examples` relies on: one decomposition per return path.
    _, _, decompositions = _pipeline_objects()
    by_case = {d.instance.case_id: d for d in decompositions}
    assert sorted(by_case) == ["c1", "c2", "c3", "c4"]
    assert by_case["c1"].batching == ((10, 20),) and by_case["c1"].contention == ()
    assert by_case["c2"].contention == ((20, 30),)
    assert by_case["c3"].instance.resource == UNKNOWN_RESOURCE
    assert by_case["c3"].extraneous == ((10, 20),)
    assert by_case["c4"].waiting_duration == 0


class TestSealedLayout:
    # Each per-instance type is built as an object of a writable base, which
    # keeps CPython's fast slot stores, and then sealed by setting its class.
    @pytest.mark.parametrize("cls, base", _WRITABLE_BASES.items(), ids=_WRITABLE_IDS)
    def test_writable_base_owns_every_slot(self, cls, base):
        # A base directly on `object`: a writable subclass of the public
        # class would inherit its slots and have to restore `__setattr__`.
        assert base.__mro__ == (base, object)
        assert base in cls.__bases__
        assert base.__slots__
        for name in base.__slots__:
            assert type(vars(base)[name]).__name__ == "member_descriptor"
        assert "__setattr__" not in vars(base)
        assert "__delattr__" not in vars(base)

    @pytest.mark.parametrize("cls, base", _WRITABLE_BASES.items(), ids=_WRITABLE_IDS)
    def test_public_class_adds_no_slots_and_no_dict(self, cls, base):
        for klass in cls.__mro__:
            if klass not in (base, object):
                assert vars(klass).get("__slots__") == ()
        assert cls.__dictoffset__ == 0
        assert cls.__basicsize__ == base.__basicsize__

    @pytest.mark.parametrize("cls, obj", _sealed_examples())
    def test_constructed_objects_are_of_the_public_class(self, cls, obj):
        assert type(obj) is cls
        assert obj.__class__ is cls

    @pytest.mark.parametrize(
        "args, message",
        [
            (("c1", "a", "r1", 10, 9), "completes at 9 before it starts at 10"),
            (("c1", "a", "r1", 10, 20, 11), "enabled at 11 after it starts at 10"),
        ],
        ids=["completed-before-started", "enabled-after-started"],
    )
    def test_failed_check_raises_value_error(self, args, message):
        with pytest.raises(ValueError, match=message):
            ActivityInstance(*args)

    @pytest.mark.parametrize("cls, obj", _sealed_examples())
    def test_copy_and_pickle_stay_unsupported(self, cls, obj):
        # Neither is defined for these types: a copy is rebuilt through
        # `__new__` without arguments and then assigned its fields, and one
        # of the two steps raises.
        errors = (TypeError, dataclasses.FrozenInstanceError)
        for duplicate in (copy.copy, copy.deepcopy):
            with pytest.raises(errors):
                duplicate(obj)
        with pytest.raises(errors):
            pickle.loads(pickle.dumps(obj))


def _keyword_examples() -> list:
    """Each pipeline type with one value per field, in constructor order;
    the values of one type's fields differ pairwise, so a constructor that
    swaps two fields shows."""
    a = ActivityInstance("c1", "a", "r1", 0, 5, enabled=0)
    b = ActivityInstance("c1", "b", "r1", 9, 12, enabled=5)
    waits = ((5, 9),)
    empty = ()
    parts = [((k, k + 1),) for k in range(5, 9)]
    log = EventLog((a, b))
    batch = Batch((a, b))
    relation = ConcurrencyRelation(frozenset({("a", "b")}))
    enablement = EnablementResult(log, relation, {b: a}, EnablementStats())
    transition = Transition("a", "b", (b,), 1.0, 4)
    decomposition = WtDecomposition(b, empty, empty, empty, empty, waits)
    calendar = WeeklyCalendar(60, ((0, 3600),))
    impact = CauseImpact(4, 1.0, 1.0, 0.2)
    per_transition = TransitionImpact("a", "b", 1.0, 1, 4, {"extraneous": 4}, 1.0, 0.2)
    analysis = AnalysisResult(8, 4, 0.8, {"extraneous": impact}, (per_transition,))
    config = PipelineConfig(OracleThresholds(), BatchingConfig(), CalendarParams())
    availability = AbsoluteAvailability(waits)
    return [
        (
            ActivityInstance,
            {
                "case_id": "c1",
                "activity": "a",
                "resource": "r1",
                "started": 3,
                "completed": 5,
                "enabled": 1,
            },
        ),
        (EventLog, {"instances": (a, b)}),
        (
            Transition,
            {
                "source_activity": "a",
                "target_activity": "b",
                "instances": (b,),
                "case_frequency": 0.5,
                "total_duration": 4,
            },
        ),
        (
            WtDecomposition,
            {
                "instance": b,
                "batching": parts[0],
                "contention": parts[1],
                "prioritization": parts[2],
                "unavailability": parts[3],
                "extraneous": empty,
            },
        ),
        (BatchingConfig, {"gap_tolerance": 3, "min_batch_size": 4}),
        (Batch, {"members": (a, b)}),
        (BatchingResult, {"by_instance": {a: batch, b: batch}}),
        (
            OracleThresholds,
            {
                "dependency_threshold": 0.5,
                "min_bidirectional_observations": 2,
                "length2_loop_guard": False,
            },
        ),
        (ConcurrencyRelation, {"pairs": frozenset({("a", "b")})}),
        (
            EnablementStats,
            {
                "derived": 1,
                "supplied": 2,
                "first_in_case": 3,
                "concurrent_only": 4,
                "clamped": 5,
            },
        ),
        (
            EnablementResult,
            {"log": log, "relation": relation, "enabler": {b: a}, "stats": EnablementStats()},
        ),
        (CalendarParams, {"granule_minutes": 30, "confidence": 0.2, "support": 0.3}),
        (WeeklyCalendar, {"granule_minutes": 60, "ranges": ((0, 3600),)}),
        (AbsoluteAvailability, {"available": waits}),
        (
            ColumnMapping,
            {
                "case_column": "c",
                "activity_column": "a",
                "resource_column": "r",
                "start_column": "s",
                "end_column": "e",
                "enabled_column": "n",
                "timestamp_format": "epoch",
            },
        ),
        (
            IngestStats,
            {
                "rows_total": 1,
                "rows_rejected": 2,
                "naive_timestamps": 3,
                "truncated_timestamps": 4,
                "unknown_resources": 5,
                "clamped_enablements": 6,
            },
        ),
        (LoadResult, {"log": log, "stats": IngestStats()}),
        (
            CauseImpact,
            {
                "wt_seconds": 4,
                "share_of_wt": 1.0,
                "cte_if_eliminated": 0.9,
                "delta": 0.2,
            },
        ),
        (
            TransitionImpact,
            {
                "source_activity": "a",
                "target_activity": "b",
                "case_frequency": 0.5,
                "total_frequency": 1,
                "total_wt_seconds": 4,
                "wt_by_cause": {"extraneous": 4},
                "cte_if_eliminated": 0.9,
                "delta": 0.2,
            },
        ),
        (
            AnalysisResult,
            {
                "total_pt_seconds": 8,
                "total_wt_seconds": 4,
                "cte": 0.8,
                "per_cause": {"extraneous": impact},
                "per_transition": (per_transition,),
            },
        ),
        (
            PipelineConfig,
            {
                "thresholds": OracleThresholds(0.5),
                "batching": BatchingConfig(1),
                "calendars": CalendarParams(30),
            },
        ),
        (
            PipelineResult,
            {
                "config": config,
                "enablement": enablement,
                "transitions": (transition,),
                "batching": BatchingResult({a: batch, b: batch}),
                "calendars": {"r1": calendar},
                "availability": {"r1": availability},
                "decompositions": (decomposition,),
                "analysis": analysis,
                "multitasking_rate": 0.5,
                "overridden_resources": ("r1",),
            },
        ),
    ]


def _default_examples() -> list:
    """Each type with constructor defaults, and the fields they give."""
    return [
        (ActivityInstance, ("c1", "a", "r1", 0, 5), {"enabled": None}),
        (BatchingConfig, (), {"gap_tolerance": 0, "min_batch_size": 2}),
        (
            OracleThresholds,
            (),
            {
                "dependency_threshold": 0.9,
                "min_bidirectional_observations": 1,
                "length2_loop_guard": True,
            },
        ),
        (ConcurrencyRelation, (), {"pairs": frozenset()}),
        (EnablementStats, (), dict.fromkeys(EnablementStats().as_dict(), 0)),
        (CalendarParams, (), {"granule_minutes": 60, "confidence": 0.1, "support": 0.1}),
        (
            ColumnMapping,
            (),
            {
                "case_column": "case_id",
                "activity_column": "activity",
                "resource_column": "resource",
                "start_column": "start_time",
                "end_column": "end_time",
                "enabled_column": None,
                "timestamp_format": "iso8601",
            },
        ),
        (IngestStats, (), dict.fromkeys(IngestStats().as_dict(), 0)),
        (
            PipelineConfig,
            (),
            {
                "thresholds": OracleThresholds(),
                "batching": BatchingConfig(),
                "calendars": CalendarParams(),
            },
        ),
    ]


def _config_parameters() -> list:
    """(function, parameter) for each stage parameter that takes a config."""
    from wtminer import batching, calendars, concurrency, ingest, pipeline

    return [
        (concurrency.discover_concurrency, "thresholds"),
        (concurrency.compute_enablement, "relation"),
        (batching.detect_batches, "config"),
        (calendars.discover_calendar, "params"),
        (calendars.discover_calendars, "params"),
        (ingest.load_log, "mapping"),
        (pipeline.run_pipeline, "config"),
    ]


def _value_examples() -> list:
    """(make, other): `make()` builds equal but distinct values, `other` differs."""
    source, target = _ENDPOINTS
    return [
        (
            lambda: WtDecomposition(target, (), (), (), (), ((5, 9),)),
            WtDecomposition(target, (), (), (), ((5, 9),), ()),
        ),
        (
            lambda: WeeklyCalendar(60, [(3600, 7200), (0, 3600)]),
            WeeklyCalendar(60, [(0, 3600)]),
        ),
        (lambda: OracleThresholds(0.5, 2), OracleThresholds(0.5, 3)),
        (lambda: BatchingConfig(1, 3), BatchingConfig(1, 2)),
        (lambda: CalendarParams(30, 0.2), CalendarParams(30, 0.3)),
        (
            lambda: ColumnMapping(enabled_column="n", timestamp_format="epoch"),
            ColumnMapping(enabled_column="n"),
        ),
        (lambda: Batch((source, target)), Batch((target, source))),
        (
            lambda: Transition("a", "b", (target,), 0.5, 4),
            Transition("a", "b", (target,), 0.5, 5),
        ),
        (
            lambda: CauseImpact(4, 1.0, 0.9, 0.1),
            CauseImpact(4, 1.0, 0.9, 0.2),
        ),
        (
            lambda: AbsoluteAvailability(((5, 9),)),
            AbsoluteAvailability(((5, 8),)),
        ),
        (
            lambda: PipelineConfig(OracleThresholds(0.5), BatchingConfig(1)),
            PipelineConfig(OracleThresholds(0.5)),
        ),
    ]


def _unhashable_value_examples() -> list:
    """(make, other) as in `_value_examples`, for records with a dict or list
    field: equal by value, and unhashable, as their NamedTuples were."""
    source, target = _ENDPOINTS
    log = EventLog(_ENDPOINTS)
    relation = ConcurrencyRelation()
    impact = TransitionImpact("a", "b", 0.5, 1, 4, {"batching": 4}, 0.9, 0.1)
    cause = CauseImpact(4, 1.0, 0.9, 0.1)
    return [
        (
            lambda: TransitionImpact("a", "b", 0.5, 1, 4, {"batching": 4}, 0.9, 0.1),
            TransitionImpact("a", "b", 0.5, 1, 4, {"batching": 3}, 0.9, 0.1),
        ),
        (
            lambda: AnalysisResult(8, 4, 0.5, {"batching": cause}, (impact,)),
            AnalysisResult(8, 4, 0.5, {"batching": cause}, ()),
        ),
        (
            lambda: BatchingResult({}),
            BatchingResult({source: Batch(_ENDPOINTS)}),
        ),
        (
            lambda: EnablementResult(log, relation, {target: source}, EnablementStats()),
            EnablementResult(log, relation, {}, EnablementStats()),
        ),
        (
            lambda: LoadResult(log, IngestStats(rows_total=2)),
            LoadResult(log, IngestStats(rows_total=3)),
        ),
    ]


_ENDPOINTS = (
    ActivityInstance("c1", "a", "r1", 0, 5, enabled=0),
    ActivityInstance("c1", "b", "r1", 9, 12, enabled=5),
)


def _named(cases: list) -> list:
    return [pytest.param(*case, id=case[0].__name__) for case in cases]


def _all_records() -> set[type]:
    """Every `_Record` subclass in the package's modules, private bases included."""
    for module in pkgutil.iter_modules(wtminer.__path__):
        importlib.import_module(f"wtminer.{module.name}")
    found: set[type] = set()
    todo = [_Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            found.add(sub)
    return found


def _records() -> set[type]:
    """Every public `_Record` subclass in the package's modules."""
    return {cls for cls in _all_records() if not cls.__name__.startswith("_")}


class TestTypeContracts:
    @pytest.mark.parametrize("cls, kwargs", _named(_keyword_examples()))
    def test_keyword_and_positional_construction(self, cls, kwargs):
        for obj in (cls(**kwargs), cls(*kwargs.values())):
            for name, value in kwargs.items():
                assert getattr(obj, name) == value

    def test_pipeline_result_log_is_the_enablement_log(self):
        # The enriched log is stored once, in the enablement result.
        kwargs = dict(_keyword_examples())[PipelineResult]
        assert "log" not in PipelineResult._fields
        assert PipelineResult(**kwargs).log is kwargs["enablement"].log

    def test_table_covers_every_record(self):
        records = _records()
        assert len(records) >= 20
        assert records <= {cls for cls, _ in _keyword_examples()}

    @pytest.mark.parametrize(
        "cls, kwargs",
        _named([case for case in _keyword_examples() if issubclass(case[0], _Record)]),
    )
    def test_constructor_fills_every_field_in_order(self, cls, kwargs):
        # Each record fills its own fields; one that skips a field fails
        # `as_dict`, and one that misplaces a value fails the comparison.
        values = list(kwargs.values())
        assert all(x != y for x, y in itertools.combinations(values, 2))
        assert cls._fields == tuple(kwargs)
        for obj in (cls(**kwargs), cls(*values)):
            assert obj.as_dict() == kwargs

    @pytest.mark.parametrize("cls, args, defaults", _named(_default_examples()))
    def test_defaults(self, cls, args, defaults):
        obj = cls(*args)
        for name, value in defaults.items():
            assert getattr(obj, name) == value

    @pytest.mark.parametrize(
        "function, name",
        [pytest.param(*case, id=case[0].__name__) for case in _config_parameters()],
    )
    def test_config_parameters_default_to_their_type(self, function, name):
        # The default is the annotated type's own default value, never None,
        # so an omitted config means one thing and no function rebuilds it.
        annotation = typing.get_type_hints(function)[name]
        default = inspect.signature(function).parameters[name].default
        assert type(default) is annotation
        assert default == annotation()

    @pytest.mark.parametrize(
        "make, other",
        [pytest.param(*case, id=type(case[1]).__name__) for case in _value_examples()],
    )
    def test_value_equality_and_hash(self, make, other):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != other
        assert len({a, b, other}) == 2

    @pytest.mark.parametrize(
        "make, other",
        [
            pytest.param(*case, id=type(case[1]).__name__)
            for case in _unhashable_value_examples()
        ],
    )
    def test_value_equality_without_hash(self, make, other):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert a != other
        with pytest.raises(TypeError):
            hash(a)

    @pytest.mark.parametrize(
        "make",
        [lambda: ActivityInstance("c1", "a", "r1", 0, 5, enabled=0)],
        ids=["ActivityInstance"],
    )
    def test_identity_equality(self, make):
        a, b = make(), make()
        assert a == a and a != b
        assert len({a, b}) == 2

    @pytest.mark.parametrize(
        "obj, name",
        [
            (EventLog((_ENDPOINTS[0],)), "instances"),
            (Batch(_ENDPOINTS), "members"),
            (OracleThresholds(), "dependency_threshold"),
            (BatchingConfig(), "gap_tolerance"),
            (CalendarParams(), "granule_minutes"),
            (ColumnMapping(), "case_column"),
            (WeeklyCalendar.always_on(), "ranges"),
            (ConcurrencyRelation(), "pairs"),
            (CauseImpact(4, 1.0, 0.9, 0.1), "wt_seconds"),
            (AnalysisResult(8, 4, 0.5, {}, ()), "cte"),
            (BatchingResult({}), "by_instance"),
            (ConcurrencyRelation(frozenset({("a", "b")})), "pairs"),
            (
                EnablementResult(
                    EventLog(_ENDPOINTS), ConcurrencyRelation(), {}, EnablementStats()
                ),
                "enabler",
            ),
            (LoadResult(EventLog(_ENDPOINTS), IngestStats()), "stats"),
            (PipelineConfig(), "batching"),
        ],
    )
    def test_frozen_types_reject_assignment_and_deletion(self, obj, name):
        before = getattr(obj, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
        assert getattr(obj, name) == before


class TestFill:
    # `_fill` is the constructor of every record that declares its fields.
    @pytest.mark.parametrize(
        "make",
        [
            lambda: CalendarParams(30, 0.2),
            lambda: CalendarParams(granule_minutes=30, confidence=0.2),
            lambda: CalendarParams(confidence=0.2, granule_minutes=30),
            lambda: CalendarParams(30, confidence=0.2),
            lambda: CalendarParams(30, support=0.1, confidence=0.2),
        ],
        ids=["positional", "keyword", "keyword-reordered", "mixed", "mixed-default-given"],
    )
    def test_binds_arguments_as_a_call_does(self, make):
        params = make()
        assert CalendarParams.__init__ is _fill
        assert params.as_dict() == {"granule_minutes": 30, "confidence": 0.2, "support": 0.1}
        assert vars(params) == params.as_dict()

    def test_defaults_fill_omitted_fields(self):
        assert CalendarParams().as_dict() == {
            "granule_minutes": 60, "confidence": 0.1, "support": 0.1
        }
        assert PipelineConfig(batching=BatchingConfig(5)).as_dict() == {
            "thresholds": OracleThresholds(),
            "batching": BatchingConfig(5),
            "calendars": CalendarParams(),
        }

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: CalendarParams(60, 0.1, 0.1, 1), "CalendarParams() takes 3 arguments, got 4"),
            (
                lambda: CalendarParams(granule=60),
                "CalendarParams() got an unexpected keyword argument 'granule'",
            ),
            (
                lambda: CalendarParams(60, granule_minutes=30),
                "CalendarParams() got multiple values for argument 'granule_minutes'",
            ),
            (
                lambda: CauseImpact(4, 1.0),
                "CauseImpact() missing required arguments: 'cte_if_eliminated', 'delta'",
            ),
            (
                lambda: CauseImpact(delta=0.1, share_of_wt=1.0),
                "CauseImpact() missing required arguments: 'wt_seconds', 'cte_if_eliminated'",
            ),
        ],
        ids=["too-many-positional", "unknown-keyword", "given-twice", "missing", "missing-first"],
    )
    def test_bad_arguments_are_a_type_error_naming_the_class(self, make, message):
        with pytest.raises(TypeError) as caught:
            make()
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "make",
        [
            lambda: CalendarParams(7),
            lambda: CalendarParams(granule_minutes=7),
            lambda: CalendarParams(60, 1.5),
            lambda: CalendarParams(60, confidence=1.5),
            lambda: CalendarParams(support=-0.1),
        ],
        ids=["granule-positional", "granule-keyword", "confidence-positional",
             "confidence-keyword", "support-keyword"],
    )
    def test_check_runs_on_every_construction_path(self, make):
        with pytest.raises(ConfigError):
            make()

    def test_each_record_holds_its_own_counters(self):
        first = IngestStats()
        first.rows_total += 1
        first.naive_timestamps += 2
        assert (first.rows_total, first.naive_timestamps) == (1, 2)
        assert IngestStats().as_dict() == dict.fromkeys(IngestStats._fields, 0)
        assert IngestStats.rows_total == 0 and IngestStats.naive_timestamps == 0


# The types allowed a constructor of their own, each with its reason: they
# transform their arguments, or are built once per activity instance,
# waiting target, transition, resource or batch, where `_fill`'s cost
# (1.7-1.9 against 0.6-0.7 us written out, for an 8-field record) adds up.
# Every other record declares its fields and is built by `_fill`.
WRITTEN_CONSTRUCTORS = {
    ActivityInstance: "once per activity instance; checks and seals its slots",
    WtDecomposition: "once per waiting target; seals its slots",
    EventLog: "sorts its instances and groups them by case",
    ConcurrencyRelation: "stores each pair once, as (min, max)",
    WeeklyCalendar: "merges its ranges and checks them against the weekly grid",
    AbsoluteAvailability: "once per resource",
    Batch: "once per batch; checks it has two members",
    Transition: "once per transition",
    TransitionImpact: "once per transition",
}


def written_constructors(classes) -> set[type]:
    """The classes among `classes` that write their own `__init__` or `__new__`."""
    return {
        cls
        for cls in classes
        if vars(cls).get("__init__", _fill) is not _fill or "__new__" in vars(cls)
    }


class TestRecordRule:
    def test_only_the_listed_types_write_a_constructor(self):
        records = _all_records()
        assert written_constructors(records) == set(WRITTEN_CONSTRUCTORS) & records
        assert written_constructors(WRITTEN_CONSTRUCTORS) == set(WRITTEN_CONSTRUCTORS)

    def test_every_other_record_declares_its_fields(self):
        for cls in _all_records() - set(WRITTEN_CONSTRUCTORS):
            if cls._fields:
                assert cls.__init__ is _fill, cls.__name__
                assert cls._fields == tuple(vars(cls)["__annotations__"]), cls.__name__

    def test_scan_flags_a_written_constructor(self):
        class Declared:
            x: int
            __init__ = _fill

        class Written:
            def __init__(self, x: int) -> None:
                self.x = x

        class New:
            def __new__(cls, x: int) -> "New":
                return object.__new__(cls)

        class Inherits(Written):
            pass

        assert written_constructors([Declared, Written, New, Inherits]) == {Written, New}


class TestEventLog:
    def test_orders_within_case_by_start(self):
        log = EventLog(
            [
                ActivityInstance("c1", "b", "r1", 30, 40),
                ActivityInstance("c1", "a", "r1", 0, 10),
                ActivityInstance("c2", "a", "r1", 5, 15),
            ]
        )
        assert [i.activity for i in log.cases["c1"]] == ["a", "b"]
        assert set(log.cases) == {"c1", "c2"}
        assert log.case_count == 2

    def test_constructor_sorts_into_log_order(self):
        # Out-of-order input once made `b` enable `a` (clamped) and reported
        # no waiting; the constructor now sorts, so `a` enables `b` after 5 s.
        from wtminer.pipeline import run_pipeline

        a = ActivityInstance("c1", "a", "r", 0, 5)
        b = ActivityInstance("c1", "b", "r", 10, 20)
        log = EventLog((b, a))
        assert log.instances == (a, b)
        assert log.cases["c1"] == (a, b)
        result = run_pipeline(log)
        assert result.enablement.stats.clamped == 0
        assert [(t.label, t.total_duration) for t in result.transitions] == [
            (("a", "b"), 5)
        ]
        assert result.analysis.total_wt_seconds == 5

    def test_constructor_keeps_input_order_of_full_ties(self):
        x = ActivityInstance("c1", "a", "r1", 0, 5)
        y = ActivityInstance("c1", "a", "r2", 0, 5)
        assert EventLog((y, x)).instances == (y, x)
        assert EventLog((x, y)).instances == (x, y)

    def test_rejects_empty_log(self):
        with pytest.raises(IngestError):
            EventLog([])

    def test_pipeline_rejects_empty_log(self):
        from wtminer.pipeline import run_pipeline

        with pytest.raises(IngestError):
            run_pipeline(EventLog(()))

    def test_horizon_covers_enablement(self):
        log = EventLog(
            [ActivityInstance("c1", "a", "r1", 10, 20, enabled=3)]
        )
        assert horizon(log) == (3, 20)

    def test_resource_and_activity_catalogs(self):
        log = EventLog(
            [
                ActivityInstance("c1", "b", "r2", 0, 1),
                ActivityInstance("c1", "a", "r1", 2, 3),
            ]
        )
        assert log.resources == ("r1", "r2")
        assert log.activities == ("a", "b")

    def test_by_resource_groups_every_instance_in_work_order(self):
        instances = [
            ActivityInstance("c2", "b", "r1", 10, 20),
            ActivityInstance("c1", "b", "r1", 10, 20),  # ties on (started, completed)
            ActivityInstance("c3", "a", "r1", 10, 20),
            ActivityInstance("c1", "a", "r1", 0, 30),
            ActivityInstance("c1", "c", "r2", 5, 6),
            ActivityInstance("c2", "a", UNKNOWN_RESOURCE, 1, 2),
            ActivityInstance("c3", "b", "r1", 10, 15),
        ]
        log = EventLog(instances)
        index = log.by_resource
        assert tuple(index) == log.resources == (UNKNOWN_RESOURCE, "r1", "r2")
        grouped = [inst for seq in index.values() for inst in seq]
        assert len(grouped) == len(instances)
        assert {id(i) for i in grouped} == {id(i) for i in instances}
        for resource, seq in index.items():
            assert all(inst.resource == resource for inst in seq)
        assert [(i.case_id, i.activity) for i in index["r1"]] == [
            ("c1", "a"),
            ("c3", "b"),
            ("c3", "a"),
            ("c1", "b"),
            ("c2", "b"),
        ]
        for seq in index.values():
            keys = [(i.started, i.completed, i.activity, i.case_id) for i in seq]
            assert keys == sorted(keys)
        assert log.by_resource is index
