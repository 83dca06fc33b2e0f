"""Decomposition cascade tests, including brute-force oracle equivalence."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import (
    SetAlgebraDecomposer,
    batches_of,
    brute_busy_overlaps,
    brute_cause_durations,
    brute_multitasking_rate,
    brute_raw_unavailability,
    calendar_from_cells,
    cause_durations,
    horizon,
    intersect,
    total_duration,
)
from test_golden import _write_loopy_log
from wtminer.batching import Batch, BatchingResult, detect_batches
from wtminer.calendars import (
    AbsoluteAvailability,
    WeeklyCalendar,
    expand_calendar,
)
from wtminer.decomposition import (
    CAUSES,
    Decomposer,
    WtDecomposition,
    decompose_all,
    multitasking_rate,
)
from wtminer.ingest import load_log
from wtminer.model import (
    ActivityInstance,
    EventLog,
    UNKNOWN_RESOURCE,
    _canonicalize,
)
from wtminer.pipeline import run_pipeline
from wtminer.report import write_report_files
from wtminer.synth import InjectionSpec, generate

MONDAY = 1672617600


def at(day: int, hour: int, minute: int = 0) -> int:
    return MONDAY + day * 86400 + hour * 3600 + minute * 60


def inst(case, act, res, enabled, started, completed):
    return ActivityInstance(case, act, res, started, completed, enabled=enabled)


def full_availability(log: EventLog):
    span = horizon(log)
    return {
        res: expand_calendar(WeeklyCalendar.always_on(), span)
        for res in log.resources
    }


def decomposer_for(log: EventLog, availability=None) -> Decomposer:
    if availability is None:
        availability = full_availability(log)
    return Decomposer(log, detect_batches(log), availability)


def oracle_for(log: EventLog, availability=None) -> SetAlgebraDecomposer:
    if availability is None:
        availability = full_availability(log)
    return SetAlgebraDecomposer(log, detect_batches(log), availability)


def claimed(log: EventLog, target: ActivityInstance, availability=None) -> WtDecomposition:
    """The cascade's five sets for `target`."""
    return decomposer_for(log, availability).decompose(target)


class TestRawCauses:
    """Raw cause sets from the set-algebra oracle, and what the cascade claims
    of them when no earlier cause claims first."""

    def test_contention_overlap(self):
        target = inst("c1", "b", "r1", 0, 10, 12)
        busy = inst("c2", "z", "r1", 0, 2, 5)
        log = EventLog([target, busy])
        d = oracle_for(log)
        assert d.raw_contention(target) == _canonicalize([(2, 5)])
        assert not d.raw_prioritization(target)
        out = claimed(log, target)
        assert out.contention == _canonicalize([(2, 5)])
        assert not out.prioritization

    def test_contention_merges_overlapping_jobs(self):
        target = inst("c1", "b", "r1", 0, 10, 12)
        log = EventLog(
            [
                target,
                inst("c2", "z", "r1", 0, 1, 3),
                inst("c3", "z", "r1", 0, 2, 6),
            ]
        )
        d = oracle_for(log)
        assert d.raw_contention(target) == _canonicalize([(1, 6)])
        assert claimed(log, target).contention == _canonicalize([(1, 6)])

    def test_other_resource_does_not_count(self):
        target = inst("c1", "b", "r1", 0, 10, 12)
        busy = inst("c2", "z", "r2", 0, 2, 5)
        log = EventLog([target, busy])
        d = oracle_for(log)
        assert not d.raw_contention(target)
        assert not claimed(log, target).contention

    def test_prioritization_overlap(self):
        target = inst("c1", "b", "r1", 0, 10, 12)
        overtaker = inst("c2", "z", "r1", 3, 4, 8)
        log = EventLog([target, overtaker])
        d = oracle_for(log)
        assert d.raw_prioritization(target) == _canonicalize([(4, 8)])
        assert not d.raw_contention(target)
        out = claimed(log, target)
        assert out.prioritization == _canonicalize([(4, 8)])
        assert not out.contention

    def test_enablement_tie_counts_as_contention(self):
        target = inst("c1", "b", "r1", 5, 10, 12)
        peer = inst("c2", "z", "r1", 5, 6, 9)
        log = EventLog([target, peer])
        d = oracle_for(log)
        assert d.raw_contention(target) == _canonicalize([(6, 9)])
        assert not d.raw_prioritization(target)
        out = claimed(log, target)
        assert out.contention == _canonicalize([(6, 9)])
        assert not out.prioritization

    def test_work_after_start_is_ignored(self):
        target = inst("c1", "b", "r1", 0, 10, 12)
        later = inst("c2", "z", "r1", 4, 11, 20)
        log = EventLog([target, later])
        d = oracle_for(log)
        assert not d.raw_prioritization(target)
        assert not claimed(log, target).prioritization

    def test_fifo_log_has_no_prioritization(self):
        jobs = [
            inst("c1", "z", "r1", 0, 0, 10),
            inst("c2", "z", "r1", 2, 10, 20),
            inst("c3", "z", "r1", 5, 20, 30),
        ]
        log = EventLog(jobs)
        d = oracle_for(log)
        for job in jobs:
            assert not d.raw_prioritization(job)
            assert not claimed(log, job).prioritization

    def test_unavailability_subtracts_calendar(self):
        # Wait from Friday 16:00 to Monday 10:00 against weekday 08-17 hours.
        target = inst("c1", "b", "r1", at(4, 16), at(7, 10), at(7, 11))
        log = EventLog([target])
        cal = calendar_from_cells(60, ((d, h) for d in range(5) for h in range(8, 17)))
        availability = {"r1": expand_calendar(cal, horizon(log))}
        d = oracle_for(log, availability)
        assert d.raw_unavailability(target) == _canonicalize([(at(4, 17), at(7, 8))])
        assert claimed(log, target, availability).unavailability == _canonicalize(
            [(at(4, 17), at(7, 8))]
        )

    def test_always_available_resource_has_none(self):
        target = inst("c1", "b", "r1", 0, 10, 12)
        log = EventLog([target])
        d = oracle_for(log)
        assert not d.raw_unavailability(target)
        assert not claimed(log, target).unavailability


class TestDecomposeCascade:
    def test_worked_example(self):
        target = inst("c1", "b", "r1", 0, 10, 12)
        partner = inst("c2", "b", "r1", 6, 10, 12)
        earlier = inst("c3", "z", "r1", 0, 4, 8)
        log = EventLog([target, partner, earlier])
        d = decomposer_for(log)
        out = d.decompose(target)
        assert out.batching == _canonicalize([(0, 6)])
        assert out.contention == _canonicalize([(6, 8)])
        assert not out.prioritization
        assert not out.unavailability
        assert out.extraneous == _canonicalize([(8, 10)])

    def test_residual_when_nothing_observed(self):
        target = inst("c1", "b", "r1", 0, 10, 12)
        d = decomposer_for(EventLog([target]))
        out = d.decompose(target)
        assert out.extraneous == _canonicalize([(0, 10)])
        assert cause_durations(out) == {
            "batching": 0,
            "contention": 0,
            "prioritization": 0,
            "unavailability": 0,
            "extraneous": 10,
        }

    def test_zero_wait_yields_all_empty(self):
        target = inst("c1", "b", "r1", 10, 10, 12)
        d = decomposer_for(EventLog([target]))
        out = d.decompose(target)
        assert not any(getattr(out, cause) for cause in CAUSES)

    def test_unknown_enablement_still_raises(self):
        # Zero waits are answered before `waiting` is read; a target whose
        # enablement is unknown must not be taken for one.
        log = EventLog([inst("c1", "b", "r1", 10, 10, 12)])
        target = ActivityInstance("c2", "b", "r1", 10, 12)
        assert target.enabled is None
        with pytest.raises(ValueError, match="enablement"):
            decomposer_for(log).decompose(target)

    def test_decompose_all_sends_every_target_through_decompose(self):
        # Two of the four targets do not wait; every target reaches
        # `decompose` exactly once, in order, and gets its own entry.
        calls = []

        class Counting(Decomposer):
            def decompose(self, target):
                calls.append(target)
                return super().decompose(target)

        waiting = [inst("c1", "b", "r1", 0, 10, 12), inst("c2", "b", "r1", 3, 12, 14)]
        idle = [inst("c3", "a", "r1", 20, 20, 25), inst("c4", "a", "r2", 1, 1, 3)]
        log = EventLog([*waiting, *idle])
        targets = [idle[0], waiting[1], idle[1], waiting[0]]
        d = Counting(log, detect_batches(log), full_availability(log))
        out = decompose_all(d, targets)
        assert calls == targets
        assert [dec.instance for dec in out] == targets
        assert list(out) == [decomposer_for(log).decompose(t) for t in targets]
        assert not any(getattr(out[0], cause) for cause in CAUSES)

    def test_unavailability_in_cascade(self):
        target = inst("c1", "b", "r1", at(4, 16), at(7, 10), at(7, 11))
        log = EventLog([target])
        cal = calendar_from_cells(60, ((d, h) for d in range(5) for h in range(8, 17)))
        availability = {"r1": expand_calendar(cal, horizon(log))}
        out = decomposer_for(log, availability).decompose(target)
        assert out.unavailability == _canonicalize([(at(4, 17), at(7, 8))])
        assert out.extraneous == _canonicalize(
            [(at(4, 16), at(4, 17)), (at(7, 8), at(7, 10))]
        )

    def test_unknown_resource_falls_through_to_extraneous(self):
        target = inst("c1", "b", UNKNOWN_RESOURCE, 0, 10, 12)
        other = inst("c2", "z", UNKNOWN_RESOURCE, 0, 2, 8)
        log = EventLog([target, other])
        out = decomposer_for(log).decompose(target)
        assert out.extraneous == _canonicalize([(0, 10)])
        assert not out.contention

    def test_contention_beats_unavailability(self):
        # Resource busy during off-hours: the busy evidence wins.
        target = inst("c1", "b", "r1", at(5, 10), at(5, 14), at(5, 15))
        busy = inst("c2", "z", "r1", at(5, 9), at(5, 10), at(5, 12))
        log = EventLog([target, busy])
        cal = calendar_from_cells(60, ((d, h) for d in range(5) for h in range(8, 17)))
        availability = {"r1": expand_calendar(cal, horizon(log))}
        out = decomposer_for(log, availability).decompose(target)
        assert out.contention == _canonicalize([(at(5, 10), at(5, 12))])
        assert out.unavailability == _canonicalize([(at(5, 12), at(5, 14))])


class TestMultitaskingRate:
    def test_no_overlap(self):
        log = EventLog(
            [
                inst("c1", "b", "r1", 0, 0, 10),
                inst("c2", "b", "r1", 0, 10, 20),
            ]
        )
        assert multitasking_rate(log) == 0.0

    def test_partial_overlap(self):
        log = EventLog(
            [
                inst("c1", "b", "r1", 0, 0, 10),
                inst("c2", "b", "r1", 0, 5, 15),
                inst("c3", "b", "r1", 0, 20, 30),
            ]
        )
        assert multitasking_rate(log) == pytest.approx(2 / 3)

    def test_unknown_resource_excluded(self):
        log = EventLog(
            [
                inst("c1", "b", UNKNOWN_RESOURCE, 0, 0, 10),
                inst("c2", "b", UNKNOWN_RESOURCE, 0, 5, 15),
            ]
        )
        assert multitasking_rate(log) == 0.0

    def test_zero_length_inside_other_work_counts(self):
        log = EventLog(
            [
                inst("c1", "b", "r1", 0, 0, 10),
                inst("c2", "b", "r1", 0, 5, 5),
                inst("c3", "b", "r1", 0, 10, 10),
            ]
        )
        assert multitasking_rate(log) == pytest.approx(2 / 3)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["r1", "r1", "r2", UNKNOWN_RESOURCE]),
                st.integers(min_value=0, max_value=12),
                st.sampled_from([0, 0, 1, 2, 3, 5, 8]),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_matches_pairwise_oracle(self, rows):
        # Small start and length ranges give equal starts, touching ends,
        # zero-length and nested instances.
        log = EventLog(
            [inst(f"c{k}", "a", res, 0, s, s + n) for k, (res, s, n) in enumerate(rows)]
        )
        assert multitasking_rate(log) == brute_multitasking_rate(log)


class TestLargeSimultaneousBatch:
    def test_one_batch_of_4000_members(self):
        # One clerk receives case k in [k, k + 1) minutes, back to back; then
        # one shipper runs all ship instances at the same instant, when the
        # last of them is enabled. Ship k waits (n - k - 1) minutes, all of
        # it batch accumulation, and every ship overlaps every other ship.
        n = 4000
        ship_at = MONDAY + n * 60
        instances = []
        for k in range(n):
            received = MONDAY + k * 60
            instances += [
                ActivityInstance(f"c{k}", "receive", "clerk", received, received + 60),
                ActivityInstance(f"c{k}", "ship", "shipper", ship_at, ship_at + 600),
            ]
        result = run_pipeline(EventLog(instances))
        (batch,) = batches_of(result.batching)
        assert len(batch.members) == n
        seconds = {
            cause: sum(total_duration(getattr(d, cause)) for d in result.decompositions)
            for cause in CAUSES
        }
        assert seconds == {
            "batching": 60 * n * (n - 1) // 2,
            "contention": 0,
            "prioritization": 0,
            "unavailability": 0,
            "extraneous": 0,
        }
        assert result.multitasking_rate == 0.5


@st.composite
def random_scenarios(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    resources = ["r1", "r2", UNKNOWN_RESOURCE]
    instances = []
    for k in range(n):
        res = draw(st.sampled_from(resources))
        enabled = MONDAY + draw(st.integers(min_value=0, max_value=2 * 86400))
        started = enabled + draw(st.integers(min_value=0, max_value=3600))
        completed = started + draw(st.integers(min_value=0, max_value=1800))
        act = draw(st.sampled_from(["b", "z"]))
        instances.append(inst(f"c{k}", act, res, enabled, started, completed))
    log = EventLog(instances)

    availability = {}
    for res in log.resources:
        kind = draw(st.sampled_from(["full", "hours", "sparse"]))
        if kind == "full" or res == UNKNOWN_RESOURCE:
            cal = WeeklyCalendar.always_on()
        elif kind == "hours":
            cal = calendar_from_cells(60, ((d, h) for d in range(7) for h in range(8, 17)))
        else:
            slots = draw(
                st.sets(
                    st.tuples(
                        st.integers(min_value=0, max_value=6),
                        st.integers(min_value=0, max_value=23),
                    ),
                    min_size=1,
                    max_size=20,
                )
            )
            cal = calendar_from_cells(60, slots)
        availability[res] = expand_calendar(cal, horizon(log))
    return log, availability


class TestDecompositionInvariants:
    @settings(max_examples=25, deadline=None)
    @given(random_scenarios())
    def test_partition_and_oracle_equivalence(self, scenario):
        log, availability = scenario
        batching = detect_batches(log)
        d = Decomposer(log, batching, availability)
        for target in log.instances:
            out = d.decompose(target)
            sets = {cause: getattr(out, cause) for cause in CAUSES}
            # Additivity in integer seconds.
            assert sum(map(total_duration, sets.values())) == out.waiting_duration
            assert out.waiting_duration == target.started - target.enabled
            # Pairwise disjointness and coverage.
            union = ()
            causes = list(sets)
            for i, a in enumerate(causes):
                for b in causes[i + 1 :]:
                    assert not intersect(sets[a], sets[b])
                union = _canonicalize(union + sets[a])
            expected = (
                _canonicalize([(target.enabled, target.started)])
                if target.enabled < target.started
                else ()
            )
            assert union == expected
            # Per-second reference labeler agrees exactly.
            brute = brute_cause_durations(target, log, batching, availability)
            assert cause_durations(out) == brute


@st.composite
def busy_windows(draw):
    """Same-resource work that multitasks, has zero-length instances and one
    very long instance starting long before every other wait."""
    instances = []
    for k in range(draw(st.integers(min_value=1, max_value=9))):
        res = draw(st.sampled_from(["r1", "r1", "r2"]))
        enabled = MONDAY + draw(st.integers(min_value=0, max_value=400))
        started = enabled + draw(st.integers(min_value=0, max_value=200))
        completed = started + draw(st.sampled_from([0, 0, 5, 30, 120, 300]))
        instances.append(inst(f"c{k}", "a", res, enabled, started, completed))
    long_start = MONDAY - draw(st.integers(min_value=1000, max_value=5000))
    long_end = MONDAY + draw(st.integers(min_value=-100, max_value=800))
    long_enabled = long_start - draw(st.integers(min_value=0, max_value=50))
    instances.append(inst("long", "a", "r1", long_enabled, long_start, long_end))
    log = EventLog(instances)
    return log, random_availability(draw, log)


def random_availability(draw, log: EventLog) -> dict[str, AbsoluteAvailability]:
    availability = {}
    for res in log.resources:
        spans = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=-5100, max_value=800),
                    st.integers(min_value=0, max_value=300),
                ),
                max_size=8,
            )
        )
        available = _canonicalize((MONDAY + s, MONDAY + s + n) for s, n in spans)
        availability[res] = AbsoluteAvailability(available)
    return availability


@st.composite
def batched_windows(draw):
    """A batch on r1, run back to back after its last member was enabled,
    with r1 work that starts before the batch and runs into its members'
    waits, and r1 work after it."""
    first_start = MONDAY + draw(st.integers(min_value=100, max_value=400))
    instances = []
    t = first_start
    for k in range(draw(st.integers(min_value=2, max_value=4))):
        enabled = first_start - draw(st.integers(min_value=0, max_value=300))
        duration = draw(st.sampled_from([0, 5, 30, 120]))
        instances.append(inst(f"b{k}", "b", "r1", enabled, t, t + duration))
        t += duration
    for k in range(draw(st.integers(min_value=0, max_value=5))):
        if draw(st.booleans()):
            started = first_start - draw(st.integers(min_value=1, max_value=400))
        else:
            started = t + draw(st.integers(min_value=1, max_value=300))
        completed = started + draw(st.sampled_from([0, 30, 200, 600]))
        enabled = started - draw(st.integers(min_value=0, max_value=600))
        instances.append(inst(f"o{k}", "a", "r1", enabled, started, completed))
    log = EventLog(instances)
    return log, random_availability(draw, log)


def assert_cascade_matches_set_algebra(
    log: EventLog, availability, batching: BatchingResult | None = None
) -> Decomposer:
    if batching is None:
        batching = detect_batches(log)
    fast = Decomposer(log, batching, availability)
    oracle = SetAlgebraDecomposer(log, batching, availability)
    for target in log.instances:
        assert fast.decompose(target) == oracle.decompose(target)
    return fast


# The target waits over [100, 400) on r1. Each case gives the rest of the
# log, r1's availability and the target's five expected cause spans, and may
# give the target's partners in a hand-built batch that replaces detection.
_BUSY = inst("c2", "z", "r1", 50, 150, 180)
_BEFORE = inst("c3", "z", "r1", 0, 20, 100)  # completes as the wait starts
_AT_END = inst("c4", "z", "r1", 120, 400, 420)  # starts as the wait ends
_LATE = inst("c6", "b", "r1", 450, 460, 470)  # enabled after the target starts
BOUNDARY_CASES = {
    "availability_ends_at_wait_start": (
        [_BUSY], [(0, 100), (200, 300)],
        ((), ((150, 180),), (), ((100, 150), (180, 200), (300, 400)), ((200, 300),)),
    ),
    "availability_starts_at_wait_end": (
        [_BUSY], [(150, 250), (400, 500)],
        ((), ((150, 180),), (), ((100, 150), (250, 400)), ((180, 250),)),
    ),
    "availability_ends_one_second_into_wait": (
        [_BUSY], [(0, 101), (200, 300)],
        ((), ((150, 180),), (), ((101, 150), (180, 200), (300, 400)), ((100, 101), (200, 300))),
    ),
    "availability_starts_one_second_before_wait_end": (
        [_BUSY], [(150, 250), (399, 500)],
        ((), ((150, 180),), (), ((100, 150), (250, 399)), ((180, 250), (399, 400))),
    ),
    "no_availability_inside_wait": (
        [_BUSY], [(0, 100), (400, 500)],
        ((), ((150, 180),), (), ((100, 150), (180, 400)), ()),
    ),
    "no_availability_at_all": (
        [_BUSY], [],
        ((), ((150, 180),), (), ((100, 150), (180, 400)), ()),
    ),
    "only_work_enabled_after_target_inside_wait": (
        [inst("c6", "z", "r1", 150, 200, 250)], [(0, 500)],
        ((), (), ((200, 250),), (), ((100, 200), (250, 400))),
    ),
    "no_work_inside_wait": (
        [_BEFORE, _AT_END], [(0, 100), (150, 250), (400, 500)],
        ((), (), (), ((100, 150), (250, 400)), ((150, 250),)),
    ),
    "no_work_inside_wait_after_batching": (
        # A batch of two members that start together as the wait ends; the
        # partner's enablement ends the accumulation.
        [_BEFORE, inst("c5", "b", "r1", 250, 400, 450)], [(0, 100), (150, 300)],
        (((100, 250),), (), (), ((300, 400),), ((250, 300),)),
    ),
    "later_work_inside_earlier_work": (
        # Work enabled after the target runs wholly inside work enabled
        # before it, so the scan's `later` is not empty but contention has
        # already claimed all of it, and prioritization is empty.
        [_BUSY, inst("c7", "y", "r1", 120, 155, 170)], [(0, 100), (200, 300)],
        ((), ((150, 180),), (), ((100, 150), (180, 200), (300, 400)), ((200, 300),)),
    ),
    "batch_covers_whole_wait": (
        # The partner is enabled as the wait ends, so batching claims all of
        # it and the scan, the gap walk and both splits leave four empty sets.
        [_BUSY, inst("c5", "b", "r1", 400, 400, 450)], [(0, 100), (150, 300)],
        (((100, 400),), (), (), (), ()),
    ),
    "batch_accumulates_past_wait_end": (
        # `detect_batches` never builds this batch, since every member is
        # enabled by the first one's start: its accumulation end lies after
        # the target's start, so the batch end is clamped to the wait's end.
        [_BUSY, _LATE], [(0, 100), (150, 300)],
        (((100, 400),), (), (), (), ()),
        (_LATE,),
    ),
}


class TestCascadeMatchesSetAlgebra:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(busy_windows(), batched_windows(), random_scenarios()))
    def test_every_cause_set_matches(self, scenario):
        assert_cascade_matches_set_algebra(*scenario)

    @pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
    def test_boundary_case_matches(self, case):
        others, available, expected, *partners = BOUNDARY_CASES[case]
        target = inst("c1", "b", "r1", 100, 400, 450)
        log = EventLog([target, *others])
        availability = {"r1": AbsoluteAvailability(_canonicalize(available))}
        batching = None
        if partners:
            batch = Batch((target, *partners[0]))
            batching = BatchingResult(dict.fromkeys(batch.members, batch))
        fast = assert_cascade_matches_set_algebra(log, availability, batching)
        out = fast.decompose(target)
        assert tuple(getattr(out, cause) for cause in CAUSES) == expected

    @settings(max_examples=50, deadline=None)
    @given(batched_windows())
    def test_batched_windows_hold_a_batch(self, scenario):
        log, _ = scenario
        assert any(inst.case_id.startswith("b") for inst in detect_batches(log).by_instance)


class TestWindowedScans:
    @settings(max_examples=300, deadline=None)
    @given(busy_windows())
    def test_windowed_scans_match_full_scans(self, scenario):
        log, availability = scenario
        d = Decomposer(log, detect_batches(log), availability)
        oracle = SetAlgebraDecomposer(log, d.batching, availability)
        for target in log.instances:
            assert oracle.raw_contention(target) == brute_busy_overlaps(target, log, True)
            assert oracle.raw_prioritization(target) == brute_busy_overlaps(
                target, log, False
            )
            assert oracle.raw_unavailability(target) == brute_raw_unavailability(
                target, availability
            )
            out = d.decompose(target)
            assert sum(cause_durations(out).values()) == target.started - target.enabled
            assert cause_durations(out) == brute_cause_durations(
                target, log, d.batching, availability
            )


WEEK = 7 * 86400


@st.composite
def outlier_windows(draw):
    """r1 does 17 to 40 short instances over two weeks, and one to three
    instances one to four weeks long that start up to three weeks before
    them or among them; waits last up to two weeks. r2 does a few short
    ones. Availability is a few spans of up to two days."""
    instances = []
    for k in range(draw(st.integers(min_value=17, max_value=40))):
        res = "r1" if k % 8 else "r2"
        started = MONDAY + draw(st.integers(min_value=0, max_value=2 * WEEK))
        completed = started + draw(st.sampled_from([0, 30, 120, 600]))
        enabled = started - draw(st.sampled_from([0, 600, 3600, 86400, 2 * WEEK]))
        instances.append(inst(f"s{k}", "a", res, enabled, started, completed))
    for k in range(draw(st.integers(min_value=1, max_value=3))):
        started = MONDAY + draw(st.integers(min_value=-3 * WEEK, max_value=2 * WEEK))
        completed = started + draw(st.integers(min_value=WEEK, max_value=4 * WEEK))
        enabled = started - draw(st.sampled_from([0, 3600, WEEK]))
        instances.append(inst(f"o{k}", "z", "r1", enabled, started, completed))
    log = EventLog(instances)
    availability = {}
    for res in log.resources:
        spans = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=-5 * WEEK, max_value=3 * WEEK),
                    st.integers(min_value=0, max_value=2 * 86400),
                ),
                max_size=8,
            )
        )
        available = _canonicalize((MONDAY + s, MONDAY + s + n) for s, n in spans)
        availability[res] = AbsoluteAvailability(available)
    return log, availability


def long_instance_log(cases: int) -> EventLog:
    """The synthetic conveyor log with every cause injected, in which the
    first instance of each resource starts 1000 days earlier."""
    log = generate(InjectionSpec.from_bits("11111", n_cases=cases, seed=42)).log
    firsts = {seq[0] for seq in log.by_resource.values()}
    return EventLog(
        ActivityInstance(
            i.case_id,
            i.activity,
            i.resource,
            i.started - 1000 * 86400 * (i in firsts),
            i.completed,
        )
        for i in log.instances
    )


class _CountingTuple(tuple):
    """A tuple that counts the members read from it, by index or slice."""

    reads = 0

    def __getitem__(self, key):
        item = super().__getitem__(key)
        _CountingTuple.reads += len(item) if isinstance(key, slice) else 1
        return item


def scan_visits(log: EventLog) -> int:
    """Members that the scans of all of the log's waits read from the
    resource windows."""
    result = run_pipeline(log)
    d = Decomposer(result.log, result.batching, result.availability)
    for resource, (seq, starts, longest, outliers, *rest) in d._windows.items():
        counted = (_CountingTuple(seq), starts, longest, _CountingTuple(outliers), *rest)
        d._windows[resource] = counted
    _CountingTuple.reads = 0
    out = decompose_all(d, [dec.instance for dec in result.decompositions])
    assert out == result.decompositions
    return _CountingTuple.reads


class TestOutlierWindows:
    @settings(max_examples=200, deadline=None)
    @given(outlier_windows())
    def test_every_cause_set_matches(self, scenario):
        assert_cascade_matches_set_algebra(*scenario)

    def test_long_instances_get_their_own_list(self):
        # 20 instances of 600 s and one of a week on r1; r2's longest is
        # not 16 times its mean.
        instances = [
            inst(f"s{k}", "a", "r1", MONDAY, MONDAY + 900 * k, MONDAY + 900 * k + 600)
            for k in range(20)
        ]
        week = inst("o", "z", "r1", MONDAY - WEEK, MONDAY - WEEK, MONDAY)
        r2 = [
            inst("t", "a", "r2", MONDAY, MONDAY, MONDAY + 6000),
            inst("u", "a", "r2", MONDAY, MONDAY, MONDAY + 600),
        ]
        log = EventLog([*instances, week, *r2])
        windows = decomposer_for(log)._windows
        seq, _, longest, outliers, outlier_starts, outlier_longest = windows["r1"]
        assert outliers == (week,) and outlier_starts == [week.started]
        assert outlier_longest == WEEK and longest == 600
        assert seq == tuple(instances)
        assert windows["r2"][3:] == ((), [], 0)
        assert_cascade_matches_set_algebra(log, full_availability(log))

    def test_scan_visits_grow_linearly_with_long_instances(self):
        # Each resource's first instance starts 1000 days before the log.
        # With it in the resource's window, every wait would scan back over
        # all earlier work, and doubling the cases would quadruple the visits.
        small, large = (scan_visits(long_instance_log(cases)) for cases in (100, 200))
        assert small > 0
        assert 1.5 < large / small < 2.5


def _horizon_decompositions(result) -> list:
    """Decompose the pipeline's targets again, with every calendar expanded
    over the whole log horizon instead of over its resource's waits."""
    span = horizon(result.log)
    availability = {
        res: expand_calendar(cal, span) for res, cal in result.calendars.items()
    }
    decomposer = Decomposer(result.log, result.batching, availability)
    return [decomposer.decompose(dec.instance) for dec in result.decompositions]


@st.composite
def spread_logs(draw):
    """Cases spread over weeks, with waits from minutes to days, and
    optionally a minute-granule override calendar for r1."""
    instances = []
    for case in range(draw(st.integers(min_value=1, max_value=6))):
        t = MONDAY + draw(st.integers(min_value=0, max_value=3 * 7 * 86400))
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            t += draw(st.sampled_from([0, 600, 3600, 5 * 3600, 86400, 3 * 86400]))
            duration = draw(st.sampled_from([300, 1800, 7200]))
            res = draw(st.sampled_from(["r1", "r2", UNKNOWN_RESOURCE]))
            act = draw(st.sampled_from(["a", "b", "c"]))
            instances.append(ActivityInstance(f"c{case}", act, res, t, t + duration))
            t += duration
    overrides = {}
    if draw(st.booleans()):
        end = draw(st.integers(min_value=9 * 60 + 1, max_value=1440))
        overrides["r1"] = calendar_from_cells(
            1, ((d, m) for d in range(5) for m in range(9 * 60, end))
        )
    return EventLog(instances), overrides


class TestAvailabilityOverWaits:
    def test_loopy_log_matches_horizon_expansion(self, tmp_path):
        path = tmp_path / "loopy.csv"
        _write_loopy_log(path)
        result = run_pipeline(load_log(path).log)
        assert result.analysis.per_cause["unavailability"].wt_seconds > 0
        assert list(result.decompositions) == _horizon_decompositions(result)

    def test_unknown_resource_calendar_is_not_expanded(self, tmp_path):
        # 50 two-step cases on the unknown resource, each waiting two days
        # less ten minutes, and one instance on r1.
        instances = [ActivityInstance("c50", "a", "r1", MONDAY, MONDAY + 600)]
        for k in range(50):
            start = MONDAY + k * 3 * 86400
            later = start + 2 * 86400
            for act, t in (("a", start), ("b", later)):
                instances.append(
                    ActivityInstance(f"c{k}", act, UNKNOWN_RESOURCE, t, t + 600)
                )
        result = run_pipeline(EventLog(instances))
        assert not result.availability[UNKNOWN_RESOURCE].available
        assert list(result.decompositions) == _horizon_decompositions(result)
        paths = write_report_files(result, tmp_path)
        assert paths["transitions"].read_text(encoding="utf-8") == (
            "source,target,case_freq,total_freq,total_wt_s,wt_batching_s,"
            "wt_contention_s,wt_prioritization_s,wt_unavailability_s,"
            "wt_extraneous_s,cte_impact\n"
            "a,b,0.9804,50,8610000,0,0,0,0,8610000,0.993\n"
        )

    @settings(max_examples=100, deadline=None)
    @given(spread_logs())
    def test_random_logs_match_horizon_expansion(self, scenario):
        log, overrides = scenario
        result = run_pipeline(log, calendar_overrides=overrides)
        assert list(result.decompositions) == _horizon_decompositions(result)
