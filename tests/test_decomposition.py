"""Decomposition cascade tests, including brute-force oracle equivalence."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import brute_busy_overlaps, brute_cause_durations, brute_raw_unavailability
from wtminer.batching import detect_batches
from wtminer.calendars import (
    AbsoluteAvailability,
    WeeklyCalendar,
    expand_calendar,
)
from wtminer.decomposition import (
    CAUSES,
    Decomposer,
    multitasking_rate,
)
from wtminer.model import (
    ActivityInstance,
    EventLog,
    IntervalSet,
    TimeInterval,
    UNKNOWN_RESOURCE,
)
from wtminer.transitions import TransitionInstance

MONDAY = 1672617600


def at(day: int, hour: int, minute: int = 0) -> int:
    return MONDAY + day * 86400 + hour * 3600 + minute * 60


def inst(case, act, res, enabled, started, completed):
    return ActivityInstance(case, act, res, started, completed, enabled=enabled)


def ti_for(target: ActivityInstance) -> TransitionInstance:
    source = ActivityInstance(target.case_id, "src", "r0", 0, 0, enabled=0)
    return TransitionInstance(source=source, target=target)


def full_availability(log: EventLog):
    horizon = log.horizon()
    return {
        res: expand_calendar(WeeklyCalendar.always_on(res), horizon)
        for res in log.resources
    }


def decomposer_for(log: EventLog, availability=None) -> Decomposer:
    if availability is None:
        availability = full_availability(log)
    return Decomposer(log, detect_batches(log), availability)


class TestRawCauses:
    def test_contention_overlap(self):
        target = inst("c1", "b", "r1", 0, 10, 12)
        busy = inst("c2", "z", "r1", 0, 2, 5)
        log = EventLog.from_instances([target, busy])
        d = decomposer_for(log)
        assert d.raw_contention(target) == IntervalSet.of((2, 5))
        assert d.raw_prioritization(target).is_empty()

    def test_contention_merges_overlapping_jobs(self):
        target = inst("c1", "b", "r1", 0, 10, 12)
        log = EventLog.from_instances(
            [
                target,
                inst("c2", "z", "r1", 0, 1, 3),
                inst("c3", "z", "r1", 0, 2, 6),
            ]
        )
        d = decomposer_for(log)
        assert d.raw_contention(target) == IntervalSet.of((1, 6))

    def test_other_resource_does_not_count(self):
        target = inst("c1", "b", "r1", 0, 10, 12)
        busy = inst("c2", "z", "r2", 0, 2, 5)
        d = decomposer_for(EventLog.from_instances([target, busy]))
        assert d.raw_contention(target).is_empty()

    def test_prioritization_overlap(self):
        target = inst("c1", "b", "r1", 0, 10, 12)
        overtaker = inst("c2", "z", "r1", 3, 4, 8)
        d = decomposer_for(EventLog.from_instances([target, overtaker]))
        assert d.raw_prioritization(target) == IntervalSet.of((4, 8))
        assert d.raw_contention(target).is_empty()

    def test_enablement_tie_counts_as_contention(self):
        target = inst("c1", "b", "r1", 5, 10, 12)
        peer = inst("c2", "z", "r1", 5, 6, 9)
        d = decomposer_for(EventLog.from_instances([target, peer]))
        assert d.raw_contention(target) == IntervalSet.of((6, 9))
        assert d.raw_prioritization(target).is_empty()

    def test_work_after_start_is_ignored(self):
        target = inst("c1", "b", "r1", 0, 10, 12)
        later = inst("c2", "z", "r1", 4, 11, 20)
        d = decomposer_for(EventLog.from_instances([target, later]))
        assert d.raw_prioritization(target).is_empty()

    def test_fifo_log_has_no_prioritization(self):
        jobs = [
            inst("c1", "z", "r1", 0, 0, 10),
            inst("c2", "z", "r1", 2, 10, 20),
            inst("c3", "z", "r1", 5, 20, 30),
        ]
        d = decomposer_for(EventLog.from_instances(jobs))
        for job in jobs:
            assert d.raw_prioritization(job).is_empty()

    def test_unavailability_subtracts_calendar(self):
        # Wait from Friday 16:00 to Monday 10:00 against weekday 08-17 hours.
        target = inst("c1", "b", "r1", at(4, 16), at(7, 10), at(7, 11))
        log = EventLog.from_instances([target])
        cal = WeeklyCalendar(
            "r1", 60, frozenset((d, h) for d in range(5) for h in range(8, 17))
        )
        availability = {"r1": expand_calendar(cal, log.horizon())}
        d = decomposer_for(log, availability)
        assert d.raw_unavailability(target) == IntervalSet.of((at(4, 17), at(7, 8)))

    def test_always_available_resource_has_none(self):
        target = inst("c1", "b", "r1", 0, 10, 12)
        d = decomposer_for(EventLog.from_instances([target]))
        assert d.raw_unavailability(target).is_empty()


class TestDecomposeCascade:
    def test_worked_example(self):
        target = inst("c1", "b", "r1", 0, 10, 12)
        partner = inst("c2", "b", "r1", 6, 10, 12)
        earlier = inst("c3", "z", "r1", 0, 4, 8)
        log = EventLog.from_instances([target, partner, earlier])
        d = decomposer_for(log)
        out = d.decompose(ti_for(target))
        assert out.batching == IntervalSet.of((0, 6))
        assert out.contention == IntervalSet.of((6, 8))
        assert out.prioritization.is_empty()
        assert out.unavailability.is_empty()
        assert out.extraneous == IntervalSet.of((8, 10))

    def test_residual_when_nothing_observed(self):
        target = inst("c1", "b", "r1", 0, 10, 12)
        d = decomposer_for(EventLog.from_instances([target]))
        out = d.decompose(ti_for(target))
        assert out.extraneous == IntervalSet.of((0, 10))
        assert out.cause_durations() == {
            "batching": 0,
            "contention": 0,
            "prioritization": 0,
            "unavailability": 0,
            "extraneous": 10,
        }

    def test_zero_wait_yields_all_empty(self):
        target = inst("c1", "b", "r1", 10, 10, 12)
        d = decomposer_for(EventLog.from_instances([target]))
        out = d.decompose(ti_for(target))
        assert all(s.is_empty() for s in out.cause_sets().values())

    def test_unavailability_in_cascade(self):
        target = inst("c1", "b", "r1", at(4, 16), at(7, 10), at(7, 11))
        log = EventLog.from_instances([target])
        cal = WeeklyCalendar(
            "r1", 60, frozenset((d, h) for d in range(5) for h in range(8, 17))
        )
        availability = {"r1": expand_calendar(cal, log.horizon())}
        out = decomposer_for(log, availability).decompose(ti_for(target))
        assert out.unavailability == IntervalSet.of((at(4, 17), at(7, 8)))
        assert out.extraneous == IntervalSet.of(
            (at(4, 16), at(4, 17)), (at(7, 8), at(7, 10))
        )

    def test_unknown_resource_falls_through_to_extraneous(self):
        target = inst("c1", "b", UNKNOWN_RESOURCE, 0, 10, 12)
        other = inst("c2", "z", UNKNOWN_RESOURCE, 0, 2, 8)
        log = EventLog.from_instances([target, other])
        out = decomposer_for(log).decompose(ti_for(target))
        assert out.extraneous == IntervalSet.of((0, 10))
        assert out.contention.is_empty()

    def test_contention_beats_unavailability(self):
        # Resource busy during off-hours: the busy evidence wins.
        target = inst("c1", "b", "r1", at(5, 10), at(5, 14), at(5, 15))
        busy = inst("c2", "z", "r1", at(5, 9), at(5, 10), at(5, 12))
        log = EventLog.from_instances([target, busy])
        cal = WeeklyCalendar(
            "r1", 60, frozenset((d, h) for d in range(5) for h in range(8, 17))
        )
        availability = {"r1": expand_calendar(cal, log.horizon())}
        out = decomposer_for(log, availability).decompose(ti_for(target))
        assert out.contention == IntervalSet.of((at(5, 10), at(5, 12)))
        assert out.unavailability == IntervalSet.of((at(5, 12), at(5, 14)))


class TestMultitaskingRate:
    def test_no_overlap(self):
        log = EventLog.from_instances(
            [
                inst("c1", "b", "r1", 0, 0, 10),
                inst("c2", "b", "r1", 0, 10, 20),
            ]
        )
        assert multitasking_rate(log) == 0.0

    def test_partial_overlap(self):
        log = EventLog.from_instances(
            [
                inst("c1", "b", "r1", 0, 0, 10),
                inst("c2", "b", "r1", 0, 5, 15),
                inst("c3", "b", "r1", 0, 20, 30),
            ]
        )
        assert multitasking_rate(log) == pytest.approx(2 / 3)

    def test_unknown_resource_excluded(self):
        log = EventLog.from_instances(
            [
                inst("c1", "b", UNKNOWN_RESOURCE, 0, 0, 10),
                inst("c2", "b", UNKNOWN_RESOURCE, 0, 5, 15),
            ]
        )
        assert multitasking_rate(log) == 0.0


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
    log = EventLog.from_instances(instances)

    availability = {}
    for res in log.resources:
        kind = draw(st.sampled_from(["full", "hours", "sparse"]))
        if kind == "full" or res == UNKNOWN_RESOURCE:
            cal = WeeklyCalendar.always_on(res)
        elif kind == "hours":
            cal = WeeklyCalendar(
                res, 60, frozenset((d, h) for d in range(7) for h in range(8, 17))
            )
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
            cal = WeeklyCalendar(res, 60, frozenset(slots))
        availability[res] = expand_calendar(cal, log.horizon())
    return log, availability


class TestDecompositionInvariants:
    @settings(max_examples=25, deadline=None)
    @given(random_scenarios())
    def test_partition_and_oracle_equivalence(self, scenario):
        log, availability = scenario
        batching = detect_batches(log)
        d = Decomposer(log, batching, availability)
        for target in log.instances:
            out = d.decompose(ti_for(target))
            sets = out.cause_sets()
            # Additivity in integer seconds.
            assert sum(s.total_duration for s in sets.values()) == target.waiting.duration
            # Pairwise disjointness and coverage.
            union = IntervalSet.empty()
            causes = list(sets)
            for i, a in enumerate(causes):
                for b in causes[i + 1 :]:
                    assert sets[a].intersect(sets[b]).is_empty()
                union = union | sets[a]
            expected = (
                IntervalSet.of((target.enabled, target.started))
                if target.enabled < target.started
                else IntervalSet.empty()
            )
            assert union == expected
            # Per-second reference labeler agrees exactly.
            brute = brute_cause_durations(target, log, batching, availability)
            assert out.cause_durations() == brute


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
    log = EventLog.from_instances(instances)

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
        available = IntervalSet(
            tuple(TimeInterval(MONDAY + s, MONDAY + s + n) for s, n in spans)
        )
        availability[res] = AbsoluteAvailability(res, available)
    return log, availability


class TestWindowedScans:
    @settings(max_examples=300, deadline=None)
    @given(busy_windows())
    def test_windowed_scans_match_full_scans(self, scenario):
        log, availability = scenario
        d = Decomposer(log, detect_batches(log), availability)
        for target in log.instances:
            assert d.raw_contention(target) == brute_busy_overlaps(target, log, True)
            assert d.raw_prioritization(target) == brute_busy_overlaps(target, log, False)
            assert d.raw_unavailability(target) == brute_raw_unavailability(
                target, availability
            )
            out = d.decompose(ti_for(target))
            assert sum(out.cause_durations().values()) == target.waiting.duration
            assert out.cause_durations() == brute_cause_durations(
                target, log, d.batching, availability
            )
