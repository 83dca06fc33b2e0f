"""Decomposition cascade tests, including brute-force oracle equivalence."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import (
    SetAlgebraDecomposer,
    brute_busy_overlaps,
    brute_cause_durations,
    brute_multitasking_rate,
    brute_raw_unavailability,
    calendar_from_cells,
    cause_durations,
    horizon,
)
from test_golden import _write_loopy_log
from wtminer.batching import detect_batches
from wtminer.calendars import (
    AbsoluteAvailability,
    WeeklyCalendar,
    expand_calendar,
)
from wtminer.decomposition import (
    CAUSES,
    Decomposer,
    WtDecomposition,
    multitasking_rate,
)
from wtminer.ingest import load_log
from wtminer.model import (
    ActivityInstance,
    EventLog,
    IntervalSet,
    UNKNOWN_RESOURCE,
)
from wtminer.pipeline import run_pipeline
from wtminer.report import write_report_files
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
    span = horizon(log)
    return {
        res: expand_calendar(WeeklyCalendar.always_on(res), span)
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
    return decomposer_for(log, availability).decompose(ti_for(target))


class TestRawCauses:
    """Raw cause sets from the set-algebra oracle, and what the cascade claims
    of them when no earlier cause claims first."""

    def test_contention_overlap(self):
        target = inst("c1", "b", "r1", 0, 10, 12)
        busy = inst("c2", "z", "r1", 0, 2, 5)
        log = EventLog.from_instances([target, busy])
        d = oracle_for(log)
        assert d.raw_contention(target) == IntervalSet([(2, 5)])
        assert not d.raw_prioritization(target)
        out = claimed(log, target)
        assert out.contention == IntervalSet([(2, 5)])
        assert not out.prioritization

    def test_contention_merges_overlapping_jobs(self):
        target = inst("c1", "b", "r1", 0, 10, 12)
        log = EventLog.from_instances(
            [
                target,
                inst("c2", "z", "r1", 0, 1, 3),
                inst("c3", "z", "r1", 0, 2, 6),
            ]
        )
        d = oracle_for(log)
        assert d.raw_contention(target) == IntervalSet([(1, 6)])
        assert claimed(log, target).contention == IntervalSet([(1, 6)])

    def test_other_resource_does_not_count(self):
        target = inst("c1", "b", "r1", 0, 10, 12)
        busy = inst("c2", "z", "r2", 0, 2, 5)
        log = EventLog.from_instances([target, busy])
        d = oracle_for(log)
        assert not d.raw_contention(target)
        assert not claimed(log, target).contention

    def test_prioritization_overlap(self):
        target = inst("c1", "b", "r1", 0, 10, 12)
        overtaker = inst("c2", "z", "r1", 3, 4, 8)
        log = EventLog.from_instances([target, overtaker])
        d = oracle_for(log)
        assert d.raw_prioritization(target) == IntervalSet([(4, 8)])
        assert not d.raw_contention(target)
        out = claimed(log, target)
        assert out.prioritization == IntervalSet([(4, 8)])
        assert not out.contention

    def test_enablement_tie_counts_as_contention(self):
        target = inst("c1", "b", "r1", 5, 10, 12)
        peer = inst("c2", "z", "r1", 5, 6, 9)
        log = EventLog.from_instances([target, peer])
        d = oracle_for(log)
        assert d.raw_contention(target) == IntervalSet([(6, 9)])
        assert not d.raw_prioritization(target)
        out = claimed(log, target)
        assert out.contention == IntervalSet([(6, 9)])
        assert not out.prioritization

    def test_work_after_start_is_ignored(self):
        target = inst("c1", "b", "r1", 0, 10, 12)
        later = inst("c2", "z", "r1", 4, 11, 20)
        log = EventLog.from_instances([target, later])
        d = oracle_for(log)
        assert not d.raw_prioritization(target)
        assert not claimed(log, target).prioritization

    def test_fifo_log_has_no_prioritization(self):
        jobs = [
            inst("c1", "z", "r1", 0, 0, 10),
            inst("c2", "z", "r1", 2, 10, 20),
            inst("c3", "z", "r1", 5, 20, 30),
        ]
        log = EventLog.from_instances(jobs)
        d = oracle_for(log)
        for job in jobs:
            assert not d.raw_prioritization(job)
            assert not claimed(log, job).prioritization

    def test_unavailability_subtracts_calendar(self):
        # Wait from Friday 16:00 to Monday 10:00 against weekday 08-17 hours.
        target = inst("c1", "b", "r1", at(4, 16), at(7, 10), at(7, 11))
        log = EventLog.from_instances([target])
        cal = calendar_from_cells(
            "r1", 60, ((d, h) for d in range(5) for h in range(8, 17))
        )
        availability = {"r1": expand_calendar(cal, horizon(log))}
        d = oracle_for(log, availability)
        assert d.raw_unavailability(target) == IntervalSet([(at(4, 17), at(7, 8))])
        assert claimed(log, target, availability).unavailability == IntervalSet(
            [(at(4, 17), at(7, 8))]
        )

    def test_always_available_resource_has_none(self):
        target = inst("c1", "b", "r1", 0, 10, 12)
        log = EventLog.from_instances([target])
        d = oracle_for(log)
        assert not d.raw_unavailability(target)
        assert not claimed(log, target).unavailability


class TestDecomposeCascade:
    def test_worked_example(self):
        target = inst("c1", "b", "r1", 0, 10, 12)
        partner = inst("c2", "b", "r1", 6, 10, 12)
        earlier = inst("c3", "z", "r1", 0, 4, 8)
        log = EventLog.from_instances([target, partner, earlier])
        d = decomposer_for(log)
        out = d.decompose(ti_for(target))
        assert out.batching == IntervalSet([(0, 6)])
        assert out.contention == IntervalSet([(6, 8)])
        assert not out.prioritization
        assert not out.unavailability
        assert out.extraneous == IntervalSet([(8, 10)])

    def test_residual_when_nothing_observed(self):
        target = inst("c1", "b", "r1", 0, 10, 12)
        d = decomposer_for(EventLog.from_instances([target]))
        out = d.decompose(ti_for(target))
        assert out.extraneous == IntervalSet([(0, 10)])
        assert cause_durations(out) == {
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
        assert not any(getattr(out, cause) for cause in CAUSES)

    def test_unavailability_in_cascade(self):
        target = inst("c1", "b", "r1", at(4, 16), at(7, 10), at(7, 11))
        log = EventLog.from_instances([target])
        cal = calendar_from_cells(
            "r1", 60, ((d, h) for d in range(5) for h in range(8, 17))
        )
        availability = {"r1": expand_calendar(cal, horizon(log))}
        out = decomposer_for(log, availability).decompose(ti_for(target))
        assert out.unavailability == IntervalSet([(at(4, 17), at(7, 8))])
        assert out.extraneous == IntervalSet(
            [(at(4, 16), at(4, 17)), (at(7, 8), at(7, 10))]
        )

    def test_unknown_resource_falls_through_to_extraneous(self):
        target = inst("c1", "b", UNKNOWN_RESOURCE, 0, 10, 12)
        other = inst("c2", "z", UNKNOWN_RESOURCE, 0, 2, 8)
        log = EventLog.from_instances([target, other])
        out = decomposer_for(log).decompose(ti_for(target))
        assert out.extraneous == IntervalSet([(0, 10)])
        assert not out.contention

    def test_contention_beats_unavailability(self):
        # Resource busy during off-hours: the busy evidence wins.
        target = inst("c1", "b", "r1", at(5, 10), at(5, 14), at(5, 15))
        busy = inst("c2", "z", "r1", at(5, 9), at(5, 10), at(5, 12))
        log = EventLog.from_instances([target, busy])
        cal = calendar_from_cells(
            "r1", 60, ((d, h) for d in range(5) for h in range(8, 17))
        )
        availability = {"r1": expand_calendar(cal, horizon(log))}
        out = decomposer_for(log, availability).decompose(ti_for(target))
        assert out.contention == IntervalSet([(at(5, 10), at(5, 12))])
        assert out.unavailability == IntervalSet([(at(5, 12), at(5, 14))])


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

    def test_zero_length_inside_other_work_counts(self):
        log = EventLog.from_instances(
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
        log = EventLog.from_instances(
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
        result = run_pipeline(EventLog.from_instances(instances))
        (batch,) = result.batching.batches
        assert len(batch.members) == n
        seconds = {
            cause: sum(getattr(d, cause).total_duration for d in result.decompositions)
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
    log = EventLog.from_instances(instances)

    availability = {}
    for res in log.resources:
        kind = draw(st.sampled_from(["full", "hours", "sparse"]))
        if kind == "full" or res == UNKNOWN_RESOURCE:
            cal = WeeklyCalendar.always_on(res)
        elif kind == "hours":
            cal = calendar_from_cells(
                res, 60, ((d, h) for d in range(7) for h in range(8, 17))
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
            cal = calendar_from_cells(res, 60, slots)
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
            out = d.decompose(ti_for(target))
            sets = {cause: getattr(out, cause) for cause in CAUSES}
            # Additivity in integer seconds.
            assert sum(s.total_duration for s in sets.values()) == out.waiting_duration
            assert out.waiting_duration == target.started - target.enabled
            # Pairwise disjointness and coverage.
            union = IntervalSet.empty()
            causes = list(sets)
            for i, a in enumerate(causes):
                for b in causes[i + 1 :]:
                    assert not sets[a].intersect(sets[b])
                union = IntervalSet(union.intervals + sets[a].intervals)
            expected = (
                IntervalSet([(target.enabled, target.started)])
                if target.enabled < target.started
                else IntervalSet.empty()
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
    log = EventLog.from_instances(instances)
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
        available = IntervalSet((MONDAY + s, MONDAY + s + n) for s, n in spans)
        availability[res] = AbsoluteAvailability(res, available)
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
    log = EventLog.from_instances(instances)
    return log, random_availability(draw, log)


class TestCascadeMatchesSetAlgebra:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(busy_windows(), batched_windows(), random_scenarios()))
    def test_every_cause_set_matches(self, scenario):
        log, availability = scenario
        batching = detect_batches(log)
        fast = Decomposer(log, batching, availability)
        oracle = SetAlgebraDecomposer(log, batching, availability)
        for target in log.instances:
            ti = ti_for(target)
            assert fast.decompose(ti) == oracle.decompose(ti)

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
            out = d.decompose(ti_for(target))
            assert sum(cause_durations(out).values()) == target.started - target.enabled
            assert cause_durations(out) == brute_cause_durations(
                target, log, d.batching, availability
            )


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
            "r1", 1, ((d, m) for d in range(5) for m in range(9 * 60, end))
        )
    return EventLog.from_instances(instances), overrides


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
        result = run_pipeline(EventLog.from_instances(instances))
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
