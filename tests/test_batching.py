"""Batch detection tests."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import batching_interval, brute_detect_batches
from wtminer.batching import Batch, BatchingConfig, detect_batches
from wtminer.concurrency import compute_enablement, discover_concurrency
from wtminer.model import (
    ActivityInstance,
    ConfigError,
    EventLog,
    IntervalSet,
    UNKNOWN_RESOURCE,
)


def inst(case, act, res, enabled, started, completed):
    return ActivityInstance(case, act, res, started, completed, enabled=enabled)


def sequential_batch_log():
    """Three same-activity instances accumulated, then run back to back."""
    return EventLog.from_instances(
        [
            inst("c1", "b", "r1", 0, 10, 20),
            inst("c2", "b", "r1", 5, 20, 30),
            inst("c3", "b", "r1", 8, 30, 40),
        ]
    )


class TestDetectBatches:
    def test_sequential_batch(self):
        result = detect_batches(sequential_batch_log())
        (batch,) = result.batches
        assert len(batch.members) == 3
        assert batch.accumulation_end == 8
        assert batch.activity == "b"
        assert batch.resource == "r1"

    def test_lone_instance_is_not_a_batch(self):
        log = EventLog.from_instances([inst("c1", "b", "r1", 0, 10, 20)])
        assert detect_batches(log).batches == ()

    def test_late_enablement_splits_run(self):
        # Third instance enabled after the first one started: only the first
        # two form a batch.
        log = EventLog.from_instances(
            [
                inst("c1", "b", "r1", 0, 10, 20),
                inst("c2", "b", "r1", 5, 20, 30),
                inst("c3", "b", "r1", 12, 30, 40),
            ]
        )
        (batch,) = detect_batches(log).batches
        assert len(batch.members) == 2
        assert {m.case_id for m in batch.members} == {"c1", "c2"}

    def test_intruding_execution_truncates_batch(self):
        log = EventLog.from_instances(
            [
                inst("c1", "b", "r1", 0, 10, 20),
                inst("c2", "b", "r1", 1, 20, 30),
                inst("c3", "b", "r1", 2, 30, 40),
                inst("c4", "z", "r1", 30, 35, 50),
            ]
        )
        (batch,) = detect_batches(log).batches
        assert {m.case_id for m in batch.members} == {"c1", "c2"}

    def test_simultaneous_batch(self):
        log = EventLog.from_instances(
            [
                inst("c1", "b", "r1", 0, 100, 130),
                inst("c2", "b", "r1", 5, 100, 130),
                inst("c3", "b", "r1", 8, 100, 130),
            ]
        )
        (batch,) = detect_batches(log).batches
        assert len(batch.members) == 3
        assert batch.accumulation_end == 8

    def test_different_resources_do_not_batch_together(self):
        log = EventLog.from_instances(
            [
                inst("c1", "b", "r1", 0, 10, 20),
                inst("c2", "b", "r2", 0, 20, 30),
            ]
        )
        assert detect_batches(log).batches == ()

    def test_unknown_resource_never_batches(self):
        log = EventLog.from_instances(
            [
                inst("c1", "b", UNKNOWN_RESOURCE, 0, 10, 20),
                inst("c2", "b", UNKNOWN_RESOURCE, 5, 20, 30),
            ]
        )
        assert detect_batches(log).batches == ()

    def test_gap_tolerance(self):
        log = EventLog.from_instances(
            [
                inst("c1", "b", "r1", 0, 10, 20),
                inst("c2", "b", "r1", 5, 25, 35),
            ]
        )
        assert detect_batches(log).batches == ()
        (batch,) = detect_batches(log, BatchingConfig(gap_tolerance=5)).batches
        assert len(batch.members) == 2

    def test_min_batch_size(self):
        log = sequential_batch_log()
        assert detect_batches(log, BatchingConfig(min_batch_size=3)).batches != ()
        assert detect_batches(log, BatchingConfig(min_batch_size=4)).batches == ()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            BatchingConfig(gap_tolerance=-1)
        with pytest.raises(ConfigError):
            BatchingConfig(min_batch_size=1)

    def test_membership_map(self):
        result = detect_batches(sequential_batch_log())
        (batch,) = result.batches
        assert set(result.by_instance.values()) == {batch}
        assert len(result.by_instance) == 3

    def test_requires_enablement(self):
        log = EventLog.from_instances(
            [ActivityInstance("c1", "b", "r1", 10, 20)]
        )
        with pytest.raises(ValueError):
            detect_batches(log)


class TestBatchingInterval:
    def test_accumulation_wait(self):
        members = (
            inst("c1", "b", "r1", 0, 10, 20),
            inst("c2", "b", "r1", 6, 20, 30),
        )
        batch = Batch("b", "r1", members)
        assert batching_interval(members[0], batch) == IntervalSet([(0, 6)])

    def test_last_enabled_member_gets_nothing(self):
        result = detect_batches(sequential_batch_log())
        (batch,) = result.batches
        last = max(batch.members, key=lambda m: m.enabled)
        assert not batching_interval(last, batch)

    def test_clamped_to_waiting_interval(self):
        # Defensive clamp: a member that started before another member's
        # enablement only waits until its own start.
        members = (
            inst("c1", "b", "r1", 0, 5, 30),
            inst("c2", "b", "r1", 8, 10, 30),
        )
        batch = Batch("b", "r1", members)
        assert batching_interval(members[0], batch) == IntervalSet([(0, 5)])


@st.composite
def single_resource_logs(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    instances = []
    for k in range(n):
        act = draw(st.sampled_from(["b", "z"]))
        enabled = draw(st.integers(min_value=0, max_value=60))
        started = enabled + draw(st.integers(min_value=0, max_value=40))
        completed = started + draw(st.integers(min_value=1, max_value=30))
        instances.append(inst(f"c{k}", act, "r1", enabled, started, completed))
    return EventLog.from_instances(instances)


class TestBatchInvariants:
    @given(single_resource_logs())
    def test_detected_batches_satisfy_invariants(self, log):
        result = detect_batches(log)
        seen = set()
        for batch in result.batches:
            assert len(batch.members) >= 2
            assert len({m.activity for m in batch.members}) == 1
            assert len({m.resource for m in batch.members}) == 1
            first_start = min(m.started for m in batch.members)
            last_completion = max(m.completed for m in batch.members)
            assert batch.accumulation_end <= first_start
            for m in batch.members:
                assert id(m) not in seen
                seen.add(id(m))
                span = batching_interval(m, batch)
                wait = IntervalSet([(m.enabled, m.started)])
                assert not (span - wait)
            # No non-member execution by the resource starts in the window.
            member_ids = {id(m) for m in batch.members}
            for other in log.instances:
                if id(other) in member_ids or other.resource != batch.resource:
                    continue
                assert not (first_start <= other.started < last_completion)

    @given(single_resource_logs())
    def test_detection_is_order_insensitive(self, log):
        shuffled = EventLog.from_instances(tuple(reversed(log.instances)))
        a = detect_batches(log)
        b = detect_batches(shuffled)
        key = lambda batch: sorted((m.case_id, m.started) for m in batch.members)
        assert sorted(map(key, a.batches)) == sorted(map(key, b.batches))


@st.composite
def run_scenarios(draw):
    """Work sequences of simultaneous runs, back-to-back runs with gaps and
    single intruders of another activity, whose windows may overlap, on two
    resources and the unknown one; plus a batching config."""
    instances = []
    for resource in ("r1", "r2", UNKNOWN_RESOURCE):
        clock = draw(st.integers(min_value=0, max_value=20))
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            kind = draw(st.sampled_from(["simultaneous", "sequential", "intruder"]))
            activity = "i" if kind == "intruder" else draw(st.sampled_from(["b", "z"]))
            size = 1 if kind == "intruder" else draw(st.integers(min_value=2, max_value=6))
            started = clock
            latest = clock
            for _ in range(size):
                completed = started + draw(st.integers(min_value=0, max_value=12))
                enabled = max(0, started - draw(st.integers(min_value=0, max_value=30)))
                case = f"c{len(instances)}"
                instances.append(inst(case, activity, resource, enabled, started, completed))
                latest = max(latest, completed)
                if kind == "sequential":
                    started = completed + draw(st.integers(min_value=0, max_value=3))
            clock = max(0, latest + draw(st.integers(min_value=-8, max_value=8)))
    config = BatchingConfig(
        gap_tolerance=draw(st.integers(min_value=0, max_value=4)),
        min_batch_size=draw(st.integers(min_value=2, max_value=4)),
    )
    return EventLog.from_instances(instances), config


class TestShrinkOracle:
    @settings(max_examples=300, deadline=None)
    @given(run_scenarios())
    def test_matches_rescanning_shrink(self, scenario):
        log, config = scenario
        # Batches compare by activity, resource and member identity.
        assert detect_batches(log, config) == brute_detect_batches(log, config)

    def test_zero_length_run_after_a_same_instant_predecessor_batches(self):
        # The predecessor rule only cuts a run whose window ends after its
        # start, so zero-length members at the predecessor's instant batch.
        log = EventLog.from_instances(
            [
                inst("x", "a", "r1", 100, 100, 100),
                inst("c1", "b", "r1", 90, 100, 100),
                inst("c2", "b", "r1", 95, 100, 100),
            ]
        )
        result = detect_batches(log)
        assert result == brute_detect_batches(log)
        assert [len(batch.members) for batch in result.batches] == [2]

    def test_simultaneous_run_with_intruder_finds_no_batch(self):
        # n ship instances start at one instant on the shipper and an inspect
        # starts there 1 s later, inside every window the ships can form;
        # each start index shrinks its run down to one member.
        n = 1000
        instances = []
        for k in range(n):
            instances += [
                ActivityInstance(f"c{k}", "receive", "clerk", 60 * k, 60 * k + 60),
                ActivityInstance(f"c{k}", "ship", "shipper", 60 * n, 60 * n + 600),
            ]
        instances.append(ActivityInstance("x", "inspect", "shipper", 60 * n + 1, 60 * n + 61))
        log = EventLog.from_instances(instances)
        enriched = compute_enablement(log, discover_concurrency(log)).log
        assert detect_batches(enriched).batches == ()
