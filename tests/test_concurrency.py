"""Concurrency oracle and enablement tests."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import (
    brute_enablement,
    brute_transition_instances,
    concurrency_relation,
    is_concurrent,
)
from wtminer.concurrency import (
    ConcurrencyRelation,
    DirectlyFollowsCounts,
    OracleThresholds,
    compute_enablement,
    count_directly_follows,
    detect_concurrency,
    discover_concurrency,
)
from wtminer.model import ActivityInstance, ConfigError, EventLog
from wtminer.transitions import discover_transitions


def seq_case(case_id: str, *steps: tuple[str, int, int], resource: str = "r1"):
    return [ActivityInstance(case_id, act, resource, s, c) for act, s, c in steps]


class TestCountDirectlyFollows:
    def test_single_case_chain(self):
        log = EventLog.from_instances(seq_case("c1", ("a", 0, 1), ("b", 2, 3), ("c", 4, 5)))
        counts = count_directly_follows(log)
        assert counts.pairs == {("a", "b"): 1, ("b", "c"): 1}

    def test_two_cases_opposite_orders(self):
        log = EventLog.from_instances(
            seq_case("c1", ("a", 0, 1), ("b", 2, 3))
            + seq_case("c2", ("b", 0, 1), ("a", 2, 3))
        )
        counts = count_directly_follows(log)
        assert counts.pairs == {("a", "b"): 1, ("b", "a"): 1}

    def test_mixed_order_corpus(self):
        instances = []
        for i in range(5):
            instances += seq_case(f"x{i}", ("a", 0, 1), ("b", 2, 3), ("c", 4, 5), ("d", 6, 7))
        for i in range(5):
            instances += seq_case(f"y{i}", ("a", 0, 1), ("c", 2, 3), ("b", 4, 5), ("d", 6, 7))
        counts = count_directly_follows(EventLog.from_instances(instances))
        assert counts.pairs == {
            ("a", "b"): 5,
            ("a", "c"): 5,
            ("b", "c"): 5,
            ("c", "b"): 5,
            ("b", "d"): 5,
            ("c", "d"): 5,
        }

    def test_length2_loop_counting(self):
        log = EventLog.from_instances(
            seq_case("c1", ("a", 0, 1), ("b", 2, 3), ("a", 4, 5))
        )
        counts = count_directly_follows(log)
        assert counts.loop2_count("a", "b") == 1
        assert counts.loop2_count("b", "a") == 1


class TestDetectConcurrency:
    def test_balanced_pair_is_concurrent(self):
        counts = DirectlyFollowsCounts({("b", "c"): 5, ("c", "b"): 5}, {})
        rel = detect_concurrency(counts)
        assert is_concurrent(rel, "b", "c")
        assert is_concurrent(rel, "c", "b")

    def test_unidirectional_pair_is_not(self):
        counts = DirectlyFollowsCounts({("a", "b"): 7}, {})
        assert not is_concurrent(detect_concurrency(counts), "a", "b")

    def test_loop_guard_blocks_short_loops(self):
        counts = DirectlyFollowsCounts(
            {("b", "c"): 5, ("c", "b"): 5}, {("b", "c"): 5}
        )
        assert not is_concurrent(detect_concurrency(counts), "b", "c")
        relaxed = detect_concurrency(counts, OracleThresholds(length2_loop_guard=False))
        assert is_concurrent(relaxed, "b", "c")

    def test_dependency_threshold_boundary(self):
        # |9-0|/(9+0+1) = 0.9: not strictly below the default threshold.
        counts = DirectlyFollowsCounts({("a", "b"): 9, ("b", "a"): 1}, {})
        # 8/11 = 0.727 < 0.9 once both directions are seen.
        assert is_concurrent(detect_concurrency(counts), "a", "b")
        strict = detect_concurrency(counts, OracleThresholds(dependency_threshold=0.7))
        assert not is_concurrent(strict, "a", "b")

    def test_min_observations(self):
        counts = DirectlyFollowsCounts({("a", "b"): 1, ("b", "a"): 1}, {})
        assert is_concurrent(detect_concurrency(counts), "a", "b")
        stricter = detect_concurrency(
            counts, OracleThresholds(min_bidirectional_observations=2)
        )
        assert not is_concurrent(stricter, "a", "b")

    def test_threshold_validation(self):
        with pytest.raises(ConfigError):
            OracleThresholds(dependency_threshold=1.5)
        with pytest.raises(ConfigError):
            OracleThresholds(min_bidirectional_observations=0)

    def test_relation_is_symmetric_and_irreflexive(self):
        rel = concurrency_relation(("b", "a"))
        assert is_concurrent(rel, "a", "b") and is_concurrent(rel, "b", "a")
        assert not is_concurrent(rel, "a", "a")
        with pytest.raises(ValueError):
            concurrency_relation(("a", "a"))

    def test_constructor_stores_each_pair_once_in_canonical_order(self):
        both = ConcurrencyRelation(frozenset({("b", "a"), ("a", "b")}))
        assert both.pairs == frozenset({("a", "b")}) and len(both) == 1
        assert both == ConcurrencyRelation(frozenset({("a", "b")}))
        with pytest.raises(ValueError):
            ConcurrencyRelation(frozenset({("a", "b"), ("a", "a")}))
        # A pair given in reverse order is still a concurrency, so `a`
        # cannot enable `b`.
        rel = ConcurrencyRelation(frozenset({("b", "a")}))
        assert is_concurrent(rel, "a", "b")
        log = EventLog.from_instances(seq_case("c1", ("a", 0, 10), ("b", 15, 20)))
        result = compute_enablement(log, rel)
        b = result.log.cases["c1"][1]
        assert b.enabled == b.started and b not in result.enabler


def parallel_split_log():
    """Case layout: a, then b and c in parallel, then d after c.

    Two interleavings so the oracle sees both b>c and c>b.
    """
    case1 = [
        ActivityInstance("c1", "a", "r1", 0, 10),
        ActivityInstance("c1", "b", "r2", 12, 20),
        ActivityInstance("c1", "c", "r3", 14, 25),
        ActivityInstance("c1", "d", "r4", 30, 40),
    ]
    case2 = [
        ActivityInstance("c2", "a", "r1", 100, 110),
        ActivityInstance("c2", "c", "r3", 112, 118),
        ActivityInstance("c2", "b", "r2", 114, 120),
        ActivityInstance("c2", "d", "r4", 125, 130),
    ]
    return EventLog.from_instances(case1 + case2)


class TestComputeEnablement:
    def test_parallel_branches_enabled_by_common_predecessor(self):
        log = parallel_split_log()
        rel = discover_concurrency(log)
        assert is_concurrent(rel, "b", "c")
        result = compute_enablement(log, rel)
        by_act = {i.activity: i for i in result.log.cases["c1"]}
        assert by_act["b"].enabled == 10
        assert by_act["c"].enabled == 10

    def test_join_enabled_by_latest_completing_branch(self):
        log = parallel_split_log()
        result = compute_enablement(log, discover_concurrency(log))
        by_act = {i.activity: i for i in result.log.cases["c1"]}
        # d waits for the later branch (c completes at 25, b at 20).
        assert by_act["d"].enabled == 25
        assert result.enabler[by_act["d"]].activity == "c"

    def test_sequential_chain_under_empty_relation(self):
        log = EventLog.from_instances(
            seq_case("c1", ("a", 0, 10), ("b", 15, 20), ("c", 26, 30))
        )
        result = compute_enablement(log)
        seq = result.log.cases["c1"]
        assert seq[0].enabled == seq[0].started
        assert seq[1].enabled == seq[0].completed
        assert seq[2].enabled == seq[1].completed

    def test_first_instance_zero_wait(self):
        log = EventLog.from_instances(seq_case("c1", ("a", 5, 9)))
        result = compute_enablement(log)
        inst = result.log.instances[0]
        assert inst.enabled == inst.started
        assert inst.waiting == (inst.started, inst.started)
        assert result.stats.first_in_case == 1

    def test_clamp_when_predecessor_outlives_start(self):
        log = EventLog.from_instances(
            seq_case("c1", ("a", 0, 50), ("b", 30, 60))
        )
        result = compute_enablement(log)
        b = result.log.cases["c1"][1]
        assert b.enabled == b.started
        assert result.stats.clamped == 1

    def test_supplied_enablement_wins(self):
        log = EventLog.from_instances(
            [
                ActivityInstance("c1", "a", "r1", 0, 10),
                ActivityInstance("c1", "b", "r1", 20, 30, enabled=12),
            ]
        )
        result = compute_enablement(log)
        b = result.log.cases["c1"][1]
        assert b.enabled == 12
        assert result.stats.supplied == 1
        # The predecessor is still resolved for transition building.
        assert result.enabler[b].activity == "a"

    def test_concurrent_only_predecessors(self):
        log = EventLog.from_instances(
            seq_case("c1", ("a", 0, 10), ("b", 15, 20))
        )
        rel = concurrency_relation(("a", "b"))
        result = compute_enablement(log, rel)
        b = result.log.cases["c1"][1]
        assert b.enabled == b.started
        assert b not in result.enabler
        assert result.stats.concurrent_only == 1

    def test_every_instance_enabled_no_later_than_start(self):
        log = parallel_split_log()
        result = compute_enablement(log, discover_concurrency(log))
        for inst in result.log.instances:
            assert inst.enabled is not None
            assert inst.enabled <= inst.started


# "e" is never in a drawn pair, so every relation that has a pair mixes
# activities with concurrent partners and activities without any.
ORACLE_ACTIVITIES = ("a", "b", "c", "d", "e")
PARTNERED = ORACLE_ACTIVITIES[:-1]
ACTIVITY_PAIRS = [(x, y) for i, x in enumerate(PARTNERED) for y in PARTNERED[i + 1 :]]


@st.composite
def enablement_scenarios(draw):
    """Random relations over a few activities, so cases repeat activities; narrow
    time ranges, so completions tie; some instances carry a supplied enabled."""
    relation = concurrency_relation(*draw(st.sets(st.sampled_from(ACTIVITY_PAIRS))))
    instances = []
    for case in range(draw(st.integers(min_value=1, max_value=3))):
        for _ in range(draw(st.integers(min_value=1, max_value=9))):
            started = draw(st.integers(min_value=0, max_value=20))
            completed = started + draw(st.integers(min_value=0, max_value=6))
            back = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=5)))
            enabled = None if back is None else started - back
            activity = draw(st.sampled_from(ORACLE_ACTIVITIES))
            instances.append(
                ActivityInstance(f"c{case}", activity, "r1", started, completed, enabled)
            )
    return EventLog.from_instances(instances), relation


def enabler_positions(result) -> dict[int, int]:
    """The enabler map as log positions, so two results compare by object."""
    position = {inst: k for k, inst in enumerate(result.log.instances)}
    return {position[target]: position[source] for target, source in result.enabler.items()}


class TestEnablementOracle:
    @settings(max_examples=300, deadline=None)
    @given(enablement_scenarios())
    def test_matches_quadratic_predecessor_scan(self, scenario):
        log, relation = scenario
        fast = compute_enablement(log, relation)
        slow = brute_enablement(log, relation)
        assert [i.enabled for i in fast.log.instances] == [
            i.enabled for i in slow.log.instances
        ]
        assert enabler_positions(fast) == enabler_positions(slow)
        assert fast.stats == slow.stats

    @settings(max_examples=300, deadline=None)
    @given(enablement_scenarios())
    def test_keeps_log_order_and_hands_transitions_its_pairs(self, scenario):
        log, relation = scenario
        fast = compute_enablement(log, relation)

        def key(inst):
            return (inst.case_id, inst.activity, inst.started, inst.completed)

        assert [key(i) for i in fast.log.instances] == [key(i) for i in log.instances]
        # The enriched log is handed over unsorted and with its case grouping;
        # both must be what building it afresh gives, object by object.
        rebuilt = EventLog(tuple(fast.log.instances))
        assert rebuilt.instances == fast.log.instances
        assert list(rebuilt.cases.items()) == list(fast.log.cases.items())
        # Instances compare by identity, so this checks every pair by object.
        pairs = brute_transition_instances(fast)
        assert [(source, target) for target, source in fast.enabler.items()] == list(pairs)
        # Each transition holds the targets of its label's pairs, in order.
        transitions = discover_transitions(fast)
        for transition in transitions:
            assert list(transition.instances) == [
                target
                for source, target in pairs
                if (source.activity, target.activity) == transition.label
            ]
        assert sum(len(t.instances) for t in transitions) == len(pairs)
