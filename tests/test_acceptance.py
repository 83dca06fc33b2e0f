"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. Criterion 7's real-log check skips with instructions when the
public dataset is not available; its scale surrogate always runs.
"""
import itertools
import json
import os
import random
import time
from pathlib import Path

import pytest

from brute import brute_cause_durations, cause_durations
from wtminer.analysis import compute_cte, cte_if_eliminated
from wtminer.batching import BatchingConfig, detect_batches
from wtminer.calendars import AbsoluteAvailability, WeeklyCalendar, load_calendar_overrides
from wtminer.concurrency import OracleThresholds, compute_enablement, discover_concurrency
from wtminer.decomposition import CAUSES, Decomposer
from wtminer.ingest import load_log
from wtminer.model import ActivityInstance, EventLog, IntervalSet
from wtminer.pipeline import run_pipeline
from wtminer.synth import InjectionSpec, detected_causes, generate, write_files
from wtminer.transitions import build_transition_instances

# Monday 2023-01-02 00:00:00 UTC.
MONDAY = 1672617600


def at(day: int, hour: int, minute: int = 0, second: int = 0) -> int:
    return MONDAY + day * 86400 + hour * 3600 + minute * 60 + second


def mon(hour: int, minute: int = 0) -> int:
    return at(0, hour, minute)


def spans(*pairs) -> IntervalSet:
    return IntervalSet(pairs)


def always_on(*resources) -> dict[str, WeeklyCalendar]:
    return {r: WeeklyCalendar.always_on(r) for r in resources}


def decomposition_for(result, case_id, activity):
    for dec in result.decompositions:
        target = dec.instance.target
        if target.case_id == case_id and target.activity == activity:
            return dec
    raise AssertionError(f"no decomposition for {case_id}/{activity}")


def expect_causes(dec, **expected_sets):
    target = dec.instance.target
    for cause in CAUSES:
        expected = expected_sets.get(cause, IntervalSet.empty())
        actual = getattr(dec, cause)
        assert actual == expected, (
            f"{target.case_id}/{target.activity} {cause}: "
            f"expected {expected.intervals}, got {actual.intervals}"
        )


# --- hand-crafted suite shared by criteria 1 and 4 -------------------------

def _suite_batching_accumulation():
    # Three items feed into a packing station that holds work until the
    # last item is ready, then runs all three at once.
    instances = [
        ActivityInstance("c1", "feed", "f1", mon(8, 0), mon(9, 0)),
        ActivityInstance("c2", "feed", "f2", mon(8, 0), mon(9, 20)),
        ActivityInstance("c3", "feed", "f3", mon(8, 0), mon(9, 40)),
        ActivityInstance("c1", "pack", "packer", mon(9, 40), mon(9, 50)),
        ActivityInstance("c2", "pack", "packer", mon(9, 40), mon(9, 50)),
        ActivityInstance("c3", "pack", "packer", mon(9, 40), mon(9, 50)),
    ]
    overrides = always_on("f1", "f2", "f3", "packer")
    expected = {
        ("c1", "pack"): {"batching": spans((mon(9, 0), mon(9, 40)))},
        ("c2", "pack"): {"batching": spans((mon(9, 20), mon(9, 40)))},
        ("c3", "pack"): {},
    }
    return "batching_accumulation", instances, overrides, expected


def _suite_contention_then_idle():
    instances = [
        ActivityInstance("c1", "feed", "f1", mon(9, 0), mon(9, 10)),
        ActivityInstance("c1", "task", "worker", mon(9, 40), mon(9, 50)),
        ActivityInstance("c2", "grind", "worker", mon(9, 5), mon(9, 25)),
    ]
    overrides = always_on("f1", "worker")
    expected = {
        ("c1", "task"): {
            "contention": spans((mon(9, 10), mon(9, 25))),
            "extraneous": spans((mon(9, 25), mon(9, 40))),
        },
    }
    return "contention_then_idle", instances, overrides, expected


def _suite_priority_between_idles():
    instances = [
        ActivityInstance("c1", "feed", "f1", mon(9, 0), mon(9, 10)),
        ActivityInstance("c1", "task", "worker", mon(10, 0), mon(10, 10)),
        ActivityInstance("c3", "first", "worker", mon(9, 5), mon(9, 20)),
        ActivityInstance("c2", "rush", "worker", mon(9, 30), mon(9, 50)),
    ]
    overrides = always_on("f1", "worker")
    expected = {
        ("c1", "task"): {
            "contention": spans((mon(9, 10), mon(9, 20))),
            "prioritization": spans((mon(9, 30), mon(9, 50))),
            "extraneous": spans(
                (mon(9, 20), mon(9, 30)), (mon(9, 50), mon(10, 0))
            ),
        },
    }
    return "priority_between_idles", instances, overrides, expected


def _suite_weekend_gap(tmp_path):
    instances = [
        ActivityInstance("c1", "review", "f1", at(4, 15, 0), at(4, 16, 0)),
        ActivityInstance("c1", "sign", "signer", at(7, 10, 0), at(7, 11, 0)),
    ]
    weekday = [
        {"day": d, "from": "09:00", "to": "17:00"}
        for d in ("MON", "TUE", "WED", "THU", "FRI")
    ]
    full = [
        {"day": d, "from": "00:00", "to": "24:00"}
        for d in ("MON", "TUE", "WED", "THU", "FRI", "SAT", "SUN")
    ]
    path = tmp_path / "weekend_overrides.json"
    path.write_text(json.dumps({"signer": weekday, "f1": full}))
    overrides = load_calendar_overrides(path)
    expected = {
        ("c1", "sign"): {
            "unavailability": spans((at(4, 17, 0), at(7, 9, 0))),
            "extraneous": spans(
                (at(4, 16, 0), at(4, 17, 0)), (at(7, 9, 0), at(7, 10, 0))
            ),
        },
    }
    return "weekend_gap", instances, overrides, expected


def _suite_all_five_causes(tmp_path):
    # One waiting interval that decomposes into all five causes in
    # dominance order: held for a batch, then the resource works earlier
    # work, then off-calendar, then later-enabled work, then plain idle.
    instances = [
        ActivityInstance("c0", "feed", "f0", mon(8, 30), mon(9, 0)),
        ActivityInstance("c0", "mill_work", "mill", mon(10, 40), mon(11, 0)),
        ActivityInstance("c1", "feed", "f1", mon(8, 30), mon(9, 20)),
        ActivityInstance("c1", "mill_work", "mill", mon(10, 40), mon(11, 0)),
        ActivityInstance("c2", "feed", "f2", mon(8, 0), mon(8, 50)),
        ActivityInstance("c2", "grind", "mill", mon(9, 20), mon(9, 40)),
        ActivityInstance("c3", "rush", "mill", mon(10, 0), mon(10, 20)),
    ]
    path = tmp_path / "mill_overrides.json"
    path.write_text(
        json.dumps(
            {
                "mill": [
                    {"day": "MON", "from": "00:00", "to": "09:40"},
                    {"day": "MON", "from": "10:00", "to": "24:00"},
                ]
            }
        )
    )
    overrides = load_calendar_overrides(path)
    overrides.update(always_on("f0", "f1", "f2"))
    expected = {
        ("c0", "mill_work"): {
            "batching": spans((mon(9, 0), mon(9, 20))),
            "contention": spans((mon(9, 20), mon(9, 40))),
            "prioritization": spans((mon(10, 0), mon(10, 20))),
            "unavailability": spans((mon(9, 40), mon(10, 0))),
            "extraneous": spans((mon(10, 20), mon(10, 40))),
        },
    }
    return "all_five_causes", instances, overrides, expected


def handcrafted_suite(tmp_path):
    return [
        _suite_batching_accumulation(),
        _suite_contention_then_idle(),
        _suite_priority_between_idles(),
        _suite_weekend_gap(tmp_path),
        _suite_all_five_causes(tmp_path),
    ]


def grid_specs():
    for i, combo in enumerate(itertools.product("01", repeat=5)):
        bits = "".join(combo)
        yield i, bits, InjectionSpec.from_bits(
            bits, n_cases=20 + (i * 16) % 81, seed=100 + i
        )


# --- criterion 1: exact additivity ------------------------------------------

def test_criterion_1_additivity_exact(tmp_path):
    checked = 0
    for _, bits, spec in grid_specs():
        small = InjectionSpec.from_bits(bits, n_cases=20, seed=spec.seed)
        result = run_pipeline(generate(small).log)
        for dec in result.decompositions:
            total = sum(cause_durations(dec).values())
            assert total == dec.waiting_duration
            checked += 1
    for _, instances, overrides, _ in handcrafted_suite(tmp_path):
        result = run_pipeline(
            EventLog.from_instances(instances), calendar_overrides=overrides
        )
        for dec in result.decompositions:
            assert sum(cause_durations(dec).values()) == dec.waiting_duration
            checked += 1
    assert checked > 1000
    print(f"\nCRITERION 1 PASS: cause durations sum exactly to waiting time "
          f"on {checked} transition instances (0 tolerance)")


# --- criterion 2: brute-force oracle equivalence ----------------------------

def _random_availability(rng, resource, limit):
    points = sorted(rng.sample(range(0, limit), 2 * rng.randint(2, 6)))
    pieces = [
        (points[i], points[i + 1])
        for i in range(0, len(points), 2)
        if points[i] < points[i + 1]
    ]
    return AbsoluteAvailability(resource, IntervalSet(pieces))


def _random_log(rng, sparse):
    if sparse:
        start_max, dur_max, gap_max = 10_000, 15_000, 1_000
    else:
        start_max, dur_max, gap_max = 500, 300, 300
    activities = ["a", "b", "c", "d"]
    resources = ["r1", "r2", "r3"]
    instances = []
    remaining = rng.randint(2, 20)
    case_index = 0
    while remaining > 0:
        t = rng.randint(0, start_max)
        for _ in range(rng.randint(1, min(5, remaining))):
            started = t + rng.randint(0, gap_max)
            completed = started + rng.randint(0, dur_max)
            instances.append(
                ActivityInstance(
                    f"c{case_index}",
                    rng.choice(activities),
                    rng.choice(resources),
                    started,
                    completed,
                )
            )
            t = completed
            remaining -= 1
        case_index += 1
    return EventLog.from_instances(instances)


def test_criterion_2_brute_force_equivalence():
    started_at = time.monotonic()
    rng = random.Random(20230102)
    logs_checked = instances_checked = 0
    for round_index in range(125):
        sparse = round_index % 9 == 8
        log = _random_log(rng, sparse)
        relation = discover_concurrency(log, OracleThresholds())
        enres = compute_enablement(log, relation)
        enriched = enres.log
        batching = detect_batches(enriched, BatchingConfig())
        limit = 120_000 if sparse else 6_000
        availability = {
            r: _random_availability(rng, r, limit) for r in enriched.resources
        }
        decomposer = Decomposer(enriched, batching, availability)
        for ti in build_transition_instances(enres):
            dec = decomposer.decompose(ti)
            expected = brute_cause_durations(
                ti.target, enriched, batching, availability
            )
            assert cause_durations(dec) == expected
            instances_checked += 1
        logs_checked += 1
    elapsed = time.monotonic() - started_at
    assert logs_checked >= 100
    assert elapsed < 60, f"took {elapsed:.1f}s"
    print(f"\nCRITERION 2 PASS: interval decomposition matches per-second "
          f"labeler on {logs_checked} random logs "
          f"({instances_checked} instances) in {elapsed:.1f}s")


# --- criterion 3: injection recall and precision -----------------------------

def _fp_allowed(cause, flags):
    if cause in ("unavailability", "prioritization"):
        return flags["extraneous"]
    if cause == "batching":
        return flags["contention"] or flags["unavailability"]
    return False


def test_criterion_3_injection_recall_precision(tmp_path):
    started_at = time.monotonic()
    true_positives = false_positives = 0
    for _, bits, spec in grid_specs():
        gen = generate(spec)
        csv_path = tmp_path / f"grid_{bits}.csv"
        write_files(gen, csv_path)
        result = run_pipeline(load_log(csv_path).log)
        per_cause = {
            c: imp.wt_seconds for c, imp in result.analysis.per_cause.items()
        }
        detected = detected_causes(per_cause)
        injected = {c for c, on in gen.truth.flags.items() if on}
        missed = injected - detected
        assert not missed, f"{bits}: missed {missed} (recall must be 100%)"
        for cause in detected - injected:
            assert _fp_allowed(cause, gen.truth.flags), (
                f"{bits}: false positive {cause} outside documented modes"
            )
        true_positives += len(detected & injected)
        false_positives += len(detected - injected)

    precision = (
        true_positives / (true_positives + false_positives)
        if true_positives + false_positives
        else 1.0
    )
    assert precision >= 0.80, f"precision {precision:.2f}"

    # The documented artifact modes must be reproducible on demand.
    noisy = generate(
        InjectionSpec(extraneous=True, noisy_extraneous=True, n_cases=20, seed=5)
    )
    result = run_pipeline(noisy.log)
    per_cause = {c: imp.wt_seconds for c, imp in result.analysis.per_cause.items()}
    detected = detected_causes(per_cause)
    assert "extraneous" in detected
    assert detected - {"extraneous"} == {"prioritization", "unavailability"}

    elapsed = time.monotonic() - started_at
    assert elapsed < 300, f"took {elapsed:.1f}s"
    print(f"\nCRITERION 3 PASS: recall 100%, precision {precision:.2f} over 32 "
          f"injection specs; artifacts only in documented modes; {elapsed:.1f}s")


def test_criterion_3_small_grid_detected_exactly():
    # Stricter than recall plus precision: at 20 cases per log, seeded with the
    # combination index, every combination's detected causes are exactly the
    # injected ones.
    wrong = {}
    for index, combo in enumerate(itertools.product("01", repeat=5)):
        bits = "".join(combo)
        gen = generate(InjectionSpec.from_bits(bits, n_cases=20, seed=index))
        result = run_pipeline(gen.log)
        per_cause = {c: imp.wt_seconds for c, imp in result.analysis.per_cause.items()}
        detected = detected_causes(per_cause)
        if detected != {c for c, on in gen.truth.flags.items() if on}:
            wrong[bits] = sorted(detected)
    assert not wrong, f"detected causes differ from injected ones: {wrong}"


# --- criterion 4: hand-crafted exact intervals -------------------------------

def test_criterion_4_handcrafted_exact_intervals(tmp_path):
    names = []
    for name, instances, overrides, expected in handcrafted_suite(tmp_path):
        result = run_pipeline(
            EventLog.from_instances(instances), calendar_overrides=overrides
        )
        for (case_id, activity), sets in expected.items():
            expect_causes(decomposition_for(result, case_id, activity), **sets)
        names.append(name)
    assert len(names) == 5
    print(f"\nCRITERION 4 PASS: exact cause intervals on 5 hand-crafted logs "
          f"with declared calendars: {', '.join(names)}")


# --- criterion 5: figure layout reproductions --------------------------------

def _figure_parallel_split():
    instances = [
        ActivityInstance("t1", "A", "rA", 0, 10),
        ActivityInstance("t1", "B", "rB", 10, 20),
        ActivityInstance("t1", "C", "rC", 12, 22),
        ActivityInstance("t1", "D", "rD", 25, 35),
        ActivityInstance("t2", "A", "rA", 100, 110),
        ActivityInstance("t2", "C", "rC", 110, 120),
        ActivityInstance("t2", "B", "rB", 112, 122),
        ActivityInstance("t2", "D", "rD", 125, 135),
    ]
    return EventLog.from_instances(instances)


def test_criterion_5_figure_layouts(tmp_path):
    # Parallel split: the two middle activities interleave both ways, so
    # they are concurrent; enablement skips the concurrent sibling and the
    # join is enabled by the later-completing branch.
    log = _figure_parallel_split()
    result = run_pipeline(
        log, calendar_overrides=always_on("rA", "rB", "rC", "rD")
    )
    assert result.enablement.relation.is_concurrent("B", "C")
    t1 = {i.activity: i for i in result.log.cases["t1"]}
    assert t1["B"].enabled == 10
    assert t1["C"].enabled == 10
    assert t1["D"].enabled == 22
    expect_causes(
        decomposition_for(result, "t1", "D"),
        extraneous=spans((22, 25)),
    )

    # Batch accumulation with sequential processing: first member is pure
    # batching, second splits batching then contention, third is pure
    # contention because accumulation ended when it was enabled.
    instances = [
        ActivityInstance("c1", "feed", "f1", mon(8, 30), mon(9, 0)),
        ActivityInstance("c2", "feed", "f2", mon(8, 30), mon(9, 10)),
        ActivityInstance("c3", "feed", "f3", mon(8, 30), mon(9, 20)),
        ActivityInstance("c1", "pack", "packer", mon(9, 20), mon(9, 30)),
        ActivityInstance("c2", "pack", "packer", mon(9, 30), mon(9, 40)),
        ActivityInstance("c3", "pack", "packer", mon(9, 40), mon(9, 50)),
    ]
    result = run_pipeline(
        EventLog.from_instances(instances),
        calendar_overrides=always_on("f1", "f2", "f3", "packer"),
    )
    assert len(result.batching.batches) == 1
    expect_causes(
        decomposition_for(result, "c1", "pack"),
        batching=spans((mon(9, 0), mon(9, 20))),
    )
    expect_causes(
        decomposition_for(result, "c2", "pack"),
        batching=spans((mon(9, 10), mon(9, 20))),
        contention=spans((mon(9, 20), mon(9, 30))),
    )
    expect_causes(
        decomposition_for(result, "c3", "pack"),
        contention=spans((mon(9, 20), mon(9, 40))),
    )

    # Contention vs prioritization: waiting overlapped by earlier-enabled
    # work is contention, by later-enabled work is prioritization.
    instances = [
        ActivityInstance("c1", "feed", "f1", mon(8, 55), mon(9, 10)),
        ActivityInstance("c1", "task", "worker", mon(9, 50), mon(10, 5)),
        ActivityInstance("c2", "feed", "f2", mon(8, 50), mon(9, 5)),
        ActivityInstance("c2", "side", "worker", mon(9, 10), mon(9, 30)),
        ActivityInstance("c3", "feed", "f3", mon(9, 0), mon(9, 15)),
        ActivityInstance("c3", "rush", "worker", mon(9, 30), mon(9, 50)),
    ]
    result = run_pipeline(
        EventLog.from_instances(instances),
        calendar_overrides=always_on("f1", "f2", "f3", "worker"),
    )
    expect_causes(
        decomposition_for(result, "c1", "task"),
        contention=spans((mon(9, 10), mon(9, 30))),
        prioritization=spans((mon(9, 30), mon(9, 50))),
    )

    # Weekend gap: waiting from Friday afternoon to Monday morning under a
    # weekday 08:00-17:00 calendar is unavailability outside those hours.
    instances = [
        ActivityInstance("c1", "review", "f1", at(4, 15, 0), at(4, 16, 0)),
        ActivityInstance("c1", "sign", "signer", at(7, 10, 0), at(7, 11, 0)),
    ]
    weekday = [
        {"day": d, "from": "08:00", "to": "17:00"}
        for d in ("MON", "TUE", "WED", "THU", "FRI")
    ]
    path = tmp_path / "fig_weekend.json"
    path.write_text(json.dumps({"signer": weekday}))
    overrides = load_calendar_overrides(path)
    overrides.update(always_on("f1"))
    result = run_pipeline(
        EventLog.from_instances(instances), calendar_overrides=overrides
    )
    expect_causes(
        decomposition_for(result, "c1", "sign"),
        unavailability=spans((at(4, 17, 0), at(7, 8, 0))),
        extraneous=spans(
            (at(4, 16, 0), at(4, 17, 0)), (at(7, 8, 0), at(7, 10, 0))
        ),
    )
    print("\nCRITERION 5 PASS: parallel-split enablement, batch accumulation, "
          "contention/prioritization split, weekend unavailability layouts "
          "reproduce exactly")


# --- criterion 6: efficiency algebra -----------------------------------------

def test_criterion_6_cte_algebra():
    pt = 1_000_000
    wt = 13_684_000
    cte = compute_cte(pt, wt)
    assert abs(cte - 0.0681) < 5e-4

    removed_57 = round(0.57 * wt)
    after = cte_if_eliminated(pt, wt, removed_57)
    assert abs(after - 0.1462) <= 0.005

    removed_tr = round(0.1228 * wt)
    after_tr = cte_if_eliminated(pt, wt, removed_tr)
    assert abs(after_tr - 0.0769) <= 0.005

    assert cte_if_eliminated(pt, wt, wt) == 1.0

    deltas = [
        cte_if_eliminated(pt, wt, round(f * wt)) - cte
        for f in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)
    ]
    assert deltas[0] == 0.0
    assert all(a < b for a, b in zip(deltas, deltas[1:]))
    print("\nCRITERION 6 PASS: efficiency algebra matches published shares "
          "within 0.5pp; full elimination gives exactly 1.0; deltas monotone")


# --- criterion 7: real log and scale surrogate --------------------------------

def _real_log_path():
    env = os.environ.get("WT_MINER_REAL_LOG")
    if env:
        path = Path(env)
        if path.exists():
            return path
    data_dir = Path(__file__).resolve().parent.parent / "data"
    if data_dir.is_dir():
        for candidate in sorted(data_dir.glob("*.csv")):
            return candidate
    return None


def test_criterion_7_real_log_soft_reproduction():
    path = _real_log_path()
    if path is None:
        pytest.skip(
            "public manufacturing log not bundled; set WT_MINER_REAL_LOG to "
            "its CSV path (columns: case_id, activity, resource, start_time, "
            "end_time) or drop it under data/ to run this criterion"
        )
    started_at = time.monotonic()
    result = run_pipeline(load_log(path).log)
    elapsed = time.monotonic() - started_at
    assert elapsed < 60, f"took {elapsed:.1f}s"

    n_transitions = len(result.transitions)
    n_instances = sum(t.total_frequency for t in result.transitions)
    assert 91 * 0.95 <= n_transitions <= 91 * 1.05
    assert 3421 * 0.95 <= n_instances <= 3421 * 1.05

    for dec in result.decompositions:
        assert sum(cause_durations(dec).values()) == dec.waiting_duration

    self_loop_wt = sum(
        t.total_wt_seconds
        for t in result.analysis.per_transition
        if t.is_self_loop
    )
    assert self_loop_wt > result.analysis.total_wt_seconds / 2
    assert result.analysis.per_transition[0].is_self_loop
    print(f"\nCRITERION 7 PASS: real log analyzed in {elapsed:.1f}s, "
          f"{n_transitions} transitions / {n_instances} instances within 5%, "
          f"self-loops dominate waiting time")


def test_criterion_7_scale_surrogate(tmp_path):
    # Always-on stand-in at the real log's scale: ~4500 activity instances
    # through CSV, discovery, decomposition and reporting in under a minute.
    spec = InjectionSpec.from_bits("11111", n_cases=901, seed=42)
    gen = generate(spec)
    csv_path = tmp_path / "surrogate.csv"
    write_files(gen, csv_path)
    started_at = time.monotonic()
    loaded = load_log(csv_path)
    result = run_pipeline(loaded.log)
    elapsed = time.monotonic() - started_at
    assert elapsed < 60, f"took {elapsed:.1f}s"
    assert len(loaded.log.instances) == 901 * 5
    assert sum(t.total_frequency for t in result.transitions) == 901 * 4
    for dec in result.decompositions:
        assert sum(cause_durations(dec).values()) == dec.waiting_duration
    per_cause = {c: imp.wt_seconds for c, imp in result.analysis.per_cause.items()}
    assert detected_causes(per_cause) == set(gen.truth.flags)
    print(f"\nCRITERION 7 (surrogate) PASS: {901 * 5} instances end to end "
          f"in {elapsed:.1f}s with exact additivity")
