"""Synthetic log generator with controlled waiting-time cause injection.

The base process is a five-activity sequential pipeline (one dedicated
resource per activity, every activity 600 s) fed one case per 600 s, so an
uninjected day has zero waiting time everywhere. Days sit on a Monday to
Wednesday grid, 5 cases per day, starting at 09:00 UTC plus a seeded per-day
jitter of up to 10 minutes.

Causes are injected by direct timestamp construction:

- contention:      the first case's assessment runs 500 s long, creating a
                   rate-matched FIFO backlog: every later case waits exactly
                   500 s, fully covered by earlier-enabled processing.
- batching:        three dispatches are held and started together when the
                   last of them is enabled.
- prioritization:  the day's last case is enabled 1 s after its predecessor
                   but is processed first for 1200 s.
- extraneous:      the day's last assessment starts 900 s after enablement
                   while its resource sits idle inside working hours.
- unavailability:  the day's final decision is stretched to end at 12:00
                   sharp and its dispatch happens next grid day at 09:00,
                   far outside the dispatcher's discovered working hours.

Injection arithmetic keeps every unintended leak under the detection
threshold, so a cause is reported present iff its decomposed waiting time
reaches DETECTION_THRESHOLD_S.

The noisy_extraneous toggle reproduces the documented cross-cause artifacts
of extraneous delays: a four-hour delay spills into hour slots the calendar
never saw (fake unavailability), and a delay during which a later-enabled
instance is processed reads as prioritization.
"""
from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from math import ceil
from pathlib import Path
from typing import Optional, Union

from wtminer.ingest import format_timestamp
from wtminer.model import ActivityInstance, ConfigError, EventLog

STEP = 600
CASES_PER_DAY = 5
DAY_START_S = 9 * 3600
NOON_S = 12 * 3600
GRID_WEEKDAYS = 3  # cases land on Monday, Tuesday, Wednesday only
SECONDS_PER_DAY = 86400
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY
# Monday 2023-01-02 00:00:00 UTC.
ORIGIN = 1672617600

ACTIVITIES = ("register", "prepare", "assess", "decide", "dispatch")
RESOURCE_FOR = {
    "register": "clerk",
    "prepare": "preparer",
    "assess": "assessor",
    "decide": "officer",
    "dispatch": "dispatcher",
}

CAUSE_FLAGS = ("batching", "contention", "prioritization", "unavailability", "extraneous")

# A cause counts as detected when the analyzer attributes at least this much
# waiting time to it. Injections deliver >= 900 s per injected day; leak
# artifacts stay at a few seconds per day.
DETECTION_THRESHOLD_S = 300


@dataclass(frozen=True)
class InjectionSpec:
    batching: bool = False
    contention: bool = False
    prioritization: bool = False
    unavailability: bool = False
    extraneous: bool = False
    n_cases: int = 20
    seed: int = 0
    noisy_extraneous: bool = False

    def __post_init__(self) -> None:
        if self.n_cases < 1:
            raise ConfigError("n_cases must be at least 1")
        if self.noisy_extraneous and not self.extraneous:
            raise ConfigError("noisy_extraneous requires the extraneous flag")

    def flags(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in CAUSE_FLAGS}

    @property
    def day_types(self) -> tuple[str, ...]:
        order = ("batching", "contention", "prioritization", "extraneous")
        return tuple(name for name in order if getattr(self, name))

    @classmethod
    def from_bits(cls, bits: str, n_cases: int = 20, seed: int = 0) -> "InjectionSpec":
        if len(bits) != len(CAUSE_FLAGS) or set(bits) - {"0", "1"}:
            raise ConfigError(f"expected {len(CAUSE_FLAGS)} bits, got {bits!r}")
        kwargs = {name: bit == "1" for name, bit in zip(CAUSE_FLAGS, bits)}
        return cls(n_cases=n_cases, seed=seed, **kwargs)


@dataclass(frozen=True)
class GroundTruth:
    flags: dict[str, bool]
    injected_seconds: dict[str, int]
    n_cases: int
    seed: int
    noisy_extraneous: bool

    def as_dict(self) -> dict:
        return {
            "flags": self.flags,
            "injected_seconds": self.injected_seconds,
            "n_cases": self.n_cases,
            "seed": self.seed,
            "noisy_extraneous": self.noisy_extraneous,
        }


@dataclass(frozen=True)
class GeneratedLog:
    log: EventLog
    truth: GroundTruth


def _day_begin(day_index: int) -> int:
    week, weekday = divmod(day_index, GRID_WEEKDAYS)
    return ORIGIN + week * SECONDS_PER_WEEK + weekday * SECONDS_PER_DAY


def _plain_case(arrival: int) -> dict[str, tuple[int, int]]:
    return {
        act: (arrival + i * STEP, arrival + (i + 1) * STEP)
        for i, act in enumerate(ACTIVITIES)
    }


def generate(spec: InjectionSpec) -> GeneratedLog:
    rng = random.Random(spec.seed)
    injected = dict.fromkeys(CAUSE_FLAGS, 0)
    instances: list[ActivityInstance] = []
    n_days = ceil(spec.n_cases / CASES_PER_DAY)
    day_types = spec.day_types
    extraneous_days_seen = 0

    for day in range(n_days):
        jitter = rng.randint(0, STEP)
        first_case = day * CASES_PER_DAY
        k = min(CASES_PER_DAY, spec.n_cases - first_case)
        base = _day_begin(day) + DAY_START_S + jitter
        arrivals = [base + i * STEP for i in range(k)]
        cases = [_plain_case(t) for t in arrivals]
        day_type = day_types[day % len(day_types)] if day_types else None

        if day_type == "contention" and k >= 2:
            e0 = arrivals[0] + 2 * STEP
            cases[0]["assess"] = (e0, e0 + STEP + 500)
            for i in range(1, k):
                s = arrivals[i] + 2 * STEP + 500
                cases[i]["assess"] = (s, s + STEP)
            for i in range(k):
                a_end = cases[i]["assess"][1]
                cases[i]["decide"] = (a_end, a_end + STEP)
                cases[i]["dispatch"] = (a_end + STEP, a_end + 2 * STEP)
            injected["contention"] += 500 * (k - 1)
        elif day_type == "batching" and k == CASES_PER_DAY:
            held_start = arrivals[3] + 4 * STEP
            for i in (1, 2, 3):
                injected["batching"] += held_start - (arrivals[i] + 4 * STEP)
                cases[i]["dispatch"] = (held_start, held_start + STEP)
        elif day_type == "prioritization" and k >= 2:
            t_o = arrivals[k - 2]
            runner = {
                "register": (t_o + 1, t_o + 1 + STEP),
                "prepare": (t_o + 1 + STEP, t_o + 1 + 2 * STEP),
                "assess": (t_o + 1 + 2 * STEP, t_o + 2401),
                "decide": (t_o + 2401, t_o + 3001),
                "dispatch": (t_o + 3001, t_o + 3601),
            }
            cases[k - 1] = runner
            overtaken = cases[k - 2]
            overtaken["assess"] = (t_o + 2401, t_o + 3001)
            overtaken["decide"] = (t_o + 3001, t_o + 3601)
            overtaken["dispatch"] = (t_o + 3601, t_o + 4201)
            injected["prioritization"] += 1200
        elif day_type == "extraneous" and k >= 1:
            noisy = spec.noisy_extraneous
            pattern_b = noisy and k >= 2 and extraneous_days_seen % 2 == 1
            extraneous_days_seen += 1
            if not noisy:
                delay = 900
                target = cases[k - 1]
                e = target["prepare"][1]
                target["assess"] = (e + delay, e + delay + STEP)
                target["decide"] = (e + delay + STEP, e + delay + 2 * STEP)
                target["dispatch"] = (e + delay + 2 * STEP, e + delay + 3 * STEP)
                injected["extraneous"] += delay
            elif pattern_b:
                # Delay during which a later-enabled instance gets processed.
                target = cases[k - 2]
                e = target["prepare"][1]
                target["assess"] = (e + 1800, e + 1800 + STEP)
                target["decide"] = (e + 2400, e + 2400 + STEP)
                target["dispatch"] = (e + 3000, e + 3000 + STEP)
                injected["extraneous"] += 1800
            else:
                # Delay long enough to spill into never-observed hour slots.
                delay = 14400
                target = cases[k - 1]
                e = target["prepare"][1]
                target["assess"] = (e + delay, e + delay + STEP)
                target["decide"] = (e + delay + STEP, e + delay + 2 * STEP)
                target["dispatch"] = (e + delay + 2 * STEP, e + delay + 3 * STEP)
                injected["extraneous"] += delay

        if spec.unavailability:
            last = max(range(k), key=lambda i: cases[i]["decide"][1])
            decide_start = cases[last]["decide"][0]
            decide_end = max(_day_begin(day) + NOON_S, decide_start + STEP)
            cases[last]["decide"] = (decide_start, decide_end)
            resume = _day_begin(day + 1) + DAY_START_S
            cases[last]["dispatch"] = (resume, resume + STEP)
            injected["unavailability"] += resume - decide_end

        for i, case in enumerate(cases):
            case_id = f"C{first_case + i:04d}"
            for act in ACTIVITIES:
                s, e = case[act]
                instances.append(
                    ActivityInstance(case_id, act, RESOURCE_FOR[act], s, e)
                )

    truth = GroundTruth(
        flags=spec.flags(),
        injected_seconds=injected,
        n_cases=spec.n_cases,
        seed=spec.seed,
        noisy_extraneous=spec.noisy_extraneous,
    )
    return GeneratedLog(log=EventLog.from_instances(instances), truth=truth)


def to_csv(generated: GeneratedLog) -> str:
    """Render the generated log as the CSV schema the loader reads."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["case_id", "activity", "resource", "start_time", "end_time"])
    rows = sorted(
        generated.log.instances,
        key=lambda inst: (inst.case_id, inst.started, inst.activity),
    )
    for inst in rows:
        writer.writerow(
            [
                inst.case_id,
                inst.activity,
                inst.resource,
                format_timestamp(inst.started),
                format_timestamp(inst.completed),
            ]
        )
    return buffer.getvalue()


def write_files(
    generated: GeneratedLog,
    csv_path: Union[str, Path],
    truth_path: Optional[Union[str, Path]] = None,
) -> None:
    Path(csv_path).write_text(to_csv(generated), encoding="utf-8", newline="")
    if truth_path is not None:
        payload = json.dumps(generated.truth.as_dict(), indent=2, sort_keys=True)
        Path(truth_path).write_text(payload + "\n", encoding="utf-8")


def detected_causes(per_cause_seconds: dict[str, int]) -> set[str]:
    """Apply the presence rule to decomposed per-cause waiting time totals."""
    return {
        cause
        for cause, seconds in per_cause_seconds.items()
        if seconds >= DETECTION_THRESHOLD_S
    }
