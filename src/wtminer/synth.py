"""Synthetic log generator with controlled waiting-time cause injection.

The base process is a five-activity sequential pipeline (one dedicated
resource per activity, every activity 600 s) fed one case per 600 s, so an
uninjected day has zero waiting time everywhere. Days sit on a Monday to
Wednesday grid, 5 cases per day, starting at 09:00 UTC plus a seeded per-day
jitter of up to 10 minutes.

Every case is laid out by one rule: an activity runs from a given instant,
one STEP or until a given end, and the rest of the case follows back to
back, STEP each. So each injection holds one activity until a later instant
or stretches it to a later end:

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
from dataclasses import asdict, dataclass
from math import ceil
from pathlib import Path

from wtminer.calendars import SECONDS_PER_DAY, SECONDS_PER_WEEK
from wtminer.decomposition import CAUSES
from wtminer.ingest import format_timestamp
from wtminer.model import ActivityInstance, ConfigError, EventLog

STEP = 600
CASES_PER_DAY = 5
DAY_START_S = 9 * 3600
NOON_S = 12 * 3600
GRID_WEEKDAYS = 3  # cases land on Monday, Tuesday, Wednesday only
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
        return {name: getattr(self, name) for name in CAUSES}

    @property
    def day_types(self) -> tuple[str, ...]:
        # Unavailability is injected on every day; the other causes take turns.
        rotating = (name for name in CAUSES if name != "unavailability")
        return tuple(name for name in rotating if getattr(self, name))

    @classmethod
    def from_bits(cls, bits: str, n_cases: int = 20, seed: int = 0) -> "InjectionSpec":
        if len(bits) != len(CAUSES) or set(bits) - {"0", "1"}:
            raise ConfigError(f"expected {len(CAUSES)} bits, got {bits!r}")
        kwargs = {name: bit == "1" for name, bit in zip(CAUSES, bits)}
        return cls(n_cases=n_cases, seed=seed, **kwargs)


@dataclass(frozen=True)
class GroundTruth:
    flags: dict[str, bool]
    injected_seconds: dict[str, int]
    n_cases: int
    seed: int
    noisy_extraneous: bool


@dataclass(frozen=True)
class GeneratedLog:
    log: EventLog
    truth: GroundTruth


def _day_begin(day_index: int) -> int:
    week, weekday = divmod(day_index, GRID_WEEKDAYS)
    return ORIGIN + week * SECONDS_PER_WEEK + weekday * SECONDS_PER_DAY


def _lay_out(
    case: dict[str, tuple[int, int]], activity: str, start: int, end: int = 0
) -> dict[str, tuple[int, int]]:
    """Run `activity` from `start` until `end` (one STEP when 0), then the
    rest of the case back to back, STEP each; return the case."""
    end = end or start + STEP
    case[activity] = (start, end)
    for act in ACTIVITIES[ACTIVITIES.index(activity) + 1 :]:
        case[act] = (end, end + STEP)
        end += STEP
    return case


def generate(spec: InjectionSpec) -> GeneratedLog:
    """The log of `spec`; a `ConfigError` if a cause it flags gets no
    waiting time, which too few cases leave no day for."""
    rng = random.Random(spec.seed)
    injected = dict.fromkeys(CAUSES, 0)
    instances: list[ActivityInstance] = []
    n_days = ceil(spec.n_cases / CASES_PER_DAY)
    day_types = spec.day_types
    extraneous_days_seen = 0

    for day in range(n_days):
        jitter = rng.randint(0, STEP)
        first_case = day * CASES_PER_DAY
        k = min(CASES_PER_DAY, spec.n_cases - first_case)
        base = _day_begin(day) + DAY_START_S + jitter
        cases = [_lay_out({}, "register", base + i * STEP) for i in range(k)]
        day_type = day_types[day % len(day_types)] if day_types else None

        if day_type == "contention" and k >= 2:
            first = cases[0]["assess"]
            _lay_out(cases[0], "assess", first[0], first[1] + 500)
            for before, case in zip(cases, cases[1:]):
                _lay_out(case, "assess", before["assess"][1])
            injected["contention"] += 500 * (k - 1)
        elif day_type == "batching" and k == CASES_PER_DAY:
            held_start = cases[3]["dispatch"][0]
            for case in cases[1:4]:
                injected["batching"] += held_start - case["dispatch"][0]
                _lay_out(case, "dispatch", held_start)
        elif day_type == "prioritization" and k >= 2:
            overtaken, runner = cases[k - 2], cases[k - 1]
            _lay_out(runner, "register", overtaken["register"][0] + 1)
            start = runner["assess"][0]
            _lay_out(runner, "assess", start, start + 2 * STEP)
            _lay_out(overtaken, "assess", runner["assess"][1])
            injected["prioritization"] += 1200
        elif day_type == "extraneous" and k >= 1:
            noisy = spec.noisy_extraneous
            pattern_b = noisy and k >= 2 and extraneous_days_seen % 2 == 1
            extraneous_days_seen += 1
            if not noisy:
                target, hold = cases[k - 1], 900
            elif pattern_b:
                # Delay during which a later-enabled instance gets processed.
                target, hold = cases[k - 2], 1800
            else:
                # Delay long enough to spill into never-observed hour slots.
                target, hold = cases[k - 1], 14400
            _lay_out(target, "assess", target["prepare"][1] + hold)
            injected["extraneous"] += hold

        if spec.unavailability:
            last = max(cases, key=lambda case: case["decide"][1])
            decide_start = last["decide"][0]
            decide_end = max(_day_begin(day) + NOON_S, decide_start + STEP)
            _lay_out(last, "decide", decide_start, decide_end)
            resume = _day_begin(day + 1) + DAY_START_S
            _lay_out(last, "dispatch", resume)
            injected["unavailability"] += resume - decide_end

        for i, case in enumerate(cases):
            case_id = f"C{first_case + i:04d}"
            for act in ACTIVITIES:
                s, e = case[act]
                instances.append(
                    ActivityInstance(case_id, act, RESOURCE_FOR[act], s, e)
                )

    missing = [cause for cause, on in spec.flags().items() if on and not injected[cause]]
    if missing:
        raise ConfigError(f"{spec.n_cases} cases are too few to inject {', '.join(missing)}")
    truth = GroundTruth(
        flags=spec.flags(),
        injected_seconds=injected,
        n_cases=spec.n_cases,
        seed=spec.seed,
        noisy_extraneous=spec.noisy_extraneous,
    )
    return GeneratedLog(log=EventLog(instances), truth=truth)


def to_csv(generated: GeneratedLog) -> str:
    """Render the generated log as the CSV schema the loader reads."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["case_id", "activity", "resource", "start_time", "end_time"])
    # Log order: within a case each activity starts after the one before ends.
    for inst in generated.log.instances:
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
    csv_path: str | Path,
    truth_path: str | Path | None = None,
) -> None:
    Path(csv_path).write_text(to_csv(generated), encoding="utf-8", newline="")
    if truth_path is not None:
        payload = json.dumps(asdict(generated.truth), indent=2, sort_keys=True)
        Path(truth_path).write_text(payload + "\n", encoding="utf-8")


def detected_causes(per_cause_seconds: dict[str, int]) -> set[str]:
    """Apply the presence rule to decomposed per-cause waiting time totals."""
    return {
        cause
        for cause, seconds in per_cause_seconds.items()
        if seconds >= DETECTION_THRESHOLD_S
    }
