"""Seeded "wide" event log: many resources, long self-looping cases.

The log comes from a small queue simulation on a Monday-to-Friday
09:00-17:00 calendar. Forty activities form a fixed stage order; each stage
has its own pool of resources. A case walks a sorted subset of the stages
and repeats each stage a few times, so most transitions are self-loops, the
shape of the paper's real log. One long case walks every non-batch stage
56 times, which gives a case of 2016 events and a horizon of more than a
year.

Every cause of waiting arises from the simulation itself:

- contention and prioritization: jobs queue for their resource in the order
  they become ready, and a job held back by an extraneous delay is
  overtaken by jobs that became ready before it;
- batching: each tenth stage is served by one resource that starts its
  queued jobs back to back at 14:00;
- unavailability: work enabled after hours or at the weekend waits for the
  next working morning;
- extraneous: some jobs are held for a random delay before they queue.

Jobs are simulated in the order they become ready, with a heap, so the
resources never run two jobs at once and every case is sequential.
"""
from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass

# Monday 2023-01-02 00:00:00 UTC.
ORIGIN = 1672617600
DAY = 86400
WORK_START = 9 * 3600
WORK_END = 17 * 3600
BATCH_DISPATCH = 14 * 3600
POOL_SIZES = (3, 8, 16, 33)
BATCH_EVERY = 10
N_ACTIVITIES = 40
N_INSTANCES = 8000
LONG_CASE_REPS = 56
ARRIVAL_DAYS = 20
EXTRANEOUS_SHARE = 0.2


@dataclass(frozen=True)
class WideLog:
    csv_text: str
    instances: int
    resources: int
    activities: int
    longest_case: int


def _is_workday(t: int) -> bool:
    return ((t - ORIGIN) // DAY) % 7 < 5


def _day_start(t: int) -> int:
    return t - (t - ORIGIN) % DAY


def _next_work_start(t: int, duration: int) -> int:
    """Earliest instant >= t at which `duration` seconds fit in working hours."""
    day = _day_start(t)
    while True:
        start = max(t, day + WORK_START)
        if _is_workday(day) and start + duration <= day + WORK_END:
            return start
        day += DAY


def _next_dispatch(t: int) -> int:
    day = _day_start(t)
    while not (_is_workday(day) and t <= day + BATCH_DISPATCH):
        day += DAY
    return day + BATCH_DISPATCH


def _stage_pools() -> list[list[str]]:
    pools = []
    next_id = 0
    for stage in range(N_ACTIVITIES):
        size = 1 if stage % BATCH_EVERY == 0 else POOL_SIZES[stage % len(POOL_SIZES)]
        pools.append([f"R{next_id + k:04d}" for k in range(size)])
        next_id += size
    return pools


def _case_plans(rng: random.Random) -> list[list[int]]:
    """Stage sequence per case, N_INSTANCES steps in all; a repeated stage is a self-loop.

    The total is fixed, so that every seed gives a log of the same size; the
    last case is cut short to fit.
    """
    walkable = [s for s in range(N_ACTIVITIES) if s % BATCH_EVERY != 0]
    plans = [[s for s in walkable for _ in range(LONG_CASE_REPS)]]
    left = N_INSTANCES - len(plans[0])
    while left > 0:
        stages = sorted(rng.sample(range(N_ACTIVITIES), rng.randint(2, 5)))
        plan = []
        for stage in stages:
            reps = 1
            while rng.random() < 0.5:
                reps += 1
            plan.extend([stage] * reps)
        plans.append(plan[:left])
        left -= len(plans[-1])
    return plans


def generate(seed: int) -> WideLog:
    rng = random.Random(seed)
    pools = _stage_pools()
    plans = _case_plans(rng)
    free_at: dict[str, int] = {}
    rows: list[tuple[str, int, str, str, int]] = []

    # Heap entries: (ready, tie-break, case index, step).
    ready: list[tuple[int, int, int, int]] = []
    for index in range(len(plans)):
        arrival = ORIGIN + WORK_START + rng.randrange(ARRIVAL_DAYS * 7 // 5 * DAY)
        arrival = _next_work_start(arrival, 0)
        heapq.heappush(ready, (arrival, index, index, 0))
    tick = len(plans)

    while ready:
        at, _, index, step = heapq.heappop(ready)
        stage = plans[index][step]
        pool = pools[stage]
        resource = pool[rng.randrange(len(pool))]
        batch = stage % BATCH_EVERY == 0
        duration = rng.randint(600, 1200) if batch else rng.randint(600, 5400)
        earliest = max(at, free_at.get(resource, 0))
        if batch:
            earliest = max(_next_dispatch(at), free_at.get(resource, 0))
        start = _next_work_start(earliest, duration)
        end = start + duration
        free_at[resource] = end
        rows.append((f"C{index:05d}", start, f"A{stage:02d}", resource, end))

        if step + 1 < len(plans[index]):
            next_ready = end
            if rng.random() < EXTRANEOUS_SHARE:
                next_ready += rng.randint(1800, 4 * 3600)
            tick += 1
            heapq.heappush(ready, (next_ready, tick, index, step + 1))

    rows.sort()
    lines = ["case_id,activity,resource,start_time,end_time"]
    for case_id, start, activity, resource, end in rows:
        lines.append(f"{case_id},{activity},{resource},{_iso(start)},{_iso(end)}")
    return WideLog(
        csv_text="\r\n".join(lines) + "\r\n",
        instances=len(rows),
        resources=len(free_at),
        activities=len({row[2] for row in rows}),
        longest_case=max(len(plan) for plan in plans),
    )


def _iso(t: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))
