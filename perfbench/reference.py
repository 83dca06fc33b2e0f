"""Fixed reference work that tracks the speed of the host, not of wtminer.

    python3 perfbench/reference.py

Runs in a fresh interpreter, like every analysis, and does the same kinds of
pure-Python work the pipeline does: parse CSV text, build small dataclass
objects, group them in dicts, sort, and scan per-key lists for overlapping
intervals. It imports only the standard library and never changes, so the
ratio of an analysis's wall time to this program's wall time, measured
alternately, moves with the program and not with the host's speed.
"""
from __future__ import annotations

import csv
import io
import sys
from dataclasses import dataclass

ROWS = 16000
KEYS = 40


@dataclass(frozen=True)
class Interval:
    key: str
    start: int
    end: int


def _csv_text() -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(("key", "start", "end"))
    state = 12345
    for _ in range(ROWS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        start = state % 10_000_000
        writer.writerow((f"k{state % KEYS}", start, start + 1 + state % 5000))
    return out.getvalue()


def work() -> int:
    groups: dict[str, list[Interval]] = {}
    for row in csv.DictReader(io.StringIO(_csv_text())):
        item = Interval(row["key"], int(row["start"]), int(row["end"]))
        groups.setdefault(item.key, []).append(item)
    overlap = 0
    for items in groups.values():
        items.sort(key=lambda i: (i.start, i.end))
        for n, later in enumerate(items):
            for earlier in items[max(0, n - 40):n]:
                if earlier.end > later.start:
                    overlap += min(earlier.end, later.end) - later.start
    return overlap


if __name__ == "__main__":
    sys.stdout.write(f"{work()}\n")
