"""The seeded wide-log generator: same bytes per seed, and the shape it promises."""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import wide  # noqa: E402
from wtminer.decomposition import CAUSES  # noqa: E402
from wtminer.ingest import load_log  # noqa: E402
from wtminer.pipeline import run_pipeline  # noqa: E402


def test_same_seed_gives_identical_bytes():
    first = wide.generate(11)
    again = wide.generate(11)
    other = wide.generate(12)
    assert first.csv_text == again.csv_text
    assert first.csv_text != other.csv_text


@pytest.fixture(scope="module", params=[1, 2])
def analyzed(request, tmp_path_factory):
    log = wide.generate(request.param)
    path = tmp_path_factory.mktemp("wide") / "wide.csv"
    path.write_text(log.csv_text, encoding="utf-8", newline="")
    loaded = load_log(path)
    return log, loaded, run_pipeline(loaded.log)


def test_size_and_resources(analyzed):
    log, loaded, result = analyzed
    assert loaded.stats.rows_rejected == 0
    assert len(result.log.instances) == log.instances
    assert log.instances == wide.N_INSTANCES
    assert len(result.log.resources) == log.resources >= 500
    assert len(result.log.activities) == log.activities == 40


def test_long_case(analyzed):
    log, _, result = analyzed
    assert max(len(seq) for seq in result.log.cases.values()) == log.longest_case >= 2000


def test_work_happens_in_weekday_office_hours(analyzed):
    _, _, result = analyzed
    for inst in result.log.instances:
        day = (inst.started - wide.ORIGIN) // wide.DAY
        assert day % 7 < 5
        assert wide.WORK_START <= inst.started - wide.ORIGIN - day * wide.DAY
        assert inst.completed - wide.ORIGIN - day * wide.DAY <= wide.WORK_END


def test_every_cause_present_and_self_loops_dominate(analyzed):
    _, _, result = analyzed
    analysis = result.analysis
    assert all(analysis.per_cause[cause].wt_seconds > 0 for cause in CAUSES)
    self_loop_wt = sum(
        t.total_wt_seconds
        for t in analysis.per_transition
        if t.source_activity == t.target_activity
    )
    assert self_loop_wt > analysis.total_wt_seconds / 2
