"""Calendar discovery, expansion and override parsing tests."""
from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import (
    brute_discover_calendar,
    brute_expand_calendar,
    brute_weekly_ranges,
    calendar_from_cells,
    contains_point,
    horizon,
    intersect,
    total_duration,
    week_start,
    weekday_of,
)
from test_golden import load_wide_module
from wtminer.calendars import (
    SECONDS_PER_DAY,
    SECONDS_PER_WEEK,
    CalendarParams,
    WeeklyCalendar,
    calendar_to_ranges,
    discover_calendar,
    discover_calendars,
    expand_calendar,
    load_calendar_overrides,
)
from wtminer.decomposition import CAUSES
from wtminer.ingest import load_log
from wtminer.model import (
    ActivityInstance,
    ConfigError,
    EventLog,
    Span,
    UNKNOWN_RESOURCE,
    _canonicalize,
)
from wtminer.pipeline import run_pipeline

# 2023-01-02 00:00:00 UTC, a Monday.
MONDAY = 1672617600


def at(day: int, hour: int, minute: int = 0, second: int = 0) -> int:
    return MONDAY + day * 86400 + hour * 3600 + minute * 60 + second


def work(case, res, start, end, act="a"):
    return ActivityInstance(case, act, res, start, end)


class TestWeekMath:
    def test_weekday_indices(self):
        assert weekday_of(MONDAY) == 0
        assert weekday_of(at(6, 12)) == 6
        assert weekday_of(0) == 3  # the epoch was a Thursday

    def test_week_start(self):
        assert week_start(MONDAY) == MONDAY
        assert week_start(at(6, 23, 59)) == MONDAY
        assert week_start(at(7, 0)) == MONDAY + 7 * 86400


class TestDiscoverCalendar:
    def test_dense_monday_business_hours(self):
        instances = []
        k = 0
        for week in range(8):
            for hour in range(9, 17):
                start = at(7 * week, hour, 0)
                instances.append(work(f"c{k}", "r1", start, start + 45 * 60))
                k += 1
        cal = discover_calendar(EventLog(instances), "r1")
        assert cal.ranges == brute_weekly_ranges(60, ((0, h) for h in range(9, 17)))

    def test_single_observation(self):
        log = EventLog([work("c1", "r1", at(2, 14, 30), at(2, 14, 30))])
        cal = discover_calendar(log, "r1")
        assert cal.ranges == brute_weekly_ranges(60, {(2, 14)})

    def test_uniform_activity_gives_full_week(self):
        instances = []
        k = 0
        for day in range(7):
            for hour in range(24):
                start = at(day, hour, 5)
                instances.append(work(f"c{k}", "r1", start, start + 600))
                k += 1
        cal = discover_calendar(EventLog(instances), "r1")
        assert cal.is_always_on

    def test_unknown_resource_raises(self):
        log = EventLog([work("c1", "r1", at(0, 9), at(0, 10))])
        with pytest.raises(ValueError):
            discover_calendar(log, "r9")

    def test_reserved_resource_gets_full_week(self):
        log = EventLog(
            [work("c1", UNKNOWN_RESOURCE, at(0, 9), at(0, 10))]
        )
        cal = discover_calendar(log, UNKNOWN_RESOURCE)
        assert cal.is_always_on

    def test_support_relaxation_widens_calendar(self):
        instances = []
        # 20 executions inside Mon 09:xx (40 observations in one slot).
        for k in range(20):
            start = at(0, 9, 1 + k)
            instances.append(work(f"m{k}", "r1", start, start + 30))
        # One execution in each of three other slots (2 observations each).
        for k, (day, hour) in enumerate([(1, 11), (2, 13), (3, 15)]):
            start = at(day, hour, 10)
            instances.append(work(f"s{k}", "r1", start, start + 60))
        log = EventLog(instances)

        narrow = discover_calendar(log, "r1", CalendarParams(support=0.1))
        assert narrow.ranges == brute_weekly_ranges(60, {(0, 9)})
        wide = discover_calendar(log, "r1", CalendarParams(support=0.9))
        assert wide.ranges == brute_weekly_ranges(60, {(0, 9), (1, 11), (2, 13), (3, 15)})

    def test_same_instants_give_equal_calendars(self):
        # A calendar does not name its resource, so two resources seen at the
        # same instants discover equal values.
        log = EventLog(
            [
                work(f"{res}-{h}", res, at(0, h), at(0, h, 30))
                for res in ("r1", "r2")
                for h in range(9, 17)
            ]
        )
        cals = discover_calendars(log)
        assert cals["r1"] == cals["r2"]
        assert hash(cals["r1"]) == hash(cals["r2"])
        assert cals["r1"].ranges == brute_weekly_ranges(60, ((0, h) for h in range(9, 17)))

    def test_discover_all_resources(self):
        log = EventLog(
            [
                work("c1", "r1", at(0, 9), at(0, 10)),
                work("c2", "r2", at(1, 9), at(1, 10)),
                work("c3", UNKNOWN_RESOURCE, at(2, 9), at(2, 10)),
            ]
        )
        cals = discover_calendars(log)
        assert set(cals) == {"r1", "r2", UNKNOWN_RESOURCE}
        assert cals[UNKNOWN_RESOURCE].is_always_on

    def test_params_validation(self):
        with pytest.raises(ConfigError):
            CalendarParams(granule_minutes=7)
        with pytest.raises(ConfigError):
            CalendarParams(confidence=1.2)
        with pytest.raises(ConfigError):
            CalendarParams(support=-0.1)


@st.composite
def observed_logs(draw) -> EventLog:
    """Instances on up to three resources around one origin, which may lie
    long before 1970 or far in the future; starts cluster on a few hours of
    the day, so slots repeat and the frequency cut has something to cut."""
    origin = draw(st.integers(min_value=-(10**11), max_value=10**11))
    hours = draw(st.lists(st.integers(min_value=0, max_value=23), min_size=1, max_size=4))
    instances = []
    for k in range(draw(st.integers(min_value=1, max_value=40))):
        resource = draw(st.sampled_from(["r1", "r2", UNKNOWN_RESOURCE]))
        day = draw(st.integers(min_value=0, max_value=20))
        hour = draw(st.sampled_from(hours))
        start = origin + day * 86400 + hour * 3600 + draw(st.integers(0, 3599))
        end = start + draw(st.integers(min_value=0, max_value=4 * 3600))
        instances.append(work(f"c{k}", resource, start, end))
    return EventLog(instances)


class TestDiscoverCalendarOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        observed_logs(),
        st.sampled_from([1, 5, 15, 60, 90, 1440]),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    )
    def test_matches_tuple_keyed_discovery(self, log, granule, confidence, support):
        params = CalendarParams(granule, confidence, support)
        for resource in log.resources:
            expected = brute_discover_calendar(log, resource, params)
            assert discover_calendar(log, resource, params) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        observed_logs(),
        st.sampled_from([1, 5, 15, 60, 90, 1440]),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_discovered_calendars_pass_the_public_checks(
        self, log, granule, confidence, support
    ):
        # Discovery builds its calendars without the public constructor's
        # merge and grid checks; rebuilding each through them changes nothing.
        params = CalendarParams(granule, confidence, support)
        for resource in log.resources:
            cal = discover_calendar(log, resource, params)
            assert type(cal.ranges) is tuple
            assert WeeklyCalendar(granule, cal.ranges) == cal


class TestExpandCalendar:
    def test_always_on_covers_horizon(self):
        cal = WeeklyCalendar.always_on()
        horizon = (at(0, 3, 17), at(11, 22, 4))
        avail = expand_calendar(cal, horizon)
        assert avail.available == _canonicalize((horizon,))

    def test_weekly_tiling(self):
        cal = calendar_from_cells(60, ((0, h) for h in range(9, 17)))
        horizon = (MONDAY, MONDAY + 14 * 86400)
        avail = expand_calendar(cal, horizon)
        assert avail.available == _canonicalize(
            [(at(0, 9), at(0, 17)), (at(7, 9), at(7, 17))]
        )

    def test_empty_horizon(self):
        cal = WeeklyCalendar.always_on()
        avail = expand_calendar(cal, (MONDAY, MONDAY))
        assert not avail.available

    def test_clipped_to_horizon(self):
        cal = calendar_from_cells(60, {(0, 9)})
        horizon = (at(0, 9, 30), at(0, 9, 45))
        avail = expand_calendar(cal, horizon)
        assert avail.available == _canonicalize([(at(0, 9, 30), at(0, 9, 45))])

    def test_availability_never_exceeds_horizon(self):
        cal = WeeklyCalendar.always_on()
        horizon = (at(0, 0), at(20, 0))
        avail = expand_calendar(cal, horizon)
        assert total_duration(avail.available) <= horizon[1] - horizon[0]

    def test_observations_inside_own_availability(self):
        instances = []
        for week in range(4):
            for hour in (9, 12, 15):
                start = at(7 * week + 1, hour, 0)
                instances.append(work(f"c{week}_{hour}", "r1", start, start + 1800))
        log = EventLog(instances)
        cal = discover_calendar(log, "r1")
        avail = expand_calendar(cal, horizon(log))
        for inst in log.instances:
            assert contains_point(avail.available, inst.started)

    def test_midnight_spanning_ranges_merge(self):
        cal = calendar_from_cells(60, {(0, 23), (1, 0)})
        assert cal.ranges == ((23 * 3600, 25 * 3600),)
        horizon = (MONDAY, MONDAY + 7 * 86400)
        avail = expand_calendar(cal, horizon)
        assert avail.available == _canonicalize([(at(0, 23), at(1, 1))])


def cell_spans(granule: int, cells) -> list[Span]:
    """One (start, end) span per (weekday, slot) cell, unmerged."""
    size = granule * 60
    starts = (day * SECONDS_PER_DAY + slot * size for day, slot in cells)
    return [(start, start + size) for start in starts]


@st.composite
def calendars(draw) -> WeeklyCalendar:
    """A calendar drawn as (weekday, slot) cells and built from unmerged
    spans; its ranges must equal the cell-by-cell merge of those cells."""
    kind = draw(st.sampled_from(["60", "30", "1", "always", "sunday"]))
    if kind == "always":
        granule = 60
        slots = {(d, h) for d in range(7) for h in range(24)}
        cal = WeeklyCalendar.always_on()
    elif kind == "sunday":
        # Sunday 23:00-24:00, touching the next Monday 00:00 when that works too.
        granule = 60
        slots = {(6, 23)} | ({(0, 0)} if draw(st.booleans()) else set())
        cal = WeeklyCalendar(granule, cell_spans(granule, slots))
    elif kind == "1":
        # Minute slots, as calendar overrides give them: a few day ranges,
        # one span each, which may overlap or touch.
        granule = 1
        slots = set()
        spans = []
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            day = draw(st.integers(min_value=0, max_value=6))
            start = draw(st.integers(min_value=0, max_value=1439))
            end = draw(st.integers(min_value=start + 1, max_value=1440))
            slots.update((day, minute) for minute in range(start, end))
            day_s = day * SECONDS_PER_DAY
            spans.append((day_s + start * 60, day_s + end * 60))
        cal = WeeklyCalendar(granule, spans)
    else:
        granule = int(kind)
        slots = draw(
            st.sets(
                st.tuples(
                    st.integers(min_value=0, max_value=6),
                    st.integers(min_value=0, max_value=1440 // granule - 1),
                ),
                max_size=30,
            )
        )
        cal = WeeklyCalendar(granule, cell_spans(granule, slots))
    assert cal.ranges == brute_weekly_ranges(granule, slots)
    return cal


class TestWeeklyCalendar:
    @settings(max_examples=300, deadline=None)
    @given(calendars())
    def test_ranges_match_cell_merge_oracle(self, cal):
        # The strategy checks the ranges against the cell-by-cell merge.
        assert cal.is_always_on == (cal.ranges == ((0, SECONDS_PER_WEEK),))
        for (_, end), (start, _) in zip(cal.ranges, cal.ranges[1:]):
            assert end < start

    def test_ranges_are_stored_canonical(self):
        cal = WeeklyCalendar(60, [(7200, 10800), (0, 3600), (3600, 7200), (0, 0)])
        assert cal.ranges == ((0, 10800),)
        assert cal == WeeklyCalendar(60, ((0, 10800),))

    def test_always_on_is_the_whole_week(self):
        cal = WeeklyCalendar.always_on(30)
        assert cal.ranges == ((0, SECONDS_PER_WEEK),)
        assert cal.granule_minutes == 30
        assert cal.is_always_on
        assert not WeeklyCalendar(60, ((0, SECONDS_PER_WEEK - 3600),)).is_always_on

    @pytest.mark.parametrize(
        "span",
        [(0, 90), (1800, 3600), (-3600, 0), (SECONDS_PER_WEEK, SECONDS_PER_WEEK + 3600)],
    )
    def test_range_off_the_weekly_grid_rejected(self, span):
        with pytest.raises(ConfigError):
            WeeklyCalendar(60, (span,))

    @pytest.mark.parametrize("granule", [7, 0, -60])
    def test_granule_must_divide_a_day(self, granule):
        with pytest.raises(ConfigError):
            WeeklyCalendar(granule, ())

    @pytest.mark.parametrize("granule", [7, 0, -60, 2880])
    def test_params_and_calendar_refuse_a_granule_alike(self, granule):
        message = f"granule must divide 1440 minutes, got {granule}"
        for build in (lambda: CalendarParams(granule), lambda: WeeklyCalendar(granule, ())):
            with pytest.raises(ConfigError) as info:
                build()
            assert str(info.value) == message

    def test_reversed_range_is_value_error(self):
        with pytest.raises(ValueError):
            WeeklyCalendar(60, ((7200, 3600),))


@st.composite
def span_lists(draw) -> list[Span]:
    """Unsorted (start, end) spans: empty, touching, overlapping, across week
    boundaries and several weeks long."""
    spans: list[Span] = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["free", "boundary", "touch", "overlap"]))
        if kind in ("touch", "overlap") and spans:
            prev_start, prev_end = draw(st.sampled_from(spans))
            start = prev_end if kind == "touch" else draw(
                st.integers(min_value=prev_start, max_value=prev_end)
            )
        elif kind == "boundary":
            week = draw(st.integers(min_value=-1, max_value=4))
            start = MONDAY + week * SECONDS_PER_WEEK - draw(
                st.integers(min_value=0, max_value=7200)
            )
        else:
            start = MONDAY + draw(
                st.integers(min_value=-86400, max_value=4 * SECONDS_PER_WEEK)
            )
        length = draw(
            st.one_of(
                st.just(0),
                st.integers(min_value=1, max_value=7200),
                st.integers(min_value=1, max_value=3 * SECONDS_PER_WEEK),
            )
        )
        spans.append((start, start + length))
    return spans


class TestExpandOverSpans:
    @settings(max_examples=300, deadline=None)
    @given(calendars(), span_lists())
    def test_matches_hull_oracle(self, cal, spans):
        avail = expand_calendar(cal, *spans).available
        assert avail == brute_expand_calendar(cal, *spans).available
        union = _canonicalize(spans)
        for start, end in avail:
            assert any(u_start <= start and end <= u_end for u_start, u_end in union)

    @pytest.mark.parametrize(
        "spans",
        [
            pytest.param(
                [
                    (at(0, 10), at(0, 10)),
                    (at(0, 8), at(0, 12)),
                    (at(1, 9), at(1, 9)),
                    (at(1, 12), at(1, 12)),
                    (at(2, 10, 15), at(2, 10, 15)),
                    (at(2, 16), at(3, 10)),
                    (at(4, 0), at(4, 0)),
                ],
                id="empty-among-non-empty",
            ),
            pytest.param(
                [(at(9, 10), at(9, 11)), (at(2, 16), at(3, 10)), (at(0, 8), at(0, 12))],
                id="unsorted",
            ),
            pytest.param(
                [
                    (at(0, 8), at(2, 12)),
                    (at(1, 10), at(1, 11)),
                    (at(1, 16), at(4, 9)),
                    (at(2, 11), at(2, 13)),
                    (at(4, 9), at(4, 9, 30)),
                ],
                id="overlapping-and-nested",
            ),
            pytest.param(
                [
                    (at(13, 22), at(14, 0)),
                    (at(7, 0), at(7, 0, 30)),
                    (at(6, 23, 30), at(7, 0)),
                    (at(14, 0), at(14, 2)),
                ],
                id="touching-at-sunday-midnight",
            ),
            pytest.param(
                [(at(-3, 5), at(20, 5)), (at(6, 12), at(6, 12))], id="weeks-long"
            ),
        ],
    )
    def test_matches_hull_oracle_on_listed_spans(self, spans):
        office_hours = {(day, hour) for day in range(5) for hour in range(9, 17)}
        office = calendar_from_cells(60, office_hours)
        # Sunday 23:00-24:00, Monday 00:00-01:00 and Wednesday 10:00-10:30.
        midnight = calendar_from_cells(30, {(6, 46), (6, 47), (0, 0), (0, 1), (2, 20)})
        for cal in (office, midnight, WeeklyCalendar.always_on()):
            avail = expand_calendar(cal, *spans)
            assert avail == brute_expand_calendar(cal, *spans)
            assert all(start < end for start, end in avail.available)

    def test_no_spans_give_empty_set(self):
        cal = WeeklyCalendar.always_on()
        assert not expand_calendar(cal).available
        assert not expand_calendar(cal, (MONDAY, MONDAY)).available

    def test_reversed_span_is_rejected(self):
        cal = WeeklyCalendar.always_on()
        with pytest.raises(ValueError):
            expand_calendar(cal, (at(0, 9), at(0, 10)), (at(0, 10), at(0, 9)))

    def test_touching_spans_across_sunday_midnight_merge(self):
        cal = calendar_from_cells(60, {(6, 23), (0, 0)})
        sunday_night = (at(6, 23, 30), at(7, 0))
        monday_morning = (at(7, 0), at(7, 0, 30))
        avail = expand_calendar(cal, monday_morning, sunday_night).available
        assert avail == _canonicalize([(at(6, 23, 30), at(7, 0, 30))])

    def test_waits_years_apart_expand_only_near_the_waits(self):
        # Two short waits about ten years (520 weeks) apart: tiling their
        # hull would build one interval per week in between.
        cases = []
        for k, week in enumerate((0, 520)):
            day = 7 * week
            cases += [
                work(f"c{k}", "r1", at(day, 9, 0), at(day, 9, 10), act="a"),
                work(f"c{k}", "r1", at(day, 9, 30), at(day, 9, 40), act="b"),
            ]
        result = run_pipeline(EventLog(cases))
        waits = [d.waiting_duration for d in result.decompositions]
        assert [w for w in waits if w] == [1200, 1200]
        available = result.availability["r1"].available
        assert len(available) <= 2
        assert total_duration(available) == 2400


class TestOverrides:
    def write(self, tmp_path, payload) -> str:
        path = tmp_path / "calendars.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_one_calendar_filed_under_two_resources(self):
        # Each resource's availability is its calendar expanded over its own
        # waits, whichever key the calendar value is also filed under.
        office = calendar_from_cells(60, ((d, h) for d in range(5) for h in range(9, 17)))
        log = EventLog(
            [
                work("c1", "r1", at(0, 7), at(0, 7, 10), act="a"),
                work("c1", "r1", at(0, 10), at(0, 10, 10), act="b"),
                work("c2", "r2", at(1, 6), at(1, 6, 10), act="a"),
                work("c2", "r2", at(1, 12), at(1, 12, 10), act="b"),
            ]
        )
        result = run_pipeline(log, calendar_overrides=dict.fromkeys(("r1", "r2"), office))
        assert result.calendars == {"r1": office, "r2": office}
        assert result.availability["r1"].available == ((at(0, 9), at(0, 10)),)
        assert result.availability["r2"].available == ((at(1, 9), at(1, 12)),)
        unavailable = {
            d.instance.resource: total_duration(d.unavailability) for d in result.decompositions
        }
        assert unavailable == {"r1": at(0, 9) - at(0, 7, 10), "r2": at(1, 9) - at(1, 6, 10)}

    def test_overrides_apply_to_present_resources(self):
        # An override applies to a resource in the log, the unknown resource
        # included; one for a resource absent from the log is ignored. The
        # unknown resource's availability stays empty whatever its calendar.
        office = calendar_from_cells(60, ((d, h) for d in range(5) for h in range(9, 17)))
        log = EventLog(
            [
                work("c1", "r1", at(0, 7), at(0, 7, 10), act="a"),
                work("c1", UNKNOWN_RESOURCE, at(0, 10), at(0, 10, 10), act="b"),
                work("c2", "r2", at(1, 6), at(1, 6, 10), act="a"),
                work("c2", "r2", at(1, 12), at(1, 12, 10), act="b"),
            ]
        )
        overrides = dict.fromkeys(("r2", "absent", UNKNOWN_RESOURCE), office)
        result = run_pipeline(log, calendar_overrides=overrides)
        assert set(result.calendars) == {"r1", "r2", UNKNOWN_RESOURCE}
        assert result.calendars["r2"] == result.calendars[UNKNOWN_RESOURCE] == office
        assert result.calendars["r1"] != office
        assert result.availability[UNKNOWN_RESOURCE].available == ()
        assert result.overridden_resources == (UNKNOWN_RESOURCE, "r2")

    def test_basic_override(self, tmp_path):
        path = self.write(
            tmp_path, {"R1": [{"day": "MON", "from": "09:00", "to": "17:00"}]}
        )
        cals = load_calendar_overrides(path)
        cal = cals["R1"]
        assert cal.granule_minutes == 1
        assert cal.ranges == ((9 * 3600, 17 * 3600),)

    def test_empty_override_file(self, tmp_path):
        assert load_calendar_overrides(self.write(tmp_path, {})) == {}

    def test_midnight_end_allowed(self, tmp_path):
        path = self.write(
            tmp_path, {"R1": [{"day": "SUN", "from": "22:00", "to": "24:00"}]}
        )
        cal = load_calendar_overrides(path)["R1"]
        assert cal.ranges == ((6 * 86400 + 22 * 3600, 7 * 86400),)

    @pytest.mark.parametrize(
        "entry",
        [
            {"day": "FUNDAY", "from": "09:00", "to": "17:00"},
            {"day": "MON", "from": "17:00", "to": "09:00"},
            {"day": "MON", "from": "09:00", "to": "09:00"},
            {"day": "MON", "from": "25:00", "to": "26:00"},
            {"day": "MON", "from": "24:00", "to": "24:00"},
            {"day": "MON", "from": "9am", "to": "5pm"},
            {"day": "MON", "start": "09:00", "to": "17:00"},
            # `int()` reads each of these as a time of day: a sign, an
            # underscore, full-width digits, blanks around the colon.
            {"day": "MON", "from": "+9:00", "to": "17:00"},
            {"day": "MON", "from": "0_9:00", "to": "17:00"},
            {"day": "MON", "from": "\uff10\uff19:00", "to": "17:00"},
            {"day": "MON", "from": " 09 : 00 ", "to": "17:00"},
            {"day": "MON", "from": "-0:00", "to": "17:00"},
        ],
    )
    def test_malformed_entries_rejected(self, tmp_path, entry):
        path = self.write(tmp_path, {"R1": [entry]})
        with pytest.raises(ConfigError):
            load_calendar_overrides(path)

    def test_one_digit_hour_loads(self, tmp_path):
        path = self.write(tmp_path, {"R1": [{"day": "MON", "from": "9:00", "to": "24:00"}]})
        assert load_calendar_overrides(path)["R1"].ranges == ((9 * 3600, 86400),)

    def test_non_list_override_rejected(self, tmp_path):
        path = self.write(tmp_path, {"R1": {"day": "MON", "from": "09:00", "to": "17:00"}})
        with pytest.raises(ConfigError, match="override for 'R1' must be a list of ranges"):
            load_calendar_overrides(path)

    def test_non_object_payload_rejected(self, tmp_path):
        path = self.write(tmp_path, ["not", "a", "mapping"])
        with pytest.raises(ConfigError):
            load_calendar_overrides(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_calendar_overrides(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_calendar_overrides(str(tmp_path / "nope.json"))

    def test_utf8_bom_file_loads(self, tmp_path):
        path = tmp_path / "bom.json"
        payload = {"R1": [{"day": "MON", "from": "09:00", "to": "17:00"}]}
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(payload).encode("utf-8"))
        cal = load_calendar_overrides(path)["R1"]
        assert cal.ranges == ((9 * 3600, 17 * 3600),)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
        with pytest.raises(ConfigError, match="not UTF-8 JSON"):
            load_calendar_overrides(path)

    def test_weekday_hours_for_many_resources_are_five_ranges(self, tmp_path):
        week = [
            {"day": day, "from": "09:00", "to": "17:00"}
            for day in ("MON", "TUE", "WED", "THU", "FRI")
        ]
        path = self.write(tmp_path, {f"R{i:04d}": week for i in range(564)})
        cals = load_calendar_overrides(path)
        assert len(cals) == 564
        assert {len(cal.ranges) for cal in cals.values()} == {5}

    def test_whole_days_give_the_whole_week(self, tmp_path):
        week = [
            {"day": day, "from": "00:00", "to": "24:00"}
            for day in ("MON", "TUE", "WED", "THU", "FRI", "SAT", "SUN")
        ]
        cal = load_calendar_overrides(self.write(tmp_path, {"R1": week}))["R1"]
        assert cal.ranges == ((0, SECONDS_PER_WEEK),)
        assert cal.is_always_on


class TestSerialization:
    def test_round_trip_through_ranges(self, tmp_path):
        payload = {
            "R1": [
                {"day": "MON", "from": "09:00", "to": "17:00"},
                {"day": "WED", "from": "08:30", "to": "12:00"},
            ]
        }
        path = tmp_path / "cals.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        cal = load_calendar_overrides(str(path))["R1"]
        assert calendar_to_ranges(cal) == [
            {"day": "MON", "from": "09:00", "to": "17:00"},
            {"day": "WED", "from": "08:30", "to": "12:00"},
        ]

    def test_ranges_split_at_midnight(self):
        cal = calendar_from_cells(60, {(0, 23), (1, 0)})
        assert calendar_to_ranges(cal) == [
            {"day": "MON", "from": "23:00", "to": "24:00"},
            {"day": "TUE", "from": "00:00", "to": "01:00"},
        ]


# `perfbench/wide.py` simulates every resource on Monday to Friday 09:00-17:00.
WIDE_WORKING_WEEK = _canonicalize(
    (day * SECONDS_PER_DAY + 9 * 3600, day * SECONDS_PER_DAY + 17 * 3600) for day in range(5)
)


class TestCalendarFidelity:
    """Discovery scored against the true calendar of the benchmark's `wide`
    log at its default size, and what the difference does to the causes.

    The numbers are pinned, not judged good: with about 14 instances per
    resource, discovery finds about 35% of the true working hours, so the
    decomposition reads much of the missing working time as unavailability.
    A change to discovery that moves them shows here.
    """

    @pytest.mark.parametrize(
        "seed, share_found, hours_outside, moved_s",
        [(1, 0.3525, 0, 9_088_219), (2, 0.3525, 1, 9_419_035), (3, 0.3507, 0, 9_942_195)],
    )
    def test_discovered_against_true_calendars(
        self, tmp_path, seed, share_found, hours_outside, moved_s
    ):
        path = tmp_path / "wide.csv"
        text = load_wide_module().generate(seed).csv_text
        path.write_text(text, encoding="utf-8", newline="")
        log = load_log(path).log
        discovered = run_pipeline(log)
        overrides = dict.fromkeys(log.resources, WeeklyCalendar(1, WIDE_WORKING_WEEK))
        given = run_pipeline(log, calendar_overrides=overrides)

        found = outside = 0
        for calendar in discovered.calendars.values():
            hours = _canonicalize(calendar.ranges)
            overlap = total_duration(intersect(hours, WIDE_WORKING_WEEK))
            found += overlap
            outside += total_duration(hours) - overlap
        true_hours = len(discovered.calendars) * total_duration(WIDE_WORKING_WEEK)
        assert round(found / true_hours, 4) == share_found
        assert outside == hours_outside * 3600

        # Only the split between unavailability and extraneous moves.
        gained = {
            cause: given.analysis.per_cause[cause].wt_seconds
            - discovered.analysis.per_cause[cause].wt_seconds
            for cause in CAUSES
        }
        assert gained == dict.fromkeys(CAUSES, 0) | {
            "unavailability": -moved_s,
            "extraneous": moved_s,
        }
