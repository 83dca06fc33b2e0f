"""Tests for the synthetic log generator and its injection guarantees."""
import itertools

import pytest

from wtminer.ingest import load_log
from wtminer.model import ConfigError
from wtminer.pipeline import run_pipeline
from wtminer.synth import (
    CAUSE_FLAGS,
    DETECTION_THRESHOLD_S,
    InjectionSpec,
    detected_causes,
    generate,
    to_csv,
    write_files,
)


def per_cause_seconds(generated):
    result = run_pipeline(generated.log)
    return {c: imp.wt_seconds for c, imp in result.analysis.per_cause.items()}


class TestSpecValidation:
    def test_rejects_zero_cases(self):
        with pytest.raises(ConfigError):
            InjectionSpec(n_cases=0)

    def test_noisy_requires_extraneous_flag(self):
        with pytest.raises(ConfigError):
            InjectionSpec(noisy_extraneous=True)

    def test_bits_round_trip(self):
        spec = InjectionSpec(batching=True, unavailability=True)
        again = InjectionSpec.from_bits("10010")
        assert again == spec
        assert again.flags() == spec.flags()

    def test_from_bits_rejects_malformed(self):
        with pytest.raises(ConfigError):
            InjectionSpec.from_bits("101")
        with pytest.raises(ConfigError):
            InjectionSpec.from_bits("10x10")

    def test_day_types_orders_flagged_causes(self):
        spec = InjectionSpec(extraneous=True, contention=True)
        assert spec.day_types == ("contention", "extraneous")


class TestNullSpec:
    def test_no_flags_means_zero_waiting(self):
        gen = generate(InjectionSpec(n_cases=25, seed=11))
        result = run_pipeline(gen.log)
        assert result.analysis.total_wt_seconds == 0
        assert result.analysis.cte == 1.0

    def test_case_count_and_activities(self):
        gen = generate(InjectionSpec(n_cases=13, seed=2))
        assert gen.log.case_count == 13
        assert len(gen.log.instances) == 13 * 5


class TestDeterminism:
    def test_same_spec_same_bytes(self):
        spec = InjectionSpec.from_bits("11111", n_cases=23, seed=9)
        assert to_csv(generate(spec)) == to_csv(generate(spec))

    def test_different_seed_different_bytes(self):
        a = InjectionSpec(contention=True, n_cases=20, seed=0)
        b = InjectionSpec(contention=True, n_cases=20, seed=1)
        assert to_csv(generate(a)) != to_csv(generate(b))

    def test_csv_round_trip_is_exact(self, tmp_path):
        gen = generate(InjectionSpec.from_bits("01010", n_cases=21, seed=3))
        path = tmp_path / "log.csv"
        write_files(gen, path, tmp_path / "truth.json")
        loaded = load_log(path)
        orig = {
            (i.case_id, i.activity, i.resource, i.started, i.completed)
            for i in gen.log.instances
        }
        back = {
            (i.case_id, i.activity, i.resource, i.started, i.completed)
            for i in loaded.log.instances
        }
        assert back == orig
        assert loaded.stats.rows_rejected == 0


class TestInjectionSoundness:
    @pytest.mark.parametrize("cause", CAUSE_FLAGS)
    def test_single_flag_produces_only_its_signal(self, cause):
        spec = InjectionSpec(n_cases=20, seed=7, **{cause: True})
        gen = generate(spec)
        assert gen.truth.injected_seconds[cause] > 0
        per_cause = per_cause_seconds(gen)
        assert per_cause[cause] >= DETECTION_THRESHOLD_S
        assert detected_causes(per_cause) == {cause}

    def test_injected_seconds_match_decomposition_exactly_when_clean(self):
        # Every cause except prioritization decomposes to exactly the
        # injected amount; prioritization carries a 1 s batch artifact per
        # injected day that stays far below the detection threshold.
        for cause in ("batching", "contention", "unavailability", "extraneous"):
            spec = InjectionSpec(n_cases=20, seed=4, **{cause: True})
            gen = generate(spec)
            per_cause = per_cause_seconds(gen)
            assert per_cause[cause] == gen.truth.injected_seconds[cause]

    def test_prioritization_artifact_stays_below_threshold(self):
        spec = InjectionSpec(prioritization=True, n_cases=100, seed=7)
        gen = generate(spec)
        per_cause = per_cause_seconds(gen)
        assert per_cause["prioritization"] == gen.truth.injected_seconds["prioritization"]
        leak = sum(v for c, v in per_cause.items() if c != "prioritization")
        assert leak < DETECTION_THRESHOLD_S

    def test_all_flags_all_detected(self):
        spec = InjectionSpec.from_bits("11111", n_cases=30, seed=13)
        gen = generate(spec)
        per_cause = per_cause_seconds(gen)
        assert detected_causes(per_cause) == set(CAUSE_FLAGS)

    def test_partial_final_day_still_detects_all(self):
        spec = InjectionSpec.from_bits("11111", n_cases=23, seed=1)
        per_cause = per_cause_seconds(generate(spec))
        assert detected_causes(per_cause) == set(CAUSE_FLAGS)


class TestNoisyExtraneous:
    def test_reproduces_documented_false_positive_modes(self):
        spec = InjectionSpec(
            extraneous=True, noisy_extraneous=True, n_cases=20, seed=5
        )
        gen = generate(spec)
        per_cause = per_cause_seconds(gen)
        detected = detected_causes(per_cause)
        assert "extraneous" in detected
        assert "unavailability" in detected
        assert "prioritization" in detected
        assert "contention" not in detected
        assert "batching" not in detected

    def test_clean_mode_has_no_false_positives(self):
        spec = InjectionSpec(extraneous=True, n_cases=20, seed=5)
        per_cause = per_cause_seconds(generate(spec))
        assert detected_causes(per_cause) == {"extraneous"}


class TestGridSweep:
    def test_every_combination_recall_and_precision(self):
        for i, combo in enumerate(itertools.product("01", repeat=5)):
            bits = "".join(combo)
            spec = InjectionSpec.from_bits(bits, n_cases=20, seed=50 + i)
            gen = generate(spec)
            per_cause = per_cause_seconds(gen)
            expected = {c for c, on in gen.truth.flags.items() if on}
            assert detected_causes(per_cause) == expected, bits
