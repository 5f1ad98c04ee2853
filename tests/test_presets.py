"""Tests for the named model configurations and config-file loading."""

import math

import pytest

from levyou import errors, jumps, presets


class TestRegistry:
    def test_every_preset_builds_and_validates(self):
        for name in presets.PRESET_NAMES:
            preset = presets.get_preset(name)
            assert preset.name == name
            # The fraction interval must be admissible for the market.
            preset.market.validate_interval(preset.pi_min, preset.pi_max)
            assert preset.horizon > 0.0
            assert math.isfinite(preset.s0)

    def test_unknown_name_is_config_error(self):
        with pytest.raises(errors.ConfigError, match="unknown preset"):
            presets.get_preset("no-such-model")

    def test_registry_order_is_stable(self):
        assert presets.PRESET_NAMES[0] == "benth2012"
        assert set(presets.PRESET_NAMES) == {
            "benth2012", "benth2012-raw", "uniform-two-sided", "gaussian"
        }


class TestBenth2012:
    def test_hourly_rates(self):
        preset = presets.get_preset("benth2012")
        market = preset.market
        assert market.lam == 0.3333 / 24.0
        assert market.measure.rate == 3.7249 / 24.0
        assert market.measure.alpha == 2.5406
        assert market.measure.scale == 0.3648
        assert market.sigma == 0.0
        assert market.psi == 1.0
        assert market.compensated is True

    def test_default_drift_is_eighty_percent_of_jump_drift(self):
        preset = presets.get_preset("benth2012")
        mu_l = preset.market.measure.moment(1)
        assert preset.market.b == pytest.approx(0.8 * mu_l, rel=1e-15)

    def test_window_defaults(self):
        preset = presets.get_preset("benth2012")
        assert preset.s0 == 5.0
        assert preset.horizon == 24.0
        assert (preset.pi_min, preset.pi_max) == (0.0, 0.2)
        assert preset.time_unit == "hour"

    def test_raw_variant_is_uncompensated_with_zero_drift(self):
        preset = presets.get_preset("benth2012-raw")
        assert preset.market.compensated is False
        assert preset.market.b == 0.0
        # Same jump calibration as the compensated variant.
        base = presets.get_preset("benth2012")
        assert preset.market.measure.alpha == base.market.measure.alpha
        assert preset.market.measure.rate == base.market.measure.rate


class TestOtherPresets:
    def test_uniform_two_sided(self):
        preset = presets.get_preset("uniform-two-sided")
        assert isinstance(preset.market.measure, jumps.UniformJump)
        assert preset.market.measure.lo == -0.5
        assert preset.market.measure.hi == 1.0
        assert preset.market.sigma == 0.3

    def test_gaussian_has_no_jumps(self):
        preset = presets.get_preset("gaussian")
        assert isinstance(preset.market.measure, jumps.NoJumps)
        assert preset.market.psi == 0.0
        assert preset.market.sigma == 0.3


class TestOverrides:
    def test_b_frac_scales_the_jump_drift(self):
        preset = presets.get_preset("benth2012", b_frac=1.5)
        mu_l = preset.market.measure.moment(1)
        assert preset.market.b == pytest.approx(1.5 * mu_l, rel=1e-15)

    def test_absolute_b_override(self):
        preset = presets.get_preset("benth2012", b=0.05)
        assert preset.market.b == 0.05

    def test_b_and_b_frac_together_rejected(self):
        with pytest.raises(errors.ConfigError, match="at most one"):
            presets.get_preset("benth2012", b=0.1, b_frac=0.5)

    def test_interval_override(self):
        preset = presets.get_preset("benth2012", pi_min=0.0, pi_max=0.5)
        assert preset.pi_max == 0.5

    def test_inverted_interval_rejected(self):
        with pytest.raises(errors.ConfigError, match="pi_min must be <"):
            presets.get_preset("benth2012", pi_min=0.3, pi_max=0.1)

    def test_non_finite_override_rejected(self):
        with pytest.raises(errors.ConfigError, match="finite"):
            presets.get_preset("benth2012", b=math.inf)


class TestDescribe:
    def test_mentions_time_unit_and_flat_price(self):
        text = presets.describe(presets.get_preset("benth2012"))
        assert "time unit:    hour" in text
        assert "flat price" in text
        assert "per hour" in text

    def test_gaussian_description_has_no_jump_drift_line(self):
        text = presets.describe(presets.get_preset("gaussian"))
        assert "jump drift" not in text
        assert "NoJumps()" in text


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[benth2012]\n"
            "b_frac = 0.5\n"
            "paths = 2500\n"
            "seed = 7\n"
            "\n"
            "[gaussian]\n"
            "s = 0.4\n"
        )
        sections = presets.load_config(str(path))
        assert sections["benth2012"] == {
            "b_frac": 0.5, "paths": 2500, "seed": 7
        }
        assert sections["gaussian"] == {"s": 0.4}

    def test_dashed_keys_normalize(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[benth2012]\nb-frac = 0.25\n")
        assert presets.load_config(str(path))["benth2012"] == {"b_frac": 0.25}

    def test_missing_file(self, tmp_path):
        with pytest.raises(errors.ConfigError, match="not found"):
            presets.load_config(str(tmp_path / "nope.ini"))

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[benth2012]\nbogus = 1\n")
        with pytest.raises(errors.ConfigError, match="unknown key"):
            presets.load_config(str(path))

    def test_bad_value(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[benth2012]\npaths = many\n")
        with pytest.raises(errors.ConfigError, match="bad value"):
            presets.load_config(str(path))

    def test_section_that_names_no_preset(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[benth2012]\npaths = 3\n\n[benth2021]\nb_frac = 0.5\n")
        with pytest.raises(errors.ConfigError,
                           match=r"\[benth2021\] names no preset "
                                 r"\(known: benth2012, benth2012-raw, "):
            presets.load_config(str(path))

    def test_bad_syntax(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("paths = 3\n")  # key before any section header
        with pytest.raises(errors.ConfigError, match="cannot parse"):
            presets.load_config(str(path))


class TestMergeOverrides:
    def test_flags_beat_file_beats_defaults(self):
        merged = presets.merge_overrides(
            {"a": 1, "b": 2, "c": 3},
            {"b": 20, "c": 30},
            {"c": 300, "a": None},
        )
        assert merged == {"a": 1, "b": 20, "c": 300}

    def test_none_flags_are_skipped(self):
        merged = presets.merge_overrides({"a": 1}, {}, {"a": None})
        assert merged == {"a": 1}
