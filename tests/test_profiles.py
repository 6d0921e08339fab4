"""Built-in profile tables: values, validation, overrides."""

import json
import math
import re
from dataclasses import replace
from importlib import resources

import pytest

from lidarcorrupt import DatasetProfile, ProfileError, load_profile
from lidarcorrupt.profiles import CorruptionKind, Severity, available_profiles

from conftest import PARAM_CHANGES


class TestBuiltinTables:
    def test_available(self):
        assert available_profiles() == ["kitti", "nuscenes", "semantickitti", "wod"]

    def test_beam_counts(self):
        counts = {name: load_profile(name).beam_count for name in available_profiles()}
        assert counts == {"semantickitti": 64, "kitti": 64, "nuscenes": 32, "wod": 64}

    def test_fog_severity_axis(self):
        for name in available_profiles():
            p = load_profile(name)
            axis = p.severity_params(CorruptionKind.FOG, Severity.LIGHT)["alpha_axis"]
            assert axis == [0.0, 0.005, 0.01, 0.02, 0.03, 0.06]
            betas = [
                p.severity_params(CorruptionKind.FOG, s)["beta_bs"] for s in Severity
            ]
            assert betas == [0.008, 0.05, 0.2]

    def test_shared_severity_triples(self):
        for name in available_profiles():
            p = load_profile(name)
            assert [
                p.severity_params(CorruptionKind.WET_GROUND, s)["water_height_mm"]
                for s in Severity
            ] == [0.2, 1.0, 1.2]
            assert [
                p.severity_params(CorruptionKind.SNOW, s)["snowfall_rate"]
                for s in Severity
            ] == [0.5, 1.0, 2.5]
            assert [
                p.severity_params(CorruptionKind.INCOMPLETE_ECHO, s)["fraction"]
                for s in Severity
            ] == [0.75, 0.85, 0.95]

    def test_motion_blur_sigma_per_dataset(self):
        expected = {
            "semantickitti": [0.2, 0.25, 0.3],
            "kitti": [0.04, 0.08, 0.1],
            "nuscenes": [0.2, 0.3, 0.4],
            "wod": [0.06, 0.1, 0.13],
        }
        for name, sigmas in expected.items():
            p = load_profile(name)
            got = [
                p.severity_params(CorruptionKind.MOTION_BLUR, s)["sigma_t"]
                for s in Severity
            ]
            assert got == sigmas, name

    def test_beam_triples_monotone_harsher(self):
        for name, dropped, kept in (
            ("semantickitti", [16, 32, 48], [48, 32, 16]),
            ("kitti", [16, 32, 48], [48, 32, 16]),
            ("nuscenes", [8, 16, 24], [24, 16, 12]),
            ("wod", [16, 32, 48], [48, 32, 16]),
        ):
            p = load_profile(name)
            assert [
                p.severity_params(CorruptionKind.BEAM_MISSING, s)["beams_dropped"]
                for s in Severity
            ] == dropped
            assert [
                p.severity_params(CorruptionKind.CROSS_SENSOR, s)["beams_kept"]
                for s in Severity
            ] == kept

    def test_crosstalk_fractions(self):
        for name in ("semantickitti", "kitti", "wod"):
            p = load_profile(name)
            assert [
                p.severity_params(CorruptionKind.CROSSTALK, s)["fraction"]
                for s in Severity
            ] == [0.006, 0.008, 0.01]
        p = load_profile("nuscenes")
        assert [
            p.severity_params(CorruptionKind.CROSSTALK, s)["fraction"] for s in Severity
        ] == [0.03, 0.07, 0.12]

    def test_injected_class_ids(self):
        expected = {
            "semantickitti": (21, 22, 23),
            "nuscenes": (41, 42, 43),
            "wod": (23, 24, 25),
            "kitti": (None, None, None),
        }
        for name, (fog, snow, cross) in expected.items():
            p = load_profile(name)
            assert (p.fog_class, p.snow_class, p.crosstalk_class) == (fog, snow, cross)

    def test_unknown_profile(self):
        with pytest.raises(ProfileError, match="unknown profile"):
            load_profile("cityscapes")


SCATTER_RULE = "a pair low <= high in [0, 1]"


def builtin_tables():
    return json.loads(resources.files("lidarcorrupt").joinpath("data/profiles.json").read_text())


class TestOverridesAndValidation:
    def test_param_override(self):
        p = load_profile("semantickitti").with_overrides({"crosstalk_sigma": 1.25})
        assert p.params["crosstalk_sigma"] == 1.25

    def test_severity_override(self):
        p = load_profile("semantickitti").with_overrides(
            {"fog.beta_bs": [0.01, 0.02, 0.04]}
        )
        assert p.severity_params(CorruptionKind.FOG, Severity.HEAVY)["beta_bs"] == 0.04

    def test_severity_override_must_be_triple(self):
        with pytest.raises(ProfileError, match="triple"):
            load_profile("semantickitti").with_overrides({"fog.beta_bs": [0.01, 0.02]})

    @pytest.mark.parametrize("key,value", [
        ("subsample_keep", 1), ("subsample_keep", 1e-9),
        ("crosstalk.fraction", [0, 0.5, 1]), ("incomplete_echo.fraction", [0.0, 1.0, 1.0]),
        ("beam_missing.beams_dropped", [0, 64.0, 1]),
        ("cross_sensor.beams_kept", [1, 64, 2.0]),
        ("ransac_iterations", 1), ("ransac_iterations", 5.0), ("fog.alpha_axis", [0.0]),
        ("fog_beta_0", 1e-9), ("fog.beta_bs", [0, 0, 0]),
        ("fog_scatter_fraction", [0.3, 0.3]), ("fog_scatter_fraction", [0, 1]),
        ("motion_blur.sigma_t", [0, 1e37, 1e37]), ("crosstalk_sigma", 1e37),
    ])
    def test_boundary_values_accepted(self, key, value):
        load_profile("semantickitti").with_overrides({key: value})

    @pytest.mark.parametrize("key,value,rule", [
        ("subsample_keep", 1.5, "in (0, 1]"),
        ("crosstalk.fraction", [0, 0.5, 1.01], "in [0, 1]"),
        ("incomplete_echo.fraction", [-0.1, 0.5, 1], "in [0, 1]"),
        ("beam_missing.beams_dropped", [0, 65, 1], "a whole number in [0, 64]"),
        ("beam_missing.beams_dropped", [0, 1.5, 1], "a whole number in [0, 64]"),
        ("cross_sensor.beams_kept", [1, 2, 65], "a whole number in [1, 64]"),
        ("ransac_iterations", 2.5, "a whole number >= 1"),
        ("fog_beta_0", 0, "> 0"), ("fog_response_distance", -1.0, "> 0"),
        ("fog_scatter_fraction", [-0.1, 0.5], SCATTER_RULE),
        ("fog_scatter_fraction", [0.5, 0.1], SCATTER_RULE),
        ("fog_scatter_fraction", [0.1, 1.5], SCATTER_RULE),
        ("fog.alpha_axis", [0.01, -0.01], ">= 0"),
        ("snow_reflectivity", -0.3, ">= 0"),
        ("motion_blur.sigma_t", [0.2, 0.3, 1.1e37], "in [0, 1e37]"),
        ("crosstalk_sigma", 1e39, "in [0, 1e37]"),
    ])
    def test_out_of_range_rejected(self, key, value, rule):
        with pytest.raises(ProfileError) as info:
            load_profile("semantickitti").with_overrides({key: value})
        assert str(info.value) == f"semantickitti: {key} must be {rule}, got {value!r}"

    @pytest.mark.parametrize("field,value,rule", [
        ("beam_count", 0, "a whole number >= 1"),
        ("intensity_scale", -255.0, "> 0"),
        ("intensity_scale", 0.0, "> 0"),
        ("ignore_label", 65536, "a whole number in [0, 65535]"),
        ("ignore_label", "0", "a whole number in [0, 65535]"),
        ("fog_class", 21.5, "a whole number in [0, 65535] or null"),
        pytest.param("fog_class", 10**400, "a whole number in [0, 65535] or null",
                     id="fog_class-10**400"),
        ("snow_class", -1, "a whole number in [0, 65535] or null"),
        ("crosstalk_class", True, "a whole number in [0, 65535] or null"),
        ("ground_classes", frozenset({24, 70000}), "whole numbers in [0, 65535]"),
        ("vehicle_classes", frozenset({"x"}), "whole numbers in [0, 65535]"),
        ("vehicle_box_classes", frozenset({0, 1.5}), "whole numbers >= 0"),
        ("vehicle_box_classes", frozenset({-1}), "whole numbers >= 0"),
    ])
    def test_sensor_field_out_of_range_rejected(self, field, value, rule):
        with pytest.raises(ProfileError) as info:
            replace(load_profile("nuscenes"), **{field: value})
        assert str(info.value) == f"nuscenes: {field} must be {rule}, got {value!r}"

    @pytest.mark.parametrize("field,value", [
        ("ignore_label", 65535), ("ignore_label", 255.0), ("fog_class", None),
        ("fog_class", 65535), ("vehicle_classes", frozenset()),
        ("vehicle_box_classes", frozenset({0, 70000})),
    ])
    def test_class_ids_accepted(self, field, value):
        replace(load_profile("nuscenes"), **{field: value})

    def test_class_id_lists_kept_as_frozensets(self):
        p = replace(load_profile("nuscenes"), ground_classes=[24, 25.0], vehicle_classes=())
        assert p.ground_classes == frozenset({24, 25})
        assert p.vehicle_classes == frozenset()
        assert isinstance(load_profile("semantickitti").vehicle_classes, frozenset)

    def test_values_kept_as_their_rules_type(self):
        # An int where the rule asks for a whole number, else a float; lists
        # as lists, whichever way each number was written.
        p = replace(load_profile("kitti"), beam_count=64.0, ignore_label=255.0,
                    vehicle_box_classes=[0.0, 1]).with_overrides({
                        "beam_missing.beams_dropped": (16.0, 32.0, 48.0),
                        "ransac_iterations": 200.0, "crosstalk_sigma": 3,
                        "fog.alpha_axis": [0, 1], "fog_scatter_fraction": (0, 1)})
        held = (p.beam_count, p.ignore_label, sorted(p.vehicle_box_classes),
                *(p.params[key] for key in ("beam_missing.beams_dropped", "ransac_iterations",
                                            "crosstalk_sigma", "fog.alpha_axis",
                                            "fog_scatter_fraction")))
        assert repr(held) == "(64, 255, [0, 1], [16, 32, 48], 200, 3.0, [0.0, 1.0], [0.0, 1.0])"

    def test_negative_zero_kept_as_zero(self):
        # A -0.0 snow particle rate would put every particle at -inf.
        p = load_profile("kitti").with_overrides({"snow_particles_per_meter_per_rate": -0.0,
                                                  "fog.beta_bs": [-0.0, 0.1, 0.2]})
        assert math.copysign(1, p.params["snow_particles_per_meter_per_rate"]) == 1
        assert math.copysign(1, p.params["fog.beta_bs"][0]) == 1

    def test_beam_ranges_follow_beam_count(self):
        p = load_profile("nuscenes")  # 32 beams
        p.with_overrides({"cross_sensor.beams_kept": [32, 16, 1]})
        with pytest.raises(ProfileError, match=r"a whole number in \[0, 32\]"):
            p.with_overrides({"beam_missing.beams_dropped": [8, 16, 33]})

    def test_injected_overlap_rejected(self):
        p = load_profile("semantickitti")
        with pytest.raises(ProfileError, match="overlap"):
            DatasetProfile(
                name="broken",
                beam_count=64,
                intensity_scale=1.0,
                ignore_label=0,
                fog_class=40,  # collides with a ground class
                snow_class=22,
                crosstalk_class=23,
                ground_classes=frozenset({40}),
                vehicle_classes=frozenset(),
                vehicle_box_classes=frozenset(),
                requires_labels=True,
                params=p.params,
            )

    def test_missing_key_named(self):
        p = load_profile("kitti")
        params = {k: v for k, v in p.params.items() if k != "crosstalk_sigma"}
        with pytest.raises(ProfileError, match=r"^kitti: missing key 'crosstalk_sigma'; "
                                               r"valid keys: fog\.alpha_axis, .*crosstalk_sigma"):
            replace(p, params=params)
        params = {k: v for k, v in p.params.items() if k != "fog.alpha_axis"}
        with pytest.raises(ProfileError, match="^kitti: missing key 'fog.alpha_axis'; "):
            replace(p, params=params)

    @pytest.mark.parametrize("key", ["does_not_exist", "fog.nonexistent", "hail.rate"])
    def test_unknown_key_named(self, key):
        with pytest.raises(ProfileError,
                           match=f"^kitti: unknown key {re.escape(repr(key))}; valid keys: "):
            load_profile("kitti").with_overrides({key: [0, 0, 0]})

    @pytest.mark.parametrize("key", sorted(PARAM_CHANGES))
    def test_profile_dir_table_equals_set(self, tmp_path, key):
        # A table entry holds each value under its --set name, and both
        # routes build the same profile.
        value = PARAM_CHANGES[key]
        payload = builtin_tables()
        payload["profiles"]["semantickitti"][key] = value
        (tmp_path / "profiles.json").write_text(json.dumps(payload))
        expected = load_profile("semantickitti").with_overrides({key: value})
        assert load_profile("semantickitti", tmp_path) == expected
        assert expected.params[key] == value

    def test_defaults_value_shared_and_entry_value_kept(self, tmp_path):
        # A dotted key in defaults reaches every entry that does not hold it.
        payload = builtin_tables()
        payload["defaults"]["fog.beta_bs"] = [0.02, 0.1, 0.4]
        del payload["profiles"]["kitti"]["fog.beta_bs"]
        payload["profiles"]["semantickitti"]["fog.beta_bs"] = [0.01, 0.2, 0.3]
        (tmp_path / "profiles.json").write_text(json.dumps(payload))
        assert load_profile("kitti", tmp_path) == load_profile("kitti").with_overrides(
            {"fog.beta_bs": [0.02, 0.1, 0.4]})
        assert load_profile("semantickitti", tmp_path).params["fog.beta_bs"] == [0.01, 0.2, 0.3]

    def test_profile_dir_override(self, tmp_path):
        payload = builtin_tables()
        payload["profiles"]["semantickitti"]["beam_count"] = 128
        (tmp_path / "profiles.json").write_text(json.dumps(payload))
        assert load_profile("semantickitti", tmp_path).beam_count == 128
