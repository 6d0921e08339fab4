"""Per-frame context: derived structures built once and shared by all outputs."""

import dataclasses
import inspect
from functools import cached_property

import numpy as np
import pytest

from lidarcorrupt import (
    BoxSet,
    LabelArray,
    PointCloud,
    fit_ground_ransac,
    load_profile,
    write_kitti_scan,
    write_scan,
    write_semkitti_labels,
)
from lidarcorrupt import cli, corruptions, geometry, profiles
from lidarcorrupt.geometry import BeamPartition, GroundModel, lstsq_plane
from lidarcorrupt.corruptions import (
    CorruptedFrame,
    FrameContext,
    apply,
    apply_wet_ground,
)
from lidarcorrupt.profiles import CorruptionKind, Severity
from lidarcorrupt.rng import derive_seed

from conftest import BOXES, PARAM_CHANGES, assert_same_bits, make_beam_cloud, write_dataset


def labelled_frame(seed=0, frame_id="000000", with_ring=False):
    cloud, _ = make_beam_cloud(64, 6, seed=seed, with_ring=with_ring, frame_id=frame_id)
    rng = np.random.default_rng(seed + 1)
    semantic = rng.choice([10, 14, 24, 40, 44, 48, 70], size=len(cloud)).astype(np.uint16)
    return CorruptedFrame(cloud, LabelArray(semantic, np.zeros(len(cloud), np.uint16)))


def boxed_frame(seed=0, frame_id="000000"):
    cloud, _ = make_beam_cloud(64, 6, seed=seed, with_ring=False, frame_id=frame_id)
    return CorruptedFrame(cloud, boxes=BOXES)


FRAMES = {
    "semantickitti": labelled_frame,
    "kitti": boxed_frame,
    "nuscenes": lambda seed=0: labelled_frame(seed, with_ring=True),
}


def assert_same(a, b):
    assert_same_bits(a.cloud, b.cloud)
    assert_same_bits(a.labels, b.labels)
    assert np.array_equal(a.provenance, b.provenance)


@pytest.mark.parametrize("profile_name", sorted(FRAMES))
def test_apply_with_and_without_context_bitwise_equal(profile_name):
    profile = load_profile(profile_name)
    frame = FRAMES[profile_name](seed=4)
    ctx = FrameContext(frame, profile, seed=9)
    for kind in CorruptionKind:
        for severity in Severity:
            assert_same(apply(kind, ctx, severity),
                        apply(kind, FrameContext(frame, profile, seed=9), severity))


def test_whole_float_beam_count_corrupts_as_its_int():
    # A table may write beam_count as 64.0, a whole-number key as 16.0 and a
    # float key as 1. The profile keeps each checked value as its rule's
    # type (an int where the rule asks for a whole number, else a float), so
    # each output is bitwise the same.
    profile = load_profile("kitti")
    as_float = dataclasses.replace(profile, beam_count=64.0)
    frame = boxed_frame(seed=3)
    for kind in (CorruptionKind.BEAM_MISSING, CorruptionKind.CROSS_SENSOR):
        for severity in Severity:
            assert_same(apply(kind, FrameContext(frame, as_float, seed=5), severity),
                        apply(kind, FrameContext(frame, profile, seed=5), severity))
    for key, written, held in (
        ("beam_missing.beams_dropped", [16.0, 32.0, 48.0], [16, 32, 48]),
        ("cross_sensor.beams_kept", [48.0, 32.0, 16.0], [48, 32, 16]),
        ("ransac_iterations", 200.0, 200),
        ("motion_blur.sigma_t", [0, 1, 2], [0.0, 1.0, 2.0]),
        ("wet_ground.water_height_mm", [0, 1, 2], [0.0, 1.0, 2.0]),
        ("fog_scatter_fraction", [0, 1], [0.0, 1.0]),
        ("subsample_keep", 1, 1.0),
    ):
        pairs = zip(outputs(frame, profile.with_overrides({key: written})),
                    outputs(frame, profile.with_overrides({key: held})))
        for out_written, out_held in pairs:
            assert_same(out_written, out_held)


def outputs(frame, profile):
    """Every kind and severity of `frame` under `profile`, from one context."""
    ctx = FrameContext(frame, profile, seed=3)
    return [apply(kind, ctx, severity)
            for kind in CorruptionKind for severity in Severity]


def test_severity_major_loop_equals_kind_major():
    # One context serves any order of outputs: a severity-major loop redraws
    # each kind at each switch, and gets the bytes of the kind-major loop.
    profile = load_profile("semantickitti")
    frame = labelled_frame(seed=5)
    kind_major = outputs(frame, profile)
    ctx = FrameContext(frame, profile, seed=3)
    severity_major = {(kind, severity): apply(kind, ctx, severity)
                      for severity in Severity for kind in CorruptionKind}
    pairs = zip(kind_major, [(k, s) for k in CorruptionKind for s in Severity])
    for out, key in pairs:
        assert_same(out, severity_major[key])


def test_each_kind_drawn_once_and_only_the_last_kept(monkeypatch):
    drawn = []
    original = corruptions.make_rng
    monkeypatch.setattr(corruptions, "make_rng",
                        lambda *parts: drawn.append(parts[0]) or original(*parts))
    profile = load_profile("semantickitti")
    frame = labelled_frame(seed=6)
    ctx = FrameContext(frame, profile, seed=8)
    for kind in CorruptionKind:
        for severity in Severity:
            apply(kind, ctx, severity)
        # the earlier kinds' arrays are gone: a draw, and the incidence, live with their kind
        assert ctx._draw[0] is (kind if kind in corruptions._DRAWS else None)
        assert ("incidence" in vars(ctx)) == (kind is CorruptionKind.WET_GROUND)
    # fog's alpha is drawn per output from its own stream, seeded per kind
    assert drawn.count("fog-alpha") == 3
    assert [p for p in drawn if p != "fog-alpha"] == list(corruptions._DRAWS)


def test_frames_of_different_sizes_sharing_a_seed_share_no_draw():
    # Same frame id and run seed, different point counts: each output must
    # be that of its own frame corrupted alone, whatever was drawn before.
    profile = load_profile("semantickitti")
    small, large = labelled_frame(seed=1), labelled_frame(seed=2)
    small = small.select(np.arange(len(small.cloud) // 2))
    for kind in corruptions._DRAWS:
        fresh = {}
        for frame in (small, large, small):
            ctx = FrameContext(frame, profile, seed=4)
            out = apply(kind, ctx, Severity.HEAVY)
            assert len(ctx.draw(kind)[0] if kind is CorruptionKind.CROSSTALK
                       else ctx.draw(kind)) == {
                CorruptionKind.BEAM_MISSING: 64,
                CorruptionKind.INCOMPLETE_ECHO: int(ctx.vehicle_mask.sum()),
            }.get(kind, len(frame.cloud))
            alone = apply(kind, FrameContext(frame, profile, seed=4), Severity.HEAVY)
            assert_same(out, alone)
            assert_same(fresh.setdefault(len(frame.cloud), out), out)


def test_unlabelled_wet_ground_severities_share_one_ground_model():
    profile = load_profile("kitti")
    frame = boxed_frame(seed=6, frame_id="000042")
    ctx = FrameContext(frame, profile, seed=5)
    model = fit_ground_ransac(
        frame.cloud,
        iterations=int(profile.params["ransac_iterations"]),
        inlier_threshold=float(profile.params["ransac_threshold"]),
        seed=derive_seed(5, "000042", CorruptionKind.WET_GROUND),
    )
    assert ctx.ground.plane == model.plane
    for severity in Severity:
        out = apply(CorruptionKind.WET_GROUND, ctx, severity)
        expected = apply_wet_ground(
            frame,
            model,
            model.cos_incidence(frame.cloud.xyz, frame.ranges),
            d_w=float(profile.severity_params(
                CorruptionKind.WET_GROUND, severity)["water_height_mm"]),
            i_n=float(profile.params["wet_noise_floor"]),
            kappa_per_mm=float(profile.params["wet_kappa_per_mm"]),
        )
        assert_same(out, expected)


def ground_labelled_frame(n_ground):
    """A labelled frame whose first `n_ground` points are road, one of them
    faint enough that the heavier rains drop it; the rest are vegetation."""
    cloud, _ = make_beam_cloud(64, 6, seed=8, with_ring=False)
    semantic = np.full(len(cloud), 70, np.uint16)
    semantic[:n_ground] = 40
    intensity = cloud.intensity.copy()
    intensity[:n_ground] = np.linspace(0.0205, 0.9, n_ground, dtype=np.float32)
    return CorruptedFrame(cloud.with_fields(intensity=intensity),
                                LabelArray(semantic, np.zeros(len(cloud), np.uint16)))


@pytest.mark.parametrize("n_ground", [0, 1, 2])
def test_planeless_label_ground_wets_at_normal_incidence(n_ground):
    profile = load_profile("semantickitti")
    frame = ground_labelled_frame(n_ground)
    ctx = FrameContext(frame, profile, seed=2)
    assert isinstance(ctx.ground, GroundModel)
    assert ctx.ground.plane is None
    ground = frame.labels.semantic == 40
    assert np.array_equal(ctx.ground.inlier_mask, ground)
    kappa = float(profile.params["wet_kappa_per_mm"])
    i_n = float(profile.params["wet_noise_floor"])
    dropped = 0
    for severity in Severity:
        d_w = float(profile.severity_params(
            CorruptionKind.WET_GROUND, severity)["water_height_mm"])
        out = apply(CorruptionKind.WET_GROUND, ctx, severity)
        i64 = frame.cloud.intensity.astype(np.float64)
        wet = i64 * np.exp(np.full(len(i64), -kappa * d_w))
        keep = ~ground | (wet >= i_n)
        intensity = np.where(ground, wet, i64).astype(np.float32)[keep]
        assert np.array_equal(out.cloud.xyz, frame.cloud.xyz[keep])
        assert out.cloud.intensity.tobytes() == intensity.tobytes()
        assert_same_bits(out.labels, frame.labels.select(keep))
        dropped += int((~keep).sum())
    assert dropped == (2 if n_ground else 0)


@pytest.mark.parametrize("n_ground", [3, 50])
def test_label_ground_plane_is_the_least_squares_fit(n_ground):
    frame = ground_labelled_frame(n_ground)
    ground = FrameContext(frame, load_profile("semantickitti"), seed=2).ground
    mask = frame.labels.semantic == 40
    normal, d = lstsq_plane(frame.cloud.xyz, mask)
    assert np.array(ground.plane).tobytes() == np.append(normal, d).tobytes()
    assert GroundModel.from_mask(frame.cloud.xyz, mask).plane == ground.plane


@pytest.fixture
def calls(monkeypatch):
    """How often each derived structure is computed, by name, from here on.
    Point ranges count from `corruptions` and from `geometry` alike."""
    counts = dict.fromkeys(("partition", "ransac", "contains", "ranges", "ranks"), 0)

    def spy(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(corruptions, "partition_beams",
                        spy("partition", corruptions.partition_beams))
    monkeypatch.setattr(corruptions, "fit_ground_ransac",
                        spy("ransac", corruptions.fit_ground_ransac))
    for module in (corruptions, geometry):
        monkeypatch.setattr(module, "point_ranges", spy("ranges", module.point_ranges))
    ranks = cached_property(spy("ranks", BeamPartition.ranks.func))
    ranks.__set_name__(BeamPartition, "ranks")
    monkeypatch.setattr(BeamPartition, "ranks", ranks)
    monkeypatch.setattr(BoxSet, "contains", spy("contains", BoxSet.contains))
    return counts


@pytest.mark.parametrize("profile_name,ransac", [("kitti", 1), ("semantickitti", 0)])
def test_derived_structures_built_once_per_frame(profile_name, ransac, tmp_path, calls):
    src = write_dataset(tmp_path / "in", profile_name, n_frames=2)
    manifest = cli.run_corrupt(cli.RunConfig(
        profile_name=profile_name, input_root=src, output_root=tmp_path / "out", seed=3))
    assert manifest["failures"] == []
    assert len({(e["frame"], e["kind"], e["severity"]) for e in manifest["entries"]}) == 48
    assert calls == {"partition": 2, "ransac": 2 * ransac, "contains": 2 * ransac,
                     "ranges": 2, "ranks": 2}


def test_ringless_partition_reads_the_frame_ranges(calls):
    # Fog reads the ranges and the beam partition bins by elevation from them.
    profile = load_profile("semantickitti")
    frame = labelled_frame(seed=1)
    ctx = FrameContext(frame, profile, seed=4)
    for kind in (CorruptionKind.FOG, CorruptionKind.BEAM_MISSING):
        apply(kind, ctx, Severity.HEAVY)
    assert (calls["ranges"], calls["partition"]) == (1, 1)


def test_ring_partition_reads_no_ranges(calls):
    # A ring channel gives the beams, so the beam operators alone compute no ranges.
    profile = load_profile("nuscenes")
    frame = FRAMES["nuscenes"](seed=1)
    ctx = FrameContext(frame, profile, seed=4)
    for kind in (CorruptionKind.BEAM_MISSING, CorruptionKind.CROSS_SENSOR):
        apply(kind, ctx, Severity.HEAVY)
    assert (calls["ranges"], calls["partition"]) == (0, 1)


@pytest.mark.parametrize("kind", list(CorruptionKind))
def test_operator_parameters_resolve_under_the_dispatch_rule(kind):
    # `apply` fills each parameter of `apply_<kind>` after `frame` by name: a
    # `profiles.KINDS` keyword from the profile, `draw` from the context's
    # draw, a `*_class` from the profile's fields, any other name from a
    # `FrameContext` structure. Every keyword the table lists is taken.
    params = list(inspect.signature(getattr(corruptions, f"apply_{kind}")).parameters)
    assert params[0] == "frame"
    profile_fields = {f.name for f in dataclasses.fields(profiles.DatasetProfile)}
    for name in params[1:]:
        assert (name in profiles.KINDS[kind] or name == "draw"
                or (name.endswith("_class") and name in profile_fields)
                or isinstance(getattr(FrameContext, name, None), cached_property)), name
    assert ("draw" in params) == (kind in corruptions._DRAWS)
    assert set(profiles.KINDS[kind]) <= set(params)


def output_bytes(frame, profile):
    """Every output of `frame` under `profile`, encoded as `corrupt` writes it."""
    return [bytes(write_scan(out.cloud, profile))
            + (b"" if out.labels is None else write_semkitti_labels(out.labels))
            for out in outputs(frame, profile)]


def test_param_changes_cover_every_param():
    assert sorted(PARAM_CHANGES) == sorted(profiles._ENTRIES)


@pytest.mark.parametrize("key", sorted(PARAM_CHANGES))
def test_every_param_reaches_an_output(key):
    # The `ransac_*` keys are read only where RANSAC finds the ground: on an
    # unlabelled kitti frame.
    ransac = key.startswith("ransac_")
    profile = load_profile("kitti" if ransac else "semantickitti")
    frame = boxed_frame(seed=2) if ransac else labelled_frame(seed=2)
    changed = profile.with_overrides({key: PARAM_CHANGES[key]})
    assert changed.params[key] != profile.params[key]
    assert output_bytes(frame, changed) != output_bytes(frame, profile)


def test_failing_structure_fails_only_the_outputs_that_need_it(tmp_path):
    # Two points: no plane can be fitted, and without labels or boxes there
    # is no vehicle set. Every other output is still written.
    src = tmp_path / "in"
    (src / "velodyne").mkdir(parents=True)
    cloud = PointCloud(xyz=np.array([[5, 0, -1], [0, 7, -1]], np.float32),
                       intensity=np.array([0.5, 0.25], np.float32))
    (src / "velodyne" / "000000.bin").write_bytes(write_kitti_scan(cloud))
    manifest = cli.run_corrupt(cli.RunConfig(
        profile_name="kitti", input_root=src, output_root=tmp_path / "out", seed=1))
    expected = []
    for kind, error_type, error in (
        ("incomplete_echo", "ValueError",
         "incomplete echo needs semantic labels or boxes to find vehicle points"),
        ("wet_ground", "NoPlaneError", "need at least 3 points to fit a plane, got 2"),
    ):
        for severity in ("heavy", "light", "moderate"):
            expected.append({"frame": "000000", "kind": kind, "severity": severity,
                             "stage": "apply", "type": error_type, "error": error})
    assert manifest["failures"] == expected
    assert len(manifest["entries"]) == 18
    assert not {e["kind"] for e in manifest["entries"]} & {"incomplete_echo", "wet_ground"}
