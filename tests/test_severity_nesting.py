"""Per frame, a heavier severity corrupts a superset of what a lighter one does.

Each random corruption draws its randomness once per frame
(`FrameContext.draw`), and its three severities read that one draw. So on
every frame the points that light fog or snow inject, crosstalk jitters, or
beam missing and incomplete echo drop are among moderate's, and those among
heavy's, and each point's motion-blur offset scales with `sigma_t`. The
exact targets hold at each severity: the beams beam missing keeps and the
points crosstalk jitters. Wet ground draws nothing, but its attenuation grows
with the water height, so it nests as well.
"""

import numpy as np
import pytest

from lidarcorrupt import load_profile
from lidarcorrupt.corruptions import (
    CorruptedFrame,
    FrameContext,
    Provenance,
    apply,
)
from lidarcorrupt.profiles import CorruptionKind, Severity, available_profiles
from lidarcorrupt.types import LabelArray

from conftest import BOXES, make_beam_cloud

INJECTED = {CorruptionKind.FOG: Provenance.INJECTED_FOG,
            CorruptionKind.SNOW: Provenance.INJECTED_SNOW,
            CorruptionKind.CROSSTALK: Provenance.JITTERED_CROSSTALK}
DROPPING = (CorruptionKind.BEAM_MISSING, CorruptionKind.INCOMPLETE_ECHO)


def audit_frame(profile, seed):
    """A small frame of the profile's beams, with labels from its own ground
    and vehicle classes (instance = input index) and boxes."""
    cloud, _ = make_beam_cloud(profile.beam_count, 8, seed=seed,
                               with_ring=profile.name == "nuscenes", frame_id=f"{seed:06d}")
    classes = sorted(profile.ground_classes | profile.vehicle_classes) or [0]
    semantic = np.random.default_rng(seed).choice(classes + [999], len(cloud))
    labels = LabelArray(semantic.astype(np.uint16), np.arange(len(cloud), dtype=np.uint16))
    return CorruptedFrame(cloud, labels, BOXES)


def corrupted_sets(kind, frame, profile, ctx):
    """Per severity, the input indices `kind` injects, jitters or drops."""
    sets = []
    for severity in Severity:
        out = apply(kind, ctx, severity)
        source = out.labels.instance.astype(np.int64)
        if kind in INJECTED:
            sets.append(set(source[out.provenance == INJECTED[kind]].tolist()))
        else:
            sets.append(set(range(len(frame.cloud))) - set(source.tolist()))
    return sets


@pytest.mark.parametrize("profile_name", available_profiles())
def test_heavier_severity_corrupts_a_superset(profile_name):
    profile = load_profile(profile_name)
    heavy_any = dict.fromkeys((*INJECTED, *DROPPING), False)
    for seed in range(3):
        frame = audit_frame(profile, seed)
        ctx = FrameContext(frame, profile, seed=seed)
        n = len(frame.cloud)
        for kind in heavy_any:
            light, moderate, heavy = corrupted_sets(kind, frame, profile, ctx)
            assert light <= moderate <= heavy, kind
            heavy_any[kind] |= bool(heavy)
        k_t = profile.params["crosstalk.fraction"]
        assert [len(s) for s in corrupted_sets(CorruptionKind.CROSSTALK, frame, profile, ctx)
                ] == [int(np.rint(k * n)) for k in k_t]
        beam_of = ctx.partition.beam_of
        kept = []
        for severity in Severity:
            out = apply(CorruptionKind.BEAM_MISSING, ctx, severity)
            kept.append(len(np.unique(beam_of[out.labels.instance.astype(np.int64)])))
        dropped = profile.params["beam_missing.beams_dropped"]
        assert kept == [profile.beam_count - m for m in dropped]
        if profile.beam_count == 64:
            assert kept == [48, 32, 16]
    assert all(heavy_any.values()), heavy_any


@pytest.mark.parametrize("profile_name", available_profiles())
def test_motion_blur_offsets_scale_with_sigma(profile_name):
    profile = load_profile(profile_name)
    frame = audit_frame(profile, seed=4)
    ctx = FrameContext(frame, profile, seed=4)
    xyz = frame.cloud.xyz.astype(np.float64)
    sigmas = profile.params["motion_blur.sigma_t"]
    scaled = []
    for severity, sigma_t in zip(Severity, sigmas):
        out = apply(CorruptionKind.MOTION_BLUR, ctx, severity)
        scaled.append((out.cloud.xyz.astype(np.float64) - xyz) / sigma_t)
    # Within the float32 rounding of the blurred coordinates.
    tolerance = 2 * np.spacing(np.float32(np.abs(xyz).max() + 10)) / min(sigmas)
    assert np.abs(scaled[0]).mean() > 0.5
    assert np.allclose(scaled[0], scaled[1], rtol=0, atol=tolerance)
    assert np.allclose(scaled[1], scaled[2], rtol=0, atol=tolerance)


@pytest.mark.parametrize("profile_name", available_profiles())
def test_wet_ground_nests(profile_name):
    # A heavier water height drops a superset of the points and leaves no
    # survivor brighter than a lighter one does.
    profile = load_profile(profile_name)
    heavy_drops = 0
    for seed in range(3):
        frame = audit_frame(profile, seed)
        ctx = FrameContext(frame, profile, seed=seed)
        dropped, intensity = [], []
        for severity in Severity:
            out = apply(CorruptionKind.WET_GROUND, ctx, severity)
            source = out.labels.instance.astype(np.int64)
            dropped.append(set(range(len(frame.cloud))) - set(source.tolist()))
            full = np.full(len(frame.cloud), np.nan, dtype=np.float32)
            full[source] = out.cloud.intensity
            intensity.append(full)
        assert dropped[0] <= dropped[1] <= dropped[2]
        for lighter, heavier in zip(intensity, intensity[1:]):
            kept = ~np.isnan(heavier)
            assert (heavier[kept] <= lighter[kept]).all()
        heavy_drops += len(dropped[2])
    assert heavy_drops > 0
