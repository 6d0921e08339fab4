"""Properties every corruption operator keeps on any small cloud.

Clouds have 0-8 points drawn from a few distinct positions (so duplicates
and the zero-range origin are common), intensities that are often exactly
0 or 1, and a ring channel or none. Each point's instance label is its
input index, so the output's instance labels say where each output point
came from. Every operator runs at a strength in [0, 1]: strength 0 is its
zero-parameter setting, which must be an exact identity.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarcorrupt import BoxSet, LabelArray, PointCloud, partition_beams
from lidarcorrupt.corruptions import (
    CorruptedFrame,
    Provenance,
    apply_beam_missing,
    apply_cross_sensor,
    apply_crosstalk,
    apply_fog,
    apply_incomplete_echo,
    apply_motion_blur,
    apply_snow,
    apply_wet_ground,
)
from lidarcorrupt.geometry import GroundModel

from conftest import BOXES, FOG, SNOW, WET, draw

BEAMS = 4
INJECTED = 99  # the class id injected points take; no input label has it
KINDS = ("fog", "wet_ground", "snow", "motion_blur", "beam_missing", "crosstalk",
         "incomplete_echo", "cross_sensor")
# Operators that move, add noise to or re-terminate points, never drop them.
KEEP_COUNT = ("fog", "snow", "motion_blur", "crosstalk")

coordinate = st.floats(-40, 40, width=32)
position = st.one_of(st.just((0.0, 0.0, 0.0)), st.tuples(coordinate, coordinate, coordinate))
intensity = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1, width=32))


@st.composite
def cases(draw):
    """(frame, ground mask, vehicle mask) of 0-8 points."""
    n = draw(st.integers(0, 8))
    positions = draw(st.lists(position, min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(positions) - 1), min_size=n, max_size=n))
    ring = draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, BEAMS - 1), min_size=n, max_size=n),
        st.integers(0, BEAMS - 1).map(lambda first: (np.arange(n) + first) % BEAMS),  # striped
    ))
    masks = st.lists(st.booleans(), min_size=n, max_size=n)
    cloud = PointCloud(
        xyz=np.array([positions[i] for i in picks], np.float32).reshape(-1, 3),
        intensity=np.array(draw(st.lists(intensity, min_size=n, max_size=n)), np.float32),
        ring=ring,
        frame_id="f",
    )
    labels = LabelArray(np.array(draw(st.lists(st.integers(0, 30), min_size=n, max_size=n)),
                                 np.uint16), np.arange(n, dtype=np.uint16))
    boxes = draw(st.sampled_from([None, BoxSet(), BOXES]))
    return (CorruptedFrame(cloud, labels, boxes),
            np.array(draw(masks), bool), np.array(draw(masks), bool))


def run(kind, case, strength, seed, class_id=INJECTED):
    """`kind` at `strength` (0 is its identity setting) on the frame of `case`."""
    frame, ground, vehicles = case
    n = len(frame.cloud)
    if kind == "fog":
        return apply_fog(frame, alpha=0.05 * strength, beta_bs=strength,
                         draw=draw("fog", n, seed), fog_class=class_id, **FOG)
    if kind == "wet_ground":
        model = GroundModel.from_mask(frame.cloud.xyz, ground)
        return apply_wet_ground(frame, model, model.cos_incidence(frame.cloud.xyz, frame.ranges),
                                d_w=3.0 * strength, **WET)
    if kind == "snow":
        return apply_snow(frame, r_s=20.0 * strength, draw=draw("snow", n, seed),
                          snow_class=class_id, **SNOW)
    if kind == "motion_blur":
        return apply_motion_blur(frame, sigma_t=0.5 * strength, draw=draw(kind, n, seed))
    partition = partition_beams(frame.cloud, BEAMS, frame.ranges)
    if kind == "beam_missing":
        return apply_beam_missing(frame, partition, m=round(strength * BEAMS),
                                  draw=draw(kind, BEAMS, seed))
    if kind == "crosstalk":
        return apply_crosstalk(frame, k_t=strength, sigma_c=0.5, draw=draw(kind, n, seed),
                               crosstalk_class=class_id)
    if kind == "incomplete_echo":
        return apply_incomplete_echo(frame, vehicles, k_e=strength,
                                     draw=draw(kind, int(vehicles.sum()), seed))
    return apply_cross_sensor(frame, partition, beams_kept=BEAMS - round(strength * (BEAMS - 1)),
                              subsample_keep=1.0 / (1 + round(3 * strength)))


def frame_bytes(frame):
    labels = b"" if frame.labels is None else (
        frame.labels.semantic.tobytes() + frame.labels.instance.tobytes())
    ring = b"" if frame.cloud.ring is None else frame.cloud.ring.tobytes()
    return (frame.cloud.xyz.tobytes(), frame.cloud.intensity.tobytes(), ring, labels,
            frame.provenance.tobytes())


strengths = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1))
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KINDS), cases(), strengths, seeds)
def test_outputs_stay_aligned_finite_and_reproducible(kind, case, strength, seed):
    frame = case[0]
    out = run(kind, case, strength, seed)
    n, n_out = len(frame.cloud), len(out.cloud)
    source = out.labels.instance.astype(np.int64)  # input index of each output point
    assert len(out.labels) == len(out.provenance) == n_out
    assert out.boxes is frame.boxes
    assert np.isfinite(out.cloud.xyz).all() and np.isfinite(out.cloud.intensity).all()
    assert frame_bytes(run(kind, case, strength, seed)) == frame_bytes(out)

    moved = out.provenance != Provenance.ORIGINAL
    # Relabelled to the injected class exactly where tagged; other labels kept.
    assert np.array_equal(out.labels.semantic == INJECTED, moved)
    assert np.array_equal(out.labels.semantic[~moved], frame.labels.semantic[source[~moved]])
    if kind in KEEP_COUNT:
        assert np.array_equal(source, np.arange(n))
    else:
        # Drops keep the survivors in order and tag none of them; only wet
        # ground changes a survivor, and only a ground point's intensity.
        assert np.all(np.diff(source) > 0) and not moved.any()
        kept = frame.cloud.select(source)
        if kind == "wet_ground":
            dry = ~case[1][source]
            assert np.isin(np.setdiff1d(np.arange(n), source), np.flatnonzero(case[1])).all()
            assert np.array_equal(out.cloud.xyz, kept.xyz)
            assert np.array_equal(out.cloud.intensity[dry], kept.intensity[dry])
        else:
            assert out.cloud.equals(kept)
    if kind == "incomplete_echo":
        assert n - n_out == round(strength * case[2].sum())
        assert np.isin(np.setdiff1d(np.arange(n), source), np.flatnonzero(case[2])).all()
    if kind == "crosstalk":
        assert moved.sum() == round(strength * n)
    if kind in ("beam_missing", "cross_sensor"):
        beam_of = partition_beams(frame.cloud, BEAMS, frame.ranges).beam_of
        kept_beams, counts = np.unique(beam_of[source], return_counts=True)
        if kind == "beam_missing":  # whole beams are dropped: m of them, some maybe empty
            m, empty = round(strength * BEAMS), BEAMS - len(np.unique(beam_of))
            assert np.array_equal(source, np.flatnonzero(np.isin(beam_of, kept_beams)))
            assert m - empty <= len(np.setdiff1d(beam_of, kept_beams)) <= m
        else:  # every stride-th point of each kept beam survives
            stride = 1 + round(3 * strength)
            in_beam = np.array([np.count_nonzero(beam_of == b) for b in kept_beams], int)
            assert np.array_equal(counts, -(-in_beam // stride))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KINDS), cases(), seeds)
def test_zero_strength_is_exact_identity(kind, case, seed):
    frame = case[0]
    out = run(kind, case, 0.0, seed)
    assert frame_bytes(out) == frame_bytes(frame)
    assert out.boxes is frame.boxes


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KINDS), cases(), strengths, seeds)
def test_labels_do_not_steer_the_cloud(kind, case, strength, seed):
    """Without labels or an injected class, an operator writes the same
    cloud and provenance as with them, and keeps the labels it was given."""
    frame, ground, vehicles = case
    unlabelled = (CorruptedFrame(frame.cloud, None, frame.boxes), ground, vehicles)
    labelled = run(kind, case, strength, seed)
    no_labels = run(kind, unlabelled, strength, seed)
    no_class = run(kind, case, strength, seed, class_id=None)
    for out in (no_labels, no_class):
        assert frame_bytes(out)[:3] == frame_bytes(labelled)[:3]  # xyz, intensity, ring
        assert np.array_equal(out.provenance, labelled.provenance)
    assert no_labels.labels is None
    source = no_class.labels.instance.astype(np.int64)
    assert np.array_equal(no_class.labels.semantic, frame.labels.semantic[source])


def test_examples_are_random_in_ci_too():
    # `conftest.py` swaps Hypothesis's derandomized `ci` profile for one
    # that draws new examples; a fresh interpreter shows it with `CI` set.
    assert settings().derandomize is False
    tests = Path(__file__).parent
    env = {**os.environ, "CI": "true",
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    out = subprocess.run(
        [sys.executable, "-c", "import conftest; from hypothesis import settings; "
         "print(settings.get_current_profile_name(), settings().derandomize, "
         "settings().print_blob)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["ci-random", "False", "True"]
