"""The label-scoring functions `evaluate` calls, against references.

`confusion_matrix`, `remap_injected` and `read_semkitti_labels` mask, check
and decode in the labels' own dtypes. The references below are their
earlier bodies, which widened whole arrays to int64 first. `run_evaluate`
scores each directory from its distinct (gt, pred) pairs; its reference is
a dense count per file. Every case must give a bit-equal result, or the
same exception type and message.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lidarcorrupt import MalformedScanError, PairingError, UndefinedMetricError, cli, load_profile
from lidarcorrupt.metrics import confusion_matrix, miou, remap_injected, write_accuracy_record
from lidarcorrupt.scan_io import read_semkitti_labels, write_semkitti_labels
from lidarcorrupt.types import LabelArray


def reference_confusion_matrix(pred, gt, num_classes, ignore_label=255):
    pred = np.asarray(pred).reshape(-1).astype(np.int64)
    gt = np.asarray(gt).reshape(-1).astype(np.int64)
    if len(pred) != len(gt):
        raise ValueError(f"{len(pred)} predictions for {len(gt)} ground-truth labels")
    counted = gt != ignore_label
    pred, gt = pred[counted], gt[counted]
    for name, arr in (("gt", gt), ("pred", pred)):
        if arr.size and (arr.min() < 0 or arr.max() >= num_classes):
            bad = arr[(arr < 0) | (arr >= num_classes)][0]
            raise ValueError(f"{name} label {bad} outside [0, {num_classes})")
    cm = np.bincount(gt * num_classes + pred, minlength=num_classes * num_classes)
    return cm.reshape(num_classes, num_classes)


def reference_remap_injected(semantic, profile):
    injected = sorted(profile.injected_classes())
    if not injected:
        return np.asarray(semantic)
    semantic = np.asarray(semantic)
    out = semantic.copy()
    out[np.isin(semantic, injected)] = profile.ignore_label
    return out


def reference_read_semkitti_labels(data):
    if len(data) % 4 != 0:
        raise MalformedScanError(
            f"label stream: byte length {len(data)} is not a multiple of 4"
        )
    words = np.frombuffer(data, dtype="<u4")
    return LabelArray(
        semantic=(words & 0xFFFF).astype(np.uint16),
        instance=(words >> 16).astype(np.uint16),
    )


def outcome(fn, *args):
    """The result, or the type and message of the exception raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, not handled
        return (type(exc), str(exc))


def assert_same_array(a, b):
    assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# uint64 values stop at the int64 maximum: past it the reference's int64
# cast wrapped them negative, so it named a different bad value.
DTYPES = {
    np.uint8: (0, 2**8 - 1),
    np.uint16: (0, 2**16 - 1),
    np.int32: (-(2**31), 2**31 - 1),
    np.int64: (-(2**63), 2**63 - 1),
    np.uint64: (0, 2**63 - 1),
}


@st.composite
def labels(draw, size, num_classes, ignore_label):
    dtype = draw(st.sampled_from(sorted(DTYPES, key=str)))
    lo, hi = DTYPES[dtype]
    near = [v for v in (-1, 0, num_classes - 1, num_classes, ignore_label) if lo <= v <= hi]
    # Mostly in-range ids, some on the boundaries and a few anywhere.
    element = st.one_of(
        st.integers(0, max(0, min(hi, num_classes - 1))),
        st.sampled_from(near) if near else st.just(lo),
        st.integers(lo, hi),
    )
    return draw(hnp.arrays(dtype, size, elements=element))


@st.composite
def scoring_case(draw):
    num_classes = draw(st.integers(-2, 12))
    ignore_label = draw(st.one_of(
        st.integers(0, max(0, num_classes + 2)),
        st.sampled_from([-1, 255, 2**16, 2**40]),
    ))
    n = draw(st.integers(0, 40))
    # One case in eight has a length mismatch.
    m = n if draw(st.integers(0, 7)) else draw(st.integers(0, 40))
    pred = draw(labels(n, num_classes, ignore_label))
    gt = draw(labels(m, num_classes, ignore_label))
    return pred, gt, num_classes, ignore_label


@settings(max_examples=150, deadline=None)
@given(scoring_case())
def test_confusion_matrix_matches_reference(case):
    pred, gt, num_classes, ignore_label = case
    expected = outcome(reference_confusion_matrix, pred, gt, num_classes, ignore_label)
    got = outcome(confusion_matrix, pred, gt, num_classes, ignore_label)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert_same_array(got, expected)


@pytest.mark.parametrize("case", [
    # empty; every point ignored; ignored points out of range; counted
    # negative pred; ignore label outside [0, C)
    (np.array([], np.uint16), np.array([], np.uint16), 4, 255),
    (np.array([1, 9], np.uint8), np.array([255, 255], np.uint8), 4, 255),
    (np.array([70000, 2], np.int64), np.array([-5, 1], np.int64), 3, -5),
    (np.array([-2, 1], np.int32), np.array([1, 1], np.int32), 3, 255),
    (np.array([0, 1, 2], np.uint64), np.array([2, 1, 0], np.uint64), 3, 2**40),
    (np.array([0, 1], np.uint16), np.array([3, 1], np.uint16), 3, 0),
])
def test_confusion_matrix_edge_cases_match_reference(case):
    expected = outcome(reference_confusion_matrix, *case)
    got = outcome(confusion_matrix, *case)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert_same_array(got, expected)


def test_uint64_past_int64_named_as_itself():
    # The reference named this pred label -1 after its int64 cast.
    with pytest.raises(ValueError, match=r"pred label 18446744073709551615 outside \[0, 4\)"):
        confusion_matrix(np.array([2**64 - 1], np.uint64), np.array([1], np.uint64), 4)


SEMANTICKITTI = load_profile("semantickitti")
PROFILES = [
    SEMANTICKITTI,  # injected 21, 22, 23 -> 0
    load_profile("kitti"),  # nothing injected
    load_profile("nuscenes"),
    dataclasses.replace(SEMANTICKITTI, snow_class=None, ignore_label=255),
]


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(PROFILES),
    st.sampled_from([np.uint8, np.uint16, np.int32, np.int64]).flatmap(
        lambda dtype: hnp.arrays(dtype, st.integers(0, 50), elements=st.one_of(
            st.sampled_from([0, 1, 21, 22, 23, 40, 41, 255]), st.integers(0, 255)))
    ),
)
@example(SEMANTICKITTI, np.array([21, 40, 22, 0, 23], np.uint16))
def test_remap_injected_matches_reference(profile, semantic):
    before = semantic.copy()
    expected = outcome(reference_remap_injected, semantic, profile)
    got = outcome(remap_injected, semantic, profile)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert_same_array(got, expected)
    assert_same_array(semantic, before)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=64))
def test_read_semkitti_labels_matches_reference(data):
    expected = outcome(reference_read_semkitti_labels, data)
    got = outcome(read_semkitti_labels, data)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert_same_array(got.semantic, expected.semantic)
        assert_same_array(got.instance, expected.instance)


# `run_evaluate` against the per-file dense count it used before scoring
# from distinct (gt, pred) pairs. The reference matrix spans every class id
# below `num_classes` when that fits in memory; past that it spans the ids
# below 512, which every id in those trees is, so the rows and columns it
# leaves out are all zero and read NaN, as in the full matrix.
REFERENCE_MAX_CLASSES = 512


def reference_miou_over_dir(pred_dir, gt_dir, profile, num_classes):
    size = min(num_classes, REFERENCE_MAX_CLASSES)
    cm = np.zeros((size, size), np.int64)
    for stem in cli._matched_stems(pred_dir, gt_dir):
        pred = reference_read_semkitti_labels((pred_dir / f"{stem}.label").read_bytes())
        gt = reference_read_semkitti_labels((gt_dir / f"{stem}.label").read_bytes())
        if size < num_classes:
            assert max(pred.semantic.max(initial=0), gt.semantic.max(initial=0)) < size
        if len(pred) != len(gt):
            raise PairingError(f"frame {stem}: {len(pred)} predictions for {len(gt)} labels")
        cm += reference_confusion_matrix(
            pred.semantic, reference_remap_injected(gt.semantic, profile), size,
            profile.ignore_label)
    return miou(cm)


def evaluate_outcome(root, profile, num_classes, scorer=None):
    """The record `run_evaluate` writes, or the exception's type and message;
    plus every label file read, in order, up to the end or the exception."""
    read = []
    original = Path.read_bytes

    def recording(path):
        read.append(path.relative_to(root).as_posix())
        return original(path)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Path, "read_bytes", recording)
        if scorer is not None:
            mp.setattr(cli, "_miou_over_dir", scorer)
        result = outcome(lambda: write_accuracy_record(
            cli.run_evaluate(root / "pred", root / "gt", profile, num_classes)))
    return result, read


def assert_scores_as_reference(root, profile, num_classes):
    """The outcome of `run_evaluate`, once checked equal to the reference's."""
    got = evaluate_outcome(root, profile, num_classes)
    assert got == evaluate_outcome(root, profile, num_classes, reference_miou_over_dir)
    return got[0]


def write_tree(root, dirs):
    """dirs maps a relative directory to {stem: (pred ids, gt ids)}."""
    for rel, frames in dirs.items():
        for side in ("pred", "gt"):
            (root / side / rel).mkdir(parents=True)
        for stem, (pred, gt) in frames.items():
            for side, ids in (("pred", pred), ("gt", gt)):
                (root / side / rel / f"{stem}.label").write_bytes(write_semkitti_labels(
                    LabelArray(np.asarray(ids, np.uint16), np.zeros(len(ids), np.uint16))))


FOG_DIRS = ("fog/light", "fog/moderate", "fog/heavy")
# semantickitti injects 21, 22 and 23 and ignores 0; the copy ignores 255,
# so at up to 12 classes its ignore label and injected ids lie past them all.
EVAL_PROFILES = [SEMANTICKITTI, load_profile("kitti"),
                 dataclasses.replace(SEMANTICKITTI, ignore_label=255)]
ID_POOL = [0, 1, 2, 3, 5, 11, 12, 21, 22, 23, 255, 259, 260, 300]


@st.composite
def label_tree(draw):
    num_classes = draw(st.sampled_from([1, 2, 4, 12, 260, 65536]))
    profile = draw(st.sampled_from(EVAL_PROFILES))
    ids = st.sampled_from(ID_POOL) | st.integers(0, 24)
    dirs = {}
    for rel in ("clean", *(FOG_DIRS if draw(st.booleans()) else ())):
        frames = {}
        for i in range(draw(st.integers(0, 3))):
            n = draw(st.integers(0, 30))
            # One file in twelve has a prediction of another length.
            m = n if draw(st.integers(0, 11)) else draw(st.integers(0, 30))
            frames[f"{i:06d}"] = (draw(st.lists(ids, min_size=m, max_size=m)),
                                  draw(st.lists(ids, min_size=n, max_size=n)))
        dirs[rel] = frames
    return dirs, profile, num_classes


@settings(max_examples=80, deadline=None)
@given(label_tree())
def test_run_evaluate_matches_dense_reference(case):
    dirs, profile, num_classes = case
    with tempfile.TemporaryDirectory() as tmp:
        write_tree(Path(tmp), dirs)
        assert_scores_as_reference(Path(tmp), profile, num_classes)


def clean_and_fog(frames):
    return {rel: frames for rel in ("clean", *FOG_DIRS)}


@pytest.mark.parametrize("num_classes", [1, 2, 260, 65536])
@pytest.mark.parametrize("profile", EVAL_PROFILES, ids=["semantickitti", "kitti", "ignore255"])
def test_record_matches_reference(tmp_path, profile, num_classes):
    # injected ids, both ignore labels, an empty file, a repeated pair
    write_tree(tmp_path, clean_and_fog({
        "000000": ([0, 0, 1, 0, 1, 300], [0, 0, 0, 21, 255, 22]),
        "000001": ([], []),
        "000002": ([0, 0, 0], [0, 0, 0]),
    }))
    result = assert_scores_as_reference(tmp_path, profile, num_classes)
    if num_classes == 65536:  # every id is in range: a record, not an error
        assert isinstance(result, str)


def test_out_of_range_pred_under_ignored_gt_is_not_counted(tmp_path):
    # gt 0 is semantickitti's ignore label and 22 an injected id.
    write_tree(tmp_path, clean_and_fog({"000000": ([65535, 300, 1], [0, 22, 1])}))
    result = assert_scores_as_reference(tmp_path, SEMANTICKITTI, 2)
    assert json.loads(result)["clean"] == 1.0


@pytest.mark.parametrize("side", ["gt", "pred"])
def test_counted_out_of_range_label_named_at_its_file(tmp_path, side):
    bad = {"gt": ([1], [7]), "pred": ([7], [1])}[side]
    write_tree(tmp_path, clean_and_fog({
        "000000": ([1, 2], [1, 2]), "000001": bad, "000002": ([9], [9])}))
    result, read = evaluate_outcome(tmp_path, SEMANTICKITTI, 4)
    assert (result, read) == evaluate_outcome(tmp_path, SEMANTICKITTI, 4,
                                              reference_miou_over_dir)
    assert result == (ValueError, f"{side} label 7 outside [0, 4)")
    assert read[-2:] == ["pred/clean/000001.label", "gt/clean/000001.label"]


@pytest.mark.parametrize("frames", [
    {"000000": ([1, 2, 3], [0, 21, 23])},  # every gt point ignored
    {"000000": ([], [])},  # one empty file
    {},  # no files
], ids=["all ignored", "empty file", "no files"])
def test_nothing_counted_is_undefined(tmp_path, frames):
    write_tree(tmp_path, clean_and_fog(frames))
    result = assert_scores_as_reference(tmp_path, SEMANTICKITTI, 260)
    assert result == (UndefinedMetricError,
                      "mIoU undefined: no class present in pred or gt")
