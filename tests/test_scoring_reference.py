"""The label-scoring functions `evaluate` calls per file, against references.

`confusion_matrix`, `remap_injected` and `read_semkitti_labels` mask, check
and decode in the labels' own dtypes. The references below are their
earlier bodies, which widened whole arrays to int64 first. Every case must
give a bit-equal result, or the same exception type and message.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lidarcorrupt import MalformedScanError, load_profile
from lidarcorrupt.metrics import confusion_matrix, remap_injected
from lidarcorrupt.scan_io import read_semkitti_labels
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
