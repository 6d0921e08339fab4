"""Masking, subsampling, interpolation, and the consistency losses."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lidarcorrupt
from lidarcorrupt import (
    MaskSelection,
    PredictionField,
    completion_loss,
    confirmation_loss,
    cross_entropy,
    interpolate_prediction,
    random_mask,
    subsample_prediction,
    total_loss,
)


def random_field(rng, n, d=8):
    return PredictionField(
        values=rng.normal(size=(n, d)), anchor_xyz=rng.uniform(-5, 5, (n, 3))
    )


class TestRandomMask:
    def test_beta_zero_keeps_all(self):
        sel = random_mask(10, beta=0.0, seed=1)
        assert sel.kept.tolist() == list(range(10))

    def test_beta_one_keeps_none(self):
        assert len(random_mask(10, beta=1.0, seed=1)) == 0

    def test_count_rule(self):
        assert len(random_mask(10, beta=0.4, seed=2)) == 6

    def test_sorted_unique_and_deterministic(self):
        a = random_mask(1000, beta=0.6, seed=3)
        b = random_mask(1000, beta=0.6, seed=3)
        assert np.array_equal(a.kept, b.kept)
        assert (np.diff(a.kept) > 0).all()

    @pytest.mark.parametrize("beta", [0.4, 0.6])
    def test_kept_ratio_close(self, beta):
        n = 997
        sel = random_mask(n, beta=beta, seed=4)
        assert abs(len(sel) / n - (1 - beta)) <= 1 / n

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            random_mask(10, beta=1.2, seed=0)


class TestSubsample:
    def test_full_selection_identity(self):
        rng = np.random.default_rng(5)
        field = random_field(rng, 20)
        sel = MaskSelection(kept=np.arange(20), beta=0.0)
        out = subsample_prediction(field, sel)
        assert np.array_equal(out.values, field.values)
        assert np.array_equal(out.anchor_xyz, field.anchor_xyz)

    def test_single_row(self):
        rng = np.random.default_rng(6)
        field = random_field(rng, 20)
        out = subsample_prediction(field, MaskSelection(kept=np.array([0]), beta=0.95))
        assert np.array_equal(out.values, field.values[:1])

    def test_matches_gather_oracle(self):
        rng = np.random.default_rng(7)
        field = random_field(rng, 50)
        kept = np.sort(rng.choice(50, size=18, replace=False))
        out = subsample_prediction(field, MaskSelection(kept=kept, beta=0.64))
        for row, src in enumerate(kept):
            assert np.array_equal(out.values[row], field.values[src])

    def test_out_of_range(self):
        rng = np.random.default_rng(8)
        field = random_field(rng, 5)
        with pytest.raises(IndexError):
            subsample_prediction(field, MaskSelection(kept=np.array([7]), beta=0.0))


class TestInterpolate:
    def test_coincident_anchors_exact(self):
        rng = np.random.default_rng(9)
        field = random_field(rng, 30)
        out = interpolate_prediction(field, field.anchor_xyz, k=3)
        assert np.array_equal(out.values, field.values)

    def test_k1_nearest_neighbor(self):
        values = np.array([[1.0], [10.0]])
        anchors = np.array([[0, 0, 0], [10, 0, 0]], float)
        field = PredictionField(values=values, anchor_xyz=anchors)
        targets = np.array([[1, 0, 0], [9, 0, 0]], float)
        out = interpolate_prediction(field, targets, k=1)
        assert out.values.tolist() == [[1.0], [10.0]]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(10)
        field = random_field(rng, 5, d=4)
        targets = rng.uniform(-5, 5, (8, 3))
        out = interpolate_prediction(field, targets, k=3)
        for t in range(8):
            dist = np.linalg.norm(field.anchor_xyz - targets[t], axis=1)
            nearest = np.argsort(dist)[:3]
            w = 1.0 / dist[nearest]
            w /= w.sum()
            expected = (w[:, None] * field.values[nearest]).sum(axis=0)
            assert np.allclose(out.values[t], expected, rtol=1e-12)

    def test_convex_hull_containment(self):
        rng = np.random.default_rng(11)
        field = random_field(rng, 20, d=1)
        targets = rng.uniform(-5, 5, (40, 3))
        out = interpolate_prediction(field, targets, k=4)
        assert (out.values >= field.values.min() - 1e-12).all()
        assert (out.values <= field.values.max() + 1e-12).all()

    def test_empty_partial_rejected(self):
        field = PredictionField(values=np.zeros((0, 2)), anchor_xyz=np.zeros((0, 3)))
        with pytest.raises(ValueError, match="empty"):
            interpolate_prediction(field, np.zeros((3, 3)))


IMPORT_BUDGET_SCRIPT = """
import json, sys
import numpy as np
import lidarcorrupt, lidarcorrupt.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

at_import = scipy_modules()
field = lidarcorrupt.PredictionField(
    values=np.array([[1.0], [3.0]]), anchor_xyz=np.array([[0, 0, 0], [2, 0, 0]], float)
)
out = lidarcorrupt.interpolate_prediction(field, np.array([[1.0, 0, 0], [2.0, 0, 0]]), k=2)
print(json.dumps({"at_import": at_import, "values": out.values.tolist(),
                  "after_call": "scipy.spatial" in sys.modules}))
"""


def test_scipy_loaded_only_by_interpolation():
    """The package and the CLI import without scipy (~0.45 s, ~30 MB);
    `interpolate_prediction` loads it on its first call."""
    src = str(Path(lidarcorrupt.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_BUDGET_SCRIPT], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    result = json.loads(done.stdout)
    assert result["at_import"] == []
    assert result["values"] == [[2.0], [3.0]]
    assert result["after_call"]


class TestLosses:
    def test_identical_fields_zero(self):
        rng = np.random.default_rng(12)
        field = random_field(rng, 40)
        assert completion_loss(field, field) == 0.0
        assert confirmation_loss(field, field) == 0.0

    def test_constant_shift(self):
        rng = np.random.default_rng(13)
        field = random_field(rng, 25, d=4)
        c = np.array([0.5, -1.0, 2.0, 0.25])
        shifted = PredictionField(values=field.values + c, anchor_xyz=field.anchor_xyz)
        assert completion_loss(field, shifted) == pytest.approx(float(np.sum(c * c)))

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(14)
        a = random_field(rng, 100, d=8)
        b = PredictionField(values=rng.normal(size=(100, 8)), anchor_xyz=a.anchor_xyz)
        total = 0.0
        for i in range(100):
            for j in range(8):
                total += (a.values[i, j] - b.values[i, j]) ** 2
        oracle = total / 100
        assert completion_loss(a, b) == pytest.approx(oracle, rel=1e-10)
        assert confirmation_loss(a, b) == pytest.approx(oracle, rel=1e-10)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(15)
        a = random_field(rng, 30)
        b = PredictionField(values=rng.normal(size=(30, 8)), anchor_xyz=a.anchor_xyz)
        assert completion_loss(a, b) == completion_loss(b, a)
        assert completion_loss(a, b) > 0

    def test_shape_mismatch(self):
        rng = np.random.default_rng(16)
        with pytest.raises(ValueError):
            completion_loss(random_field(rng, 5), random_field(rng, 6))

    def test_finite_difference_slope(self):
        rng = np.random.default_rng(17)
        teacher = random_field(rng, 50, d=6)
        student_values = rng.normal(size=(50, 6))
        student = PredictionField(values=student_values, anchor_xyz=teacher.anchor_xyz)
        eps = 1e-4
        row, col = 7, 2
        bumped = student_values.copy()
        bumped[row, col] += eps
        student_b = PredictionField(values=bumped, anchor_xyz=teacher.anchor_xyz)
        slope = (completion_loss(teacher, student_b) - completion_loss(teacher, student)) / eps
        analytic = 2 * (student_values[row, col] - teacher.values[row, col]) / 50
        assert slope == pytest.approx(analytic, rel=1e-3)


class TestTotalLoss:
    def test_all_zero(self):
        assert total_loss(0, 0, 0, 0) == 0.0

    def test_default_weights(self):
        assert total_loss(1, 1, 1, 1) == 152.0

    def test_custom_weights(self):
        assert total_loss(0.5, 0.25, 0.1, 0.2, alpha1=2.0, alpha2=4.0) == pytest.approx(
            0.5 + 0.25 + 0.2 + 0.8
        )


class TestCrossEntropy:
    def test_one_hot_near_zero(self):
        scores = np.eye(4)[np.array([0, 1, 2, 3])]
        assert cross_entropy(scores, np.array([0, 1, 2, 3])) < 1e-9

    def test_uniform_scores(self):
        scores = np.ones((10, 4))
        assert cross_entropy(scores, np.zeros(10, int)) == pytest.approx(math.log(4))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(18)
        scores = rng.uniform(0.01, 1.0, (30, 5))
        gt = rng.integers(0, 5, 30)
        total = 0.0
        for i in range(30):
            total += -math.log(scores[i, gt[i]] / scores[i].sum())
        assert cross_entropy(scores, gt) == pytest.approx(total / 30, rel=1e-12)

    def test_ignored_rows_excluded(self):
        scores = np.array([[1.0, 0.0], [0.0, 1.0]])
        gt = np.array([0, 255])
        assert cross_entropy(scores, gt, ignore_label=255) < 1e-9

    def test_all_ignored_rejected(self):
        with pytest.raises(ValueError, match="ignored"):
            cross_entropy(np.ones((3, 2)), np.full(3, 255), ignore_label=255)

    def test_negative_scores_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            cross_entropy(np.array([[-1.0, 1.0]]), np.array([0]))
