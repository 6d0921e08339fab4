"""Confusion matrix, mIoU, CE/RR arithmetic, aggregation, rendering."""

import json

import numpy as np
import pytest

from lidarcorrupt import (
    AccuracyRecord,
    CorruptionKind,
    UndefinedMetricError,
    aggregate,
    confusion_matrix,
    corruption_error,
    load_profile,
    miou,
    per_class_iou,
    read_accuracy_record,
    remap_injected,
    render_report,
    resilience_rate,
    write_accuracy_record,
)


class TestConfusionMatrix:
    def test_perfect_diagonal(self):
        labels = np.array([0, 1, 1, 0])
        cm = confusion_matrix(labels, labels, num_classes=2)
        assert cm.tolist() == [[2, 0], [0, 2]]

    def test_all_ignored(self):
        gt = np.full(10, 255)
        cm = confusion_matrix(np.zeros(10, int), gt, num_classes=3, ignore_label=255)
        assert (cm == 0).all()

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(31)
        gt = rng.integers(0, 5, 50)
        gt[rng.integers(0, 50, 8)] = 255
        pred = rng.integers(0, 5, 50)
        cm = confusion_matrix(pred, gt, num_classes=5, ignore_label=255)
        oracle = np.zeros((5, 5), int)
        for p, g in zip(pred, gt):
            if g != 255:
                oracle[g, p] += 1
        assert np.array_equal(cm, oracle)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.zeros(3, int), np.zeros(4, int), num_classes=2)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            confusion_matrix(np.array([5]), np.array([0]), num_classes=3)


class TestMiou:
    def test_perfect(self):
        assert miou(np.diag([5, 3, 2])) == 1.0

    def test_hand_computed_third(self):
        # 4 points, two classes, half of each misassigned to the other:
        # per class TP=1 FP=1 FN=1 -> IoU = 1/3
        gt = np.array([1, 1, 2, 2])
        pred = np.array([1, 2, 1, 2])
        cm = confusion_matrix(pred, gt, num_classes=3, ignore_label=255)
        assert miou(cm) == pytest.approx(1 / 3)

    def test_absent_class_excluded(self):
        cm = np.zeros((4, 4), int)
        cm[1, 1] = 10  # only class 1 observed
        assert miou(cm) == 1.0

    def test_undefined_when_empty(self):
        with pytest.raises(UndefinedMetricError):
            miou(np.zeros((3, 3), int))

    @pytest.mark.parametrize("shape", [(1, 3), (4,)])
    def test_non_square_matrix_rejected(self, shape):
        # A (1, 3) matrix would broadcast to three IoUs without the check.
        with pytest.raises(ValueError, match=r"^confusion matrix must be square, got shape "):
            per_class_iou(np.ones(shape))


class TestCorruptionError:
    def test_self_normalization(self):
        assert corruption_error((0.5, 0.6, 0.7), (0.5, 0.6, 0.7)) == pytest.approx(100.0)

    def test_published_fog_cell(self):
        # severity-mean IoUs 54.46 (model) vs 55.87 (baseline) -> 103.20
        assert corruption_error(0.5446, 0.5587) == pytest.approx(103.20, abs=0.05)

    def test_perfect_model_zero(self):
        assert corruption_error((1.0, 1.0, 1.0), (0.8, 0.7, 0.6)) == 0.0

    def test_zero_baseline_error(self):
        with pytest.raises(ZeroDivisionError):
            corruption_error((0.5, 0.5, 0.5), (1.0, 1.0, 1.0))

    def test_triple_equals_mean(self):
        triple = (0.4, 0.5, 0.6)
        base = (0.3, 0.5, 0.7)
        assert corruption_error(triple, base) == pytest.approx(
            corruption_error(float(np.mean(triple)), float(np.mean(base)))
        )

    def test_scale_consistency(self):
        # scaling all error terms by a common factor leaves CE unchanged
        acc, base = 0.8, 0.7
        scaled_acc = 1 - (1 - acc) * 0.5
        scaled_base = 1 - (1 - base) * 0.5
        assert corruption_error(acc, base) == pytest.approx(
            corruption_error(scaled_acc, scaled_base)
        )

    def test_range_validation(self):
        with pytest.raises(ValueError):
            corruption_error((1.2, 0.5, 0.5), (0.5, 0.5, 0.5))


class TestResilienceRate:
    def test_no_degradation(self):
        assert resilience_rate((0.6, 0.6, 0.6), 0.6) == pytest.approx(100.0)

    def test_published_fog_cell(self):
        # mean fog IoU 55.87 against clean 62.76 -> 89.02
        assert resilience_rate(0.5587, 0.6276) == pytest.approx(89.02, abs=0.05)

    def test_may_exceed_hundred(self):
        # corrupted accuracy above clean is reported unclamped
        assert resilience_rate(0.7182, 0.7026) == pytest.approx(102.22, abs=0.05)

    def test_severity_permutation_invariant(self):
        assert resilience_rate((0.4, 0.5, 0.6), 0.7) == pytest.approx(
            resilience_rate((0.6, 0.4, 0.5), 0.7)
        )

    def test_zero_clean(self):
        with pytest.raises(ZeroDivisionError):
            resilience_rate((0.5, 0.5, 0.5), 0.0)


def make_record(model, clean, offsets, base=0.5):
    per = {}
    for i, kind in enumerate(CorruptionKind):
        acc = base + offsets * (i + 1) / 10
        per[kind.value] = (acc - 0.01, acc, acc + 0.01)
    return AccuracyRecord(model=model, clean_acc=clean, per_corruption=per)


class TestAggregate:
    def test_baseline_vs_itself(self):
        baseline = make_record("base", 0.62, 0.02)
        (report,) = aggregate([baseline], baseline)
        for kind in CorruptionKind:
            assert report.per_corruption_ce[kind.value] == pytest.approx(100.0, rel=1e-12)
        assert report.mce == pytest.approx(100.0, rel=1e-12)

    def test_better_model_below_hundred(self):
        baseline = make_record("base", 0.62, 0.01)
        better = make_record("better", 0.64, 0.03)
        (report,) = aggregate([better], baseline)
        assert report.mce < 100.0

    def test_matches_spreadsheet_recomputation(self):
        baseline = make_record("base", 0.60, 0.015, base=0.45)
        record = make_record("m", 0.58, 0.02, base=0.48)
        (report,) = aggregate([record], baseline)
        ces, rrs = [], []
        for kind in CorruptionKind:
            a = np.mean(record.accuracy(kind))
            b = np.mean(baseline.accuracy(kind))
            ces.append(100 * (1 - a) / (1 - b))
            rrs.append(100 * a / record.clean_acc)
            assert report.per_corruption_ce[kind.value] == pytest.approx(ces[-1])
            assert report.per_corruption_rr[kind.value] == pytest.approx(rrs[-1])
        assert report.mce == pytest.approx(np.mean(ces))
        assert report.mrr == pytest.approx(np.mean(rrs))

    def test_incomplete_record_rejected(self):
        baseline = make_record("base", 0.62, 0.02)
        partial = AccuracyRecord(
            model="partial", clean_acc=0.6, per_corruption={"fog": (0.5,)}
        )
        with pytest.raises(ValueError, match="missing"):
            aggregate([partial], baseline)


class TestRenderReport:
    def _reports(self):
        baseline = make_record("base", 0.62, 0.02)
        other = make_record("other", 0.60, 0.03)
        return aggregate([baseline, other], baseline)

    def test_empty_header_only(self):
        text = render_report([], "csv")
        lines = text.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("model,mce,mrr,fog_ce,")

    def test_single_row(self):
        reports = self._reports()[:1]
        lines = render_report(reports, "csv").strip().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "base"
        assert lines[1].split(",")[1] == "100.00"

    def test_json_parse_back_matches_csv(self):
        reports = self._reports()
        payload = json.loads(render_report(reports, "json"))
        csv_lines = render_report(reports, "csv").strip().splitlines()
        header = csv_lines[0].split(",")
        for row_obj, line in zip(payload, csv_lines[1:]):
            cells = line.split(",")
            for key, cell in zip(header[1:], cells[1:]):
                assert row_obj[key] == pytest.approx(float(cell), abs=0.005)

    def test_markdown_same_numbers(self):
        reports = self._reports()
        md = render_report(reports, "markdown").splitlines()
        csv_lines = render_report(reports, "csv").strip().splitlines()
        md_cells = [c.strip() for c in md[2].strip("|").split("|")]
        assert md_cells == csv_lines[1].split(",")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_report([], "xml")


class TestRecordIO:
    def test_roundtrip(self):
        record = make_record("io", 0.63, 0.02)
        again = read_accuracy_record(write_accuracy_record(record))
        assert again.model == record.model
        assert again.clean_acc == record.clean_acc
        assert again.per_corruption == record.per_corruption

    def test_accepts_single_mean(self):
        record = AccuracyRecord(
            model="mean", clean_acc=0.6,
            per_corruption={k.value: (0.5,) for k in CorruptionKind},
        )
        assert record.is_complete()


class TestRemapInjected:
    def test_remaps_all_injected(self):
        profile = load_profile("semantickitti")
        semantic = np.array([40, 21, 22, 23, 10], np.uint16)
        out = remap_injected(semantic, profile)
        assert out.tolist() == [40, 0, 0, 0, 10]

    def test_kitti_profile_noop(self):
        profile = load_profile("kitti")
        semantic = np.array([1, 2, 3], np.uint16)
        assert remap_injected(semantic, profile).tolist() == [1, 2, 3]
