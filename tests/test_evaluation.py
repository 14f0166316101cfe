from fractions import Fraction

import numpy as np
import pytest

from emofuse.errors import AlignmentError
from emofuse.evaluation import evaluate

from oracles import metric_oracle


class TestWorkedExample:
    def test_hand_computed_values(self):
        report = evaluate([0, 1, 2, 2], [0, 1, 1, 2], w_f1=0.67, w_acc=0.33)
        assert report.accuracy == pytest.approx(0.75)
        assert report.per_class_f1[0] == pytest.approx(1.0)
        assert report.per_class_f1[1] == pytest.approx(2.0 / 3.0)
        assert report.per_class_f1[2] == pytest.approx(2.0 / 3.0)
        assert report.macro_f1 == pytest.approx(7.0 / 9.0)
        assert report.combined == pytest.approx(0.67 * 7 / 9 + 0.33 * 0.75)
        assert report.combined == pytest.approx(0.7686, abs=5e-5)

    def test_absent_classes_not_in_macro(self):
        report = evaluate([0, 1, 2, 2], [0, 1, 1, 2])
        assert set(report.per_class_f1) == {0, 1, 2}


class TestBasics:
    def test_perfect_prediction(self, rng):
        truth = rng.integers(0, 7, size=200)
        report = evaluate(truth, truth, w_f1=0.5, w_acc=0.5)
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0
        assert report.combined == 1.0

    def test_all_unannotated_truth_yields_explicit_empty_result(self):
        report = evaluate([0, 1, 2], [7, 7, 7])
        assert report.n_evaluated == 0
        assert report.accuracy is None
        assert report.macro_f1 is None
        assert report.combined is None

    def test_class7_frames_excluded_by_default(self):
        report = evaluate([0, 0, 5], [0, 7, 7])
        assert report.n_evaluated == 1
        assert report.accuracy == 1.0

    def test_length_mismatch(self):
        with pytest.raises(AlignmentError):
            evaluate([0, 1], [0])

    def test_label_out_of_range(self):
        with pytest.raises(AlignmentError):
            evaluate([0, 9], [0, 1])


class TestInvariants:
    def test_joint_permutation_invariance(self, rng):
        pred = rng.integers(0, 8, size=100)
        truth = rng.integers(0, 8, size=100)
        perm = rng.permutation(100)
        a = evaluate(pred, truth)
        b = evaluate(pred[perm], truth[perm])
        assert a.accuracy == b.accuracy
        assert a.macro_f1 == b.macro_f1
        np.testing.assert_array_equal(a.confusion, b.confusion)

    def test_combined_monotone_in_both_terms(self):
        base = evaluate([0, 1, 2, 2], [0, 1, 1, 2])
        assert base.combined == pytest.approx(
            base.w_f1 * base.macro_f1 + base.w_acc * base.accuracy
        )
        heavier_f1 = evaluate([0, 1, 2, 2], [0, 1, 1, 2], w_f1=0.9, w_acc=0.1)
        assert heavier_f1.combined > base.combined  # macro_f1 > accuracy here

    def test_confusion_row_and_column_sums(self, rng):
        pred = rng.integers(0, 8, size=300)
        truth = rng.integers(0, 7, size=300)
        report = evaluate(pred, truth)
        for c in range(8):
            assert report.confusion[c].sum() == int((truth == c).sum())
            assert report.confusion[:, c].sum() == int((pred == c).sum())
        assert report.confusion.sum() == report.n_evaluated

    def test_matches_rational_oracle_on_random_vectors(self, rng):
        for trial in range(25):
            n = int(rng.integers(1, 30))
            pred = rng.integers(0, 8, size=n).tolist()
            truth = rng.integers(0, 8, size=n).tolist()
            report = evaluate(pred, truth, w_f1=0.67, w_acc=0.33)
            want = metric_oracle(pred, truth, 0.67, 0.33)
            if want is None:
                assert report.n_evaluated == 0
                continue
            assert Fraction(report.accuracy).limit_denominator(10**9) == want["accuracy"]
            assert report.macro_f1 == pytest.approx(float(want["macro_f1"]), abs=1e-12)
            assert report.combined == pytest.approx(float(want["combined"]), abs=1e-12)
            for c, f1 in want["per_class"].items():
                assert report.per_class_f1[c] == pytest.approx(float(f1), abs=1e-12)
