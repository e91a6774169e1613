"""Hand-worked oracles for the agreement metrics.

The Krippendorff expectations come from writing out the coincidence matrix
by hand: with two annotators each unit contributes its value pair in both
orders, D_o sums the off-diagonal coincidences, and D_e pairs the pooled
value counts.  Spearman expectations are Pearson over hand-assigned
fractional ranks.
"""

from fractions import Fraction

import pytest

from ctrlkit import agreement as A


class TestKrippendorffNominal:
    def test_perfect_agreement_on_varied_labels(self):
        assert A.krippendorff_alpha(["a", "b", "a", "c"], ["a", "b", "a", "c"]) == 1.0

    def test_ten_item_worksheet(self):
        # 9 agreements, 1 disagreement (a,b):
        #   o[a,b] = o[b,a] = 1; n_a = n_b = 7, n_c = 6, n = 20
        #   D_o = 2/20; D_e = 2*(7*7 + 7*6 + 7*6)/(20*19) = 266/380
        #   alpha = 1 - (0.1/0.7) = 6/7
        gold = ["a", "a", "b", "b", "c", "c", "a", "b", "c", "a"]
        pred = ["a", "a", "b", "b", "c", "c", "a", "b", "c", "b"]
        alpha = A.krippendorff_alpha(gold, pred, "nominal")
        assert alpha == pytest.approx(float(Fraction(6, 7)), abs=1e-9)

    def test_three_item_worksheet(self):
        # units (x,y),(x,x),(y,y): D_o = 2/6; n_x = n_y = 3,
        # D_e = 2*9/30 = 3/5; alpha = 1 - (1/3)/(3/5) = 4/9
        alpha = A.krippendorff_alpha(["x", "x", "y"], ["y", "x", "y"], "nominal")
        assert alpha == pytest.approx(float(Fraction(4, 9)), abs=1e-9)

    def test_constant_data_undefined(self):
        assert A.krippendorff_alpha(["a", "a", "a"], ["a", "a", "a"]) is None

    def test_missing_pairs_excluded_before_computation(self):
        gold = ["a", None, "b", "b", "a"]
        pred = ["a", "b", None, "b", "b"]
        direct = A.krippendorff_alpha(["a", "b", "a"], ["a", "b", "b"], "nominal")
        assert A.krippendorff_alpha(gold, pred, "nominal") == pytest.approx(direct)

    def test_too_few_pairs_rejected(self):
        with pytest.raises(A.MetricError):
            A.krippendorff_alpha(["a", None], ["a", "b"], "nominal")


class TestKrippendorffInterval:
    def test_four_item_worksheet(self):
        # pairs (1,1),(2,2),(3,3),(4,5): D_o = 2/8 = 0.25
        # D_e = 222/56; alpha = 1 - 14/222 = 104/111
        alpha = A.krippendorff_alpha([1, 2, 3, 4], [1, 2, 3, 5], "interval")
        assert alpha == pytest.approx(float(Fraction(104, 111)), abs=1e-9)

    def test_crossed_pairs_worksheet(self):
        # pairs (0,0),(0,2),(2,0),(2,2): D_o = 16/8 = 2
        # n_0 = n_2 = 4; D_e = 2*4*4*4/56 = 16/7; alpha = 1 - 7/8 = 1/8
        alpha = A.krippendorff_alpha([0, 0, 2, 2], [0, 2, 0, 2], "interval")
        assert alpha == pytest.approx(0.125, abs=1e-9)

    def test_shifted_scores_worksheet(self):
        # pairs (1,2),(3,3),(5,4): D_o = 4/6; D_e = 120/30 = 4
        # alpha = 1 - (2/3)/4 = 5/6
        alpha = A.krippendorff_alpha([1, 3, 5], [2, 3, 4], "interval")
        assert alpha == pytest.approx(float(Fraction(5, 6)), abs=1e-9)

    def test_unknown_level_rejected(self):
        with pytest.raises(A.MetricError):
            A.krippendorff_alpha([1, 2], [1, 2], "ordinal")


class TestPseudoAlpha:
    def test_zero_point_exact(self):
        assert A.pseudo_alpha(109 / 2049) == 0.0

    def test_unit_point_exact(self):
        assert A.pseudo_alpha(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_published_baseline_value(self):
        assert A.pseudo_alpha(0.9457) == pytest.approx(0.9426, abs=1e-4)

    def test_strictly_increasing(self):
        values = [A.pseudo_alpha(a / 20) for a in range(21)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_range_validated(self):
        with pytest.raises(A.MetricError):
            A.pseudo_alpha(1.5)


class TestSpearman:
    def test_identical_rankings(self):
        assert A.spearman_rho([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]) == pytest.approx(1.0)

    def test_reversed_rankings(self):
        assert A.spearman_rho([1, 2, 3, 4, 5], [5, 4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_tied_worksheet(self):
        # gold ranks [1, 2.5, 2.5, 4, 5]; pred ranks [2, 1, 3, 4.5, 4.5]
        # Pearson: cov 7.5, both variances 9.5 -> rho = 15/19
        rho = A.spearman_rho([1, 2, 2, 4, 5], [2, 1, 3, 4, 4])
        assert rho == pytest.approx(float(Fraction(15, 19)), abs=1e-9)

    def test_swap_worksheet(self):
        # ranks [1,2,3] vs [1,3,2]: cov 1, variances 2 -> rho = 1/2
        assert A.spearman_rho([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-9)

    def test_constant_side_undefined(self):
        assert A.spearman_rho([1, 2, 3], [4, 4, 4]) is None

    def test_fewer_than_two_pairs_rejected(self):
        with pytest.raises(A.MetricError, match="at least 2 aligned non-missing pairs"):
            A.spearman_rho([1, 2], [3, None])

    def test_missing_excluded(self):
        rho = A.spearman_rho([1, None, 2, 3], [1, 5.0, 2, 3])
        assert rho == pytest.approx(1.0)


class TestRougeL:
    def test_identical(self):
        assert A.rouge_l("a b c d", "a b c d") == 1.0

    def test_disjoint(self):
        assert A.rouge_l("a b c", "x y z") == 0.0

    def test_swap_worksheet(self):
        # LCS("a b c d", "a c b d") = 3 -> P = R = 3/4 -> F1 = 3/4
        assert A.rouge_l("a b c d", "a c b d") == pytest.approx(0.75, abs=1e-9)

    def test_prefix_worksheet(self):
        # LCS("a b", "a b c d") = 2 -> P = 1, R = 1/2 -> F1 = 2/3
        assert A.rouge_l("a b", "a b c d") == pytest.approx(2 / 3, abs=1e-9)

    def test_symmetry_under_swap(self):
        a, b = "a b c d e", "a c e f"
        assert A.rouge_l(a, b) == pytest.approx(A.rouge_l(b, a), abs=1e-12)

    def test_empty_inputs(self):
        assert A.rouge_l("", "a b") == 0.0
        assert A.rouge_l("a b", "") == 0.0


class TestAccuracy:
    def test_basic(self):
        assert A.accuracy(["Ja", "Ja", "Nej"], ["Ja", "Ja", "Ja"]) == pytest.approx(2 / 3)

    def test_missing_excluded(self):
        assert A.accuracy(["Ja", "Nej"], ["Ja", None]) == 1.0
