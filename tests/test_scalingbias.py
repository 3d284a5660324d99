import time

import numpy as np
import pytest

from aspanel import attribution, scalingbias, valuefn
from aspanel.errors import AspanelError


class TestOptimalRescale:
    def test_proportional_vectors_give_zero_residual(self):
        s = np.array([0.2, 0.3, 0.5])
        rep = scalingbias.optimal_rescale(1.7 * s, s)
        assert rep.c_star == pytest.approx(1.7)
        assert rep.epsilon == pytest.approx(0.0, abs=1e-15)
        assert rep.rank_spearman == pytest.approx(1.0)

    def test_least_squares_scalar(self, rng):
        # c* must beat any perturbed scalar
        s = rng.random(20)
        t = rng.random(20)
        rep = scalingbias.optimal_rescale(s, t)
        best = np.linalg.norm(s - rep.c_star * t)
        for dc in (-0.01, 0.01):
            assert best <= np.linalg.norm(s - (rep.c_star + dc) * t)

    def test_constant_vector_rank_is_nan(self):
        rep = scalingbias.optimal_rescale([0.5, 0.5], [0.3, 0.4])
        assert np.isnan(rep.rank_spearman)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_share_rejected(self, bad):
        with pytest.raises(AspanelError, match="non-finite"):
            scalingbias.optimal_rescale([0.2, bad, 0.5], [0.2, 0.3, 0.5])
        with pytest.raises(AspanelError, match="non-finite"):
            scalingbias.optimal_rescale([0.2, 0.3, 0.5], [0.2, bad, 0.5])

    def test_zero_vector_rejected(self):
        with pytest.raises(AspanelError):
            scalingbias.optimal_rescale([0.0, 0.0], [0.1, 0.2])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AspanelError):
            scalingbias.optimal_rescale([0.1, 0.2], [0.1, 0.2, 0.3])


def reference_rescale_row(s, t):
    """(c*, epsilon, rho) of one row pair as one-row arithmetic and
    np.corrcoef of the midranks give them."""
    from scipy.stats import rankdata

    s_norm = np.linalg.norm(s)
    c = float(s @ t) / float(t @ t)
    eps = float(np.linalg.norm(s - c * t) / s_norm)
    if (s == s[0]).all() or (t == t[0]).all():
        return c, eps, float("nan")
    ranks = np.column_stack([rankdata(s), rankdata(t)])
    return c, eps, float(np.corrcoef(ranks, rowvar=False)[1, 0])


class TestRescaleRows:
    def test_each_row_as_one_row_gives_it(self, rng):
        S = rng.dirichlet(np.ones(80), 30)
        T = S * rng.uniform(0.5, 2.0, S.shape)
        S[3] = 1 / 80  # a constant row: NaN rank correlation
        T[4] = np.round(T[4] * 80, 1)  # ties
        reports = scalingbias.rescale_rows(S, T, "var", list(range(30)))
        for k, (s, t, rep) in enumerate(zip(S, T, reports)):
            assert repr(rep) == repr(scalingbias.optimal_rescale(s, t, "var", k))
            assert repr((rep.c_star, rep.epsilon, rep.rank_spearman)) == repr(
                reference_rescale_row(s, t))

    @pytest.mark.parametrize("row,message", [
        (np.array([0.1, np.inf, 0.2]), "non-finite"), (np.zeros(3), "zero-norm")])
    def test_invalid_row_raises(self, row, message):
        S = np.array([[0.2, 0.3, 0.5], row])
        with pytest.raises(AspanelError, match=message):
            scalingbias.rescale_rows(S, np.full((2, 3), 0.3), "lin", [0, 1])


class TestLinearFactor:
    def test_matches_share_ratio(self, rng):
        # for the linear family, subset shares are c times the full shares
        z = np.abs(rng.standard_normal((50, 3)))
        subset = np.array([2, 7, 11, 40])
        full = attribution.normalize(attribution.attribute(valuefn.linear_mean(), z))
        sub = attribution.normalize(attribution.attribute(valuefn.linear_mean(), z[subset]))
        g = z.sum(axis=1)
        c = scalingbias.linear_reconciliation_factor(g, subset)
        assert sub.normalized == pytest.approx(c * full.normalized[subset], abs=1e-12)
        rep = scalingbias.optimal_rescale(sub.normalized, full.normalized[subset])
        assert rep.c_star == pytest.approx(c, abs=1e-12)
        assert rep.epsilon <= 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(AspanelError):
            scalingbias.linear_reconciliation_factor(np.array([1.0, -1.0, 3.0]), [0, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gaps_rejected(self, bad):
        # the bad gap lies outside the subset, so only the full sum sees it
        with pytest.raises(AspanelError, match="must be finite"):
            scalingbias.linear_reconciliation_factor(np.array([1.0, bad, 3.0]), [0, 2])

    def test_overflowing_sum_rejected(self):
        with pytest.raises(AspanelError, match="must be finite"):
            scalingbias.linear_reconciliation_factor(np.array([1e308, 1e308, 1.0]), [0, 2])


class TestCounterexample:
    def test_report_values(self):
        t0 = time.perf_counter()
        rep = scalingbias.counterexample_check()
        assert time.perf_counter() - t0 < 1.0
        assert rep["phi_full"] == pytest.approx([1 / 6, 1 / 6, 2 / 9], abs=1e-12)
        assert rep["delta_v_full"] == pytest.approx(5 / 9, abs=1e-12)
        assert rep["shares_full"] == pytest.approx([0.3, 0.3, 0.4], abs=1e-12)
        assert rep["phi_subset"] == pytest.approx([0.25, 0.25], abs=1e-12)
        assert rep["delta_v_subset"] == pytest.approx(0.5, abs=1e-12)
        assert rep["shares_subset"] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert rep["implied_c"] == pytest.approx([5 / 3, 5 / 4], abs=1e-12)
        assert rep["max_abs_error"] <= 1e-12
        assert rep["epsilon"] > 0.01

    def test_no_scalar_reconciles(self):
        rep = scalingbias.counterexample_check()
        c = np.asarray(rep["implied_c"])
        assert abs(c[0] - c[1]) > 0.4  # 5/3 vs 5/4


class TestReportCsv:
    def test_round_trippable_floats(self, tmp_path):
        reports = [
            scalingbias.optimal_rescale([0.1, 0.9], [0.2, 0.8], f_kind="var", subset_seed=3)
        ]
        path = tmp_path / "rescale.csv"
        scalingbias.write_reports_csv(path, reports)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "f_kind,n,seed,c_star,epsilon,spearman"
        cells = lines[1].split(",")
        assert cells[0] == "var"
        assert float(cells[3]) == reports[0].c_star  # repr round-trip exact
