"""Cross-scale rescaling test: optimal scalar, residual, and the N=3 counterexample.

For a linear (mean-of-generator) value function, normalized subset shares are
an agent-independent rescaling of the full-population shares; for any
nonlinear value function no single scalar reconciles the two scales.  This
module measures the best achievable rescaling and packages the minimal
three-agent counterexample as an executable self-check.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import stats

from . import attribution, baselines, valuefn
from .errors import AspanelError


@dataclass(frozen=True)
class RescaleReport:
    c_star: float
    epsilon: float
    rank_spearman: float
    n: int
    f_kind: str = ""
    subset_seed: Optional[int] = None
    metadata: dict = None


def optimal_rescale(
    shares_subset,
    shares_full_restricted,
    f_kind: str = "",
    subset_seed: Optional[int] = None,
    metadata: Optional[dict] = None,
) -> RescaleReport:
    """Least-squares scalar between subset shares and restricted full shares.

    c* = <s, t> / <t, t> minimizes ||s - c t||, and the relative residual
    epsilon = ||s - c* t|| / ||s|| is zero iff the vectors are proportional.
    The full-panel shares are restricted to the subset without renormalizing.
    """
    s = np.asarray(shares_subset, dtype=np.float64)
    t = np.asarray(shares_full_restricted, dtype=np.float64)
    if s.shape != t.shape or s.ndim != 1 or len(s) < 2:
        raise AspanelError("share vectors must be 1-d, equal length >= 2")
    s_norm = np.linalg.norm(s)
    t_norm = np.linalg.norm(t)
    if s_norm == 0.0 or t_norm == 0.0:
        raise AspanelError("zero-norm share vector")
    c = float(s @ t) / float(t @ t)
    eps = float(np.linalg.norm(s - c * t) / s_norm)
    if np.ptp(s) == 0.0 or np.ptp(t) == 0.0:
        rho = float("nan")  # rank correlation undefined for a constant vector
    else:
        rho = float(stats.spearmanr(s, t).statistic)
    return RescaleReport(c, eps, rho, len(s), f_kind, subset_seed, metadata)


def linear_reconciliation_factor(mu_values_full, subset: Sequence[int]) -> float:
    """The exact scalar relating subset and full shares for a linear family.

    ``mu_values_full`` holds the per-agent generator gaps mu(z_i) - mu(z0)
    over the full population; the factor is their full-population sum over
    the subset sum.
    """
    mu = np.asarray(mu_values_full, dtype=np.float64)
    idx = np.asarray(subset, dtype=np.int64)
    total = float(mu.sum())
    sub = float(mu[idx].sum())
    if sub == 0.0 or total == 0.0:
        raise AspanelError("degenerate: zero generator sum")
    return total / sub


# ---- N = 3 counterexample ---------------------------------------------------


def _pairwise_mean_product(n: int) -> valuefn.ValueFunction:
    """The quadratic family f_n(z) = (1/n^2) sum_{i<j} z_i z_j as an
    index-weighted quadratic with constant coupling 1/n^2."""
    C = np.full((n, n), 1.0 / n**2)
    np.fill_diagonal(C, 0.0)
    return valuefn.quadratic_cross(np.zeros((n, 1)), C)


def counterexample_check(K: int = 300, tol: float = 1e-12) -> dict:
    """Build the minimal nonlinear counterexample and verify it end to end.

    Three agents with scalar features (1, 1, 2) under the pairwise-product
    family: full-population shares (0.3, 0.3, 0.4) and subset {0, 2} shares
    (0.5, 0.5) admit no common rescaling (implied scalars 5/3 vs 5/4).  The
    closed-form values are cross-checked against exact Shapley (pinned
    baseline) and the K-point midpoint path integral.
    """
    z = np.array([[1.0], [1.0], [2.0]])
    f3 = _pairwise_mean_product(3)
    full = attribution.normalize(attribution.attribute_path_integral(f3, z, K=K))

    expected_phi = np.array([1.0 / 6.0, 1.0 / 6.0, 2.0 / 9.0])
    expected_dv = 5.0 / 9.0
    expected_shares = np.array([0.3, 0.3, 0.4])

    subset = [0, 2]
    f2 = _pairwise_mean_product(2)
    sub = attribution.normalize(attribution.attribute_path_integral(f2, z[subset], K=K))
    expected_phi_s = np.array([0.25, 0.25])
    expected_dv_s = 0.5
    expected_shares_s = np.array([0.5, 0.5])

    implied_c = expected_shares_s / expected_shares[subset]  # 5/3 and 5/4

    shapley = baselines.exact_shapley(
        baselines.CoalitionGame(f3, z, semantics="pin")
    )

    checks = {
        "phi_full": float(np.max(np.abs(full.phi - expected_phi))),
        "delta_v_full": abs(full.delta_v - expected_dv),
        "shares_full": float(np.max(np.abs(full.normalized - expected_shares))),
        "phi_subset": float(np.max(np.abs(sub.phi - expected_phi_s))),
        "delta_v_subset": abs(sub.delta_v - expected_dv_s),
        "shares_subset": float(np.max(np.abs(sub.normalized - expected_shares_s))),
        "shapley_vs_path": float(np.max(np.abs(shapley - expected_phi))),
    }
    failed = {k: v for k, v in checks.items() if not v <= tol}
    if failed:
        raise AssertionError(f"counterexample check failed: {failed}")
    if not abs(implied_c[0] - 5.0 / 3.0) <= tol or not abs(implied_c[1] - 5.0 / 4.0) <= tol:
        raise AssertionError(f"implied rescaling factors off: {implied_c}")
    report = optimal_rescale(sub.normalized, full.normalized[subset], f_kind="pairwise_product")
    if not report.epsilon > 0.01:
        raise AssertionError(f"residual unexpectedly small: {report.epsilon}")
    return {
        "phi_full": expected_phi.tolist(),
        "delta_v_full": expected_dv,
        "shares_full": expected_shares.tolist(),
        "phi_subset": expected_phi_s.tolist(),
        "delta_v_subset": expected_dv_s,
        "shares_subset": expected_shares_s.tolist(),
        "implied_c": implied_c.tolist(),
        "epsilon": report.epsilon,
        "max_abs_error": max(checks.values()),
        "checks": checks,
    }


def write_reports_csv(path, reports: Sequence[RescaleReport]):
    """Aggregate CSV, one row per (panel, f, seed) rescale report."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["f_kind", "n", "seed", "c_star", "epsilon", "spearman"])
        for r in reports:
            w.writerow([r.f_kind, r.n, r.subset_seed, repr(r.c_star), repr(r.epsilon),
                        repr(r.rank_spearman)])
