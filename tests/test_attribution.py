import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from aspanel import attribution, panel, valuefn
from aspanel.attribution import BaselineSpec
from aspanel.errors import AspanelError, DegenerateChangeError, NonzeroBaselineError

ANALYTIC = [valuefn.linear_mean, valuefn.heat, valuefn.variance, valuefn.gini]


class TestClosedForms:
    def test_lin_hand_value(self):
        res = attribution.attribute_analytic(valuefn.linear_mean(), [[1.0], [1.0], [2.0]])
        assert res.phi == pytest.approx([1 / 3, 1 / 3, 2 / 3])
        assert res.delta_v == pytest.approx(4 / 3)

    def test_var_hand_value(self):
        # g = (0, 2): phi = g (g - mean g) / n = (0, 1)
        res = attribution.attribute_analytic(valuefn.variance(), [[0.0], [2.0]])
        assert res.phi == pytest.approx([0.0, 1.0])
        assert res.delta_v == pytest.approx(1.0)

    def test_gini_hand_value(self):
        # g = (1, 3): phi_i = g_i (2 k_i - 3) / 4 -> (-1/4, 3/4), G = 1/2
        res = attribution.attribute_analytic(valuefn.gini(), [[1.0], [3.0]])
        assert res.phi == pytest.approx([-0.25, 0.75])
        assert res.delta_v == pytest.approx(0.5)

    def test_heat_equal_split(self):
        z = np.ones((4, 3))
        res = attribution.attribute_analytic(valuefn.heat(), z)
        assert res.phi == pytest.approx(np.full(4, np.log(2) / 4))

    def test_heat_zero_column(self):
        # one feature dim identically zero: value is log1p(0) = 0, all phi 0
        z = np.array([[1.0, 0.0], [2.0, 0.0]])
        res = attribution.attribute_analytic(valuefn.heat(), z)
        assert res.delta_v == 0.0
        assert res.phi == pytest.approx([0.0, 0.0])

    def test_gini_tie_flag(self):
        res = attribution.attribute_analytic(valuefn.gini(), [[1.0], [1.0], [2.0]])
        assert res.metadata["gini_ties"] is True
        assert res.efficiency_residual() < 1e-14

    def test_nonzero_baseline_rejected(self):
        with pytest.raises(NonzeroBaselineError):
            attribution.attribute_analytic(valuefn.variance(), [[1.0], [2.0]],
                                           baseline=np.array([0.5]))

    def test_no_closed_form_for_softplus(self):
        with pytest.raises(AspanelError):
            attribution.attribute_analytic(
                valuefn.softplus_aggregator(np.ones((2, 1))), [[1.0], [2.0]]
            )



def heat_shares_reference(z):
    """Heat's phi from zero, (v / D) sum_d z_id / s_d, as the closed form built
    it before: an n x D share array, zero in a column whose sum s_d is zero."""
    n, D = z.shape
    sums = z.sum(axis=0)
    val = float(np.log1p(np.prod(sums / n)))
    shares = np.zeros_like(z)
    nonzero = sums != 0
    shares[:, nonzero] = z[:, nonzero] / sums[nonzero]
    return shares.sum(axis=1) * (val / D)


class TestAnalyticInput:
    @pytest.mark.parametrize("make", [valuefn.linear_mean, valuefn.variance, valuefn.gini])
    def test_nan_features_rejected(self, make):
        z = np.ones((5, 2))
        z[1, 0] = np.nan
        with pytest.raises(AspanelError):
            attribution.attribute_analytic(make(), z)

    @pytest.mark.parametrize("make", ANALYTIC)
    def test_zero_feature_dims_rejected(self, make):
        with pytest.raises(AspanelError, match=r"got shape \(5, 0\)"):
            attribution.attribute(make(), np.ones((5, 0)))

    @pytest.mark.parametrize("seed", range(4))
    def test_heat_keeps_mass_on_signed_panels(self, seed):
        # a column sum of either sign enters the shares; dropping the
        # negative ones lost mass on signed panels
        z = np.random.default_rng(seed).uniform(-1, 1, (200, 3))
        res = attribution.attribute_analytic(valuefn.heat(), z)
        mid = attribution.attribute_path_integral(valuefn.heat(), z, K=200)
        assert res.efficiency_residual() <= 1e-12 * abs(res.delta_v)
        assert np.abs(res.phi - mid.phi).max() <= 1e-9

    @pytest.mark.parametrize("n", [31, 2 * valuefn.ROW_SUM_BLOCK + 3])
    @pytest.mark.parametrize("D", [1, 2, 3, 5, 8, 11])
    def test_heat_shares_match_the_share_array(self, D, n):
        # the zero-baseline shares are built one column at a time into the
        # row sum; the n x D share array they replaced gives the same bits on
        # signed panels, -0.0 entries, and two or more zero column sums
        rng = np.random.default_rng(D)
        z = rng.uniform(-1, 1, (n, D))
        z[rng.random(z.shape) < 0.2] = -0.0
        cases = [z]
        if D >= 2:
            zeroed = z.copy()
            zeroed[:, 0] = -0.0
            zeroed[:, 1] = 0.0
            zeroed[::2, 1], zeroed[1::2, 1] = 0.5, -0.5
            if n % 2:
                zeroed[-1, 1] = 0.0
            cases.append(zeroed)
        for zz in cases:
            assert np.count_nonzero(zz.sum(axis=0) == 0) != 1
            got = attribution.attribute_analytic(valuefn.heat(), zz).phi
            assert got.tobytes() == heat_shares_reference(zz).tobytes()

    @pytest.mark.parametrize("z", [
        [[1.0, 1.0], [-1.0, 2.0]],
        [[2.0, -1.0, 0.5], [-2.0, 3.0, 1.0], [0.0, 1.0, 1.5]],
    ])
    def test_heat_one_zero_column_sum_matches_midpoint(self, z):
        # v = 0 along the whole path, yet the zero column's own gradient
        # term is not zero: the attribution moves mass between agents
        res = attribution.attribute_analytic(valuefn.heat(), z)
        mid = attribution.attribute_path_integral(valuefn.heat(), z, K=200)
        assert res.delta_v == 0.0
        assert np.abs(res.phi).max() > 0.1
        assert np.abs(res.phi - mid.phi).sum() <= np.abs(mid.phi).sum() / 200**2
        assert abs(res.phi.sum()) <= 1e-15

    def test_heat_one_zero_column_sum_hand_value(self):
        # phi_i = z_i0 * (s_1 / n) / (n D) = z_i0 * 1.5 / 4
        res = attribution.attribute_analytic(valuefn.heat(), [[1.0, 1.0], [-1.0, 2.0]])
        assert res.phi == pytest.approx([0.375, -0.375], abs=1e-15)

    def test_heat_two_zero_column_sums_give_zero(self):
        z = [[1.0, -1.0, 1.0], [-1.0, 1.0, 2.0]]
        res = attribution.attribute_analytic(valuefn.heat(), z)
        mid = attribution.attribute_path_integral(valuefn.heat(), z, K=200)
        assert np.array_equal(res.phi, [0.0, 0.0])
        assert np.abs(mid.phi).max() <= 1e-15

class TestMidpoint:
    @pytest.mark.parametrize("make", ANALYTIC)
    def test_converges_to_closed_form(self, make, abs_gaussian):
        z = abs_gaussian(30, seed=5)
        ref = attribution.attribute_analytic(make(), z)
        est = attribution.attribute_path_integral(make(), z, K=300)
        assert np.abs(est.phi - ref.phi).max() < 1e-7

    def test_lin_exact_at_any_K(self, abs_gaussian):
        # constant gradient: even K=1 integrates the linear family exactly
        z = abs_gaussian(10, seed=1)
        ref = attribution.attribute_analytic(valuefn.linear_mean(), z)
        est = attribution.attribute_path_integral(valuefn.linear_mean(), z, K=1)
        assert np.abs(est.phi - ref.phi).max() < 1e-14

    def test_error_quarters_per_doubling(self, abs_gaussian):
        z = abs_gaussian(200, seed=8)
        f = valuefn.heat()
        ref = attribution.attribute_analytic(f, z).phi
        errs = []
        for K in (5, 10, 20, 40):
            phi = attribution.attribute_path_integral(f, z, K=K).phi
            errs.append(np.abs(phi - ref).sum() / np.abs(ref).sum())
        for e1, e2 in zip(errs, errs[1:]):
            assert 3.2 < e1 / e2 < 4.8

    def test_nonzero_baseline_efficiency(self, abs_gaussian):
        z = abs_gaussian(20, seed=3)
        f = valuefn.heat()
        base = z.mean(axis=0)
        res = attribution.attribute_path_integral(f, z, baseline=base, K=200)
        assert res.efficiency_residual() < 1e-6

    def test_permuted_path_deterministic_and_efficient(self, abs_gaussian):
        z = abs_gaussian(12, seed=6)
        f = valuefn.softplus_aggregator(np.abs(np.random.default_rng(2).standard_normal((12, 3))))
        a = attribution.attribute_path_integral(f, z, path="permuted", seed=4, K=100)
        b = attribution.attribute_path_integral(f, z, path="permuted", seed=4, K=100)
        assert np.array_equal(a.phi, b.phi)
        # one-at-a-time fades telescope up to per-leg quadrature error
        assert a.efficiency_residual() < 1e-4

    def test_bad_K_rejected(self):
        with pytest.raises(AspanelError):
            attribution.attribute_path_integral(valuefn.heat(), [[1.0]], K=0)

    def test_bad_path_rejected(self):
        with pytest.raises(AspanelError):
            attribution.attribute_path_integral(valuefn.heat(), [[1.0]], path="spiral")

    @pytest.mark.parametrize("engine", [
        lambda f, z, z0: attribution.attribute(f, z, z0, method="midpoint"),
        attribution.attribute_path_integral,
        lambda f, z, z0: attribution.attribute(f, z, z0, method="analytic"),
        attribution.attribute_analytic,
    ], ids=["attribute_midpoint", "attribute_path_integral", "attribute_analytic_method",
            "attribute_analytic"])
    def test_baseline_that_does_not_fit_rejected(self, engine):
        # the baseline is resolved before any method runs, so under analytic
        # a misfit is reported before the nonzero baseline is
        with pytest.raises(AspanelError, match="does not fit 4 agents x 3 dims"):
            engine(valuefn.linear_mean(), np.ones((4, 3)), np.ones((2, 3)))


class TestAxioms:
    @pytest.mark.parametrize("make", ANALYTIC)
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_efficiency(self, make, seed):
        rng = np.random.default_rng(seed)
        z = np.abs(rng.standard_normal((int(rng.integers(2, 60)), 3)))
        res = attribution.attribute_analytic(make(), z)
        assert res.efficiency_residual() <= 1e-9 * max(1.0, abs(res.delta_v))

    @pytest.mark.parametrize("make", ANALYTIC)
    def test_symmetry_of_duplicates(self, make, abs_gaussian):
        z = abs_gaussian(9, seed=12)
        z[4] = z[7]  # two identical agents
        res = attribution.attribute_analytic(make(), z)
        assert res.phi[4] == pytest.approx(res.phi[7], abs=1e-12)

    @pytest.mark.parametrize("make", ANALYTIC)
    def test_null_agent(self, make, abs_gaussian):
        z = abs_gaussian(8, seed=13)
        z[2] = 0.0  # agent sitting at the baseline
        res = attribution.attribute_analytic(make(), z)
        assert abs(res.phi[2]) <= 1e-12

    def test_linearity_in_f(self, abs_gaussian):
        # midpoint attribution of a*f + b*g equals the combination of parts
        z = abs_gaussian(10, seed=14)
        W1 = np.abs(np.random.default_rng(0).standard_normal((10, 3)))
        W2 = np.abs(np.random.default_rng(1).standard_normal((10, 3)))
        f1, f2 = valuefn.additive(W1), valuefn.additive(W2)
        combo = valuefn.additive(2.0 * W1 + 3.0 * W2)
        K = 17
        pc = attribution.attribute_path_integral(combo, z, K=K).phi
        p1 = attribution.attribute_path_integral(f1, z, K=K).phi
        p2 = attribution.attribute_path_integral(f2, z, K=K).phi
        assert np.abs(pc - (2.0 * p1 + 3.0 * p2)).max() <= 1e-12


class TestDispatchAndNormalize:
    def test_auto_picks_analytic(self, abs_gaussian):
        res = attribution.attribute(valuefn.gini(), abs_gaussian(6))
        assert res.method["name"] == "analytic"

    def test_auto_falls_back_to_midpoint(self, abs_gaussian):
        # gini's closed form covers a shared row only, not a per-agent baseline
        z = abs_gaussian(6)
        res = attribution.attribute(valuefn.gini(), z, baseline=abs_gaussian(6, seed=1))
        assert res.method["name"] == "midpoint"

    def test_unknown_method_rejected(self):
        with pytest.raises(AspanelError):
            attribution.attribute(valuefn.gini(), [[1.0]], method="magic")

    def test_normalize_sums_to_one(self, abs_gaussian):
        res = attribution.normalize(attribution.attribute(valuefn.variance(), abs_gaussian(20)))
        assert res.normalized.sum() == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_change_rejected(self):
        res = attribution.attribute(valuefn.variance(), np.ones((3, 2)))
        with pytest.raises(DegenerateChangeError):
            attribution.normalize(res)

    def test_tiny_panel_change_is_not_degenerate(self, abs_gaussian):
        # delta_v = 7.8e-17 here is all of f(z): the tolerance scales with the values
        res = attribution.attribute(valuefn.variance(), abs_gaussian(50) * 1e-8)
        assert 0 < res.delta_v < 1e-15
        assert attribution.normalize(res).normalized.sum() == pytest.approx(1.0, abs=1e-12)
        assert res.value_scale == res.delta_v

    def test_rounding_noise_change_is_degenerate(self):
        # f(z) and f(z0) are both 0.15; their difference is one rounding error
        res = attribution.attribute(valuefn.linear_mean(), [[0.1], [0.2]], np.array([0.15]))
        assert 0 < abs(res.delta_v) < 1e-16
        with pytest.raises(DegenerateChangeError):
            attribution.normalize(res)


# the baseline classes of each value of valuefn.Kind.covers
BASELINE_CLASSES = {"shared_row": ("zero", "population_mean", "custom_vector"),
                    "any": ("zero", "population_mean", "custom_vector", "per_agent")}
CLOSED_PAIRS = [(name, b) for name, kind in valuefn.KINDS.items() if kind.closed_form
                for b in BASELINE_CLASSES[kind.covers]]


@st.composite
def planted_panel(draw, baseline):
    """A nonnegative n x D panel of scale 1e-3..30 and a baseline of the given
    class.  Agent 0 sits at its baseline row (a null agent), and agents 1 and
    2 are identical, baseline rows included."""
    n, D = draw(st.integers(3, 30)), draw(st.integers(1, 5))
    unit, scale = st.floats(0.0, 1.0), st.floats(1e-3, 30.0)
    z = draw(arrays(np.float64, (n, D), elements=unit)) * draw(scale)
    z[2] = z[1]
    if baseline == "zero":
        z0 = np.zeros(D)
        z[0] = z0
    elif baseline == "population_mean":
        z[0] = z[1:].mean(axis=0)  # then the mean of all rows, up to rounding
        z0 = BaselineSpec("population_mean")
    elif baseline == "custom_vector":
        z0 = BaselineSpec("custom_vector", draw(arrays(np.float64, D, elements=unit)) * draw(scale))
        z[0] = z0.vector
    else:
        z0 = draw(arrays(np.float64, (n, D), elements=unit)) * draw(scale)
        z0[2] = z0[1]
        z[0] = z0[0]
    # with every g_i equal, delta_v and phi are rounding noise
    g = z.sum(axis=1)
    assume(np.ptp(g) > 1e-9 * np.abs(g).max())
    return z, z0


def path_mass(f, z, z0, K=64):
    """Per agent, sum_d |z_id - z0_id| times the mean |gradient| along the
    path: the size of the terms that add up to delta_v, which is the scale
    rounding errors are measured against when those terms cancel."""
    z0 = np.broadcast_to(z0, z.shape)
    grad = sum(np.abs(f.gradient(z0 + (k + 0.5) / K * (z - z0))) for k in range(K)) / K
    return (np.abs(z - z0) * grad).sum(axis=1)


def heat_root_distance(z, z0):
    """Distance from [0, 1] to the nearest complex root of q(tau) = 1 +
    prod_d m_d(tau), the column means m(tau) moving from z0's to z's."""
    m0, m1 = np.broadcast_to(z0, z.shape).mean(axis=0), z.mean(axis=0)
    q = np.polynomial.Polynomial([1.0])
    for a, b in zip(m0, m1):
        q = q * np.polynomial.Polynomial([a, b - a])
    q = q + 1.0
    roots = q.trim(1e-16 * np.abs(q.coef).max()).roots()  # negligible top terms: roots past 1e16
    return min([abs(r.imag) if 0 <= r.real <= 1 else min(abs(r), abs(r - 1)) for r in roots],
               default=np.inf)


def heat_quadrature(z, z0):
    """Heat phi with each I_d from scipy's adaptive quadrature, breakpoints
    graded toward both ends of the path, where narrow features sit."""
    z0 = np.broadcast_to(z0, z.shape)
    m0, m1 = z0.mean(axis=0), z.mean(axis=0)
    points = sorted([10.0**-k for k in range(1, 14)] + [1 - 10.0**-k for k in range(1, 14)])

    def others(tau, d):
        m = (1 - tau) * m0 + tau * m1
        return np.prod(np.delete(m, d)) / (1 + np.prod(m))

    I = [quad(others, 0, 1, args=(d,), points=points, epsabs=0, epsrel=1e-12, limit=500)[0]
         for d in range(z.shape[1])]
    return (z - z0) @ np.array(I) / len(z)


class TestClosedFormBaselines:
    """auto takes the closed form at every baseline its kind covers."""

    @pytest.mark.parametrize("name,baseline", CLOSED_PAIRS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_efficiency_null_and_symmetry(self, name, baseline, data):
        z, spec = data.draw(planted_panel(baseline))
        f = valuefn.by_name(name)
        res = attribution.attribute(f, z, spec)
        assert res.method["name"] == ("closed_form" if np.any(res.baseline) else "analytic")
        z0 = np.broadcast_to(res.baseline, z.shape)
        dv = f.evaluate(z) - f.evaluate(z0)
        mass = path_mass(f, z, z0)
        scale = max(abs(f.evaluate(z)), abs(f.evaluate(z0)), mass.sum())
        tol = 1e-12 * scale + np.finfo(float).tiny  # a subnormal has no relative precision
        assert abs(res.delta_v - dv) <= tol
        assert abs(res.phi.sum() - dv) <= tol
        # agent 0 sits at the population mean only up to the mean's rounding,
        # which its own mass measures; at the other baselines that mass is 0
        assert abs(res.phi[0]) <= tol + mass[0]
        assert abs(res.phi[1] - res.phi[2]) <= tol

    @pytest.mark.parametrize("name,baseline", CLOSED_PAIRS)
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_matches_richardson_midpoint(self, name, baseline, data):
        # (4 mid(2K) - mid(K)) / 3 cancels the midpoint's 1/K^2 term; its
        # distance to the same extrapolation at half the K estimates the
        # reference's own error, which is added to the tolerance.  That
        # estimate holds only where the midpoints resolve the path, so two
        # kinds of panel are left to other tests.
        z, spec = data.draw(planted_panel(baseline))
        f = valuefn.by_name(name)
        res = attribution.attribute(f, z, spec)
        if name == "gini":
            # Different rows whose sums tie, or nearly tie, can change order
            # at the rounded midpoints, where gini has a kink; the exact
            # path keeps their order.  Identical rows stay tied.
            g = np.sort(np.unique(z, axis=0).sum(axis=1))
            assume(np.all(np.diff(g) > 1e-9 * (np.abs(g).max() + np.abs(res.baseline).sum())))
        if name == "heat":
            # a root of q = 1 + prod m(tau) near [0, 1] makes a feature
            # narrower than the midpoint spacing (see the quadrature test)
            assume(heat_root_distance(z, res.baseline) > 0.05)
        mid = {K: attribution.attribute_path_integral(f, z, spec, K=K).phi
               for K in (500, 1000, 2000)}
        ref, coarse = (4 * mid[2000] - mid[1000]) / 3, (4 * mid[1000] - mid[500]) / 3
        scale = max(np.abs(ref).sum(), path_mass(f, z, res.baseline).sum())
        # a subnormal has no relative precision: on a subnormal panel each
        # midpoint term rounds the same way at every K, so the reference can
        # sit ulps from the path integral while ref - coarse reads 0
        tol = 1e-8 * scale + np.abs(ref - coarse).sum() + np.finfo(float).tiny
        assert np.abs(res.phi - ref).sum() <= tol

    @pytest.mark.parametrize("baseline", BASELINE_CLASSES["any"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_heat_matches_adaptive_quadrature(self, baseline, data):
        # covers the narrow features the Richardson test leaves out
        z, spec = data.draw(planted_panel(baseline))
        f = valuefn.heat()
        res = attribution.attribute(f, z, spec)
        ref = heat_quadrature(z, res.baseline)
        scale = max(np.abs(ref).sum(), path_mass(f, z, res.baseline).sum())
        assert np.abs(res.phi - ref).sum() <= 1e-9 * scale + np.finfo(float).tiny

    @pytest.mark.parametrize("c", [1.0, 1e2, 1e4])
    def test_heat_narrow_feature_hand_value(self, c):
        # m(tau) = (c tau, c): q = 1 + c^2 tau rises over a width 1/c^2 at
        # tau = 0, which no midpoint rule at moderate K resolves; here
        # I_0 = log1p(c^2) / c and I_1 = (1 - log1p(c^2) / c^2) / c exactly
        z = np.array([[2 * c, 0.0], [0.0, 2 * c]])
        res = attribution.attribute(valuefn.heat(), z, np.array([0.0, c]))
        i0, i1 = np.log1p(c**2) / c, (1 - np.log1p(c**2) / c**2) / c
        want = np.array([(2 * c * i0 - c * i1) / 2, c * i1 / 2])
        assert res.phi == pytest.approx(want, rel=1e-13)
        assert res.efficiency_residual() <= 1e-14 * abs(res.delta_v)

    def test_var_hand_value_at_custom_row(self):
        # g = (1, 3), g0 = 1: phi_i = (g_i - 1)((g_i - 2) - (1 - 1)) / 2 = (0, 1)
        res = attribution.attribute(valuefn.variance(), [[1.0], [3.0]], np.array([1.0]))
        assert res.phi == pytest.approx([0.0, 1.0])
        assert res.delta_v == pytest.approx(1.0)

    def test_gini_hand_value_at_custom_row(self):
        # g = (1, 3), sum(z0) = 2: phi_i = (g_i - 2)(2 r_i - 3) / 4 = (1/4, 1/4)
        res = attribution.attribute(valuefn.gini(), [[1.0], [3.0]], np.array([2.0]))
        assert res.phi == pytest.approx([0.25, 0.25])
        assert res.delta_v == pytest.approx(0.5)

    @pytest.mark.parametrize("name", ["lin", "var", "heat"])
    def test_per_agent_method_named(self, name, abs_gaussian):
        res = attribution.attribute(valuefn.by_name(name), abs_gaussian(5), abs_gaussian(5, seed=1))
        assert res.method == {"name": "closed_form", "baseline": "per_agent", "f": name}

    def test_heat_pole_on_the_path_rejected(self):
        # 1 + prod m(tau) <= 0 for tau in about [0.03, 0.37], finite at both ends;
        # the midpoint rule would integrate straight through it
        z = np.array([[-3.0, -2.0], [-5.0, -2.4]])
        for method in ("auto", "midpoint", "permuted_path"):
            with pytest.raises(AspanelError, match="reaches zero"):
                attribution.attribute(valuefn.heat(), z, np.array([4.0, -0.2]), method=method)

    def test_heat_pole_past_the_end_rejected(self):
        # from zero, q(tau) = 1 + tau^2 prod(m) falls to -1 at tau = 1
        with pytest.raises(AspanelError, match="reaches zero"):
            attribution.attribute(valuefn.heat(), [[-2.0, 1.0], [-2.0, 1.0]])

    def test_signed_heat_without_pole_matches_midpoint(self):
        rng = np.random.default_rng(3)
        z, z0 = rng.uniform(-1, 1, (40, 3)), rng.uniform(-1, 1, 3)
        res = attribution.attribute(valuefn.heat(), z, z0)
        mid = attribution.attribute_path_integral(valuefn.heat(), z, z0, K=2000)
        assert np.abs(res.phi - mid.phi).sum() <= np.abs(res.phi).sum() / 2000**2
        assert res.efficiency_residual() <= 1e-14


MIDPOINT_BASELINES = {
    "zero": lambda z: None,
    "population_mean": lambda z: BaselineSpec("population_mean"),
    "per_agent": lambda z: 0.5 * z[::-1] + 0.1,
}


class TestReducedMidpoint:
    """lin, var and gini integrate along g, their row sums; a custom wrapper
    of the same f integrates the n x D gradient along z."""

    @pytest.mark.parametrize("path", ["linear", "permuted"])
    @pytest.mark.parametrize("baseline", list(MIDPOINT_BASELINES))
    @pytest.mark.parametrize("name", ["lin", "var", "gini"])
    def test_row_sum_kind_matches_its_wrapper(self, name, baseline, path, abs_gaussian):
        z = abs_gaussian(40, seed=11)
        z0 = MIDPOINT_BASELINES[baseline](z)
        f = valuefn.by_name(name)
        wrapper = valuefn.custom(f.evaluate, f.gradient)
        got = attribution.attribute_path_integral(f, z, z0, K=30, path=path, seed=2)
        want = attribution.attribute_path_integral(wrapper, z, z0, K=30, path=path, seed=2)
        resolved = attribution._resolve_baseline(z0, z)
        assert np.all(np.abs(got.phi - want.phi) <= 1e-12 * path_mass(f, z, resolved))
        assert got.delta_v == want.delta_v

    @pytest.mark.parametrize("path", ["linear", "permuted"])
    @pytest.mark.parametrize("baseline", list(MIDPOINT_BASELINES))
    def test_heat_matches_its_wrapper_bit_for_bit(self, baseline, path, abs_gaussian):
        z = abs_gaussian(40, seed=12)
        z0 = MIDPOINT_BASELINES[baseline](z)
        f = valuefn.heat()
        wrapper = valuefn.custom(f.evaluate, f.gradient)
        got = attribution.attribute_path_integral(f, z, z0, K=30, path=path, seed=2)
        want = attribution.attribute_path_integral(wrapper, z, z0, K=30, path=path, seed=2)
        assert got.phi.tobytes() == want.phi.tobytes()


def gini_path_oracle(g, g0):
    """The exact gini path integral from per-agent row sums g0 to g, and each
    agent's crossing count.  phi_i = (g_i - g0_i)(2 R_i - n - 1) / n^2, R_i
    the time-average midrank of agent i along the straight path: the pair
    (i, j) puts j below i for the part of [0, 1] where g_i - g_j > 0, which
    changes sign at most once, at delta0 / (delta0 - delta1)."""
    n = len(g)
    rbar, crossings = np.empty(n), np.empty(n, dtype=np.int64)
    rows = max(1, (1 << 16) // n)
    for lo in range(0, n, rows):
        d0 = g0[lo:lo + rows, None] - g0[None, :]
        d1 = g[lo:lo + rows, None] - g[None, :]
        flips = np.sign(d0) * np.sign(d1) < 0
        with np.errstate(divide="ignore", invalid="ignore"):
            t = d0 / (d0 - d1)
        below = np.where(flips, np.where(d0 > 0, t, 1.0 - t), 0.5 + 0.5 * np.sign(d0 + d1))
        rbar[lo:lo + rows] = 0.5 + below.sum(axis=1)  # agent i itself counts 1/2
        crossings[lo:lo + rows] = flips.sum(axis=1)
    return (g - g0) * (2.0 * rbar - n - 1.0) / n**2, crossings


class TestGiniPathOracle:
    """gini has no closed form at a per-agent baseline; its midpoint is
    checked against the exact integral."""

    def test_oracle_is_the_closed_form_at_a_shared_row(self, abs_gaussian):
        z, z0 = abs_gaussian(300, seed=3), np.array([0.2, 0.1, 0.4])
        phi, crossings = gini_path_oracle(z.sum(axis=1), np.full(len(z), z0.sum()))
        res = attribution.attribute(valuefn.gini(), z, z0)
        assert res.method["name"] == "closed_form" and not crossings.any()
        assert np.abs(phi - res.phi).max() <= 1e-15 * np.abs(res.phi).max()

    @pytest.mark.parametrize("K", [1, 2, 7, 30])
    def test_midpoint_exact_when_the_order_holds(self, K, abs_gaussian):
        # z0 = z / 4 has row sums g / 4 exactly, so no pair crosses
        z = abs_gaussian(500, seed=4)
        z[7] = z[3]  # a tie held along the path
        g = z.sum(axis=1)
        phi, crossings = gini_path_oracle(g, g / 4)
        res = attribution.attribute_path_integral(valuefn.gini(), z, z / 4, K=K)
        assert not crossings.any()
        assert np.all(np.abs(res.phi - phi) <= 1e-12 * np.abs(g) / len(g))

    @pytest.mark.parametrize("K", [7, 30])
    def test_midpoint_within_its_crossing_bound(self, K, abs_gaussian):
        # each crossing moves agent i's rank weight 2 R_i - n - 1 by 2 at one
        # time in [0, 1]; the midpoint rule errs by at most 1/K on that step
        z, z0 = abs_gaussian(400, seed=5), abs_gaussian(400, seed=6)
        g, g0 = z.sum(axis=1), z0.sum(axis=1)
        phi, crossings = gini_path_oracle(g, g0)
        f = valuefn.gini()
        assert crossings.min() > 0
        assert abs(phi.sum() - (f.evaluate(z) - f.evaluate(z0))) <= 1e-13
        res = attribution.attribute_path_integral(f, z, z0, K=K)
        n = len(g)
        bound = np.abs(g - g0) * (crossings / K + 1e-12 * n) / n**2
        assert np.all(np.abs(res.phi - phi) <= bound)


class TestBaselineSpec:
    def test_population_mean_resolve(self, abs_gaussian):
        z = abs_gaussian(5)
        res = attribution.attribute(valuefn.linear_mean(), z, BaselineSpec("population_mean"))
        assert res.baseline == pytest.approx(z.mean(axis=0))

    def test_first_step_needs_panel(self, abs_gaussian):
        with pytest.raises(AspanelError, match="needs a temporal panel"):
            attribution.attribute(valuefn.linear_mean(), abs_gaussian(5),
                                  BaselineSpec("first_step"))

    def test_custom_length_checked(self, abs_gaussian):
        with pytest.raises(AspanelError, match="does not fit 5 agents x 3 dims"):
            attribution.attribute(valuefn.linear_mean(), abs_gaussian(5),
                                  BaselineSpec("custom_vector", np.ones(2)))

    def test_unknown_kind(self):
        with pytest.raises(AspanelError):
            BaselineSpec("yesterday")


class TestFloat64Limit:
    # 4 agents x 2 dims of 1e308: the mean and the row sums overflow
    @pytest.mark.parametrize("f,baseline", [(valuefn.linear_mean(), "population_mean"),
                                            (valuefn.variance(), "zero")],
                             ids=["lin-population_mean", "var-zero"])
    def test_overflow_raises_instead_of_nan(self, f, baseline):
        z = np.full((4, 2), 1e308)
        with pytest.warns(RuntimeWarning):  # overflow, then invalid values
            with pytest.raises(AspanelError, match="finite"):
                attribution.attribute(f, z, BaselineSpec(baseline))


class TestTemporal:
    def make_panel(self, n=6, T=4, seed=0):
        feats = np.abs(np.random.default_rng(seed).standard_normal((n, T, 3)))
        return panel.FeaturePanel(feats, [f"u{i}" for i in range(n)])

    def test_per_step_matches_single_step(self):
        pn = self.make_panel()
        res = attribution.attribute_temporal(valuefn.variance(), pn)
        for t in range(pn.n_steps):
            single = attribution.attribute_analytic(valuefn.variance(), pn.step_slice(t))
            assert res.phi[:, t] == pytest.approx(single.phi)
            assert res.delta_v[t] == pytest.approx(single.delta_v)

    @staticmethod
    def planted_panel():
        """A nonnegative 40 x 4 x 3 panel with agents 1 and 2 tied at every
        step.  At step 1 column 2 is all zero, where heat keeps one gradient
        term; at step 2 columns 0 and 1 are, partly as -0.0, where heat's v = 0."""
        feats = np.abs(np.random.default_rng(5).standard_normal((40, 4, 3)))
        feats[2] = feats[1]
        feats[:, 1, 2] = 0.0
        feats[:, 2, :2] = 0.0
        feats[::2, 2, 1] = -0.0
        return panel.FeaturePanel(feats, [f"u{i:02d}" for i in range(40)])

    @pytest.mark.parametrize("method", ["auto", "midpoint"])
    @pytest.mark.parametrize("baseline", ["zero", "population_mean", "first_step", "custom_vector"])
    @pytest.mark.parametrize("name", ["lin", "heat", "var", "gini"])
    def test_matches_per_step_attribute_bit_for_bit(self, name, baseline, method):
        # the temporal engine takes what f reads of each step and of the baseline once
        pn = self.planted_panel()
        f = valuefn.by_name(name)
        spec = BaselineSpec(baseline, [0.5, 0.25, 1.0] if baseline == "custom_vector" else None)
        res = attribution.attribute_temporal(f, pn, spec, method, K=7)
        for t in range(pn.n_steps):
            single = attribution.attribute(f, pn.step_slice(t), res.baseline, method, K=7)
            assert res.phi[:, t].tobytes() == single.phi.tobytes()
            assert res.delta_v[t].tobytes() == np.float64(single.delta_v).tobytes()
            assert res.value_scale[t].tobytes() == np.float64(single.value_scale).tobytes()
            assert res.method == single.method

    def test_first_step_baseline_zeroes_step0(self):
        pn = self.make_panel()
        res = attribution.attribute_temporal(
            valuefn.heat(), pn, BaselineSpec("first_step"), method="midpoint", K=50
        )
        assert np.abs(res.phi[:, 0]).max() < 1e-12
        assert res.delta_v[0] == pytest.approx(0.0)

    @pytest.mark.parametrize("method", ["auto", "midpoint"])
    def test_steps_coerced_once_per_public_call(self, monkeypatch, method):
        # FeaturePanel checked the whole tensor, so its steps skip the scan
        pn = self.make_panel()
        calls = []
        real = attribution._as_features
        monkeypatch.setattr(attribution, "_as_features", lambda z: calls.append(z) or real(z))
        res = attribution.attribute_temporal(valuefn.variance(), pn, method=method)
        assert calls == []
        for t in range(pn.n_steps):
            single = attribution.attribute(valuefn.variance(), pn.step_slice(t), method=method)
            assert np.array_equal(res.phi[:, t], single.phi)
            assert res.delta_v[t] == single.delta_v
        assert len(calls) == pn.n_steps

    @pytest.mark.parametrize("step0,shape,method", [
        (0.0, (3,), {"name": "analytic", "f": "var"}),
        (1.0, (6, 3), {"name": "closed_form", "baseline": "per_agent", "f": "var"}),
    ], ids=["zero_first_step", "nonzero_first_step"])
    def test_result_holds_the_resolved_baseline(self, step0, shape, method):
        # the result holds the baseline as every step's engine takes it: an
        # all-zero first step is the zero row, any other one stays n x D
        feats = np.abs(np.random.default_rng(1).standard_normal((6, 4, 3)))
        feats[:, 0] = step0
        pn = panel.FeaturePanel(feats, [f"u{i}" for i in range(6)])
        res = attribution.attribute_temporal(valuefn.variance(), pn, BaselineSpec("first_step"))
        assert res.baseline.shape == shape
        assert res.method == method
        for t in range(pn.n_steps):
            single = attribution.attribute(valuefn.variance(), pn.step_slice(t), feats[:, 0])
            assert np.array_equal(res.phi[:, t], single.phi)

    def test_unknown_method_rejected(self):
        with pytest.raises(AspanelError, match="unknown method"):
            attribution.attribute_temporal(valuefn.variance(), self.make_panel(), method="exact")

    def test_totals_consistent(self):
        pn = self.make_panel()
        res = attribution.attribute_temporal(valuefn.linear_mean(), pn)
        assert res.step_totals() == pytest.approx(res.delta_v)

    def test_group_totals_partition_mass(self):
        pn = self.make_panel()
        part = panel.make_tier_partition(pn.collapse()[:, 0], cut_fractions=(0.5, 1.0),
                                         agent_ids=pn.agent_ids)
        res = attribution.attribute_temporal(valuefn.variance(), pn)
        gt = res.group_totals(part)
        assert gt.sum(axis=0) == pytest.approx(res.step_totals())


class TestGroupShares:
    def test_tier_shares_sum_to_one(self, abs_gaussian):
        z = abs_gaussian(40, seed=21)
        part = panel.make_tier_partition(z[:, 0])
        res = attribution.normalize(attribution.attribute(valuefn.variance(), z))
        shares = attribution.tier_shares(res, part)
        assert shares.sum() == pytest.approx(1.0, abs=1e-12)

    def test_subset_indices_mapping(self, abs_gaussian):
        z = abs_gaussian(40, seed=22)
        part = panel.make_tier_partition(z[:, 0])
        sub = np.array([0, 3, 5, 17, 30])
        res = attribution.normalize(attribution.attribute(valuefn.variance(), z[sub]))
        shares = attribution.tier_shares(res, part, subset_indices=sub)
        assert shares.sum() == pytest.approx(1.0, abs=1e-12)

    def test_size_mismatch_rejected(self, abs_gaussian):
        z = abs_gaussian(40, seed=23)
        part = panel.make_tier_partition(z[:, 0])
        res = attribution.normalize(attribution.attribute(valuefn.variance(), z[:10]))
        with pytest.raises(AspanelError, match="40 tier labels for 10 attributed rows"):
            attribution.tier_shares(res, part)

    @pytest.mark.parametrize("sub", [np.arange(9), np.arange(11)], ids=["short", "long"])
    def test_subset_indices_of_wrong_length_rejected(self, abs_gaussian, sub):
        # one partition row per result row, or numpy's bare IndexError
        z = abs_gaussian(40, seed=23)
        part = panel.make_tier_partition(z[:, 0])
        res = attribution.normalize(attribution.attribute(valuefn.variance(), z[:10]))
        with pytest.raises(AspanelError, match="9 tier labels|11 tier labels"):
            attribution.tier_shares(res, part, subset_indices=sub)

    @pytest.mark.parametrize("bad", [-1, 40], ids=["negative", "past_n"])
    def test_subset_indices_out_of_range_rejected(self, abs_gaussian, bad):
        # -1 would wrap to the last agent, 40 raise numpy's bare IndexError
        z = abs_gaussian(40, seed=23)
        part = panel.make_tier_partition(z[:, 0])
        res = attribution.normalize(attribution.attribute(valuefn.variance(), z[:3]))
        for sub in ([0, 1, bad], [bad, 2, 1]):
            with pytest.raises(AspanelError, match=r"subset_indices must lie in \[0, 40\)"):
                attribution.tier_shares(res, part, subset_indices=sub)

    def test_tier_shares_and_group_totals_match_group_loops(self, abs_gaussian):
        # the per-group loops the one tier sum replaced, compared bit for bit
        z = abs_gaussian(40, seed=24)
        part = panel.make_tier_partition(z[:, 0])
        res = attribution.normalize(attribution.attribute(valuefn.variance(), z))
        want = np.array([float(res.normalized[part.labels == k].sum())
                         for k in range(part.n_groups)])
        assert attribution.tier_shares(res, part).tobytes() == want.tobytes()
        pn = panel.FeaturePanel(np.abs(np.stack([z, z[::-1]], axis=1)), [f"a{i:02d}" for i in range(40)])
        tres = attribution.attribute_temporal(valuefn.variance(), pn)
        want = np.zeros((part.n_groups, 2))
        for k in range(part.n_groups):
            want[k] = tres.phi[part.group_indices(k)].sum(axis=0)
        assert tres.group_totals(part).tobytes() == want.tobytes()
        with pytest.raises(AspanelError, match="10 tier labels for 40 attributed rows"):
            tres.group_totals(panel.make_tier_partition(z[:10, 0]))
        # a subset of the partitioned agents, a repeat and an empty tier included
        sub = [39, 7, 0, 7, 12, 3, 25]
        sres = attribution.normalize(attribution.attribute(valuefn.variance(), z[sub]))
        labels = part.labels[sub]
        assert np.count_nonzero(labels == 0) == 0
        want = np.array([float(sres.normalized[labels == k].sum()) for k in range(part.n_groups)])
        assert attribution.tier_shares(sres, part, sub).tobytes() == want.tobytes()
        # the stored groups are the labels' ascending indices, and read-only
        for k in range(part.n_groups):
            assert np.array_equal(part.group_indices(k), np.flatnonzero(part.labels == k))
        assert part.group_sizes() == [int(np.count_nonzero(part.labels == k))
                                      for k in range(part.n_groups)]
        with pytest.raises(ValueError):
            part.group_indices(0)[0] = 1
