import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from aspanel import attribution, baselines, cli, study, valuefn
from aspanel.errors import AspanelError


def fd_gradient(f, z, h=1e-6):
    """Independent central finite-difference oracle."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    for i in range(z.shape[0]):
        for d in range(z.shape[1]):
            step = max(h, h * abs(z[i, d]))
            zp = z.copy()
            zp[i, d] += step
            zm = z.copy()
            zm[i, d] -= step
            out[i, d] = (f.evaluate(zp) - f.evaluate(zm)) / (2 * step)
    return out


def build(name, n, d, rng):
    """A ``name`` value function for n agents x d dims with random
    parameters, or None when a required parameter is a callback."""
    kind = valuefn.KINDS[name]
    params = {}
    for param in kind.required:
        layout = kind.agent_params.get(param)
        if layout == "rows":
            params[param] = rng.random((n, d)) + 0.1
        elif layout == "pairs":
            C = rng.random((n, n))
            C = (C + C.T) / 2
            np.fill_diagonal(C, 0.0)
            params[param] = C
        else:
            return None
    return valuefn.by_name(name, **params)


class TestEvaluate:
    def test_lin_mean(self):
        z = np.array([[1.0], [1.0], [2.0]])
        assert valuefn.linear_mean().evaluate(z) == pytest.approx(4 / 3)

    def test_heat_all_equal(self):
        for n in (2, 5, 17):
            z = np.ones((n, 3))
            assert valuefn.heat().evaluate(z) == pytest.approx(math.log(2))

    def test_gini_two_agents(self):
        # direct double loop: (1/(2*4)) * 2*|1-3| = 1/2
        z = np.array([[1.0], [3.0]])
        assert valuefn.gini().evaluate(z) == pytest.approx(0.5)

    def test_gini_matches_double_loop(self, rng):
        f = valuefn.gini()
        for n in (2, 3, 17, 200):
            g = rng.random(n) * 10
            direct = np.abs(g[:, None] - g[None, :]).sum() / (2 * n**2)
            assert f.evaluate(g[:, None]) == pytest.approx(direct, abs=1e-12)

    def test_gini_with_ties_matches_double_loop(self):
        g = np.array([2.0, 2.0, 5.0, 2.0, 5.0])
        n = len(g)
        direct = np.abs(g[:, None] - g[None, :]).sum() / (2 * n**2)
        assert valuefn.gini().evaluate(g[:, None]) == pytest.approx(direct, abs=1e-14)

    def test_gini_near_constant_matches_exact_rationals(self, rng):
        # g = 1 +- 1e-5, a value of about 1e-6: summed on g itself, the rank
        # weights' terms are about n in size and cancel down to that value
        f = valuefn.gini()
        panels = [np.array([0.999995, 0.99999, 0.99999, 1.0, 1.0])]
        panels += [1.0 + rng.uniform(-1e-5, 1e-5, n) for n in (3, 5, 8, 13, 21, 34) * 4]
        panels += [1.0 + rng.integers(-3, 4, n) * 2.5e-6 for n in (4, 9, 30)]  # ties
        for g in panels:
            q = [Fraction(x) for x in g.tolist()]
            exact = sum(abs(a - b) for a in q for b in q) / (2 * len(q) ** 2)
            got = f.evaluate(g[:, None])
            assert abs(Fraction(got) - exact) <= Fraction(1e-14) * exact, (g.tolist(), got)

    def test_var_population(self, rng):
        g = rng.random(10)
        assert valuefn.variance().evaluate(g[:, None]) == pytest.approx(np.var(g))

    def test_quadratic_cross_pairwise(self):
        # f = (1/9) sum_{i<j} z_i z_j on z = (1, 1, 2)
        C = np.full((3, 3), 1 / 9.0)
        np.fill_diagonal(C, 0.0)
        f = valuefn.quadratic_cross(np.zeros((3, 1)), C)
        assert f.evaluate([[1.0], [1.0], [2.0]]) == pytest.approx(5 / 9)

    def test_softplus_value(self):
        W = np.ones((2, 1))
        f = valuefn.softplus_aggregator(W, scale=0.35)
        s = 3.0
        assert f.evaluate([[1.0], [2.0]]) == pytest.approx(math.log1p(math.exp(0.35 * s)) / 0.35)

    def test_nonfinite_rejected(self):
        with pytest.raises(AspanelError):
            valuefn.heat().evaluate(np.array([[np.nan, 1, 1]]))

    def test_empty_rejected(self):
        with pytest.raises(AspanelError):
            valuefn.heat().evaluate(np.empty((0, 3)))

    def test_heat_ray_scaling(self, abs_gaussian):
        # along tau*z the product of means scales as tau^3
        z = abs_gaussian(20, seed=4)
        f = valuefn.heat()
        H = np.prod(z.mean(axis=0))
        for tau in (0.25, 0.5, 2.0):
            assert f.evaluate(tau * z) == pytest.approx(math.log1p(tau**3 * H))


class TestRowSums:
    @pytest.mark.parametrize("D", range(1, 17))
    def test_bits_match_numpy_sum(self, D):
        rng = np.random.default_rng(D)
        z = rng.standard_normal((200, 3, D)) * 10.0 ** rng.integers(-300, 300, (200, 3, D))
        z[rng.random(z.shape) < 0.3] = 0.0
        z[rng.random(z.shape) < 0.3] = -0.0
        z[:4, :] = -0.0  # rows of -0.0 sum to +0.0
        for view in (z[:, 1], np.ascontiguousarray(z[:, 1]), z[:, 1, ::-1]):
            assert valuefn._row_sums(view).tobytes() == view.sum(axis=1).tobytes()
        assert valuefn._row_sums(z[0, 0]).tobytes() == z[0, 0].sum().tobytes()

    @pytest.mark.parametrize("D", [1, 3, 7, 8, 9])
    def test_blocks_steps_and_divisors(self, D):
        # more rows than one block, a panel's steps on a middle axis, and the
        # quotients by column divisors with a zero divisor's column as zeros
        rng = np.random.default_rng(D)
        z = rng.standard_normal((valuefn.ROW_SUM_BLOCK + 7, 2, D))
        z[rng.random(z.shape) < 0.2] = -0.0
        assert valuefn._row_sums(z).tobytes() == z.sum(axis=-1).tobytes()
        div = rng.standard_normal(D)
        div[::3], div[1::3] = 0.0, -0.0
        step = z[:, 1]
        quotients = np.zeros_like(step)
        quotients[:, div != 0] = step[:, div != 0] / div[div != 0]
        assert valuefn._row_sums(step, div).tobytes() == quotients.sum(axis=1).tobytes()


class TestMeanProduct:
    @pytest.mark.parametrize("D", range(1, 17))
    def test_bits_match_numpy_prod(self, D):
        # heat's coalition values: the product of a coalition's column means,
        # signed, with zeros of either sign, across a wide range of magnitudes
        rng = np.random.default_rng(D)
        sums = rng.standard_normal((30, 20, D)) * 10.0 ** rng.integers(-30, 30, (30, 20, D))
        sums[rng.random(sums.shape) < 0.1] = 0.0
        sums[rng.random(sums.shape) < 0.1] = -0.0
        count = rng.integers(1, 50, (30, 20)).astype(np.float64)
        for s, c in ((sums, count), (sums, count[0]), (sums[:, 0], count[:, 0]),
                     (np.moveaxis(np.moveaxis(sums, -1, 1).copy(), 1, -1), count)):
            expect = np.prod(s / c[..., None], axis=-1)
            assert valuefn._mean_product(s, c).tobytes() == expect.tobytes()


# vectors for the rank tests: heavy ties, signed zeros, any finite float, all tied
RANK_ENTRIES = [st.integers(-3, 3).map(float), st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                st.floats(allow_nan=False, allow_infinity=False)]


@st.composite
def rank_vectors(draw, n):
    if draw(st.booleans()) and draw(st.booleans()):  # one draw in four is all tied
        return np.full(n, draw(RANK_ENTRIES[2]))
    return draw(arrays(np.float64, n, elements=draw(st.sampled_from(RANK_ENTRIES))))


def scipy_correlations(a, b):
    """scipy's (tau-b, rho); scipy warns on a constant vector, the package does not."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return stats.kendalltau(a, b).statistic, stats.spearmanr(a, b).statistic


def same_bits(x, y) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes()


class TestRanksMatchScipy:
    """Midranks, Spearman and Kendall tau-b against scipy.stats, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_midranks(self, data):
        x = data.draw(rank_vectors(data.draw(st.integers(1, 300))))
        ranks, had_ties = valuefn.gini_ranks(x)
        assert ranks.tobytes() == stats.rankdata(x, method="average").tobytes()
        assert had_ties == (len(np.unique(x)) < len(x))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_rank_correlations(self, data):
        n = data.draw(st.integers(2, 300))
        a, b = data.draw(rank_vectors(n)), data.draw(rank_vectors(n))
        out = study.rank_agreement(a, b)
        tau, rho = scipy_correlations(a, b)
        assert same_bits(out["kendall_tau"], tau)
        assert same_bits(out["spearman_rho"], rho)

    def test_ten_thousand_with_ties(self):
        rng = np.random.default_rng(7)
        a = rng.integers(-50, 50, 10_000).astype(float)
        b = np.round(a + 20 * rng.standard_normal(10_000))
        assert valuefn.gini_ranks(a)[0].tobytes() == stats.rankdata(a).tobytes()
        out = study.rank_agreement(a, b)
        tau, rho = scipy_correlations(a, b)
        assert same_bits(out["kendall_tau"], tau) and same_bits(out["spearman_rho"], rho)


class TestStackedRanks:
    """Ranks and Spearman's rho of a stack of rows, each row bit for bit as
    its own call and np.corrcoef give it."""

    @pytest.fixture(scope="class")
    def rows(self):
        rng = np.random.default_rng(4)
        a = rng.integers(-3, 4, (40, 57)).astype(float)
        a[::3] = rng.standard_normal((14, 57)) * 1e300
        a[5] = 2.0  # a constant row
        a[6, ::2] = -0.0  # -0.0 ties with 0.0
        b = np.round(a / 1e299 + rng.standard_normal(a.shape) * 2)
        b[7] = -1.5
        return a, b

    def test_midranks_row_by_row(self, rows):
        a, _ = rows
        ranks, ties = valuefn.gini_ranks(a)
        for row, r, t in zip(a, ranks, ties):
            one, one_ties = valuefn.gini_ranks(row)
            assert r.tobytes() == one.tobytes()
            assert t == one_ties and type(one_ties) is bool

    def test_spearman_as_corrcoef_per_row(self, rows):
        a, b = rows
        rho = valuefn._spearman_rho(a, b)
        for x, y, got in zip(a, b, rho):
            if (x == x[0]).all() or (y == y[0]).all():
                assert np.isnan(got)
                continue
            ranks = np.column_stack([valuefn._midranks(x)[0], valuefn._midranks(y)[0]])
            assert same_bits(got, np.corrcoef(ranks, rowvar=False)[1, 0])
            assert same_bits(got, valuefn._spearman_rho(x, y))

    def test_rows_past_exact_rank_sums_go_through_corrcoef(self, rows, monkeypatch):
        a, b = rows
        exact = valuefn._spearman_rho(a, b)
        monkeypatch.setattr(valuefn, "_EXACT_RANK_SUMS", 2)
        assert valuefn._spearman_rho(a, b).tobytes() == exact.tobytes()


class TestPermutationInvariance:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_invariant_kinds(self, seed):
        rng = np.random.default_rng(seed)
        z = np.abs(rng.standard_normal((rng.integers(2, 30), 3)))
        perm = rng.permutation(z.shape[0])
        for f in (valuefn.linear_mean(), valuefn.heat(), valuefn.variance(), valuefn.gini(),
                  valuefn.softplus_aggregator(np.ones_like(z))):
            assert f.evaluate(z[perm]) == pytest.approx(f.evaluate(z), rel=1e-12)


class TestGradient:
    def test_lin_constant(self):
        g = valuefn.linear_mean().gradient(np.ones((4, 3)))
        assert np.allclose(g, 0.25)

    def test_var_hand_value(self):
        # g = (0, 2), n = 2: entry for agent 2 is (2/2)(2-1) = 1
        g = valuefn.variance().gradient(np.array([[0.0], [2.0]]))
        assert g[1, 0] == pytest.approx(1.0)
        fd = fd_gradient(valuefn.variance(), np.array([[0.0], [2.0]]))
        assert np.allclose(g, fd, atol=1e-6)

    def test_quadratic_cross_hand_value(self):
        C = np.full((3, 3), 1 / 9.0)
        np.fill_diagonal(C, 0.0)
        f = valuefn.quadratic_cross(np.zeros((3, 1)), C)
        g = f.gradient([[1.0], [1.0], [2.0]])
        assert g[0, 0] == pytest.approx(1 / 3)

    @pytest.mark.parametrize("make", [
        valuefn.linear_mean,
        valuefn.heat,
        valuefn.variance,
        lambda: valuefn.additive(np.random.default_rng(5).standard_normal((12, 3))),
        lambda: valuefn.softplus_aggregator(np.random.default_rng(6).standard_normal((12, 3))),
    ])
    def test_matches_finite_differences(self, make, abs_gaussian):
        f = make()
        z = abs_gaussian(12, seed=9)
        assert np.abs(f.gradient(z) - fd_gradient(f, z)).max() < 1e-5

    def test_quadratic_cross_matches_fd(self, rng):
        n = 12
        C = rng.standard_normal((n, n))
        C = (C + C.T) / 2
        np.fill_diagonal(C, 0.0)
        f = valuefn.quadratic_cross(rng.standard_normal((n, 3)), C)
        z = np.abs(rng.standard_normal((n, 3)))
        assert np.abs(f.gradient(z) - fd_gradient(f, z)).max() < 1e-5

    def test_gini_matches_fd_away_from_ties(self, rng):
        f = valuefn.gini()
        z = rng.random((15, 3))  # ties have probability zero
        assert np.abs(f.gradient(z) - fd_gradient(f, z)).max() < 1e-5

    def test_custom_fd_fallback(self, abs_gaussian):
        ref = valuefn.heat()
        f = valuefn.custom(lambda z: ref.evaluate(z))
        z = abs_gaussian(8, seed=2)
        assert np.abs(f.gradient(z) - ref.gradient(z)).max() < 1e-6


class TestValidation:
    def test_asymmetric_coupling_rejected(self):
        C = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(AspanelError):
            valuefn.quadratic_cross(np.zeros((2, 1)), C)

    def test_nonzero_diagonal_rejected(self):
        C = np.eye(2)
        with pytest.raises(AspanelError):
            valuefn.quadratic_cross(np.zeros((2, 1)), C)

    def test_bad_kind_rejected(self):
        with pytest.raises(AspanelError):
            valuefn.ValueFunction("mystery")

    @pytest.mark.parametrize("shape", [(5, 0), (0, 3), (0,)])
    def test_features_without_agents_or_dims_rejected(self, shape):
        with pytest.raises(AspanelError, match="nonempty n x D"):
            valuefn.linear_mean().evaluate(np.ones(shape))


    def test_agent_param_rows_checked_against_features(self, rng):
        f = valuefn.additive(rng.random((3, 2)))
        with pytest.raises(AspanelError):
            f.gradient(rng.random((40, 3)))
        with pytest.raises(AspanelError):
            f.evaluate(rng.random((40, 3)))

    @pytest.mark.parametrize("name", [n for n, k in valuefn.KINDS.items() if k.agent_params])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_agent_params_rejected(self, name, bad, rng):
        f = build(name, 3, 2, rng)
        for param in valuefn.KINDS[name].agent_params:
            values = f.params[param].copy()
            values[0, 1] = bad
            with pytest.raises(AspanelError, match=f"{param}' contains non-finite"):
                valuefn.ValueFunction(name, {**f.params, param: values})

    @pytest.mark.parametrize("scale", [np.inf, np.nan, 0.0, -1.0])
    def test_softplus_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(AspanelError, match="scale"):
            valuefn.softplus_aggregator(np.ones((2, 2)), scale=scale)

    def test_by_name_missing_param_rejected(self):
        with pytest.raises(AspanelError):
            valuefn.by_name("additive")


class TestIdentity:
    def test_equality_and_hash_by_identity(self, rng):
        W = rng.random((4, 3))
        f = valuefn.additive(W)
        assert f == f
        assert f != valuefn.additive(W)
        assert len({f, valuefn.heat(), valuefn.heat()}) == 3
        assert {f: 1}[f] == 1


class TestEveryKind:
    """Driven by ``valuefn.KINDS``: a new kind is covered without edits here."""

    @pytest.mark.parametrize("name", [k for k, kind in valuefn.KINDS.items() if kind.closed_form])
    def test_closed_form_matches_midpoint(self, name, abs_gaussian, rng):
        f = build(name, 40, 3, rng)
        if f is None:
            pytest.skip(f"{name} needs a callback parameter")
        z = abs_gaussian(40, seed=50)
        ref = attribution.attribute_analytic(f, z)
        mid = attribution.attribute_path_integral(f, z, K=200)
        # the midpoint rule's error is O(1/K^2) relative to the attribution mass
        assert np.abs(mid.phi - ref.phi).sum() <= np.abs(ref.phi).sum() / 200**2
        assert mid.delta_v == pytest.approx(ref.delta_v, rel=1e-12)

    @pytest.mark.parametrize("name", [k for k, kind in valuefn.KINDS.items() if kind.coalition])
    def test_mask_values_match_scalar_path(self, name, abs_gaussian, rng, scalar_calls):
        f = build(name, 8, 3, rng)
        if f is None:
            pytest.skip(f"{name} needs a callback parameter")
        game = baselines.CoalitionGame(f, abs_gaussian(8, seed=51))
        masks = rng.random((30, 8)) < 0.5
        fast = game.mask_values(masks)
        assert scalar_calls == []
        slow = np.array([game.value(np.flatnonzero(row)) for row in masks])
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("name", list(valuefn.KINDS))
    def test_coalition_hooks_all_or_none(self, name):
        hooks = valuefn.KINDS[name].coalition
        assert hooks is None or (len(hooks) == 4 and all(map(callable, hooks)))

    @pytest.mark.parametrize("name", [k for k, kind in valuefn.KINDS.items() if kind.coalition])
    @pytest.mark.parametrize("n", [1, 40])
    def test_prefix_blocks_match_single_permutations(self, name, n, abs_gaussian, rng):
        # a block of permutations gives each row's prefix values as a call
        # on that permutation alone, bit for bit
        f = build(name, n, 3, rng)
        game = baselines.CoalitionGame(f, np.round(abs_gaussian(n, seed=53), 1))  # with ties
        perms = np.array([rng.permutation(n) for _ in range(25)])
        block = game.prefix_values(perms)
        assert block.shape == (25, n)
        stacked = np.array([game.prefix_values(perm) for perm in perms])
        assert block.tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("name", [k for k, kind in valuefn.KINDS.items() if kind.coalition])
    def test_paired_rows_independent(self, name, abs_gaussian, rng):
        # each row's paired values equal a one-row call bit for bit, so no
        # block size of sampled Banzhaf changes its result
        n = 40
        f = build(name, n, 3, rng)
        game = baselines.CoalitionGame(f, np.round(abs_gaussian(n, seed=52), 1))  # with ties
        masks = rng.random((25, n)) < 0.5
        with_, without = game.paired_values(masks)
        for j, row in enumerate(masks):
            one_with, one_without = game.paired_values(row[None])
            assert one_with.tobytes() == with_[j].tobytes()
            assert one_without.tobytes() == without[j].tobytes()

    @pytest.mark.parametrize("name", [k for k, kind in valuefn.KINDS.items() if kind.coalition])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_coalition_hooks_match_scalar_value(self, name, data):
        # whole numbers give ties in g; heat's log1p needs nonnegative means
        n, D = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 3))
        low = 0 if name == "heat" else -10
        entry = st.integers(low, 10).map(float) | st.floats(low, 10, allow_subnormal=False)
        z = data.draw(arrays(np.float64, (n, D), elements=entry))
        f = build(name, n, D, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
        game = baselines.CoalitionGame(f, z)
        drawn = data.draw(arrays(bool, (data.draw(st.integers(0, 6)), n)))
        masks = np.vstack([np.zeros(n, bool), drawn, np.ones(n, bool)])
        perm = np.array(data.draw(st.permutations(range(n))))
        slow_masks = [game.value(np.flatnonzero(row)) for row in masks]
        slow_prefix = [game.value(perm[:t]) for t in range(1, n + 1)]
        # relative to the largest coalition value, so near-zero values compare sanely
        tol = 1e-12 * (1.0 + max(map(abs, slow_masks + slow_prefix)))
        assert game.mask_values(masks) == pytest.approx(slow_masks, rel=1e-12, abs=tol)
        assert game.prefix_values(perm) == pytest.approx(slow_prefix, rel=1e-12, abs=tol)
        with_, without = game.paired_values(masks)
        agent = np.eye(n, dtype=bool)
        slow_with = [[game.value(np.flatnonzero(row | agent[i])) for i in range(n)]
                     for row in masks]
        slow_without = [[game.value(np.flatnonzero(row & ~agent[i])) for i in range(n)]
                        for row in masks]
        tol = 1e-12 * (1.0 + np.abs(slow_with).max() + np.abs(slow_without).max())
        assert with_ == pytest.approx(np.array(slow_with), rel=1e-12, abs=tol)
        assert without == pytest.approx(np.array(slow_without), rel=1e-12, abs=tol)

    @pytest.mark.parametrize("name", list(valuefn.KINDS))
    def test_cli_offers_every_kind_it_can_supply(self, name, tmp_path, capsys):
        required = set(valuefn.KINDS[name].required)
        panel_path = tmp_path / "p.asp"
        assert cli.main(["synth", "--n-agents", "12", "--seed", "4", "--out", str(panel_path),
                         "--out-dir", str(tmp_path)]) == 0
        argv = ["attribute", str(panel_path), "--f", name, "--out-dir", str(tmp_path),
                "--out", str(tmp_path / "a.csv")]
        if "weights" in required:
            weights = tmp_path / "w.csv"
            weights.write_text("1,0.5,2\n" * 12)
            argv += ["--weights", str(weights)]
        assert cli.main(argv) == (0 if required <= {"weights"} else 2)
