from itertools import combinations
from math import factorial

import numpy as np
import pytest

from aspanel import attribution, baselines, valuefn
from aspanel.baselines import CoalitionGame
from aspanel.errors import AspanelError, InfeasibleError


def brute_shapley(game):
    """Direct definition over all coalitions; independent of the library path."""
    n = game.n
    phi = np.zeros(n)
    agents = list(range(n))
    for i in agents:
        rest = [j for j in agents if j != i]
        for s in range(n):
            w = factorial(s) * factorial(n - s - 1) / factorial(n)
            for C in combinations(rest, s):
                phi[i] += w * (game.value(list(C) + [i]) - game.value(C))
    return phi


def brute_banzhaf(game):
    n = game.n
    phi = np.zeros(n)
    for i in range(n):
        rest = [j for j in range(n) if j != i]
        total = 0.0
        for s in range(n):
            for C in combinations(rest, s):
                total += game.value(list(C) + [i]) - game.value(C)
        phi[i] = total / 2 ** (n - 1)
    return phi


def pairwise_game(n, semantics="pin"):
    C = np.full((n, n), 1.0 / n**2)
    np.fill_diagonal(C, 0.0)
    f = valuefn.quadratic_cross(np.zeros((n, 1)), C)
    z = np.arange(1.0, n + 1.0)[:, None]
    return CoalitionGame(f, z, semantics=semantics)


class TestGameValues:
    def test_empty_is_zero(self, abs_gaussian):
        for sem in ("restrict", "pin"):
            game = CoalitionGame(valuefn.variance(), abs_gaussian(5), semantics=sem)
            assert game.value([]) == 0.0

    def test_grand_coalition(self, abs_gaussian):
        z = abs_gaussian(5)
        game = CoalitionGame(valuefn.heat(), z, semantics="restrict")
        assert game.value(range(5)) == pytest.approx(game.grand_value())

    def test_restrict_uses_coalition_size(self, abs_gaussian):
        z = abs_gaussian(6)
        game = CoalitionGame(valuefn.linear_mean(), z)
        C = [1, 4]
        assert game.value(C) == pytest.approx(z[C].sum(axis=1).mean())

    def test_pin_keeps_population(self):
        # pin semantics: outsiders at zero still count toward the mean
        z = np.array([[2.0], [4.0], [6.0]])
        game = CoalitionGame(valuefn.linear_mean(), z, semantics="pin")
        assert game.value([1]) == pytest.approx(4.0 / 3.0)

    def test_restrict_slices_weights(self, rng):
        W = rng.standard_normal((4, 2))
        z = np.abs(rng.standard_normal((4, 2)))
        game = CoalitionGame(valuefn.additive(W), z)
        assert game.value([0, 2]) == pytest.approx(np.sum(W[[0, 2]] * z[[0, 2]]))

    @pytest.mark.parametrize("semantics", ["restrict", "pin"])
    def test_baseline_that_does_not_fit_rejected(self, semantics):
        with pytest.raises(AspanelError, match="does not fit 4 agents x 3 dims"):
            CoalitionGame(valuefn.linear_mean(), np.ones((4, 3)), semantics=semantics,
                          baseline=np.ones((2, 3)))

    def test_bad_semantics(self):
        with pytest.raises(AspanelError):
            CoalitionGame(valuefn.heat(), np.ones((2, 3)), semantics="glue")

    @pytest.mark.parametrize("make,fast", [
        (valuefn.linear_mean, True),
        (valuefn.heat, True),
        (valuefn.variance, True),
        (valuefn.gini, True),
    ])
    def test_mask_values_agree_with_scalar_path(self, make, fast, abs_gaussian, rng):
        z = abs_gaussian(8, seed=30)
        game = CoalitionGame(make(), z)
        assert game._fast is fast
        masks = rng.random((20, 8)) < 0.5
        vals = game.mask_values(masks)
        slow = np.array([game.value(np.flatnonzero(r)) for r in masks])
        assert vals == pytest.approx(slow, abs=1e-12)

    def test_gini_restrict_game_makes_no_scalar_calls(self, abs_gaussian, monkeypatch):
        calls = []
        scalar = CoalitionGame.value
        monkeypatch.setattr(CoalitionGame, "value", lambda game, c: calls.append(c) or scalar(game, c))
        game = CoalitionGame(valuefn.gini(), abs_gaussian(6, seed=32))
        baselines.exact_shapley(game)
        baselines.exact_banzhaf(game)
        baselines.sampled_shapley(game, 5, seed=1)
        baselines.sampled_banzhaf(game, 5, seed=1)
        baselines.leave_one_out(game)
        assert calls == []
        game.value([0, 1])  # the patch does count scalar calls
        assert len(calls) == 1

    def test_restrict_game_ignores_a_nonzero_baseline(self, abs_gaussian, monkeypatch):
        # restrict semantics never read the baseline, so the hooks still serve it
        z = abs_gaussian(6, seed=33)
        zero = baselines.exact_shapley(CoalitionGame(valuefn.gini(), z))
        calls = []
        scalar = CoalitionGame.value
        monkeypatch.setattr(CoalitionGame, "value", lambda game, c: calls.append(c) or scalar(game, c))
        game = CoalitionGame(valuefn.gini(), z, baseline=np.ones(3))
        assert np.array_equal(baselines.exact_shapley(game), zero)
        assert calls == []

    @pytest.mark.parametrize("block", [1, 120, 1 << 16])
    def test_gini_prefix_blocks_match_scalar_path(self, block, rng, monkeypatch):
        # at n = 50: one row per block, two rows per block, one block
        monkeypatch.setattr(valuefn, "GINI_PREFIX_BLOCK", block)
        z = np.round(rng.standard_normal((50, 2)), 1)  # signed, with ties
        game = CoalitionGame(valuefn.gini(), z)
        perm = rng.permutation(50)
        slow = [game.value(perm[:t]) for t in range(1, 51)]
        assert game.f.prefix_values(game.f.agent_stats(z), perm) == pytest.approx(slow, rel=1e-12)

    def test_mask_values_fast_softplus(self, abs_gaussian, rng):
        z = abs_gaussian(8, seed=31)
        W = np.abs(rng.standard_normal((8, 3)))
        game = CoalitionGame(valuefn.softplus_aggregator(W), z)
        assert game._fast
        masks = rng.random((20, 8)) < 0.5
        slow = np.array([game.value(np.flatnonzero(r)) for r in masks])
        assert game.mask_values(masks) == pytest.approx(slow, abs=1e-12)


class TestLeaveOneOut:
    def test_hand_value(self):
        z = np.array([[2.0], [4.0]])
        game = CoalitionGame(valuefn.linear_mean(), z)
        # v(full)=3, v without agent 0 = 4, without agent 1 = 2
        assert baselines.leave_one_out(game) == pytest.approx([-1.0, 1.0])

    def test_not_efficient_in_general(self, abs_gaussian):
        game = CoalitionGame(valuefn.variance(), abs_gaussian(7))
        loo = baselines.leave_one_out(game)
        assert abs(loo.sum() - game.grand_value()) > 1e-6

    def test_needs_two_agents(self):
        with pytest.raises(AspanelError):
            baselines.leave_one_out(CoalitionGame(valuefn.linear_mean(), [[1.0]]))


class TestExact:
    @pytest.mark.parametrize("make,sem", [
        (valuefn.variance, "restrict"),
        (valuefn.heat, "restrict"),
        (valuefn.gini, "restrict"),
        (valuefn.heat, "pin"),
    ])
    def test_shapley_matches_brute_force(self, make, sem, abs_gaussian):
        game = CoalitionGame(make(), abs_gaussian(5, seed=33), semantics=sem)
        assert baselines.exact_shapley(game) == pytest.approx(brute_shapley(game), abs=1e-12)

    def test_banzhaf_matches_brute_force(self, abs_gaussian):
        game = CoalitionGame(valuefn.variance(), abs_gaussian(5, seed=34))
        assert baselines.exact_banzhaf(game) == pytest.approx(brute_banzhaf(game), abs=1e-12)

    def test_shapley_efficient(self, abs_gaussian):
        game = CoalitionGame(valuefn.gini(), abs_gaussian(6, seed=35))
        assert baselines.exact_shapley(game).sum() == pytest.approx(game.grand_value(), abs=1e-10)

    def test_banzhaf_n3_quadratic_hand_enumeration(self):
        # each agent averages marginals over the 4 coalitions of the others
        game = pairwise_game(3, semantics="pin")
        phi = baselines.exact_banzhaf(game)
        v = game.value
        expect = np.empty(3)
        for i in range(3):
            others = [j for j in range(3) if j != i]
            marg = [
                v([i]) - v([]),
                v([i, others[0]]) - v([others[0]]),
                v([i, others[1]]) - v([others[1]]),
                v([0, 1, 2]) - v(others),
            ]
            expect[i] = np.mean(marg)
        assert phi == pytest.approx(expect, abs=1e-14)

    def test_banzhaf_not_efficient_in_general(self, abs_gaussian):
        # degree-2 games happen to balance; the saturating kind does not
        game = CoalitionGame(valuefn.heat(), abs_gaussian(6, seed=44))
        phi = baselines.exact_banzhaf(game)
        assert abs(phi.sum() - game.grand_value()) > 1e-6

    def test_guard(self):
        game = CoalitionGame(valuefn.linear_mean(), np.ones((21, 1)))
        with pytest.raises(InfeasibleError):
            baselines.exact_shapley(game)
        with pytest.raises(InfeasibleError):
            baselines.exact_banzhaf(game)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_pinned_shapley_equals_path_integral_on_quadratic(self, n):
        # degree-2 homogeneous game: Shapley with pinned outsiders equals the
        # path-integral attribution exactly
        game = pairwise_game(n, semantics="pin")
        phi_shap = baselines.exact_shapley(game)
        phi_as = attribution.attribute_path_integral(
            game.f, game.features, K=400
        ).phi
        assert np.abs(phi_shap - phi_as).max() < 1e-10


class TestSampled:
    def test_shapley_exactly_efficient_any_m(self, abs_gaussian):
        game = CoalitionGame(valuefn.variance(), abs_gaussian(9, seed=36))
        for m in (1, 7):
            est = baselines.sampled_shapley(game, m, seed=5)
            assert est.values.sum() == pytest.approx(game.grand_value(), abs=1e-10)

    def test_shapley_converges_to_exact(self, abs_gaussian):
        game = CoalitionGame(valuefn.variance(), abs_gaussian(8, seed=37))
        exact = baselines.exact_shapley(game)
        est = baselines.sampled_shapley(game, 2000, seed=1)
        band = 3.0 * np.where(est.stderr > 0, est.stderr, 1e-12)
        assert np.all(np.abs(est.values - exact) <= band + 1e-9)

    def test_shapley_deterministic_given_seed(self, abs_gaussian):
        game = CoalitionGame(valuefn.heat(), abs_gaussian(10, seed=38))
        a = baselines.sampled_shapley(game, 50, seed=3)
        b = baselines.sampled_shapley(game, 50, seed=3)
        assert np.array_equal(a.values, b.values)

    def test_shapley_fast_path_matches_slow(self, abs_gaussian):
        z = abs_gaussian(10, seed=39)
        for f in (valuefn.variance(), valuefn.gini()):
            fast = baselines.sampled_shapley(CoalitionGame(f, z), 40, seed=9)
            # a custom kind has no coalition hooks, so wrapping f as custom
            # forces the scalar path with identical values
            slow = baselines.sampled_shapley(CoalitionGame(valuefn.custom(f.evaluate), z), 40, seed=9)
            assert fast.values == pytest.approx(slow.values, abs=1e-12)

    def test_banzhaf_converges_to_exact(self, abs_gaussian):
        game = CoalitionGame(valuefn.variance(), abs_gaussian(8, seed=40))
        exact = baselines.exact_banzhaf(game)
        est = baselines.sampled_banzhaf(game, 20000, seed=2)
        band = 3.0 * np.where(est.stderr > 0, est.stderr, 1e-12)
        assert np.all(np.abs(est.values - exact) <= band + 1e-9)

    def test_banzhaf_exact_on_additive_any_m(self, rng):
        W = rng.standard_normal((6, 2))
        z = np.abs(rng.standard_normal((6, 2)))
        game = CoalitionGame(valuefn.additive(W), z)
        est = baselines.sampled_banzhaf(game, 3, seed=8)
        assert est.values == pytest.approx((W * z).sum(axis=1), abs=1e-12)

    def test_sample_count_validated(self, abs_gaussian):
        game = CoalitionGame(valuefn.heat(), abs_gaussian(4))
        with pytest.raises(AspanelError):
            baselines.sampled_shapley(game, 0)
        with pytest.raises(AspanelError):
            baselines.sampled_banzhaf(game, 0)


class TestAdditiveGroundTruth:
    def test_all_methods_recover_weights(self, rng):
        # additive game: every semivalue equals the per-agent weighted sum
        n, d = 10, 5
        W = rng.standard_normal((n, d))
        z = np.abs(rng.standard_normal((n, d)))
        truth = (W * z).sum(axis=1)
        game = CoalitionGame(valuefn.additive(W), z)
        assert baselines.leave_one_out(game) == pytest.approx(truth, abs=1e-10)
        assert baselines.exact_shapley(game) == pytest.approx(truth, abs=1e-10)
        assert baselines.exact_banzhaf(game) == pytest.approx(truth, abs=1e-10)
        assert baselines.sampled_shapley(game, 200, seed=0).values == pytest.approx(
            truth, abs=1e-10
        )
