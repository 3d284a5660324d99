import tracemalloc
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


def shapley_by_permutation(game, m, seed):
    """sampled_shapley with one prefix_values call per permutation, as the
    estimator was before it took a block of permutations per call."""
    n, D = game.features.shape
    rows = max(1, baselines.SAMPLE_BLOCK // (n * D))

    def blocks():
        for lo in range(0, m, rows):
            block = np.empty((min(rows, m - lo), n))
            for j, contrib in enumerate(block, lo):
                perm = np.random.default_rng((seed, j)).permutation(n)
                contrib[perm] = np.diff(np.concatenate(([0.0], game.prefix_values(perm))))
            yield block

    return baselines._mean_stderr(blocks(), m)


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
    def test_mask_values_agree_with_scalar_path(self, make, fast, abs_gaussian, rng,
                                                scalar_calls):
        z = abs_gaussian(8, seed=30)
        game = CoalitionGame(make(), z)
        masks = rng.random((20, 8)) < 0.5
        vals = game.mask_values(masks)
        assert (scalar_calls == []) is fast
        slow = np.array([game.value(np.flatnonzero(r)) for r in masks])
        assert vals == pytest.approx(slow, abs=1e-12)

    def test_gini_restrict_game_makes_no_scalar_calls(self, abs_gaussian, scalar_calls):
        game = CoalitionGame(valuefn.gini(), abs_gaussian(6, seed=32))
        baselines.exact_shapley(game)
        baselines.exact_banzhaf(game)
        baselines.sampled_shapley(game, 5, seed=1)
        baselines.sampled_banzhaf(game, 5, seed=1)
        baselines.leave_one_out(game)
        assert scalar_calls == []
        game.value([0, 1])  # the patch does count scalar calls
        assert len(scalar_calls) == 1

    def test_restrict_game_ignores_a_nonzero_baseline(self, abs_gaussian, scalar_calls):
        # restrict semantics never read the baseline, so the hooks still serve it
        z = abs_gaussian(6, seed=33)
        zero = baselines.exact_shapley(CoalitionGame(valuefn.gini(), z))
        game = CoalitionGame(valuefn.gini(), z, baseline=np.ones(3))
        assert np.array_equal(baselines.exact_shapley(game), zero)
        assert scalar_calls == []

    @pytest.mark.parametrize("block", [1, 120, 1 << 16])
    def test_gini_prefix_blocks_match_scalar_path(self, block, rng, monkeypatch, scalar_calls):
        # at n = 50: one row per block, two rows per block, one block
        monkeypatch.setattr(valuefn, "GINI_PREFIX_BLOCK", block)
        z = np.round(rng.standard_normal((50, 2)), 1)  # signed, with ties
        game = CoalitionGame(valuefn.gini(), z)
        perm = rng.permutation(50)
        fast = game.prefix_values(perm)
        assert scalar_calls == []
        slow = [game.value(perm[:t]) for t in range(1, 51)]
        assert fast == pytest.approx(slow, rel=1e-12)

    def test_mask_values_fast_softplus(self, abs_gaussian, rng, scalar_calls):
        z = abs_gaussian(8, seed=31)
        W = np.abs(rng.standard_normal((8, 3)))
        game = CoalitionGame(valuefn.softplus_aggregator(W), z)
        masks = rng.random((20, 8)) < 0.5
        fast = game.mask_values(masks)
        assert scalar_calls == []
        slow = np.array([game.value(np.flatnonzero(r)) for r in masks])
        assert fast == pytest.approx(slow, abs=1e-12)


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

    def test_coalition_matrix_at_one_byte_per_cell(self):
        n = 16
        tracemalloc.start()
        try:
            bits = baselines._all_coalitions(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bits.dtype == bool and bits.shape == (1 << n, n)
        assert np.array_equal(np.flatnonzero(bits[0b1011000000000101]), [0, 2, 12, 13, 15])
        # the matrix, 1 MB, and the 4-byte codes it is unpacked from
        assert peak <= 1.5 * bits.nbytes

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

    def test_shapley_stderr_on_an_additive_game(self):
        # every marginal is the agent's own term, so the samples differ only by
        # the rounding of 1e8-sized prefix sums; a naive second moment of
        # contributions near 1e8 reads up to ~0.35 here
        z = 1e8 + np.random.default_rng(1).uniform(0, 7, (5, 1))
        game = CoalitionGame(valuefn.additive(np.ones((5, 1))), z)
        est = baselines.sampled_shapley(game, 100, seed=1)
        assert np.all(est.stderr <= 1e-6)

    def test_shapley_stderr_matches_two_pass(self, abs_gaussian):
        n, m = 9, 30
        game = CoalitionGame(valuefn.variance(), abs_gaussian(n, seed=45))
        contrib = np.empty((m, n))
        for j, row in enumerate(contrib):
            perm = np.random.default_rng((4, j)).permutation(n)
            row[perm] = np.diff([game.value(perm[:t]) for t in range(n + 1)])
        est = baselines.sampled_shapley(game, m, seed=4)
        assert est.values == pytest.approx(contrib.mean(axis=0), rel=1e-12)
        assert est.stderr == pytest.approx(contrib.std(axis=0, ddof=1) / np.sqrt(m), rel=1e-12)

    def test_shapley_one_sample_has_nan_stderr(self, abs_gaussian):
        est = baselines.sampled_shapley(CoalitionGame(valuefn.heat(), abs_gaussian(5)), 1, seed=0)
        assert np.all(np.isfinite(est.values)) and np.all(np.isnan(est.stderr))

    @pytest.mark.parametrize("make", [valuefn.heat, valuefn.gini])
    def test_shapley_independent_of_block_size(self, make, abs_gaussian, monkeypatch):
        # at n = 9, D = 3: one row per block, 7 rows per block, one block
        game = CoalitionGame(make(), abs_gaussian(9, seed=46))
        results = []
        for block in (1, 200, 1 << 30):
            monkeypatch.setattr(baselines, "SAMPLE_BLOCK", block)
            results.append(baselines.sampled_shapley(game, 50, seed=8))
        for r in results[1:]:
            assert r.values.tobytes() == results[0].values.tobytes()
            assert r.stderr.tobytes() == results[0].stderr.tobytes()

    @pytest.mark.parametrize("kind", ["lin", "heat", "var", "gini", "additive", "softplus",
                                      "custom", "heat-pin"])
    @pytest.mark.parametrize("n", [1, 12])
    @pytest.mark.parametrize("blocks", [0, 1, 2.5])
    def test_shapley_blocks_match_one_call_per_permutation(self, kind, n, blocks, rng,
                                                          monkeypatch):
        # one sample, exactly one block and about two and a half blocks, at
        # 20 permutations a block for 12 agents x 3 dims
        monkeypatch.setattr(baselines, "SAMPLE_BLOCK", 20 * 12 * 3)
        z = np.round(np.abs(rng.standard_normal((n, 3))), 1)  # with ties
        W = rng.standard_normal((n, 3))
        f = {"additive": valuefn.additive(W), "softplus": valuefn.softplus_aggregator(W),
             "custom": valuefn.custom(valuefn.heat().evaluate)}.get(kind)
        game = CoalitionGame(f or valuefn.by_name(kind.split("-")[0]), z,
                             semantics="pin" if kind.endswith("-pin") else "restrict")
        rows = max(1, baselines.SAMPLE_BLOCK // (n * 3))
        m = max(1, int(blocks * rows))
        est = baselines.sampled_shapley(game, m, seed=12)
        values, stderr = shapley_by_permutation(game, m, seed=12)
        assert est.values.tobytes() == values.tobytes()
        assert est.stderr.tobytes() == stderr.tobytes()

    @pytest.mark.parametrize("kind", ["lin", "heat", "gini"])
    def test_shapley_blocks_match_at_the_default_block(self, kind, abs_gaussian):
        # 100 agents x 3 dims: 218 permutations a block, 545 in two and a half
        game = CoalitionGame(valuefn.by_name(kind), np.round(abs_gaussian(100, seed=47), 1))
        est = baselines.sampled_shapley(game, 545, seed=13)
        values, stderr = shapley_by_permutation(game, 545, seed=13)
        assert est.values.tobytes() == values.tobytes()
        assert est.stderr.tobytes() == stderr.tobytes()

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

    @pytest.mark.parametrize("kind", ["lin", "heat", "var", "additive", "softplus"])
    def test_banzhaf_hook_matches_unhooked_path(self, kind, abs_gaussian, rng, scalar_calls):
        z = abs_gaussian(12, seed=41)
        params = {"weights": rng.standard_normal((12, 3))} if kind in ("additive", "softplus") else {}
        f = valuefn.by_name(kind, **params)
        game = CoalitionGame(f, z)
        fast = baselines.sampled_banzhaf(game, 30, seed=6)
        assert scalar_calls == []
        # custom has no hooks.  A weighted kind's weights fit only the whole
        # population, so its wrapper plays under pin semantics: outsiders
        # pinned at zero add nothing to the weighted sum, as under restrict
        sem = "pin" if params else "restrict"
        slow_game = CoalitionGame(valuefn.custom(f.evaluate), z, semantics=sem)
        slow = baselines.sampled_banzhaf(slow_game, 30, seed=6)
        assert fast.values == pytest.approx(slow.values, abs=1e-12)
        assert fast.stderr == pytest.approx(slow.stderr, abs=1e-12)

    def test_banzhaf_gini_matches_custom_wrapper(self, abs_gaussian, scalar_calls):
        # the custom wrapper evaluates each coalition with and without each agent
        z = np.round(abs_gaussian(10, seed=42), 1)  # with ties
        fast = baselines.sampled_banzhaf(CoalitionGame(valuefn.gini(), z), 40, seed=7)
        assert scalar_calls == []
        slow = baselines.sampled_banzhaf(
            CoalitionGame(valuefn.custom(valuefn.gini().evaluate), z), 40, seed=7)
        assert fast.values == pytest.approx(slow.values, abs=1e-12)
        assert fast.stderr == pytest.approx(slow.stderr, abs=1e-12)

    @pytest.mark.parametrize("make", [valuefn.heat, valuefn.gini])
    def test_banzhaf_independent_of_block_size(self, make, abs_gaussian, monkeypatch):
        # at n = 9, D = 3: one row per block, 7 rows per block, one block
        game = CoalitionGame(make(), abs_gaussian(9, seed=43))
        results = []
        for block in (1, 200, 1 << 30):
            monkeypatch.setattr(baselines, "SAMPLE_BLOCK", block)
            results.append(baselines.sampled_banzhaf(game, 50, seed=8))
        for r in results[1:]:
            assert r.values.tobytes() == results[0].values.tobytes()
            assert r.stderr.tobytes() == results[0].stderr.tobytes()

    def test_banzhaf_one_sample_has_nan_stderr(self, abs_gaussian):
        est = baselines.sampled_banzhaf(CoalitionGame(valuefn.heat(), abs_gaussian(5)), 1, seed=0)
        assert np.all(np.isfinite(est.values)) and np.all(np.isnan(est.stderr))

    def test_banzhaf_memory_stays_near_the_mask(self, abs_gaussian):
        # one shared (m, n) boolean draw, 2 MB here, and block temporaries of
        # SAMPLE_BLOCK cells; a float64 (m, n) array would add 16 MB
        n, m = 2000, 1000
        game = CoalitionGame(valuefn.heat(), abs_gaussian(n, seed=44))
        baselines.sampled_banzhaf(game, 2, seed=1)  # warm up
        tracemalloc.start()
        try:
            baselines.sampled_banzhaf(game, m, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= m * n + 8 * 8 * baselines.SAMPLE_BLOCK

    @pytest.mark.parametrize("estimator", [baselines.sampled_shapley, baselines.sampled_banzhaf])
    def test_zero_feature_dims_rejected(self, estimator):
        # n x 0 features once reached the block size's division by n * D
        with pytest.raises(AspanelError, match=r"got shape \(5, 0\)"):
            estimator(CoalitionGame(valuefn.heat(), np.ones((5, 0))), 3, seed=0)

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


class TestFloat64Limit:
    # 4 agents x 2 dims of 1e308: the row sums overflow, as in attribute's test
    @pytest.mark.parametrize("semantics", ["restrict", "pin"])
    @pytest.mark.parametrize("estimator", [
        baselines.leave_one_out,
        baselines.exact_shapley,
        baselines.exact_banzhaf,
        lambda game: baselines.sampled_shapley(game, 3, seed=0),
        lambda game: baselines.sampled_banzhaf(game, 3, seed=0),
    ], ids=["leave_one_out", "exact_shapley", "exact_banzhaf", "sampled_shapley",
            "sampled_banzhaf"])
    def test_overflow_raises_instead_of_nan(self, estimator, semantics):
        with pytest.warns(RuntimeWarning):  # overflow, then invalid values
            game = CoalitionGame(valuefn.variance(), np.full((4, 2), 1e308), semantics)
            with pytest.raises(AspanelError, match="not finite"):
                estimator(game)
