import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aspanel import attribution, baselines, cli, valuefn
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
        assert valuefn.evaluate(valuefn.linear_mean(), z) == pytest.approx(4 / 3)

    def test_heat_all_equal(self):
        for n in (2, 5, 17):
            z = np.ones((n, 3))
            assert valuefn.evaluate(valuefn.heat(), z) == pytest.approx(math.log(2))

    def test_gini_two_agents(self):
        # direct double loop: (1/(2*4)) * 2*|1-3| = 1/2
        z = np.array([[1.0], [3.0]])
        assert valuefn.evaluate(valuefn.gini(), z) == pytest.approx(0.5)

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

    def test_index_weighted_exempt(self, rng):
        W = rng.standard_normal((5, 3))
        assert not valuefn.additive(W).permutation_invariant


class TestGradient:
    def test_lin_constant(self):
        g = valuefn.gradient(valuefn.linear_mean(), np.ones((4, 3)))
        assert np.allclose(g, 0.25)

    def test_var_hand_value(self):
        # g = (0, 2), n = 2: entry for agent 2 is (2/2)(2-1) = 1
        g = valuefn.gradient(valuefn.variance(), np.array([[0.0], [2.0]]))
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


class TestHessianProbe:
    def test_lin_is_numerically_zero(self, abs_gaussian):
        probe = valuefn.hessian_offdiag_probe(valuefn.linear_mean(), abs_gaussian(6))
        assert probe <= 1e-6

    def test_quadratic_cross_matches_coupling(self):
        C = np.full((3, 3), 1 / 9.0)
        np.fill_diagonal(C, 0.0)
        f = valuefn.quadratic_cross(np.zeros((3, 1)), C)
        probe = valuefn.hessian_offdiag_probe(f, [[1.0], [1.0], [2.0]], n_pairs=16)
        assert probe == pytest.approx(1 / 9, rel=1e-4)

    def test_heat_clearly_nonlinear(self):
        z = np.ones((5, 3))
        probe = valuefn.hessian_offdiag_probe(valuefn.heat(), z, n_pairs=32)
        # analytic mixed partial of log(1 + m_a m_b m_c) at all-ones is O(1/n^2)
        assert probe > 1e-4

    def test_additive_is_separable(self, rng):
        f = valuefn.additive(rng.standard_normal((6, 3)))
        assert valuefn.hessian_offdiag_probe(f, np.abs(rng.standard_normal((6, 3)))) <= 1e-6


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


    def test_agent_param_rows_checked_against_features(self, rng):
        f = valuefn.additive(rng.random((3, 2)))
        with pytest.raises(AspanelError):
            f.gradient(rng.random((40, 3)))
        with pytest.raises(AspanelError):
            f.evaluate(rng.random((40, 3)))

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

    @pytest.mark.parametrize("name", [k for k, kind in valuefn.KINDS.items() if kind.mask_values])
    def test_mask_values_match_scalar_path(self, name, abs_gaussian, rng):
        f = build(name, 8, 3, rng)
        if f is None:
            pytest.skip(f"{name} needs a callback parameter")
        game = baselines.CoalitionGame(f, abs_gaussian(8, seed=51))
        assert game._fast
        masks = rng.random((30, 8)) < 0.5
        slow = np.array([game.value(np.flatnonzero(row)) for row in masks])
        assert game.mask_values(masks) == pytest.approx(slow, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("name", [k for k, kind in valuefn.KINDS.items() if kind.mask_values])
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
        prefix = f.prefix_values(f.agent_stats(z), perm)
        assert prefix == pytest.approx(slow_prefix, rel=1e-12, abs=tol)

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
