import numpy as np
import pytest

from aspanel import attribution, cli, panel, study, valuefn
from aspanel.errors import AspanelError, DegenerateChangeError
from aspanel.panel import FeaturePanel, SyntheticPanelSpec, generate_synthetic, make_tier_partition


@pytest.fixture(scope="module")
def pareto_feats():
    spec = SyntheticPanelSpec(5000, feature_law="pareto_reach", pareto_alpha=1.5, seed=7)
    return generate_synthetic(spec).collapse()


class TestSampling:
    def test_random_deterministic(self, pareto_feats):
        a = study.sample_subset(pareto_feats, "random", 100, seed=4)
        b = study.sample_subset(pareto_feats, "random", 100, seed=4)
        assert np.array_equal(a.indices, b.indices)
        assert not np.array_equal(a.indices, study.sample_subset(pareto_feats, "random", 100, seed=5).indices)

    def test_sizes_and_uniqueness(self, pareto_feats):
        for proto in study.PROTOCOLS:
            sub = study.sample_subset(pareto_feats, proto, 100, seed=0)
            assert len(sub.indices) == 100
            assert len(np.unique(sub.indices)) == 100

    def test_visibility_bias_draws_from_top_pool(self, pareto_feats):
        sub = study.sample_subset(pareto_feats, "bias_visibility", 100, seed=0)
        # pool is the top 5 percent by combined reach+engagement z-score
        z = pareto_feats
        eng = np.expm1(z[:, 1]) + np.expm1(z[:, 2])

        def zs(x):
            return (x - x.mean()) / x.std()

        score = zs(z[:, 0]) + zs(np.log1p(eng))
        pool = set(np.argsort(-score, kind="stable")[: int(np.ceil(0.05 * len(z)))])
        assert set(sub.indices.tolist()) <= pool

    def test_topic_top_pool(self, pareto_feats):
        sub = study.sample_subset(pareto_feats, "bias_topic_top", 50, seed=1, pool_size=200)
        pool = set(np.argsort(-pareto_feats[:, 1], kind="stable")[:200])
        assert set(sub.indices.tolist()) <= pool

    def test_pool_plus_complement_at_large_n(self):
        z = np.abs(np.random.default_rng(0).standard_normal((40, 3)))
        sub = study.sample_subset(z, "bias_topic_top", 40, seed=0, pool_size=10)
        assert len(sub.indices) == 40  # collapses to the full panel

    def test_oversize_rejected(self, pareto_feats):
        with pytest.raises(AspanelError):
            study.sample_subset(pareto_feats, "random", len(pareto_feats) + 1, seed=0)

    def test_unknown_protocol(self, pareto_feats):
        with pytest.raises(AspanelError):
            study.sample_subset(pareto_feats, "bias_mood", 10, seed=0)


def reference_subset(z, protocol, n, seed, pool_fraction, pool_size):
    """The four sampling protocols from their definitions: score, stable
    argsort, pool; draw n from the pool, or take it plus a complement."""
    N = len(z)
    rng = np.random.default_rng(seed)
    if protocol == "random":
        return np.sort(rng.choice(N, size=n, replace=False))

    def zs(x):
        return (x - x.mean()) / x.std() if x.std() > 0 else np.zeros_like(x)

    a, b, c = z[:, 0], z[:, 1], z[:, 2]
    if protocol == "bias_visibility":
        score = zs(a) + zs(np.log1p(np.expm1(b) + np.expm1(c)))
        psize = max(1, int(np.ceil(pool_fraction * N)))
    elif protocol == "bias_topic_x_follow":
        score, psize = np.log1p(b + c) * a, min(pool_size, N)
    else:
        score, psize = b, min(pool_size, N)
    order = np.argsort(-score, kind="stable")
    if n < psize:
        return np.sort(rng.choice(order[:psize], size=n, replace=False))
    extra = rng.choice(order[psize:], size=n - psize, replace=False)
    return np.sort(np.concatenate([order[:psize], extra]))


class TestSamplerAgainstReference:
    # 600 agents with ties in every score: pool 30 by fraction, 30 by size
    @pytest.fixture(scope="class")
    def tied_feats(self):
        return np.log1p(np.random.default_rng(11).integers(0, 4, (600, 3)).astype(float))

    @pytest.mark.parametrize("protocol", study.PROTOCOLS)
    @pytest.mark.parametrize("n", [10, 29, 30, 31, 200, 600])
    def test_draw_matches_reference(self, tied_feats, protocol, n):
        for seed in range(3):
            sub = study.sample_subset(tied_feats, protocol, n, seed,
                                      pool_fraction=0.05, pool_size=30)
            ref = reference_subset(tied_feats, protocol, n, seed, 0.05, 30)
            assert np.array_equal(sub.indices, ref)
            assert (sub.protocol, sub.n, sub.seed) == (protocol, n, seed)

    def test_sampler_reuses_its_pool_across_draws(self, tied_feats):
        sampler = study.SubsetSampler(tied_feats, "bias_topic_x_follow", 0.05, 30)
        for n, seed in [(10, 0), (200, 0), (10, 1), (30, 2)]:
            sub = sampler.draw(n, seed)
            assert np.array_equal(sub.indices, reference_subset(
                tied_feats, "bias_topic_x_follow", n, seed, 0.05, 30))
            assert sub.pool_param == 30.0

    def test_flip_study_shares_equal_per_seed_subsets(self, tied_feats):
        f = valuefn.variance()
        part = make_tier_partition(tied_feats[:, 0])
        seeds = range(4)
        rep = study.flip_study(tied_feats, f, part, study.PROTOCOLS, (20, 40), seeds,
                               pool_fraction=0.05, pool_size=30)
        rows = iter(rep.rows)
        for protocol in study.PROTOCOLS:
            for n in (20, 40):
                expect = []
                for seed in seeds:
                    sub = study.sample_subset(tied_feats, protocol, n, seed, 0.05, 30)
                    res = attribution.normalize(study.subset_attribution(f, tied_feats, sub))
                    expect.append(attribution.tier_shares(res, part, subset_indices=sub.indices))
                row = next(rows)
                assert (row["protocol"], row["n"], row["n_degenerate"]) == (protocol, n, 0)
                assert np.array_equal(row["per_seed_shares"], np.array(expect))


class TestFlipStudy:
    def test_shares_rows_and_csv(self, pareto_feats, tmp_path):
        part = make_tier_partition(pareto_feats[:, 0])
        rep = study.flip_study(
            pareto_feats, valuefn.variance(), part,
            protocols=("bias_visibility", "random"), sizes=(100,), seeds=range(3),
        )
        assert rep.full_shares.sum() == pytest.approx(1.0, abs=1e-10)
        assert len(rep.rows) == 2
        for row in rep.rows:
            assert row["n_seeds"] + row["n_degenerate"] == 3
            assert row["mean_shares"].sum() == pytest.approx(1.0, abs=1e-10)
        path = tmp_path / "flip.csv"
        rep.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0].startswith("protocol,n,n_seeds,n_degenerate,share_top")
        assert len(lines) == 4  # header + full row + two protocol rows

    def test_cli_flip_ranks_each_pool_once(self, tmp_path, monkeypatch):
        built = []

        class CountingSampler(study.SubsetSampler):
            def __init__(self, *args):
                built.append(args[1])
                super().__init__(*args)

        monkeypatch.setattr(study, "SubsetSampler", CountingSampler)
        cfg = tmp_path / "flip.cfg"
        cfg.write_text(f"mode = flip\nn_agents = 400\nf = var gini heat\nsizes = 20 50\n"
                       f"seeds = 0 1\nprotocols = {' '.join(study.PROTOCOLS)}\n")
        assert cli.main(["study", str(cfg), "--out-dir", str(tmp_path)]) == 0
        assert sorted(built) == sorted(study.PROTOCOLS)

    def test_given_samplers_match_built_ones(self, pareto_feats):
        part = make_tier_partition(pareto_feats[:, 0])
        args = (pareto_feats, valuefn.gini(), part, study.PROTOCOLS, (30, 300), range(3))
        samplers = {p: study.SubsetSampler(pareto_feats, p, 0.02, 200) for p in study.PROTOCOLS}
        given = study.flip_study(*args, samplers=samplers)
        built = study.flip_study(*args, pool_fraction=0.02, pool_size=200)
        for a, b in zip(given.rows, built.rows):
            assert np.array_equal(a["per_seed_shares"], b["per_seed_shares"])

    def test_degenerate_subsets_counted(self):
        # one distinguished agent: subsets that miss it have zero variance
        z = np.zeros((50, 3))
        z[0] = 1.0
        part = make_tier_partition(z[:, 0])
        rep = study.flip_study(z, valuefn.variance(), part,
                               protocols=("random",), sizes=(5,), seeds=range(20))
        row = rep.rows[0]
        assert row["n_degenerate"] > 0
        assert row["n_seeds"] + row["n_degenerate"] == 20

    def test_degenerate_full_panel_raises(self):
        part = make_tier_partition(np.arange(50.0))
        with pytest.raises(DegenerateChangeError):
            study.flip_study(np.ones((50, 3)), valuefn.variance(), part,
                             protocols=("random",), sizes=(10,), seeds=range(2))

    def test_subset_attribution_restricts(self, pareto_feats):
        sub = study.sample_subset(pareto_feats, "random", 30, seed=2)
        res = study.subset_attribution(valuefn.variance(), pareto_feats, sub)
        direct = attribution.attribute(valuefn.variance(), pareto_feats[sub.indices])
        assert res.phi == pytest.approx(direct.phi, abs=1e-12)


class TestRankAgreement:
    def test_identical_vectors(self, rng):
        phi = rng.standard_normal(50)
        out = study.rank_agreement(phi, phi)
        assert out["kendall_tau"] == pytest.approx(1.0)
        assert out["spearman_rho"] == pytest.approx(1.0)
        assert out["jaccard_top_k"] == 1.0

    def test_reversed_vectors(self):
        phi = np.arange(20, dtype=np.float64)
        out = study.rank_agreement(phi, -phi + 100)
        assert out["kendall_tau"] == pytest.approx(-1.0)
        assert out["spearman_rho"] == pytest.approx(-1.0)

    def test_top_k_tie_break_by_index(self):
        phi = np.array([1.0, 2.0, 2.0, 0.5])
        assert study.top_k_set(phi, 2) == {1, 2}
        assert study.top_k_set(np.array([2.0, 2.0, 2.0]), 2) == {0, 1}

    def test_top_k_uses_magnitude(self):
        phi = np.array([-5.0, 1.0, 2.0])
        assert study.top_k_set(phi, 1) == {0}

    def test_shape_validated(self):
        with pytest.raises(AspanelError):
            study.rank_agreement([1.0], [1.0])


class TestDeletion:
    def make_panel(self):
        feats = np.abs(np.random.default_rng(3).standard_normal((20, 6, 3)))
        return FeaturePanel(feats, [f"u{i}" for i in range(20)])

    def test_peak_step_in_second_half(self):
        pn = self.make_panel()
        out = study.deletion_faithfulness(pn, valuefn.variance(), np.arange(20), k_max=5)
        assert out["t_star"] >= 2  # ceil(6/2) - 1

    def test_deleting_top_variance_agents_drops_most(self):
        pn = self.make_panel()
        f = valuefn.variance()
        t_vals = [f.evaluate(pn.features[:, t, :]) for t in range(2, 6)]
        t_star = 2 + int(np.argmax(t_vals))
        res = attribution.attribute(f, pn.features[:, t_star, :])
        ranked = np.argsort(-np.abs(res.phi))
        best = study.deletion_faithfulness(pn, f, ranked, k_max=5)
        worst = study.deletion_faithfulness(pn, f, ranked[::-1], k_max=5)
        assert best["auc"] > worst["auc"]

    def test_full_deletion_reaches_one(self):
        pn = self.make_panel()
        out = study.deletion_faithfulness(pn, valuefn.linear_mean(), np.arange(20), k_max=19)
        # after removing 19 of 20 agents the drop nears the full gap
        assert out["drop_at"][19] == pytest.approx(1.0, abs=0.5)

    def test_bad_k_rejected(self):
        pn = self.make_panel()
        with pytest.raises(AspanelError):
            study.deletion_faithfulness(pn, valuefn.linear_mean(), np.arange(20), k_max=20)


class TestKConvergence:
    def test_monotone_and_quartering(self, abs_gaussian):
        z = abs_gaussian(300, seed=17)
        rows = study.k_convergence_sweep(z, valuefn.heat(), [5, 10, 20, 40])
        errs = [r["rel_l1_error"] for r in rows]
        assert errs == sorted(errs, reverse=True)
        for ratio in study.convergence_ratios(rows):
            assert 3.2 < ratio < 4.8

    def test_midpoint_reference(self, abs_gaussian):
        z = abs_gaussian(40, seed=18)
        f = valuefn.softplus_aggregator(np.abs(np.random.default_rng(1).standard_normal((40, 3))))
        rows = study.k_convergence_sweep(z, f, [5, 20], reference=400)
        assert rows[0]["rel_l1_error"] > rows[1]["rel_l1_error"]


class TestBench:
    def test_rows_and_csv(self, tmp_path, abs_gaussian):
        rows = study.bench_scaling(
            valuefn.heat(), [10, 50],
            methods=("ours_analytic", "sampled_shapley", "exact_shapley"),
            m_samples=20, repeats=1,
        )
        by = {(r["n"], r["method"]): r for r in rows}
        assert by[(10, "exact_shapley")]["status"] == "ok"
        assert by[(50, "exact_shapley")]["status"] == "infeasible"
        assert by[(50, "ours_analytic")]["seconds"] >= 0.0
        path = tmp_path / "bench.csv"
        study.bench_rows_to_csv(path, rows, ("ours_analytic", "sampled_shapley", "exact_shapley"))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "n,ours_analytic,sampled_shapley,exact_shapley"
        assert "infeasible" in lines[2]

    def test_sizes_must_ascend(self):
        with pytest.raises(AspanelError):
            study.bench_scaling(valuefn.heat(), [100, 10])

    def test_unknown_method(self):
        with pytest.raises(AspanelError):
            study.bench_scaling(valuefn.heat(), [10], methods=("quantum",))
