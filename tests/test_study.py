import warnings

import numpy as np
import pytest

from aspanel import attribution, cli, panel, scalingbias, study, valuefn
from aspanel.errors import AspanelError, DegenerateChangeError
from aspanel.panel import SyntheticPanelSpec, generate_synthetic, make_tier_partition


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

    @pytest.mark.parametrize("n", [0, -5])
    def test_size_below_one_rejected(self, pareto_feats, n):
        for proto in study.PROTOCOLS:
            with pytest.raises(AspanelError, match="below 1"):
                study.SubsetSampler(pareto_feats, proto, 0.05, 500).draw(n, seed=0)

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

    def test_visibility_engagement_overflow_is_named(self):
        # expm1(709.5) is finite, but the sum of two overflows: the score would
        # be inf and its z-score zero, ranking the pool by reach alone
        z = np.ones((20, 3))
        z[0, 1:] = 709.5
        with pytest.raises(AspanelError, match="engagement counts .* overflow"):
            study.SubsetSampler(z, "bias_visibility", 0.05, 10)

    @pytest.mark.parametrize("top", [[1e200], [1.7e308] * 20], ids=["spread", "mean"])
    def test_visibility_reach_overflow_is_named(self, top):
        # std squares each deviation, so one finite reach of 1e200 overflows
        # it, and twenty of 1.7e308 overflow the mean; the reach z-score would
        # be zero, ranking the pool by engagement alone
        z = np.ones((20, 3))
        z[:len(top), 0] = top
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AspanelError, match="the reach mean or spread overflows"):
                study.SubsetSampler(z, "bias_visibility", 0.05, 10)

    @pytest.mark.parametrize("protocol", ["bias_visibility", "bias_topic_x_follow", "bias_topic_top"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_biased_pool_rejects_non_finite_features(self, protocol, bad):
        z = np.ones((20, 3))
        z[0, 1] = bad
        with pytest.raises(AspanelError, match="non-finite"):
            study.SubsetSampler(z, protocol, 0.05, 10)


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

    @pytest.mark.parametrize("protocol", study.PROTOCOLS)
    @pytest.mark.parametrize("pool_size", [0, 1, 30, 599, 600])
    def test_pool_size_matches_reference(self, tied_feats, protocol, pool_size):
        # draws below the pool, at it and past it into the rest of the order
        sampler = study.SubsetSampler(tied_feats, protocol, 0.05, pool_size)
        for n, seed in [(1, 0), (10, 1), (30, 2), (200, 0), (10, 4), (600, 3)]:
            ref = reference_subset(tied_feats, protocol, n, seed, 0.05, pool_size)
            assert np.array_equal(sampler.draw(n, seed).indices, ref)

    @pytest.mark.parametrize("pool_size", [0, 20, 150, 300])
    def test_nan_and_infinite_scores_rank_as_a_full_sort(self, pool_size):
        # on negative features bias_topic_x_follow scores log1p(b + c) * a:
        # NaN below b + c = -1 (ranked last, as argsort does) and infinite at it
        z = np.random.default_rng(5).integers(-2, 3, (300, 3)).astype(float)
        with np.errstate(invalid="ignore", divide="ignore"):
            sampler = study.SubsetSampler(z, "bias_topic_x_follow", 0.05, pool_size)
            score = np.log1p(z[:, 1] + z[:, 2]) * z[:, 0]
            for n, seed in [(5, 0), (20, 1), (150, 2), (299, 3), (300, 4)]:
                ref = reference_subset(z, "bias_topic_x_follow", n, seed, 0.05, pool_size)
                assert np.array_equal(sampler.draw(n, seed).indices, ref)
        assert np.isnan(score).any() and np.isinf(score).any()
        order = np.argsort(-score, kind="stable")
        assert np.array_equal(sampler.pool, order[:pool_size])
        assert np.array_equal(sampler.rest, order[pool_size:])

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
        samplers = {p: study.SubsetSampler(tied_feats, p, 0.05, 30) for p in study.PROTOCOLS}
        rep = study.flip_study(tied_feats, f, part, samplers, (20, 40), seeds)
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
            {p: study.SubsetSampler(pareto_feats, p, study.DEFAULT_POOL_FRACTION,
                                    study.DEFAULT_POOL_SIZE) for p in ("bias_visibility", "random")},
            sizes=(100,), seeds=range(3),
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

    def test_cli_flip_ranks_each_pool_once(self, tmp_path, monkeypatch, study_config):
        built = []

        class CountingSampler(study.SubsetSampler):
            def __init__(self, *args):
                built.append(args[1])
                super().__init__(*args)

        monkeypatch.setattr(study, "SubsetSampler", CountingSampler)
        cfg = study_config(f"mode = flip\nf = var gini heat\nsizes = 20 50\nseeds = 0 1\n"
                           f"protocols = {' '.join(study.PROTOCOLS)}\n", 400)
        assert cli.main(["study", str(cfg), "--out-dir", str(tmp_path)]) == 0
        assert sorted(built) == sorted(study.PROTOCOLS)

    def test_degenerate_subsets_counted(self):
        # one distinguished agent: subsets that miss it have zero variance
        z = np.zeros((50, 3))
        z[0] = 1.0
        part = make_tier_partition(z[:, 0])
        rep = study.flip_study(z, valuefn.variance(), part,
                               {"random": study.SubsetSampler(z, "random", 0.05, 10)},
                               sizes=(5,), seeds=range(20))
        row = rep.rows[0]
        assert row["n_degenerate"] > 0
        assert row["n_seeds"] + row["n_degenerate"] == 20

    def test_degenerate_full_panel_raises(self):
        part = make_tier_partition(np.arange(50.0))
        z = np.ones((50, 3))
        with pytest.raises(DegenerateChangeError):
            study.flip_study(z, valuefn.variance(), part,
                             {"random": study.SubsetSampler(z, "random", 0.05, 10)},
                             sizes=(10,), seeds=range(2))

    def test_subset_attribution_restricts(self, pareto_feats):
        sub = study.sample_subset(pareto_feats, "random", 30, seed=2)
        res = study.subset_attribution(valuefn.variance(), pareto_feats, sub)
        direct = attribution.attribute(valuefn.variance(), pareto_feats[sub.indices])
        assert res.phi == pytest.approx(direct.phi, abs=1e-12)


def reference_flip_cell(z, f, part, sampler, n, seeds):
    """One flip cell subset by subset: the tier shares of each
    non-degenerate seed's subset, and the count of degenerate ones."""
    shares, degenerate = [], 0
    for seed in seeds:
        sub = sampler.draw(n, seed)
        try:
            res = attribution.normalize(study.subset_attribution(f, z, sub))
        except DegenerateChangeError:
            degenerate += 1
            continue
        shares.append(attribution.tier_shares(res, part, subset_indices=sub.indices))
    return np.array(shares).reshape(-1, part.n_groups), degenerate


class CountingSampler(study.SubsetSampler):
    """A sampler that records each (n, seed) it draws."""

    def __init__(self, *args):
        super().__init__(*args)
        self.drawn = []

    def draw(self, n, seed):
        self.drawn.append((n, seed))
        return super().draw(n, seed)


@pytest.fixture(scope="module")
def tied():
    """600 agents with ties in every score and in g: pools of 30."""
    return np.log1p(np.random.default_rng(11).integers(0, 4, (600, 3)).astype(float))


@pytest.fixture(scope="module")
def sparse():
    """60 agents, 30 of them nonzero in dim 0, agents 0-2 also in dim 1 and
    3-5 in dim 2, so many small subsets are degenerate and heat's column
    sums are zero in one dim, in two or in all three."""
    z = np.zeros((60, 3))
    z[:30, 0] = 1.0 + np.arange(30)
    z[:3, 1] = 2.0
    z[3:6, 2] = 0.5
    return z


class TestStackedStudy:
    """The stacked study path against the per-subset reference
    (subset_attribution, normalize, tier_shares, optimal_rescale), exactly."""

    def check_flip(self, z, f, part, samplers, sizes, seeds):
        rep = study.flip_study(z, f, part, samplers, sizes, seeds)
        rows = iter(rep.rows)
        for protocol, sampler in samplers.items():
            for n in sizes:
                want, degenerate = reference_flip_cell(z, f, part, sampler, n, seeds)
                row = next(rows)
                assert (row["protocol"], row["n"]) == (protocol, n)
                assert (row["n_seeds"], row["n_degenerate"]) == (len(want), degenerate)
                assert row["per_seed_shares"].tobytes() == want.tobytes()
                if len(want):
                    assert row["mean_shares"].tobytes() == want.mean(axis=0).tobytes()
                    assert row["std_shares"].tobytes() == want.std(axis=0).tobytes()
        return rep

    @pytest.mark.parametrize("kind", ["lin", "var", "gini", "heat"])
    def test_flip_per_seed_equals_subsets(self, tied, kind):
        # n = 40 reaches past the 30-agent pools, n = 600 is the whole panel
        part = make_tier_partition(tied[:, 0])
        samplers = {p: study.SubsetSampler(tied, p, 0.05, 30) for p in study.PROTOCOLS}
        self.check_flip(tied, valuefn.by_name(kind), part, samplers, (20, 40, 600), range(4))

    @pytest.mark.parametrize("kind", ["lin", "var", "gini", "heat"])
    def test_degenerate_rows_inside_a_block(self, sparse, kind):
        part = make_tier_partition(sparse[:, 0])
        samplers = {"random": study.SubsetSampler(sparse, "random", 0.05, 10)}
        rep = self.check_flip(sparse, valuefn.by_name(kind), part, samplers, (2, 5, 20),
                              range(12))
        assert any(0 < row["n_degenerate"] < 12 for row in rep.rows)

    def test_heat_rows_with_zero_column_sums(self, sparse):
        sampler = study.SubsetSampler(sparse, "random", 0.05, 10)
        zeros = {int((sparse[sampler.draw(5, seed).indices].sum(axis=0) == 0).sum())
                 for seed in range(16)}
        assert {1, 2, 3} <= zeros
        self.check_flip(sparse, valuefn.heat(), make_tier_partition(sparse[:, 0]),
                        {"random": sampler}, (5,), range(16))

    @pytest.mark.parametrize("kind", ["var", "gini"])
    def test_cell_across_several_blocks(self, tied, kind, monkeypatch):
        monkeypatch.setattr(study, "STUDY_BLOCK_ROWS", 50)  # two subsets of 20 per block
        part = make_tier_partition(tied[:, 0])
        f = valuefn.by_name(kind)
        sampler = CountingSampler(tied, "bias_visibility", 0.05, 30)
        self.check_flip(tied, f, part, {"bias_visibility": sampler}, (20, 60), range(7))
        got = study.rescale_study(tied, f, sampler, (20, 60), range(7))
        want = reference_rescale(tied, f, sampler, (20, 60), range(7), kind)
        assert repr(got) == repr(want)

    def test_each_subset_drawn_once_for_every_f(self, tied):
        part = make_tier_partition(tied[:, 0])
        fs = [valuefn.by_name(kind) for kind in ("lin", "var", "gini", "heat")]
        sampler = CountingSampler(tied, "random", 0.05, 30)
        reports = study.flip_study(tied, fs, part, {"random": sampler}, (20, 40), range(5))
        assert sampler.drawn == [(n, seed) for n in (20, 40) for seed in range(5)]
        for f, rep in zip(fs, reports):
            one = study.flip_study(tied, f, part, {"random": sampler}, (20, 40), range(5))
            assert repr(rep) == repr(one)
        sampler.drawn.clear()
        lists = study.rescale_study(tied, fs, sampler, (20,), range(5))
        assert sampler.drawn == [(20, seed) for seed in range(5)]
        for f, reports in zip(fs, lists):
            assert repr(reports) == repr(study.rescale_study(tied, f, sampler, (20,), range(5)))

    def test_overflowing_row_raises_as_each_subset_does(self):
        z = np.ones((200, 3))
        z[0] = 1e104  # the panel's column means multiply within float64, a 5-subset's past it
        sampler = study.SubsetSampler(z, "random", 0.05, 10)
        has0 = [0 in sampler.draw(5, seed).indices for seed in range(200)]
        bad = has0.index(True)
        seeds = [s for s in range(bad) if not has0[s]][:2] + [bad, bad + 1]
        part = make_tier_partition(np.arange(200.0))
        f = valuefn.heat()
        with np.errstate(over="ignore"):
            with pytest.raises(AspanelError) as want:
                reference_flip_cell(z, f, part, sampler, 5, seeds)
            with pytest.raises(AspanelError) as got:
                study.flip_study(z, f, part, {"random": sampler}, (5,), seeds)
            assert str(got.value) == str(want.value)
            with pytest.raises(AspanelError) as got:
                study.rescale_study(z, f, sampler, (5,), seeds)
            assert str(got.value) == str(want.value)
        assert "overflows" in str(want.value)

    def test_rescale_of_single_agents_raises_as_each_subset_does(self, tied):
        sampler = study.SubsetSampler(tied, "random", 0.05, 30)
        with pytest.raises(AspanelError) as want:
            reference_rescale(tied, valuefn.linear_mean(), sampler, (1,), range(3), "lin")
        with pytest.raises(AspanelError) as got:
            study.rescale_study(tied, valuefn.linear_mean(), sampler, (1,), range(3))
        assert str(got.value) == str(want.value) == "share vectors must be 1-d, equal length >= 2"

    def test_kind_without_closed_form(self, tied):
        # custom has no closed form: its subsets go one by one through the midpoint
        f = valuefn.custom(lambda z: float(np.mean(z.sum(axis=1) ** 2)),
                           grad=lambda z: np.repeat(2 * z.sum(axis=1, keepdims=True) / len(z),
                                                    z.shape[1], axis=1))
        part = make_tier_partition(tied[:, 0])
        samplers = {p: study.SubsetSampler(tied, p, 0.05, 30) for p in ("random", "bias_topic_top")}
        self.check_flip(tied, f, part, samplers, (10,), range(3))
        sampler = samplers["random"]
        assert repr(study.rescale_study(tied, f, sampler, (10,), range(3))) == repr(
            reference_rescale(tied, f, sampler, (10,), range(3), "custom"))


def reference_rescale(z, f, sampler, sizes, seeds, name):
    """The rescale loop as `aspanel study` ran it before `study.rescale_study`."""
    full = attribution.normalize(attribution.attribute(f, z))
    reports = []
    for n in sizes:
        for seed in seeds:
            sub = sampler.draw(n, seed)
            try:
                res = attribution.normalize(study.subset_attribution(f, z, sub))
            except DegenerateChangeError:
                continue
            reports.append(scalingbias.optimal_rescale(
                res.normalized, full.normalized[sub.indices], f_kind=name, subset_seed=seed))
    return reports


class TestRescaleStudy:
    @pytest.mark.parametrize("name", ["lin", "var", "gini"])
    def test_matches_reference_loop(self, name):
        # three nonzero agents: a subset that misses them is degenerate, and
        # every size-2 subset these seeds draw misses them
        z = np.zeros((60, 3))
        z[:3] = 1.0
        f = valuefn.by_name(name)
        sampler = study.SubsetSampler(z, "random", 0.05, 10)
        sizes, seeds = (2, 5, 20), range(5)
        got = study.rescale_study(z, f, sampler, sizes, seeds)
        want = reference_rescale(z, f, sampler, sizes, seeds, name)
        assert repr(got) == repr(want)  # exact floats, NaN rank correlations included
        assert got and {r.n for r in got} == {5, 20}

    def test_pareto_panel(self, pareto_feats):
        f = valuefn.variance()
        sampler = study.SubsetSampler(pareto_feats, "bias_visibility", 0.05, 5000)
        got = study.rescale_study(pareto_feats, f, sampler, (50, 300), range(3))
        assert repr(got) == repr(reference_rescale(pareto_feats, f, sampler, (50, 300),
                                                   range(3), "var"))
        assert [(r.n, r.subset_seed) for r in got] == [(n, s) for n in (50, 300) for s in range(3)]


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

    @pytest.mark.parametrize("k", [0, -1])
    def test_top_k_below_one_rejected(self, k):
        phi = np.arange(5, dtype=np.float64)
        with pytest.raises(AspanelError, match="top-k"):
            study.rank_agreement(phi, phi[::-1], k=k)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        phi = np.arange(5, dtype=np.float64)
        with pytest.raises(AspanelError, match="non-finite"):
            study.rank_agreement(np.where(phi == 2, bad, phi), phi)
        with pytest.raises(AspanelError, match="non-finite"):
            study.rank_agreement(phi, np.where(phi == 2, bad, phi))

    def test_constant_vector_is_nan_without_warning(self):
        # a RuntimeWarning fails the test (pyproject.toml), so none may escape
        out = study.rank_agreement(np.full(6, 0.5), np.arange(6, dtype=np.float64))
        assert np.isnan(out["kendall_tau"]) and np.isnan(out["spearman_rho"])


class TestKConvergence:
    def test_monotone_and_quartering(self, abs_gaussian):
        z = abs_gaussian(300, seed=17)
        rows = study.k_convergence_sweep(z, valuefn.heat(), [5, 10, 20, 40])
        errs = [r["rel_l1_error"] for r in rows]
        assert errs == sorted(errs, reverse=True)
        for e1, e2 in zip(errs, errs[1:]):  # each K doubling quarters the error
            assert 3.2 < e1 / e2 < 4.8

    def test_zero_reference_mass_is_degenerate(self):
        # every agent has the same row, so var's phi are all zero
        with pytest.raises(DegenerateChangeError):
            study.k_convergence_sweep(np.ones((10, 3)), valuefn.variance(), [5, 10])

    def test_kind_without_closed_form_rejected(self, abs_gaussian):
        # every kind a study config can name has a closed form to measure against
        f = valuefn.softplus_aggregator(np.abs(np.random.default_rng(1).standard_normal((40, 3))))
        with pytest.raises(AspanelError, match="no closed form for kind 'softplus'"):
            study.k_convergence_sweep(abs_gaussian(40, seed=18), f, [5, 20])


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
