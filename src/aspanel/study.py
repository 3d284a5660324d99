"""Experimental harness: sampling protocols, flip study, rank metrics,
deletion faithfulness, quadrature sweep, and the wall-clock benchmark."""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np
from scipy import stats

from . import attribution, baselines
from .attribution import AttributionResult, attribute, normalize, tier_shares
from .errors import AspanelError, DegenerateChangeError, InfeasibleError
from .panel import FeaturePanel, TierPartition
from .valuefn import ValueFunction

PROTOCOLS = ("bias_visibility", "bias_topic_x_follow", "bias_topic_top", "random")
DEFAULT_POOL_FRACTION = 0.05
DEFAULT_POOL_SIZE = 5000


@dataclass(frozen=True)
class SubsetSpec:
    indices: np.ndarray
    protocol: str
    n: int
    seed: int
    pool_param: float

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if len(np.unique(idx)) != len(idx) or len(idx) != self.n:
            raise AspanelError("subset indices must be unique and of the declared size")
        object.__setattr__(self, "indices", idx)


def _zscore(x: np.ndarray) -> np.ndarray:
    sd = x.std()
    return (x - x.mean()) / sd if sd > 0 else np.zeros_like(x)


class SubsetSampler:
    """One sampling protocol on one panel.

    ``agent_features`` is the collapsed N x D panel with dims
    (reach, activity, resonance) on the log1p scale.  The biased pools are
    deterministic functions of the panel, so the score order is computed
    once here; only :meth:`draw` uses the seed.
    """

    def __init__(self, agent_features: np.ndarray, protocol: str,
                 pool_fraction: float, pool_size: int):
        if protocol not in PROTOCOLS:
            raise AspanelError(f"unknown protocol {protocol!r}")
        z = np.asarray(agent_features, dtype=np.float64)
        N = z.shape[0]
        self.protocol, self.n_agents = protocol, N
        self.pool = self.rest = None  # random draws from the whole panel
        if protocol == "random":
            self.param = 0.0
            return
        a = z[:, 0]
        b = z[:, 1] if z.shape[1] > 1 else np.zeros(N)
        c = z[:, 2] if z.shape[1] > 2 else np.zeros(N)
        if protocol == "bias_visibility":
            engagement = np.expm1(b) + np.expm1(c)  # counts before log1p
            score = _zscore(a) + _zscore(np.log1p(engagement))
            psize = max(1, math.ceil(pool_fraction * N))
            self.param = float(pool_fraction)
        else:
            score = np.log1p(b + c) * a if protocol == "bias_topic_x_follow" else b
            psize = min(pool_size, N)
            self.param = float(pool_size)
        order = np.argsort(-score, kind="stable")  # ties by agent index
        self.pool, self.rest = order[:psize], order[psize:]

    def draw(self, n: int, seed: int) -> SubsetSpec:
        """The top agents by score form the pool; draw n of them uniformly.
        When n reaches the pool size, take the whole pool plus a uniform
        complement, which collapses to the full panel at n = N."""
        if n > self.n_agents:
            raise AspanelError(f"subset size {n} exceeds population {self.n_agents}")
        rng = np.random.default_rng(seed)
        if self.pool is None:
            idx = rng.choice(self.n_agents, size=n, replace=False)
        elif n < len(self.pool):
            idx = rng.choice(self.pool, size=n, replace=False)
        else:
            extra = rng.choice(self.rest, size=n - len(self.pool), replace=False)
            idx = np.concatenate([self.pool, extra])
        return SubsetSpec(np.sort(idx), self.protocol, n, seed, self.param)


def sample_subset(
    agent_features: np.ndarray,
    protocol: str,
    n: int,
    seed: int,
    pool_fraction: float = DEFAULT_POOL_FRACTION,
    pool_size: int = DEFAULT_POOL_SIZE,
) -> SubsetSpec:
    """Draw one agent subset under one of the four sampling protocols; see
    :class:`SubsetSampler`, which reuses the pool across draws."""
    return SubsetSampler(agent_features, protocol, pool_fraction, pool_size).draw(n, seed)


# ---- flip study -------------------------------------------------------------


@dataclass
class FlipReport:
    full_shares: np.ndarray
    group_names: tuple[str, ...]
    n_full: int = 0
    rows: list[dict] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            share_cols = [f"share_{g}" for g in self.group_names]
            delta_cols = [f"delta_pp_{g}" for g in self.group_names]
            std_cols = [f"std_{g}" for g in self.group_names]
            w.writerow(["protocol", "n", "n_seeds", "n_degenerate",
                        *share_cols, *std_cols, *delta_cols])
            w.writerow(["full", self.n_full, 1, 0,
                        *(repr(float(s)) for s in self.full_shares),
                        *(["0.0"] * len(self.group_names)),
                        *(["0.0"] * len(self.group_names))])
            for r in self.rows:
                w.writerow([r["protocol"], r["n"], r["n_seeds"], r["n_degenerate"],
                            *(repr(float(s)) for s in r["mean_shares"]),
                            *(repr(float(s)) for s in r["std_shares"]),
                            *(repr(float(d)) for d in r["delta_pp"])])


def subset_attribution(
    f: ValueFunction,
    agent_features: np.ndarray,
    subset: SubsetSpec,
    method: str = "auto",
    K: int = attribution.DEFAULT_K,
) -> AttributionResult:
    """Attribute on the restricted panel: features sliced to S, family size |S|."""
    fs = f.restrict(subset.indices)
    return attribute(fs, agent_features[subset.indices], method=method, K=K)


def flip_study(
    agent_features: np.ndarray,
    f: ValueFunction,
    partition: TierPartition,
    protocols: Sequence[str] = PROTOCOLS,
    sizes: Sequence[int] = (100,),
    seeds: Sequence[int] = tuple(range(10)),
    method: str = "auto",
    K: int = attribution.DEFAULT_K,
    pool_fraction: float = DEFAULT_POOL_FRACTION,
    pool_size: int = DEFAULT_POOL_SIZE,
    samplers: Optional[Mapping[str, SubsetSampler]] = None,
) -> FlipReport:
    """Compare tier shares on sampled subsets against the full panel.

    Degenerate cells (zero macro change on the subset) are excluded from the
    means and counted.  ``samplers`` maps a protocol to a
    :class:`SubsetSampler` already built on ``agent_features``, so a caller
    studying several value functions ranks each pool once; a protocol it
    lacks gets a sampler built here from ``pool_fraction`` and ``pool_size``.
    """
    full = normalize(attribute(f, agent_features, method=method, K=K))
    full_shares = tier_shares(full, partition)
    report = FlipReport(full_shares, partition.group_names, n_full=len(agent_features))
    for protocol in protocols:
        sampler = (samplers or {}).get(protocol) or SubsetSampler(
            agent_features, protocol, pool_fraction, pool_size)
        for n in sizes:
            shares, degenerate = [], 0
            for seed in seeds:
                sub = sampler.draw(n, seed)
                try:
                    res = normalize(subset_attribution(f, agent_features, sub, method, K))
                except DegenerateChangeError:
                    degenerate += 1
                    continue
                shares.append(tier_shares(res, partition, subset_indices=sub.indices))
            arr = np.array(shares) if shares else np.empty((0, partition.n_groups))
            mean = arr.mean(axis=0) if len(arr) else np.full(partition.n_groups, np.nan)
            std = arr.std(axis=0) if len(arr) else np.full(partition.n_groups, np.nan)
            report.rows.append({
                "protocol": protocol,
                "n": n,
                "n_seeds": len(shares),
                "n_degenerate": degenerate,
                "mean_shares": mean,
                "std_shares": std,
                "delta_pp": (mean - full_shares) * 100.0,
                "per_seed_shares": arr,
            })
    return report


# ---- rank agreement ---------------------------------------------------------


def top_k_set(phi: np.ndarray, k: int) -> set[int]:
    """Indices of the k largest |phi| values; ties broken by index."""
    order = np.lexsort((np.arange(len(phi)), -np.abs(phi)))
    return set(int(i) for i in order[:k])


def rank_agreement(phi_a, phi_b, k: int = 10) -> dict:
    a = np.asarray(phi_a, dtype=np.float64)
    b = np.asarray(phi_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
        raise AspanelError("attribution vectors must be 1-d, equal length >= 2")
    tau = float(stats.kendalltau(a, b).statistic)
    rho = float(stats.spearmanr(a, b).statistic)
    ta, tb = top_k_set(a, k), top_k_set(b, k)
    jac = len(ta & tb) / len(ta | tb) if (ta | tb) else 1.0
    return {"kendall_tau": tau, "spearman_rho": rho, "jaccard_top_k": jac}


# ---- deletion faithfulness --------------------------------------------------


def deletion_faithfulness(
    panel: FeaturePanel,
    f: ValueFunction,
    attribution_ranking: Sequence[int],
    k_max: int,
    baseline_action: Optional[np.ndarray] = None,
) -> dict:
    """Replace top-k ranked agents' features at the post-midpoint peak step
    with a baseline action and record the normalized macro drop.

    The target step is the argmax of f over the second half of the window.
    AUC is the mean drop over k = 1..k_max; a negative drop (f rising after
    deletion) is recorded, not an error.
    """
    n, T, D = panel.features.shape
    if not 0 < k_max < n:
        raise AspanelError("k_max must be in [1, n)")
    ranking = np.asarray(attribution_ranking, dtype=np.int64)
    half = math.ceil(T / 2) - 1  # 0-based first step of the second half
    step_vals = [f.evaluate(panel.features[:, t, :]) for t in range(half, T)]
    t_star = half + int(np.argmax(step_vals))
    z = panel.features[:, t_star, :]
    base_row = attribution._resolve_baseline(baseline_action, z)
    v_full = f.evaluate(z)
    v_base = f.evaluate(np.broadcast_to(base_row, z.shape))
    denom = v_full - v_base
    if denom == 0.0:
        raise DegenerateChangeError("macro indicator equals its baseline value at the peak step")
    drops = {}
    work = z.copy()
    for k in range(1, k_max + 1):
        work[ranking[k - 1]] = base_row
        drops[k] = (v_full - f.evaluate(work)) / denom
    return {"auc": float(np.mean(list(drops.values()))), "drop_at": drops, "t_star": t_star}


# ---- quadrature convergence -------------------------------------------------


def k_convergence_sweep(
    features: np.ndarray,
    f: ValueFunction,
    K_list: Sequence[int],
    reference: Union[str, int] = "analytic",
) -> list[dict]:
    """Relative L1 error of the K-point midpoint estimate per K.

    Reference is the closed form when available, otherwise a high-K midpoint
    run (pass an integer K_ref).
    """
    if reference == "analytic":
        ref = attribution.attribute_analytic(f, features).phi
    else:
        ref = attribution.attribute_path_integral(f, features, K=int(reference)).phi
    scale = np.abs(ref).sum()
    rows = []
    for K in K_list:
        t0 = time.perf_counter()
        phi = attribution.attribute_path_integral(f, features, K=K).phi
        dt = time.perf_counter() - t0
        err = float(np.abs(phi - ref).sum() / scale)
        rows.append({"K": K, "rel_l1_error": err, "seconds": dt})
    return rows


def convergence_ratios(rows: list[dict]) -> list[float]:
    """err(K_i) / err(K_{i+1}) for consecutive sweep entries."""
    errs = [r["rel_l1_error"] for r in rows]
    return [e1 / e2 if e2 > 0 else float("inf") for e1, e2 in zip(errs, errs[1:])]


# ---- wall-clock benchmark ---------------------------------------------------

BENCH_METHODS = (
    "ours_analytic",
    "ours_midpoint",
    "loo",
    "sampled_shapley",
    "sampled_banzhaf",
    "exact_shapley",
    "exact_banzhaf",
)


def _bench_once(method: str, f: ValueFunction, z: np.ndarray, m: int, seed: int):
    if method == "ours_analytic":
        return lambda: attribution.attribute_analytic(f, z)
    if method == "ours_midpoint":
        return lambda: attribution.attribute_path_integral(f, z, K=attribution.DEFAULT_K)
    game = baselines.CoalitionGame(f, z)
    if method == "loo":
        return lambda: baselines.leave_one_out(game)
    if method == "sampled_shapley":
        return lambda: baselines.sampled_shapley(game, m, seed)
    if method == "sampled_banzhaf":
        return lambda: baselines.sampled_banzhaf(game, m, seed)
    if method == "exact_shapley":
        return lambda: baselines.exact_shapley(game)
    if method == "exact_banzhaf":
        return lambda: baselines.exact_banzhaf(game)
    raise AspanelError(f"unknown benchmark method {method!r}")


def bench_scaling(
    f: ValueFunction,
    sizes: Sequence[int],
    methods: Sequence[str] = BENCH_METHODS,
    m_samples: int = 1000,
    repeats: int = 3,
    n_dims: int = 3,
    seed: int = 0,
    feature_gen: Optional[Callable[[int, int], np.ndarray]] = None,
) -> list[dict]:
    """Median-of-repeats wall clock per (size, method) cell.

    Timing excludes feature generation and I/O; exact methods above the
    enumeration guard are marked infeasible.  Sizes must be ascending.
    """
    if list(sizes) != sorted(sizes):
        raise AspanelError("sizes must be ascending")
    bad = set(methods) - set(BENCH_METHODS)
    if bad:
        raise AspanelError(f"unknown methods {sorted(bad)}")
    rng = np.random.default_rng(seed)
    rows = []
    for n in sizes:
        z = (
            feature_gen(n, n_dims)
            if feature_gen is not None
            else np.abs(rng.standard_normal((n, n_dims)))
        )
        for method in methods:
            try:
                run = _bench_once(method, f, z, m_samples, seed)
                times = []
                for _ in range(max(1, repeats)):
                    t0 = time.perf_counter()
                    run()
                    times.append(time.perf_counter() - t0)
                rows.append({"n": n, "method": method,
                             "seconds": float(np.median(times)), "status": "ok"})
            except InfeasibleError:
                rows.append({"n": n, "method": method, "seconds": None,
                             "status": "infeasible"})
            except AspanelError as exc:
                rows.append({"n": n, "method": method, "seconds": None,
                             "status": f"error: {exc}"})
    return rows


def bench_rows_to_csv(path, rows: list[dict], methods: Sequence[str] = BENCH_METHODS):
    """Wide CSV: one row per N, one column per method (seconds or marker)."""
    sizes = sorted({r["n"] for r in rows})
    cell = {(r["n"], r["method"]): r for r in rows}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", *methods])
        for n in sizes:
            out = [n]
            for mth in methods:
                r = cell.get((n, mth))
                if r is None:
                    out.append("")
                elif r["status"] == "ok":
                    out.append(repr(r["seconds"]))
                else:
                    out.append(r["status"])
            w.writerow(out)
