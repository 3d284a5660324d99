"""Experimental harness: sampling protocols, flip and rescale studies, rank
metrics, quadrature sweep, and the wall-clock benchmark."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import attribution, baselines
from .attribution import AttributionResult, attribute, normalize, tier_shares
from .errors import AspanelError, DegenerateChangeError, InfeasibleError
from .panel import TierPartition, argsort_head, write_table
from .scalingbias import optimal_rescale, rescale_rows
from .valuefn import ValueFunction, _as_features, _kendall_tau_b, _spearman_rho

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
        ordered = np.sort(idx, axis=None)
        if (ordered[1:] == ordered[:-1]).any() or len(idx) != self.n:
            raise AspanelError("subset indices must be unique and of the declared size")
        object.__setattr__(self, "indices", idx)


def _zscore(x: np.ndarray, name: str) -> np.ndarray:
    with np.errstate(over="ignore"):  # std squares each deviation
        mean, sd = x.mean(), x.std()
    if not (np.isfinite(mean) and np.isfinite(sd)):
        raise AspanelError(f"bias_visibility: the {name} mean or spread overflows float64")
    return (x - mean) / sd if sd > 0 else np.zeros_like(x)


def check_subset_size(n: int, n_agents: int) -> None:
    """Raise AspanelError unless a subset of ``n`` agents can be drawn from
    ``n_agents``."""
    if n < 1:
        raise AspanelError(f"subset size {n} is below 1")
    if n > n_agents:
        raise AspanelError(f"subset size {n} exceeds population {n_agents}")


class SubsetSampler:
    """One sampling protocol on one panel.

    ``agent_features`` is the collapsed N x D panel with dims
    (reach, activity, resonance) on the log1p scale.  The biased pools are
    deterministic functions of the panel: the pool, the first agents of
    the stable descending score order, is selected once here without
    sorting the panel (:func:`panel.argsort_head`), and the rest of that
    order is ranked on the first draw that reaches past the pool, then
    kept.  Only :meth:`draw` uses the seed.
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
        if not np.isfinite(z).all():
            raise AspanelError(f"{protocol}: features contain non-finite values")
        a = z[:, 0]
        b = z[:, 1] if z.shape[1] > 1 else np.zeros(N)
        c = z[:, 2] if z.shape[1] > 2 else np.zeros(N)
        if protocol == "bias_visibility":
            with np.errstate(over="ignore"):
                engagement = np.expm1(b) + np.expm1(c)  # counts before log1p
            if not np.isfinite(engagement).all():
                raise AspanelError("bias_visibility: the engagement counts (activity plus "
                                   "resonance) overflow float64")
            score = _zscore(a, "reach") + _zscore(np.log1p(engagement), "engagement")
            psize = max(1, math.ceil(pool_fraction * N))
            self.param = float(pool_fraction)
        else:
            score = np.log1p(b + c) * a if protocol == "bias_topic_x_follow" else b
            psize = min(pool_size, N)
            self.param = float(pool_size)
        self._neg_score = -score  # ascending: the score descending, ties by agent index
        self.pool = argsort_head(self._neg_score, psize)

    def draw(self, n: int, seed: int) -> SubsetSpec:
        """The top agents by score form the pool; draw n of them uniformly.
        When n reaches the pool size, take the whole pool plus a uniform
        complement, which collapses to the full panel at n = N."""
        check_subset_size(n, self.n_agents)
        rng = np.random.default_rng(seed)
        if self.pool is None:
            idx = rng.choice(self.n_agents, size=n, replace=False)
        elif n < len(self.pool):
            idx = rng.choice(self.pool, size=n, replace=False)
        else:
            if self.rest is None:
                self.rest = np.argsort(self._neg_score, kind="stable")[len(self.pool):]
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


# ---- flip and rescale studies -----------------------------------------------


@dataclass
class FlipReport:
    full_shares: np.ndarray
    group_names: tuple[str, ...]
    n_full: int = 0
    rows: list[dict] = field(default_factory=list)

    def to_csv(self, path) -> None:
        header = ["protocol", "n", "n_seeds", "n_degenerate",
                  *(f"{col}_{g}" for col in ("share", "std", "delta_pp") for g in self.group_names)]
        write_table(path, header, [
            ["full", self.n_full, 1, 0, *self.full_shares, *[0.0] * (2 * len(self.group_names))],
            *([r["protocol"], r["n"], r["n_seeds"], r["n_degenerate"],
               *r["mean_shares"], *r["std_shares"], *r["delta_pp"]] for r in self.rows),
        ])


def subset_attribution(
    f: ValueFunction, agent_features: np.ndarray, subset: SubsetSpec
) -> AttributionResult:
    """Attribute on the restricted panel: features sliced to S, family size |S|."""
    return attribute(f.restrict(subset.indices), agent_features[subset.indices])


# A study cell's draws are attributed in stacks of at most this many agent
# rows (subsets times their size), so that a stack's features, what the kind
# reads of them and its shares hold a few MB whatever the subset size
STUDY_BLOCK_ROWS = 1 << 16


def _draw_blocks(sampler: SubsetSampler, n: int, seeds: Sequence[int]):
    """The size-n draws of ``seeds`` in order, in blocks of at most
    STUDY_BLOCK_ROWS agent rows: (subsets, their (S, n) indices)."""
    seeds = list(seeds)
    step = max(1, STUDY_BLOCK_ROWS // n)
    for lo in range(0, len(seeds), step):
        subs = [sampler.draw(n, seed) for seed in seeds[lo:lo + step]]
        yield subs, np.array([sub.indices for sub in subs])


def _subset_results(agent_features, f, subs):
    """Yield (subset, normalized attribution on it) for each subset, skipping
    degenerate ones (zero macro change on the subset)."""
    for sub in subs:
        try:
            yield sub, normalize(subset_attribution(f, agent_features, sub))
        except DegenerateChangeError:
            pass


def _block(f, agent_features, subs, idx, stacked, per_row):
    """One f on one block of subsets: ``stacked(keep, shares)`` on the block's
    stacked attribution, keep marking the subsets that are not degenerate
    and shares the normalized attribution on each of them, (kept, n).  A
    kind without a stacked closed form, or a block where anything raises,
    goes subset by subset through ``per_row(subset, normalized result)``
    instead, which raises the first subset's error as it always did."""
    try:
        phi, delta_v, scale = attribution.attribute_stack(f, agent_features[idx])
        keep = ~attribution.degenerate(delta_v, scale)
        return stacked(keep, phi[keep] / delta_v[keep, None])
    except AspanelError:
        return [per_row(sub, res) for sub, res in _subset_results(agent_features, f, subs)]


def _tier_rows(shares: np.ndarray, labels: np.ndarray, n_groups: int) -> list[np.ndarray]:
    """:func:`tier_shares` of each row of shares, row s on the agents whose
    tier labels are labels[s]: a group's shares in ascending agent order,
    summed by one numpy sum as there."""
    order = np.argsort(labels, axis=1, kind="stable")
    ends = np.cumsum([np.count_nonzero(labels == k, axis=1) for k in range(n_groups)], axis=0).T
    grouped = np.take_along_axis(shares, order, axis=1)
    return [np.array([row[lo:hi].sum() for lo, hi in zip((0, *cut[:-1]), cut)])
            for row, cut in zip(grouped, ends.tolist())]


def _listed(f):
    """(the value functions, whether f was one): f is a ValueFunction or a
    sequence of them."""
    return ([f], True) if isinstance(f, ValueFunction) else (list(f), False)


def flip_study(
    agent_features: np.ndarray,
    f,
    partition: TierPartition,
    samplers: Mapping[str, SubsetSampler],
    sizes: Sequence[int] = (100,),
    seeds: Sequence[int] = tuple(range(10)),
):
    """Compare tier shares on sampled subsets against the full panel.

    ``samplers`` maps each protocol to a :class:`SubsetSampler` built on
    ``agent_features``, so a caller studying several value functions ranks
    each pool once.  ``f`` is a value function, or a sequence of them that
    share each draw; the result is its :class:`FlipReport`, or a list with
    one per f.  A report has one row per protocol and size, protocols in the
    mapping's order.  Degenerate cells (zero macro change on the subset) are
    excluded from the means and counted.  Each cell's subsets are drawn once
    and attributed in stacks (:data:`STUDY_BLOCK_ROWS`), every value as the
    per-subset :func:`subset_attribution`, :func:`normalize` and
    :func:`tier_shares` give it.
    """
    fs, single = _listed(f)
    z = _as_features(agent_features)
    reports = []
    for f in fs:
        full_shares = tier_shares(normalize(attribute(f, z)), partition)
        reports.append(FlipReport(full_shares, partition.group_names, n_full=len(z)))
    G = partition.n_groups
    for protocol, sampler in samplers.items():
        for n in sizes:
            shares = [[] for _ in fs]
            for subs, idx in _draw_blocks(sampler, n, seeds):
                labels = partition.labels[idx]
                for f, out in zip(fs, shares):
                    out += _block(
                        f, z, subs, idx,
                        lambda keep, s: _tier_rows(s, labels[keep], G),
                        lambda sub, res: tier_shares(res, partition, subset_indices=sub.indices))
            for rep, rows in zip(reports, shares):
                arr = np.array(rows) if rows else np.empty((0, G))
                mean = arr.mean(axis=0) if len(arr) else np.full(G, np.nan)
                std = arr.std(axis=0) if len(arr) else np.full(G, np.nan)
                rep.rows.append({
                    "protocol": protocol,
                    "n": n,
                    "n_seeds": len(rows),
                    "n_degenerate": len(seeds) - len(rows),
                    "mean_shares": mean,
                    "std_shares": std,
                    "delta_pp": (mean - rep.full_shares) * 100.0,
                    "per_seed_shares": arr,
                })
    return reports[0] if single else reports


def rescale_study(agent_features: np.ndarray, f, sampler: SubsetSampler,
                  sizes: Sequence[int] = (100,), seeds: Sequence[int] = tuple(range(10))):
    """One :func:`optimal_rescale` report per size and seed, sizes outer:
    the subset's shares against the full panel's shares restricted to it.
    Degenerate subsets are skipped.  ``sampler`` is built on ``agent_features``.
    ``f`` is a value function, or a sequence of them that share each draw;
    the result is its list of reports, or one such list per f.  Subsets are
    drawn and attributed as in :func:`flip_study`."""
    fs, single = _listed(f)
    z = _as_features(agent_features)
    fulls = [normalize(attribute(f, z)).normalized for f in fs]
    reports = [[] for _ in fs]
    for n in sizes:
        for subs, idx in _draw_blocks(sampler, n, seeds):
            seed_of = np.array([sub.seed for sub in subs], dtype=object)
            for f, full, out in zip(fs, fulls, reports):
                out += _block(
                    f, z, subs, idx,
                    lambda keep, s: rescale_rows(s, full[idx[keep]], f.kind, seed_of[keep]),
                    lambda sub, res: optimal_rescale(res.normalized, full[sub.indices],
                                                     f_kind=f.kind, subset_seed=sub.seed))
    return reports[0] if single else reports


# ---- rank agreement ---------------------------------------------------------


def top_k_set(phi: np.ndarray, k: int) -> set[int]:
    """Indices of the k largest |phi| values; ties broken by index."""
    order = np.lexsort((np.arange(len(phi)), -np.abs(phi)))
    return set(int(i) for i in order[:k])


def rank_agreement(phi_a, phi_b, k: int = 10) -> dict:
    """Kendall's tau-b, Spearman's rho and the Jaccard index of the top-k sets
    of two attribution vectors.

    Non-finite input raises :class:`AspanelError`.  A constant vector has no
    rank correlation: tau and rho are then NaN, on purpose and without a
    warning.
    """
    a = np.asarray(phi_a, dtype=np.float64)
    b = np.asarray(phi_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
        raise AspanelError("attribution vectors must be 1-d, equal length >= 2")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise AspanelError("attribution vectors contain non-finite values")
    if k < 1:
        raise AspanelError(f"top-k size {k} is below 1")
    tau = _kendall_tau_b(a, b)
    rho = float(_spearman_rho(a, b))
    ta, tb = top_k_set(a, k), top_k_set(b, k)
    jac = len(ta & tb) / len(ta | tb) if (ta | tb) else 1.0
    return {"kendall_tau": tau, "spearman_rho": rho, "jaccard_top_k": jac}


# ---- quadrature convergence -------------------------------------------------


def k_convergence_sweep(
    features: np.ndarray,
    f: ValueFunction,
    K_list: Sequence[int],
) -> list[dict]:
    """Relative L1 error of the K-point midpoint estimate per K, against the
    closed form; a kind without one raises :class:`AspanelError`."""
    ref = attribution.attribute_analytic(f, features).phi
    scale = np.abs(ref).sum()
    if scale == 0.0:
        raise DegenerateChangeError("the reference attribution is zero: no relative error")
    rows = []
    for K in K_list:
        t0 = time.perf_counter()
        phi = attribution.attribute_path_integral(f, features, K=K).phi
        dt = time.perf_counter() - t0
        err = float(np.abs(phi - ref).sum() / scale)
        rows.append({"K": K, "rel_l1_error": err, "seconds": dt})
    return rows


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
    seed: int = 0,
) -> list[dict]:
    """Median-of-repeats wall clock per (size, method) cell on |N(0, 1)|
    features with three dims.

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
        z = np.abs(rng.standard_normal((n, 3)))
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
    cell = {(r["n"], r["method"]): r["seconds"] if r["status"] == "ok" else r["status"]
            for r in rows}
    write_table(path, ["n", *methods],
                [[n, *(cell.get((n, m)) for m in methods)] for n in sorted({r["n"] for r in rows})])
