"""Path-integral attribution: closed forms, midpoint quadrature, aggregation.

Per-agent attribution fades every agent's features in simultaneously along
the straight line from a baseline to the observed configuration and
integrates the gradient of the macro value function along that line.  For
a kind that declares a closed form (see ``valuefn.KINDS``) and a baseline
it covers the integral is exact; everything else goes through the K-point
midpoint rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .errors import AspanelError, DegenerateChangeError, NonzeroBaselineError
from .panel import FeaturePanel, TierPartition
from .valuefn import ValueFunction, _as_features, as_baseline

DEFAULT_K = 30
DEGENERATE_TOL = 1e-12

BASELINE_KINDS = ("zero", "population_mean", "first_step", "custom_vector")


@dataclass(frozen=True)
class BaselineSpec:
    kind: str = "zero"
    vector: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in BASELINE_KINDS:
            raise AspanelError(f"unknown baseline kind {self.kind!r}")
        if self.kind == "custom_vector":
            v = np.asarray(self.vector, dtype=np.float64)
            if v.ndim != 1 or not np.all(np.isfinite(v)):
                raise AspanelError("custom baseline must be a finite length-D vector")
            object.__setattr__(self, "vector", v)

    def resolve(self, features: np.ndarray, first_step: Optional[np.ndarray] = None) -> np.ndarray:
        """Materialize as an array broadcastable against (n, D) features."""
        n, d = features.shape
        if self.kind == "zero":
            return np.zeros(d)
        if self.kind == "population_mean":
            return features.mean(axis=0)
        if self.kind == "first_step":
            if first_step is None:
                raise AspanelError("first_step baseline needs a temporal panel")
            return np.asarray(first_step, dtype=np.float64)
        if len(self.vector) != d:
            raise AspanelError(f"custom baseline has length {len(self.vector)}, expected {d}")
        return self.vector

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero" or (
            self.kind == "custom_vector" and not np.any(self.vector)
        )


def _resolve_baseline(baseline, features, first_step=None) -> np.ndarray:
    if baseline is None:
        baseline = BaselineSpec("zero")
    if isinstance(baseline, BaselineSpec):
        return baseline.resolve(features, first_step)
    arr = np.asarray(baseline, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise AspanelError("baseline contains non-finite values")
    return arr


@dataclass(frozen=True)
class AttributionResult:
    phi: np.ndarray
    delta_v: float
    baseline: np.ndarray
    method: dict
    normalized: Optional[np.ndarray] = None
    metadata: dict = field(default_factory=dict)

    @property
    def n_agents(self) -> int:
        return len(self.phi)

    def efficiency_residual(self) -> float:
        return abs(float(self.phi.sum()) - self.delta_v)


def _result(phi, delta_v, z0, method, **meta) -> AttributionResult:
    return AttributionResult(
        phi=np.asarray(phi, dtype=np.float64),
        delta_v=float(delta_v),
        baseline=np.asarray(z0, dtype=np.float64),
        method=method,
        metadata=meta,
    )


# ---- closed forms ----------------------------------------------------------


def attribute_analytic(f: ValueFunction, features, baseline=None) -> AttributionResult:
    """Closed-form attribution for the kinds that declare one, zero baseline.

    A nonzero baseline goes through :func:`attribute`, which takes the
    closed form where the kind covers that baseline, or through
    :func:`attribute_path_integral`.
    """
    z = _as_features(features)
    return _analytic(f, z, _resolve_baseline(baseline, z))


def _analytic(f: ValueFunction, z: np.ndarray, z0: np.ndarray) -> AttributionResult:
    """attribute_analytic on an array _as_features accepted and a resolved baseline."""
    if not f.has_closed_form:
        raise AspanelError(f"no closed form for kind {f.kind!r}; use the midpoint engine")
    if np.any(z0 != 0.0):
        raise NonzeroBaselineError(
            "attribute_analytic takes the zero baseline only; "
            "use attribute or attribute_path_integral"
        )
    return _closed(f, z, z0, as_baseline(z0, z.shape))


def _closed(f: ValueFunction, z: np.ndarray, z0: np.ndarray, row: np.ndarray) -> AttributionResult:
    """The kind's closed form from the resolved baseline z0, which
    :func:`as_baseline` turned into ``row``; the method names the path."""
    phi, delta, meta = f.closed_form(z, row)
    if row.ndim == 2:
        method = {"name": "closed_form", "baseline": "per_agent", "f": f.kind}
    elif row.any():
        method = {"name": "closed_form", "baseline": "shared_row", "f": f.kind}
    else:
        method = {"name": "analytic", "f": f.kind}
    return _result(phi, delta, z0, method, **meta)


# ---- midpoint quadrature ----------------------------------------------------


def attribute_path_integral(
    f: ValueFunction,
    features,
    baseline=None,
    K: int = DEFAULT_K,
    path: str = "linear",
    seed: Optional[int] = None,
) -> AttributionResult:
    """K-point midpoint quadrature of the gradient along the fade-in path.

    ``path='linear'`` fades all agents together (the default and the method
    of record); ``path='permuted'`` fades agents one at a time in a
    seed-determined order, with K midpoints per leg (ablation only).
    """
    z = _as_features(features)
    return _path_integral(f, z, _resolve_baseline(baseline, z), K, path, seed)


def _path_integral(f: ValueFunction, z: np.ndarray, z0: np.ndarray, K: int, path: str,
                   seed: Optional[int]) -> AttributionResult:
    """attribute_path_integral on an array _as_features accepted and a resolved baseline."""
    if K < 1:
        raise AspanelError("K must be a positive integer")
    n, D = z.shape
    row = as_baseline(z0, z.shape)
    z0_full = np.broadcast_to(row, z.shape)
    delta = z - z0_full

    if path == "linear":
        f.check_path(z, row)
        acc = np.zeros_like(z)
        for k in range(1, K + 1):
            tau = (k - 0.5) / K
            acc += f.gradient(z0_full + tau * delta)
        phi = (delta * acc / K).sum(axis=1)
        method = {"name": "midpoint", "K": K, "f": f.kind}
    elif path == "permuted":
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
        state = np.array(z0_full, dtype=np.float64)
        phi = np.zeros(n)
        for i in order:
            # each leg is a straight path of its own: agent i alone fades in
            end = state.copy()
            end[i] = z[i]
            f.check_path(end, state)
            acc_i = np.zeros(D)
            for k in range(1, K + 1):
                tau = (k - 0.5) / K
                state[i] = z0_full[i] + tau * delta[i]
                acc_i += f.gradient(state)[i]
            state[i] = z[i]
            phi[i] = float(delta[i] @ (acc_i / K))
        method = {"name": "permuted_path", "K": K, "seed": seed, "f": f.kind}
    else:
        raise AspanelError(f"unknown path {path!r}")

    dv = f.evaluate(z) - f.evaluate(z0_full)
    return _result(phi, dv, z0, method)


def attribute(
    f: ValueFunction,
    features,
    baseline=None,
    method: str = "auto",
    K: int = DEFAULT_K,
    seed: Optional[int] = None,
) -> AttributionResult:
    """Dispatch: under ``auto``, the closed form when the kind covers the
    baseline (see :meth:`ValueFunction.covers`), else the midpoint rule."""
    z = _as_features(features)
    return _dispatch(f, z, _resolve_baseline(baseline, z), method, K, seed)


def _dispatch(f: ValueFunction, z: np.ndarray, z0: np.ndarray, method: str, K: int,
              seed: Optional[int]) -> AttributionResult:
    """attribute on an array _as_features accepted and a resolved baseline."""
    if method not in ("auto", "analytic", "midpoint", "permuted_path"):
        raise AspanelError(f"unknown method {method!r}")
    if method == "analytic":
        return _analytic(f, z, z0)
    if method == "auto":
        row = as_baseline(z0, z.shape)
        if f.covers(row):
            return _closed(f, z, z0, row)
    path = "permuted" if method == "permuted_path" else "linear"
    return _path_integral(f, z, z0, K, path, seed)


# ---- normalization and aggregation -----------------------------------------


def normalize(result: AttributionResult) -> AttributionResult:
    """Fill normalized shares phi / delta_v; they sum to one by construction."""
    if abs(result.delta_v) <= DEGENERATE_TOL:
        raise DegenerateChangeError(
            f"degenerate macro change delta_v={result.delta_v!r}; shares undefined"
        )
    return replace(result, normalized=result.phi / result.delta_v)


@dataclass(frozen=True)
class TemporalAttributionResult:
    phi: np.ndarray  # (n_agents, n_steps)
    delta_v: np.ndarray  # (n_steps,)
    baseline: np.ndarray
    method: dict

    def agent_totals(self) -> np.ndarray:
        return self.phi.sum(axis=1)

    def step_totals(self) -> np.ndarray:
        return self.phi.sum(axis=0)

    def group_totals(self, partition: TierPartition) -> np.ndarray:
        """(n_groups, n_steps) attribution mass per tier per step."""
        out = np.zeros((partition.n_groups, self.phi.shape[1]))
        for k in range(partition.n_groups):
            out[k] = self.phi[partition.group_indices(k)].sum(axis=0)
        return out


def attribute_temporal(
    f: ValueFunction,
    panel: FeaturePanel,
    baseline=None,
    method: str = "auto",
    K: int = DEFAULT_K,
) -> TemporalAttributionResult:
    """Independent per-step attribution over a feature panel.

    The panel already holds a finite float64 tensor, so its steps go to the
    engines without another finiteness scan.
    """
    n, T, D = panel.features.shape
    # population_mean is the panel-wide mean; first_step is the step-0 slice
    base = _resolve_baseline(baseline, panel.features.reshape(-1, D), panel.step_slice(0))
    phi = np.empty((n, T))
    dv = np.empty(T)
    last_method = {}
    for t in range(T):
        res = _dispatch(f, panel.step_slice(t), base, method, K, None)
        phi[:, t] = res.phi
        dv[t] = res.delta_v
        last_method = res.method
    return TemporalAttributionResult(phi, dv, base, last_method)


def group_share(
    result: AttributionResult,
    partition: TierPartition,
    group: int,
    subset_indices: Optional[Sequence[int]] = None,
) -> float:
    """Total normalized share held by one tier within the attributed set.

    ``subset_indices`` maps result rows to panel agent positions when the
    result was computed on a subset of the partitioned population.
    """
    if result.normalized is None:
        raise AspanelError("group_share needs a normalized result")
    if subset_indices is None:
        labels = partition.labels
        if len(labels) != result.n_agents:
            raise AspanelError("partition size does not match result; pass subset_indices")
    else:
        labels = partition.labels[np.asarray(subset_indices, dtype=np.int64)]
    return float(result.normalized[labels == group].sum())


def tier_shares(
    result: AttributionResult,
    partition: TierPartition,
    subset_indices: Optional[Sequence[int]] = None,
) -> np.ndarray:
    return np.array(
        [group_share(result, partition, k, subset_indices) for k in range(partition.n_groups)]
    )
