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
from .valuefn import ValueFunction, _as_features

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


def _resolve_baseline(baseline, z: np.ndarray, first_step=None, n=None) -> np.ndarray:
    """The one resolution of a baseline (None for zero, a BaselineSpec or an
    array) against n x D features: a length-D row when every agent shares it
    (an all-zero baseline included), else the n x D array.  A population_mean
    averages the rows of z, which are all T steps of a panel when ``n`` gives
    the agent count; first_step is the step-0 slice."""
    n, D = (len(z) if n is None else n), z.shape[1]
    if baseline is None:
        return np.zeros(D)
    if isinstance(baseline, BaselineSpec):
        z0 = baseline.resolve(z, first_step)
    else:
        z0 = np.asarray(baseline, dtype=np.float64)
        if not np.all(np.isfinite(z0)):
            raise AspanelError("baseline contains non-finite values")
    try:
        if z0.ndim < 2 or z0.shape[0] == 1:
            return np.broadcast_to(z0, (1, D))[0]
        full = np.broadcast_to(z0, (n, D))
    except ValueError:
        raise AspanelError(
            f"baseline of shape {z0.shape} does not fit {n} agents x {D} dims") from None
    return full if full.any() else np.zeros(D)


@dataclass(frozen=True)
class AttributionResult:
    phi: np.ndarray
    delta_v: float
    baseline: np.ndarray  # a length-D row every agent shares (zero included), else n x D
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
        baseline=z0,
        method=method,
        metadata=meta,
    )


# ---- the engine --------------------------------------------------------------


def attribute(
    f: ValueFunction,
    features,
    baseline=None,
    method: str = "auto",
    K: int = DEFAULT_K,
    seed: Optional[int] = None,
) -> AttributionResult:
    """Aumann-Shapley attribution of f from the baseline to the features.

    ``auto`` takes the kind's closed form when it covers the baseline (see
    :meth:`ValueFunction.covers`), else the K-point midpoint rule;
    ``analytic`` is the closed form at the zero baseline only; ``midpoint``
    and ``permuted_path`` are the linear and the permuted midpoint paths.
    """
    z = _as_features(features)
    return _attribute(f, z, _resolve_baseline(baseline, z), method, K, seed)


def attribute_analytic(f: ValueFunction, features, baseline=None) -> AttributionResult:
    """:func:`attribute` with ``method="analytic"``: the closed form, zero baseline."""
    return attribute(f, features, baseline, "analytic")


_PATHS = {"linear": "midpoint", "permuted": "permuted_path"}


def attribute_path_integral(
    f: ValueFunction,
    features,
    baseline=None,
    K: int = DEFAULT_K,
    path: str = "linear",
    seed: Optional[int] = None,
) -> AttributionResult:
    """:func:`attribute` through the K-point midpoint rule along the fade-in path.

    ``path='linear'`` fades all agents together (the default and the method
    of record); ``path='permuted'`` fades agents one at a time in a
    seed-determined order, with K midpoints per leg (ablation only).
    """
    if path not in _PATHS:
        raise AspanelError(f"unknown path {path!r}")
    return attribute(f, features, baseline, _PATHS[path], K, seed)


def _attribute(f: ValueFunction, z: np.ndarray, z0: np.ndarray, method: str, K: int,
               seed: Optional[int]) -> AttributionResult:
    """attribute on an array _as_features accepted and a baseline _resolve_baseline returned."""
    if method not in ("auto", "analytic", "midpoint", "permuted_path"):
        raise AspanelError(f"unknown method {method!r}")
    if method == "analytic":
        if not f.has_closed_form:
            raise AspanelError(f"no closed form for kind {f.kind!r}; use the midpoint engine")
        if z0.any():
            raise NonzeroBaselineError(
                "attribute_analytic takes the zero baseline only; "
                "use attribute or attribute_path_integral"
            )
    elif method != "auto" or not f.covers(z0):
        return _midpoint(f, z, z0, K, method == "permuted_path", seed)
    # analytic from zero, or auto where the closed form covers z0
    phi, delta, meta = f.closed_form(z, z0)
    if z0.ndim == 2:
        named = {"name": "closed_form", "baseline": "per_agent", "f": f.kind}
    elif z0.any():
        named = {"name": "closed_form", "baseline": "shared_row", "f": f.kind}
    else:
        named = {"name": "analytic", "f": f.kind}
    return _result(phi, delta, z0, named, **meta)


def _midpoint(f: ValueFunction, z: np.ndarray, z0: np.ndarray, K: int, permuted: bool,
              seed: Optional[int]) -> AttributionResult:
    """K-point midpoint quadrature of the gradient from z0 to z: all agents
    fade in together, or with ``permuted`` one at a time in a seeded order."""
    if K < 1:
        raise AspanelError("K must be a positive integer")
    n, D = z.shape
    z0_full = np.broadcast_to(z0, z.shape)
    delta = z - z0_full

    if not permuted:
        f.check_path(z, z0)
        acc = np.zeros_like(z)
        for k in range(1, K + 1):
            tau = (k - 0.5) / K
            acc += f.gradient(z0_full + tau * delta)
        phi = (delta * acc / K).sum(axis=1)
        method = {"name": "midpoint", "K": K, "f": f.kind}
    else:
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

    dv = f.evaluate(z) - f.evaluate(z0_full)
    return _result(phi, dv, z0, method)


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
    baseline: np.ndarray  # as in AttributionResult, shared by every step
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

    The baseline is resolved once for all steps.  The panel already holds a
    finite float64 tensor, so its steps go to the engine without another
    finiteness scan.
    """
    n, T, D = panel.features.shape
    # population_mean is the panel-wide mean; first_step is the step-0 slice
    base = _resolve_baseline(baseline, panel.features.reshape(-1, D), panel.step_slice(0), n)
    phi = np.empty((n, T))
    dv = np.empty(T)
    last_method = {}
    for t in range(T):
        res = _attribute(f, panel.step_slice(t), base, method, K, None)
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
