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
from .valuefn import ValueFunction, _as_features, _row_sums

DEFAULT_K = 30
# a macro change at most this share of max(|f(z)|, |f(z0)|) is rounding noise
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


def _resolve_baseline(baseline, z: np.ndarray, first_step=None, n=None) -> np.ndarray:
    """The one resolution of a baseline (None for zero, a BaselineSpec or an
    array) against n x D features: a length-D row when every agent shares it
    (an all-zero baseline included), else the n x D array.  A population_mean
    averages the rows of z, which are all T steps of a panel when ``n`` gives
    the agent count; first_step is the step-0 slice."""
    n, D = (len(z) if n is None else n), z.shape[1]
    kind = baseline.kind if isinstance(baseline, BaselineSpec) else None
    if baseline is None or kind == "zero":
        return np.zeros(D)
    if kind == "population_mean":
        z0 = z.mean(axis=0)
    elif kind == "first_step":
        if first_step is None:
            raise AspanelError("first_step baseline needs a temporal panel")
        z0 = np.asarray(first_step, dtype=np.float64)
    else:
        z0 = np.asarray(baseline if kind is None else baseline.vector, dtype=np.float64)
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
    # max(|f(z)|, |f(z0)|), the values delta_v is the difference of; a result
    # built without them is degenerate at delta_v = 0 only
    value_scale: float = 0.0

    @property
    def n_agents(self) -> int:
        return len(self.phi)

    def efficiency_residual(self) -> float:
        return abs(float(self.phi.sum()) - self.delta_v)


def _finite(values, what: str):
    """values, unless an entry is NaN or infinite: then AspanelError naming ``what``."""
    if not np.all(np.isfinite(values)):
        raise AspanelError(f"{what} is not finite: float64 overflow or an undefined value of f")
    return values


def _result(phi, values, z0, method, **meta) -> AttributionResult:
    """The result of phi, with delta_v the difference of values = (f(z), f(z0))."""
    v, v0 = map(float, values)
    phi, delta_v = np.asarray(phi, dtype=np.float64), v - v0
    what = f"{method['f']} attribution ({method['name']})"
    _finite(phi, what)
    _finite(delta_v, what)
    return AttributionResult(
        phi=phi,
        delta_v=delta_v,
        baseline=z0,
        method=method,
        value_scale=max(abs(v), abs(v0)),
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
    phi, values, meta = f.closed_form(z, z0)
    if z0.ndim == 2:
        named = {"name": "closed_form", "baseline": "per_agent", "f": f.kind}
    elif z0.any():
        named = {"name": "closed_form", "baseline": "shared_row", "f": f.kind}
    else:
        named = {"name": "analytic", "f": f.kind}
    return _result(phi, values, z0, named, **meta)


def _midpoint(f: ValueFunction, z: np.ndarray, z0: np.ndarray, K: int, permuted: bool,
              seed: Optional[int]) -> AttributionResult:
    """K-point midpoint quadrature of the gradient from z0 to z: all agents
    fade in together, or with ``permuted`` one at a time in a seeded order.
    It runs on what the kind reads, z or its row sums, and sums the gradient
    in the gradient's own shape."""
    if K < 1:
        raise AspanelError("K must be a positive integer")
    z0_full = np.broadcast_to(z0, z.shape)
    x, x0 = f._check(z), f._check(z0_full)
    delta = x - x0

    if not permuted:
        f.check_path(z, z0)
        acc = sum(f._gradient(x0 + (k - 0.5) / K * delta) for k in range(1, K + 1))
        phi = _row_sums(delta * acc / K)
        method = {"name": "midpoint", "K": K, "f": f.kind}
    else:
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(x))
        state = np.array(x0)
        phi = np.zeros(len(x))
        for i in order:
            # each leg is a straight path of its own: agent i alone fades in;
            # the n x 1 g of a row_sums kind is itself a feature array of f
            end = state.copy()
            end[i] = x[i]
            f.check_path(end, state)
            acc_i = np.zeros(x.shape[1])
            for k in range(1, K + 1):
                state[i] = x0[i] + (k - 0.5) / K * delta[i]
                acc_i += np.broadcast_to(f._gradient(state), x.shape)[i]
            state[i] = x[i]
            phi[i] = float(delta[i] @ (acc_i / K))
        method = {"name": "permuted_path", "K": K, "seed": seed, "f": f.kind}

    return _result(phi, (f.evaluate(z), f.evaluate(z0_full)), z0, method)


# ---- normalization and aggregation -----------------------------------------


def degenerate(delta_v, value_scale):
    """Whether a macro change is too small to share out: |delta_v| at most
    DEGENERATE_TOL times max(|f(z)|, |f(z0)|), the values it is the
    difference of, so that it is zero or rounding noise.  Elementwise on
    arrays."""
    return np.abs(delta_v) <= DEGENERATE_TOL * value_scale


def normalize(result: AttributionResult) -> AttributionResult:
    """Fill normalized shares phi / delta_v; they sum to one by construction."""
    if degenerate(result.delta_v, result.value_scale):
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
    value_scale: np.ndarray  # (n_steps,), as in AttributionResult

    def agent_totals(self) -> np.ndarray:
        return self.phi.sum(axis=1)

    def step_totals(self) -> np.ndarray:
        return self.phi.sum(axis=0)

    def group_totals(self, partition: TierPartition) -> np.ndarray:
        """(n_groups, n_steps) attribution mass per tier per step."""
        return _tier_sums(self.phi, partition.labels, partition.n_groups)


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
    dv, scale = np.empty(T), np.empty(T)
    last_method = {}
    for t in range(T):
        res = _attribute(f, panel.step_slice(t), base, method, K, None)
        phi[:, t] = res.phi
        dv[t], scale[t] = res.delta_v, res.value_scale
        last_method = res.method
    return TemporalAttributionResult(phi, dv, base, last_method, scale)


def _tier_sums(values: np.ndarray, labels: np.ndarray, n_groups: int) -> np.ndarray:
    """Sum of the rows of ``values`` in each group, in group order."""
    if len(labels) != len(values):
        raise AspanelError(f"{len(labels)} tier labels for {len(values)} attributed rows")
    return np.array([values[labels == k].sum(axis=0) for k in range(n_groups)])


def tier_shares(
    result: AttributionResult,
    partition: TierPartition,
    subset_indices: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Total normalized share held by each tier within the attributed set.

    ``subset_indices`` maps result rows to panel agent positions when the
    result was computed on a subset of the partitioned population.
    """
    if result.normalized is None:
        raise AspanelError("tier shares need a normalized result")
    labels = partition.labels
    if subset_indices is not None:
        idx = np.asarray(subset_indices, dtype=np.int64)
        if idx.size and not (idx.min() >= 0 and idx.max() < len(labels)):
            raise AspanelError(f"subset_indices must lie in [0, {len(labels)}), the "
                               "partitioned agents")
        labels = labels[idx]
    return _tier_sums(result.normalized, labels, partition.n_groups)


def group_share(
    result: AttributionResult,
    partition: TierPartition,
    group: int,
    subset_indices: Optional[Sequence[int]] = None,
) -> float:
    """Total normalized share held by one tier; see :func:`tier_shares`."""
    if not 0 <= group < partition.n_groups:
        raise AspanelError(f"group {group} is not one of the {partition.n_groups} tiers")
    return float(tier_shares(result, partition, subset_indices)[group])
