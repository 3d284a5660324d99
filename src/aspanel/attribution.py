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
    z0 = _resolve_baseline(baseline, z)
    return _attribute(f, f._check(z), f._check(z0), z0, method, K, seed)


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


def _attribute(f: ValueFunction, x: np.ndarray, x0: np.ndarray, z0: np.ndarray, method: str,
               K: int, seed: Optional[int]) -> AttributionResult:
    """attribute from a baseline z0 that _resolve_baseline returned to an array
    z that _as_features accepted, on what f reads of them: x = f._check(z)
    and x0 = f._check(z0)."""
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
        return _midpoint(f, x, x0, z0, K, method == "permuted_path", seed)
    # analytic from zero, or auto where the closed form covers z0
    phi, values, meta = f.closed_form(x, x0)
    if z0.ndim == 2:
        named = {"name": "closed_form", "baseline": "per_agent", "f": f.kind}
    elif z0.any():
        named = {"name": "closed_form", "baseline": "shared_row", "f": f.kind}
    else:
        named = {"name": "analytic", "f": f.kind}
    return _result(phi, values, z0, named, **meta)


def _midpoint(f: ValueFunction, x: np.ndarray, x0: np.ndarray, z0: np.ndarray, K: int,
              permuted: bool, seed: Optional[int]) -> AttributionResult:
    """K-point midpoint quadrature of the gradient from z0 to z: all agents
    fade in together, or with ``permuted`` one at a time in a seeded order.
    It runs on what the kind reads, x and x0 as in :func:`_attribute`, and
    sums the gradient in the gradient's own shape."""
    if K < 1:
        raise AspanelError("K must be a positive integer")
    x0_full = np.broadcast_to(x0, x.shape)
    delta = x - x0_full

    if not permuted:
        f.check_path(x, x0)
        acc = sum(f._gradient(x0_full + (k - 0.5) / K * delta) for k in range(1, K + 1))
        phi = _row_sums(delta * acc / K)
        method = {"name": "midpoint", "K": K, "f": f.kind}
    else:
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(x))
        state = np.array(x0_full)
        phi = np.zeros(len(x))
        for i in order:
            # each leg is a straight path of its own: agent i alone fades in
            end = state.copy()
            end[i] = x[i]
            f.check_path(end, state)
            acc_i = np.zeros(x.shape[1])
            for k in range(1, K + 1):
                state[i] = x0_full[i] + (k - 0.5) / K * delta[i]
                acc_i += np.broadcast_to(f._gradient(state), x.shape)[i]
            state[i] = x[i]
            phi[i] = float(delta[i] @ (acc_i / K))
        method = {"name": "permuted_path", "K": K, "seed": seed, "f": f.kind}

    # f is evaluated on x, as the n x 1 g of a row_sums kind is a feature
    # array of f whose row sums are g; a row sum that overflowed left phi not
    # finite, which is named first
    _finite(phi, f"{f.kind} attribution ({method['name']})")
    return _result(phi, (f.evaluate(x), f.evaluate(x0_full)), z0, method)


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

    def step_totals(self) -> np.ndarray:
        return self.phi.sum(axis=0)

    def group_totals(self, partition: TierPartition) -> np.ndarray:
        """(n_groups, n_steps) attribution mass per tier per step."""
        return _tier_sums(self.phi, partition)


def attribute_temporal(
    f: ValueFunction,
    panel: FeaturePanel,
    baseline=None,
    method: str = "auto",
    K: int = DEFAULT_K,
) -> TemporalAttributionResult:
    """Independent per-step attribution over a feature panel.

    The baseline is resolved once for all steps, and what f reads of it
    once.  Each step is read once, into what f reads of it: a row_sums
    kind's g comes out as one contiguous column, and g for one step at a
    time holds a third of the memory of g for all steps of a 3-step panel.
    The panel already holds a finite float64 tensor, so its steps go to the
    engine without another finiteness scan.
    """
    n, T, D = panel.features.shape
    # population_mean is the panel-wide mean; first_step is the step-0 slice
    base = _resolve_baseline(baseline, panel.features.reshape(-1, D), panel.step_slice(0), n)
    x0 = f._check(base)
    phi = np.empty((n, T))
    dv, scale = np.empty(T), np.empty(T)
    last_method = {}
    for t in range(T):
        res = _attribute(f, f._check(panel.step_slice(t)), x0, base, method, K, None)
        phi[:, t] = res.phi
        dv[t], scale[t] = res.delta_v, res.value_scale
        last_method = res.method
    return TemporalAttributionResult(phi, dv, base, last_method, scale)


def _tier_sums(values: np.ndarray, partition: TierPartition) -> np.ndarray:
    """Sum of the rows of ``values`` in each group, in group order.  A group's
    ascending indices gather the rows that ``values[labels == k]`` selects,
    in the same order, so each sum is that mask's sum bit for bit."""
    if len(partition.labels) != len(values):
        raise AspanelError(f"{len(partition.labels)} tier labels for {len(values)} attributed rows")
    return np.array([values.take(idx, axis=0).sum(axis=0) for idx in partition.groups])


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
    if subset_indices is not None:
        idx, n = np.asarray(subset_indices, dtype=np.int64), len(partition.labels)
        if idx.size and not (idx.min() >= 0 and idx.max() < n):
            raise AspanelError(f"subset_indices must lie in [0, {n}), the partitioned agents")
        partition = TierPartition(partition.labels[idx], partition.group_names)
    return _tier_sums(result.normalized, partition)

