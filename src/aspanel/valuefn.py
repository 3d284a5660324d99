"""Macro value functions: evaluation, analytic gradients, and a Hessian probe.

Built-in kinds
--------------
``lin``              mean of per-agent feature sums g_i
``heat``             log(1 + prod_d mean_d) -- multiplicative, saturating
``var``              population variance of g
``gini``             mean absolute difference of g, halved and normalized
``additive``         sum_{i,d} W[i,d] z[i,d]                   (index-weighted)
``quadratic_cross``  sum_{i,d} Q[i,d] z[i,d]^2 + 0.5 s'Cs      (index-weighted)
``softplus``         softplus(a * sum W z) / a
``custom``           user callbacks (gradient optional, falls back to FD)

The first four are permutation-invariant families indexed by the number of
agents n; the index-weighted kinds carry per-agent parameters and are
restricted to a coalition by slicing those parameters.  Each kind is one
:class:`Kind` entry in ``KINDS``; attribution, the coalition games and the
CLI read those entries and know no kind by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.stats import rankdata

from .errors import AspanelError

# relative step for central finite differences on custom callbacks
FD_REL_STEP = 1e-6


def _as_features(z) -> np.ndarray:
    """The one coercion of feature input: a finite, nonempty n x D float64 array."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        z = z[:, None]
    if z.ndim != 2 or z.shape[0] < 1:
        raise AspanelError(f"features must be a nonempty n x D array, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise AspanelError("features contain non-finite values")
    return z


def as_baseline(z0, shape) -> np.ndarray:
    """A resolved baseline against n x D features: one length-D row when every
    agent shares it (an all-zero baseline included), else the n x D array."""
    z0 = np.asarray(z0, dtype=np.float64)
    n, D = shape
    try:
        if z0.ndim < 2 or z0.shape[0] == 1:
            return np.broadcast_to(z0, (1, D))[0]
        full = np.broadcast_to(z0, shape)
    except ValueError:
        raise AspanelError(
            f"baseline of shape {z0.shape} does not fit {n} agents x {D} dims") from None
    return full if full.any() else np.zeros(D)


def gini_ranks(g: np.ndarray) -> tuple[np.ndarray, bool]:
    """1-based ascending ranks of g, ties given their average (mid) rank.

    Any rank assignment among ties yields the same Gini value; midranks pin
    down the symmetric subgradient, so identical agents receive identical
    attribution.  Returns (ranks, had_ties).
    """
    ranks = rankdata(g, method="average")
    had_ties = bool(len(g) > 1 and np.any(np.diff(np.sort(g)) == 0))
    return ranks, had_ties


@dataclass(frozen=True)
class Kind:
    """One value-function kind.  Its callables take (params, z), with z an
    n x D array that :func:`_as_features` accepted."""

    evaluate: Callable
    gradient: Callable
    # (params, z, z0) -> (phi, delta_v, metadata): the exact path integral from
    # z0, a length-D row shared by every agent or an n x D array (as_baseline)
    closed_form: Optional[Callable] = None
    covers: str = "any"  # baselines closed_form integrates: "any" | "shared_row"
    # (params, z, z0): raises AspanelError where the straight path from the
    # resolved baseline z0 to z leaves the domain of f
    check_path: Callable = lambda p, z, z0: None
    # coalition values under restrict semantics, which read no baseline: agent_stats
    # (params, z) runs once per game, and its stats feed mask_values(params,
    # stats, masks), v(C) for each row of an (m, n) boolean matrix, and
    # prefix_values(params, stats, perm), v(perm[:t]) for t = 1..n; v(empty) = 0
    agent_stats: Optional[Callable] = None
    mask_values: Optional[Callable] = None
    prefix_values: Optional[Callable] = None
    required: tuple = ()  # params every caller must supply
    agent_params: dict = field(default_factory=dict)  # name -> "rows" (n x D) | "pairs" (n x n)
    defaults: dict = field(default_factory=dict)
    check: Callable = lambda p: None  # raises AspanelError on invalid params


# ---- the built-in kinds ---------------------------------------------------


def _lin_phi(p, z, z0):
    g, g0 = z.sum(axis=1), z0.sum(axis=-1)
    return (g - g0) / len(g), float(g.mean() - g0.mean()), {}


def _heat_value(p, z) -> float:
    return float(np.log1p(np.prod(z.mean(axis=0))))


def _heat_gradient(p, z):
    n, D = z.shape
    m = z.mean(axis=0)
    prod_others = np.array([np.prod(np.delete(m, d)) for d in range(D)])
    row = prod_others / (n * (1.0 + np.prod(m)))
    return np.broadcast_to(row, z.shape).copy()


# The heat path integral from a nonzero baseline is integrated by composite
# Gauss-Legendre: HEAT_NODES nodes per panel, with [0, 1] halved until no root
# of q(tau) = 1 + prod_d m_d(tau) lies inside a panel's Bernstein ellipse of
# parameter HEAT_RHO (or the panel is too short to halve in floating point),
# so each panel errs by about HEAT_RHO**(-2 * HEAT_NODES).
HEAT_NODES = 20
HEAT_RHO = 3.0
_GL_X, _GL_W = np.polynomial.legendre.leggauss(HEAT_NODES)
_HEAT_OVERFLOW = "heat: the product of the column means overflows"


def _heat_check_path(q: list) -> None:
    """Raise unless every q = 1 + prod of the column means is finite and positive."""
    if not all(map(math.isfinite, q)):
        raise AspanelError(_HEAT_OVERFLOW)
    if min(q) <= 0:
        raise AspanelError("heat: 1 + prod of the column means reaches zero between "
                           "baseline and features, where log1p is undefined")


def _heat_path_roots(m0, slope):
    """Roots of q(tau) = 1 + prod_d (m0_d + tau slope_d), the column means
    along the path.  log1p needs q > 0 on all of [0, 1]; q changes sign only
    at a real root, so q is checked at the endpoints, at the real parts of
    the roots in [0, 1] and halfway between them."""
    coeffs = np.ones(1)
    for a, b in zip(m0, slope):
        coeffs = np.convolve(coeffs, [b, a])
    coeffs[-1] += 1.0
    if not np.all(np.isfinite(coeffs)):
        raise AspanelError(_HEAT_OVERFLOW)
    # a leading coefficient below rounding of the largest only puts roots
    # past 1/eps, far from the path; dropping it keeps the companion finite
    big = np.abs(coeffs) > np.finfo(float).eps * np.abs(coeffs).max()
    roots = np.roots(coeffs[np.argmax(big):])
    cuts = np.unique(np.concatenate([[0.0, 1.0], np.clip(roots.real, 0.0, 1.0)]))
    probe = np.concatenate([cuts, (cuts[1:] + cuts[:-1]) / 2])
    _heat_check_path((1.0 + np.prod(m0 + probe[:, None] * slope, axis=1)).tolist())
    return roots


def _heat_path(p, z, z0):
    """(m0, m1, roots): the column means at baseline z0 and at z, and the roots
    of q on the path between them, after checking that q stays positive."""
    m1 = z.mean(axis=0)
    m0 = z0 if z0.ndim == 1 else z0.mean(axis=0)
    return m0, m1, _heat_path_roots(m0, m1 - m0)


def _heat_path_weights(m0, m1, roots):
    """I_d = integral over [0, 1] of prod_{d' != d} m_d'(tau) / q(tau)."""
    panels, todo = [], [(0.0, 1.0)]
    while todo:
        lo, hi = todo.pop()
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        w = (roots - mid) / half
        s = np.sqrt(w * w - 1 + 0j)
        if not lo < mid < hi or np.all(np.maximum(abs(w + s), abs(w - s)) >= HEAT_RHO):
            panels.append((mid, half))
        else:
            todo += [(lo, mid), (mid, hi)]
    mid, half = (col[:, None] for col in np.array(panels).T)
    # nodes as tau and 1 - tau, each from the nearer end of the path, so the
    # means (1 - tau) m0 + tau m1 keep their relative precision at both ends
    x, from_end = half * _GL_X, mid > 0.5
    tau = np.where(from_end, 1.0 - ((1.0 - mid) - x), mid + x).ravel()
    rest = np.where(from_end, (1.0 - mid) - x, 1.0 - (mid + x)).ravel()
    weight = (half * _GL_W).ravel()
    m = rest[:, None] * m0 + tau[:, None] * m1
    # product of the other columns without dividing: left and right running products
    left, right = np.ones_like(m), np.ones_like(m)
    left[:, 1:] = np.cumprod(m[:, :-1], axis=1)
    right[:, :-1] = np.cumprod(m[:, :0:-1], axis=1)[:, ::-1]
    return weight @ (left * right / (1.0 + np.prod(m, axis=1))[:, None])


def _heat_phi(p, z, z0):
    n, D = z.shape
    if z0.any():
        # the gradient is the same row for every agent, integrated once
        m0, m1, roots = _heat_path(p, z, z0)
        weights = _heat_path_weights(m0, m1, roots)
        return (z - z0) @ weights / n, float(np.log1p(np.prod(m1)) - np.log1p(np.prod(m0))), {}
    m1 = z.mean(axis=0)
    _heat_check_path([1.0 + float(np.prod(m1))])  # q(tau) = 1 + tau^D prod(m1) is monotone
    val = float(np.log1p(np.prod(m1)))
    # From zero, phi_i = (v / D) sum_d z_id / sum_j z_jd; a zero column sum
    # means v = 0, so that block is skipped rather than divided by zero.  With
    # exactly one zero sum s_k, the path integral keeps the k-th gradient term:
    # phi_i = z_ik prod_{d != k}(s_d / n) / (n D); with two or more, phi = 0.
    sums = z.sum(axis=0)
    zero = np.flatnonzero(sums == 0)
    if len(zero) == 1:
        k = zero[0]
        return z[:, k] * (np.prod(np.delete(sums, k) / n) / (n * D)), val, {}
    shares = np.zeros_like(z)
    nonzero = sums != 0
    shares[:, nonzero] = z[:, nonzero] / sums[nonzero]
    return shares.sum(axis=1) * (val / D), val, {}


def _var_value(p, z) -> float:
    g = z.sum(axis=1)
    return float(np.mean((g - g.mean()) ** 2))


def _var_gradient(p, z):
    g = z.sum(axis=1)
    col = (2.0 / len(g)) * (g - g.mean())
    return np.repeat(col[:, None], z.shape[1], axis=1)


def _var_phi(p, z, z0):
    # The gradient is linear in tau, so phi_i = (g_i - g0_i)((g_i - gbar) +
    # (g0_i - g0bar)) / n; the order of operations keeps g (g - gbar) / n
    # bit for bit at the zero baseline.
    g, g0 = z.sum(axis=1), z0.sum(axis=-1)
    gbar, g0bar = g.mean(), g0.mean()
    phi = (g - g0) * ((g - gbar) - (g0bar - g0)) / len(g)
    return phi, float(np.mean((g - gbar) ** 2) - ((g0 - g0bar) ** 2).mean()), {}


def _gini_value(p, z) -> float:
    g = z.sum(axis=1)
    n = len(g)
    ranks, _ = gini_ranks(g)
    # sorted-rank identity for (1/2n^2) sum_ij |g_i - g_j|
    return float(np.dot(2.0 * ranks - n - 1.0, g) / n**2)


def _gini_gradient(p, z):
    g = z.sum(axis=1)
    n = len(g)
    ranks, _ = gini_ranks(g)
    col = (2.0 * ranks - n - 1.0) / n**2
    return np.repeat(col[:, None], z.shape[1], axis=1)


def _gini_phi(p, z, z0):
    # From a shared row z0 every g_i moves as (1 - tau) sum(z0) + tau g_i, so
    # the ranks hold along the path.  The rank weights sum to zero and
    # f(z0) = 0, hence delta_v = sum(phi).
    g = z.sum(axis=1)
    n = len(g)
    ranks, ties = gini_ranks(g)
    phi = (g - z0.sum()) * (2.0 * ranks - n - 1.0) / n**2
    return phi, float(phi.sum()), {"gini_ties": ties}


# elements of the pairwise |g_s - g_j| block that _gini_prefix_values holds at once
GINI_PREFIX_BLOCK = 1 << 16


def _gini_stats(p, z):
    g = z.sum(axis=1)
    return g, np.argsort(g, kind="stable")


def _gini_mask_values(p, stats, masks):
    # With the agents in ascending order of g, the running count R of members
    # is each member's rank within the coalition C, so by the sorted-rank
    # identity v(C) = sum_C g (2R - |C| - 1) / |C|^2.  Ties may take any order.
    g, order = stats
    member = masks[:, order]
    w = np.cumsum(member, axis=1, dtype=np.float64)
    size = w[:, -1].copy()
    w *= 2.0
    w -= (size + 1.0)[:, None]
    w *= member
    return (w @ g[order]) / np.maximum(size, 1.0) ** 2


def _gini_prefix_values(p, stats, perm):
    # v(perm[:t]) = S_t / t^2, S_t the sum of |g_i - g_j| over the pairs in
    # the prefix: each new agent s adds its distances to the agents before it
    h = stats[0][perm]
    n = len(h)
    rows = max(1, GINI_PREFIX_BLOCK // n)
    added = np.empty(n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        dist = np.abs(h[lo:hi, None] - h[None, :hi])
        added[lo:hi] = np.tril(dist, lo - 1).sum(axis=1)
    t = np.arange(1.0, n + 1)
    return np.cumsum(added) / (t * t)


def _quadratic_value(p, z) -> float:
    s = z.sum(axis=1)
    return float(np.sum(p["diag"] * z**2) + 0.5 * s @ p["coupling"] @ s)


def _check_coupling(p) -> None:
    C = p["coupling"]
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise AspanelError("coupling matrix must be square")
    if not np.allclose(C, C.T):
        raise AspanelError("coupling matrix must be symmetric")
    if np.any(np.diag(C) != 0.0):
        raise AspanelError("coupling matrix must have zero diagonal")


def _softplus_value(p, z) -> float:
    a = p["scale"]
    # softplus(a*s)/a, overflow-safe
    return float(np.logaddexp(0.0, a * float(np.sum(p["weights"] * z))) / a)


def _softplus_gradient(p, z):
    a = p["scale"]
    s = float(np.sum(p["weights"] * z))
    sig = 1.0 / (1.0 + math.exp(-a * s)) if a * s > -700 else 0.0
    return sig * np.broadcast_to(p["weights"], z.shape)


def _check_scale(p) -> None:
    if not p["scale"] > 0:
        raise AspanelError("softplus scale must be positive")


def _custom_gradient(p, z):
    if p["grad"] is not None:
        return np.asarray(p["grad"](z), dtype=np.float64).reshape(z.shape)
    # central finite differences, one coordinate at a time
    fn, out, work = p["fn"], np.empty_like(z), z.copy()
    for i, d in np.ndindex(*z.shape):
        h = max(FD_REL_STEP, FD_REL_STEP * abs(z[i, d]))
        work[i, d] = z[i, d] + h
        fp = float(fn(work))
        work[i, d] = z[i, d] - h
        out[i, d] = (fp - float(fn(work))) / (2.0 * h)
        work[i, d] = z[i, d]
    return out


def _weighted_sums(p, z):
    return ((p["weights"] * z).sum(axis=1),)


def _summed(from_stats) -> dict:
    """The coalition hooks of a kind whose v(C) is from_stats(params, the
    coalition sums of its agent stats, |C|): mask sums as M @ s, prefix sums
    as cumsum(s[perm])."""

    def values(p, sums, count):
        safe = np.where(count > 0, count, 1.0)
        return np.where(count > 0, from_stats(p, sums, safe), 0.0)

    def mask_values(p, stats, masks):
        m = masks.astype(np.float64)
        return values(p, [m @ s for s in stats], m.sum(axis=1))

    def prefix_values(p, stats, perm):
        count = np.arange(1, len(perm) + 1, dtype=np.float64)
        return values(p, [np.cumsum(s[perm], axis=0) for s in stats], count)

    return {"mask_values": mask_values, "prefix_values": prefix_values}


KINDS: dict[str, Kind] = {
    "lin": Kind(
        evaluate=lambda p, z: float(z.sum(axis=1).mean()),
        gradient=lambda p, z: np.full_like(z, 1.0 / z.shape[0]),
        closed_form=_lin_phi,
        agent_stats=lambda p, z: (z.sum(axis=1),),
        **_summed(lambda p, s, count: s[0] / count),
    ),
    "heat": Kind(
        evaluate=_heat_value, gradient=_heat_gradient, closed_form=_heat_phi,
        check_path=_heat_path,
        agent_stats=lambda p, z: (z,),
        **_summed(lambda p, s, count: np.log1p(np.prod(s[0] / count[..., None], axis=-1))),
    ),
    "var": Kind(
        evaluate=_var_value, gradient=_var_gradient, closed_form=_var_phi,
        agent_stats=lambda p, z: (z.sum(axis=1), z.sum(axis=1) ** 2),
        **_summed(lambda p, s, count: s[1] / count - (s[0] / count) ** 2),
    ),
    "gini": Kind(
        evaluate=_gini_value, gradient=_gini_gradient, closed_form=_gini_phi,
        covers="shared_row", agent_stats=_gini_stats, mask_values=_gini_mask_values,
        prefix_values=_gini_prefix_values,
    ),
    "additive": Kind(
        evaluate=lambda p, z: float(np.sum(p["weights"] * z)),
        gradient=lambda p, z: np.broadcast_to(p["weights"], z.shape).copy(),
        agent_stats=_weighted_sums, **_summed(lambda p, s, count: s[0]),
        required=("weights",), agent_params={"weights": "rows"},
    ),
    "quadratic_cross": Kind(
        evaluate=_quadratic_value,
        gradient=lambda p, z: 2.0 * p["diag"] * z + (p["coupling"] @ z.sum(axis=1))[:, None],
        required=("diag", "coupling"), agent_params={"diag": "rows", "coupling": "pairs"},
        check=_check_coupling,
    ),
    "softplus": Kind(
        evaluate=_softplus_value, gradient=_softplus_gradient,
        agent_stats=_weighted_sums,
        **_summed(lambda p, s, count: np.logaddexp(0.0, p["scale"] * s[0]) / p["scale"]),
        required=("weights",), agent_params={"weights": "rows"},
        defaults={"scale": 0.35}, check=_check_scale,
    ),
    "custom": Kind(
        evaluate=lambda p, z: float(p["fn"](z)), gradient=_custom_gradient,
        required=("fn",), defaults={"grad": None},
    ),
}


@dataclass(frozen=True, eq=False)
class ValueFunction:
    """A tagged member of the macro value-function family.

    Immutable after construction; ``evaluate`` and ``gradient`` are pure.
    Equality and hashing are by identity: params hold arrays and callbacks.
    """

    kind: str
    params: dict = field(default_factory=dict)
    _spec: Kind = field(init=False, repr=False)

    def __post_init__(self):
        spec = KINDS.get(self.kind)
        if spec is None:
            raise AspanelError(f"unknown value-function kind {self.kind!r}")
        missing = [name for name in spec.required if name not in self.params]
        if missing:
            raise AspanelError(f"value function {self.kind!r} needs {', '.join(missing)}")
        params = {**spec.defaults, **self.params}
        for name in spec.agent_params:
            params[name] = np.asarray(params[name], dtype=np.float64)
        spec.check(params)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "_spec", spec)

    def _check(self, z: np.ndarray) -> np.ndarray:
        """Return z after checking that every per-agent param matches its n x D."""
        n, D = z.shape
        for name, layout in self._spec.agent_params.items():
            shape = self.params[name].shape
            if shape not in (((n, n),) if layout == "pairs" else ((n, D), (n, 1))):
                raise AspanelError(f"{name} of shape {shape} does not fit {n} agents x {D} dims")
        return z

    def evaluate(self, features) -> float:
        return self._spec.evaluate(self.params, self._check(_as_features(features)))

    def gradient(self, features) -> np.ndarray:
        return self._spec.gradient(self.params, self._check(_as_features(features)))

    def closed_form(self, z: np.ndarray, z0: np.ndarray) -> tuple[np.ndarray, float, dict]:
        """(phi, delta_v, metadata) of the path integral from baseline z0, as
        :func:`as_baseline` returns it; z is an array that :func:`_as_features`
        accepted."""
        return self._spec.closed_form(self.params, self._check(z), z0)

    def check_path(self, z: np.ndarray, z0: np.ndarray) -> None:
        """Raise AspanelError where the straight path from baseline z0, as
        :func:`as_baseline` returns it, to z leaves the domain of f."""
        self._spec.check_path(self.params, z, z0)

    def covers(self, z0: np.ndarray) -> bool:
        """The kind has a closed form from baseline z0, as :func:`as_baseline`
        returns it: a shared row or, for most kinds, a per-agent array."""
        spec = self._spec
        return spec.closed_form is not None and (spec.covers == "any" or z0.ndim == 1)

    def agent_stats(self, z: np.ndarray) -> Optional[tuple[np.ndarray, ...]]:
        """Per-agent statistics from which :meth:`mask_values` and
        :meth:`prefix_values` give v(C) under restrict semantics, or None when the kind has no such hooks; z as above."""
        stats = self._spec.agent_stats
        return None if stats is None else stats(self.params, self._check(z))

    def mask_values(self, stats, masks: np.ndarray) -> np.ndarray:
        """v(C) for each row of an (m, n) boolean coalition matrix; empty -> 0."""
        return self._spec.mask_values(self.params, stats, masks)

    def prefix_values(self, stats, perm: np.ndarray) -> np.ndarray:
        """v(perm[:t]) for t = 1..n, the coalitions a permutation builds up."""
        return self._spec.prefix_values(self.params, stats, perm)

    @property
    def has_closed_form(self) -> bool:
        return self._spec.closed_form is not None

    @property
    def permutation_invariant(self) -> bool:
        """Relabelling agents cannot change f: every required param is a
        per-agent row param with all rows equal (the families have none)."""
        spec, p = self._spec, self.params
        return all(spec.agent_params.get(name) == "rows" and bool(np.all(p[name] == p[name][0]))
                   for name in spec.required)

    def restrict(self, indices: Sequence[int]) -> "ValueFunction":
        """Restrict to a coalition by slicing the per-agent params; a kind
        without any (lin/heat/var/gini, custom) adapts to n and is returned as is."""
        if not self._spec.agent_params:
            return self
        idx = np.asarray(indices, dtype=np.int64)
        params = dict(self.params)
        for name, layout in self._spec.agent_params.items():
            params[name] = params[name][np.ix_(idx, idx) if layout == "pairs" else idx]
        return ValueFunction(self.kind, params)


# ---- constructors -------------------------------------------------------


def linear_mean() -> ValueFunction:
    return ValueFunction("lin")


def heat() -> ValueFunction:
    return ValueFunction("heat")


def variance() -> ValueFunction:
    return ValueFunction("var")


def gini() -> ValueFunction:
    return ValueFunction("gini")


def additive(weights) -> ValueFunction:
    return ValueFunction("additive", {"weights": weights})


def quadratic_cross(diag, coupling) -> ValueFunction:
    return ValueFunction("quadratic_cross", {"diag": diag, "coupling": coupling})


def softplus_aggregator(weights, scale: float = 0.35) -> ValueFunction:
    return ValueFunction("softplus", {"weights": weights, "scale": float(scale)})


def custom(fn: Callable, grad: Optional[Callable] = None) -> ValueFunction:
    return ValueFunction("custom", {"fn": fn, "grad": grad})


def by_name(name: str, **params) -> ValueFunction:
    """Resolve a CLI/config tag into a ValueFunction; ``params`` supply the
    kind's required parameters, such as ``weights``."""
    return ValueFunction(name, params)


# ---- module-level operations --------------------------------------------


def evaluate(f: ValueFunction, features) -> float:
    return f.evaluate(features)


def gradient(f: ValueFunction, features) -> np.ndarray:
    return f.gradient(features)


def hessian_offdiag_probe(
    f: ValueFunction,
    features,
    pairs: Optional[Sequence[tuple[int, int, int, int]]] = None,
    n_pairs: int = 32,
    seed: int = 0,
    step: float = 1e-4,
) -> float:
    """Max |d^2 f / dz_{i,d} dz_{j,d'}| over sampled cross-agent pairs.

    A numerically-zero probe classifies f as additively separable across
    agents; a clearly positive probe certifies cross-agent interaction.
    Uses central mixed second differences.
    """
    z = _as_features(features)
    n, D = z.shape
    if n < 2:
        raise AspanelError("Hessian probe needs at least two agents")
    if pairs is None:
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(n_pairs):
            i, j = rng.choice(n, size=2, replace=False)
            pairs.append((int(i), int(rng.integers(D)), int(j), int(rng.integers(D))))
    worst = 0.0
    work = z.copy()
    for i, d, j, dp in pairs:
        hi = step * max(1.0, abs(z[i, d]))
        hj = step * max(1.0, abs(z[j, dp]))
        acc = 0.0
        for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            work[i, d] = z[i, d] + si * hi
            work[j, dp] = z[j, dp] + sj * hj
            acc += si * sj * f.evaluate(work)
            work[i, d] = z[i, d]
            work[j, dp] = z[j, dp]
        worst = max(worst, abs(acc / (4.0 * hi * hj)))
    return worst
