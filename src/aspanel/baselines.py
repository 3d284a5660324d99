"""Coalition-based reference attributions: LOO, Shapley, Banzhaf.

A :class:`CoalitionGame` wraps a value function and a feature matrix and
exposes v(C) for agent coalitions C.  Two coalition semantics are supported:

``restrict``  agents outside C are absent and the family size becomes |C|
              (index-weighted kinds are restricted by slicing their params);
``pin``       the configuration keeps all n agents with outside agents pinned
              to the baseline row.

v(empty) = 0 for every built-in kind: all of them vanish on the empty /
all-baseline configuration with a zero baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .attribution import _resolve_baseline
from .errors import AspanelError, InfeasibleError
from .valuefn import ValueFunction, _as_features

EXACT_GUARD = 20


class CoalitionGame:
    def __init__(
        self,
        f: ValueFunction,
        features,
        semantics: str = "restrict",
        baseline: Optional[np.ndarray] = None,
    ):
        if semantics not in ("restrict", "pin"):
            raise AspanelError(f"unknown coalition semantics {semantics!r}")
        z = _as_features(features)
        self.f = f
        self.features = z
        self.semantics = semantics
        self.baseline = _resolve_baseline(baseline, z)
        # per-agent statistics for f's vectorized coalition values, when it has
        # them; restrict values never read the baseline, pinned ones do
        self._stats = f.agent_stats(z) if semantics == "restrict" else None

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def value(self, coalition: Sequence[int]) -> float:
        idx = np.asarray(coalition, dtype=np.int64)
        if idx.size == 0:
            return 0.0
        if self.semantics == "restrict":
            return self.f.restrict(idx).evaluate(self.features[idx])
        pinned = np.broadcast_to(self.baseline, self.features.shape).copy()
        pinned[idx] = self.features[idx]
        return self.f.evaluate(pinned)

    def grand_value(self) -> float:
        return self.f.evaluate(self.features)

    # ---- vectorized helpers ------------------------------------------------

    @property
    def _fast(self) -> bool:
        return self._stats is not None

    def mask_values(self, masks: np.ndarray) -> np.ndarray:
        """v(C) for a (m, n) boolean coalition matrix; vectorized when f's
        kind has coalition hooks (see :meth:`ValueFunction.agent_stats`)."""
        masks = np.asarray(masks, dtype=bool)
        if self._fast:
            return self.f.mask_values(self._stats, masks)
        return np.array([self.value(np.flatnonzero(row)) for row in masks])


@dataclass(frozen=True)
class SampledEstimate:
    values: np.ndarray
    stderr: np.ndarray
    n_samples: int
    seed: Optional[int]


# ---- leave-one-out ---------------------------------------------------------


def leave_one_out(game: CoalitionGame) -> np.ndarray:
    if game.n < 2:
        raise AspanelError("leave-one-out needs at least two agents")
    masks = ~np.eye(game.n, dtype=bool)
    return game.grand_value() - game.mask_values(masks)


# ---- exact enumeration -----------------------------------------------------


def _exact(game: CoalitionGame, what: str, weight: Callable[[int], np.ndarray]) -> np.ndarray:
    """phi_i = sum over coalitions S without i of w[|S|] (v(S + i) - v(S)),
    w = weight(n), from v of all 2^n coalitions (row index = bitmask over agents)."""
    n = game.n
    if n > EXACT_GUARD:
        raise InfeasibleError(
            f"exact {what} is infeasible for n={n} (> {EXACT_GUARD}): 2^n enumeration"
        )
    w = weight(n)
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1).astype(bool)
    vals = game.mask_values(bits)
    sizes = bits.sum(axis=1)
    phi = np.zeros(n)
    for i in range(n):
        without = np.flatnonzero(~bits[:, i])
        phi[i] = float(np.sum(w[sizes[without]] * (vals[without | 1 << i] - vals[without])))
    return phi


def _shapley_weights(n: int) -> np.ndarray:
    """|S|! (n - |S| - 1)! / n! for |S| = 0..n-1."""
    fact = [1.0] * (n + 1)
    for k in range(2, n + 1):
        fact[k] = fact[k - 1] * k
    return np.array([fact[s] * fact[n - s - 1] / fact[n] for s in range(n)])


def exact_shapley(game: CoalitionGame) -> np.ndarray:
    return _exact(game, "Shapley", _shapley_weights)


def exact_banzhaf(game: CoalitionGame) -> np.ndarray:
    # each coalition of the others weighs 1 / 2^(n-1), a power of two, so the
    # weighted sum equals the mean of the marginals bit for bit
    return _exact(game, "Banzhaf", lambda n: np.full(n, 0.5 ** (n - 1)))


# ---- Monte Carlo estimators -------------------------------------------------


def sampled_shapley(game: CoalitionGame, m: int, seed: Optional[int] = None) -> SampledEstimate:
    """Permutation Monte Carlo Shapley.

    Each permutation's marginals telescope to v([n]) - v(empty), so the mean
    estimate is exactly efficient for every m.  Per-permutation seeds derive
    from the root seed by counter, making results independent of scheduling.
    """
    if m < 1:
        raise AspanelError("need at least one permutation sample")
    n = game.n
    acc = np.zeros(n)
    acc2 = np.zeros(n)
    for j in range(m):
        rng = np.random.default_rng((seed, j) if seed is not None else None)
        perm = rng.permutation(n)
        if game._fast:
            prefix_vals = game.f.prefix_values(game._stats, perm)
        else:
            prefix_vals = np.empty(n)
            for t in range(n):
                prefix_vals[t] = game.value(perm[: t + 1])
        marginals = np.diff(np.concatenate(([0.0], prefix_vals)))
        contrib = np.empty(n)
        contrib[perm] = marginals
        acc += contrib
        acc2 += contrib**2
    mean = acc / m
    var = np.maximum(acc2 / m - mean**2, 0.0)
    stderr = np.sqrt(var / m) if m > 1 else np.full(n, np.nan)
    return SampledEstimate(mean, stderr, m, seed)


def sampled_banzhaf(game: CoalitionGame, m: int, seed: Optional[int] = None) -> SampledEstimate:
    """Monte Carlo Banzhaf: for each agent, m uniform coalitions of the
    others and the paired marginal v(C + i) - v(C)."""
    if m < 1:
        raise AspanelError("need at least one coalition sample")
    n = game.n
    rng = np.random.default_rng(seed)
    phi = np.zeros(n)
    stderr = np.zeros(n)
    for i in range(n):
        masks = rng.random((m, n)) < 0.5
        masks[:, i] = False
        without = game.mask_values(masks)
        masks[:, i] = True
        diffs = game.mask_values(masks) - without
        phi[i] = diffs.mean()
        stderr[i] = float(np.sqrt(diffs.var(ddof=1) / m)) if m > 1 else np.nan
    return SampledEstimate(phi, stderr, m, seed)
