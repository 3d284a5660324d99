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

from .attribution import _finite, _resolve_baseline
from .errors import AspanelError, InfeasibleError
from .valuefn import ValueFunction, _as_features

EXACT_GUARD = 20
# (row, agent, dim) cells of the temporaries sampled_banzhaf holds at once;
# a block has at least one row
BANZHAF_BLOCK = 1 << 16


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
        self._paired = self._stats is not None and f.has_paired_values

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

    def paired_values(self, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(v(C_j + i), v(C_j - i)) for each row C_j of an (m, n) boolean
        coalition matrix and each agent i, two (m, n) arrays: vectorized over
        the agents when f's kind has the hook, else two :meth:`mask_values`
        calls per agent with its column toggled."""
        masks = np.asarray(masks, dtype=bool)
        if self._paired:
            return self.f.paired_values(self._stats, masks)
        with_, without = np.empty(masks.shape), np.empty(masks.shape)
        work = masks.copy()
        for i in range(self.n):
            work[:, i] = True
            with_[:, i] = self.mask_values(work)
            work[:, i] = False
            without[:, i] = self.mask_values(work)
            work[:, i] = masks[:, i]
        return with_, without


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
    return _finite(game.grand_value() - game.mask_values(masks), "leave-one-out")


# ---- exact enumeration -----------------------------------------------------


def _all_coalitions(n: int) -> np.ndarray:
    """The 2^n x n boolean membership matrix, row k holding the bits of k
    lowest first, built at one byte per cell."""
    codes = np.arange(1 << n, dtype="<u4").view(np.uint8).reshape(-1, 4)
    return np.unpackbits(codes, axis=1, count=n, bitorder="little").view(bool)


def _exact(game: CoalitionGame, what: str, weight: Callable[[int], np.ndarray]) -> np.ndarray:
    """phi_i = sum over coalitions S without i of w[|S|] (v(S + i) - v(S)),
    w = weight(n), from v of all 2^n coalitions (row index = bitmask over agents)."""
    n = game.n
    if n > EXACT_GUARD:
        raise InfeasibleError(
            f"exact {what} is infeasible for n={n} (> {EXACT_GUARD}): 2^n enumeration"
        )
    w = weight(n)
    bits = _all_coalitions(n)
    vals = game.mask_values(bits)
    sizes = bits.sum(axis=1)
    phi = np.zeros(n)
    for i in range(n):
        without = np.flatnonzero(~bits[:, i])
        phi[i] = float(np.sum(w[sizes[without]] * (vals[without | 1 << i] - vals[without])))
    return _finite(phi, f"exact {what}")


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
    return SampledEstimate(_finite(mean, "sampled Shapley"), stderr, m, seed)


def sampled_banzhaf(game: CoalitionGame, m: int, seed: Optional[int] = None) -> SampledEstimate:
    """Monte Carlo Banzhaf on one shared draw of m uniform coalitions C_j: agent
    i averages the paired marginals v(C_j + i) - v(C_j - i).

    Each agent still sees m independent uniform coalitions of the others, so
    its estimate keeps its unbiasedness and variance (and is exact on an
    additive game); only different agents' estimates are correlated.
    """
    if m < 1:
        raise AspanelError("need at least one coalition sample")
    n, D = game.features.shape
    masks = np.random.default_rng(seed).integers(0, 2, size=(m, n), dtype=bool)
    # Hooked values of a row do not depend on the rows beside it, so they go
    # in blocks of rows; mask_values may round a row by its block, so a game
    # without the hook takes all rows at once.  Either way no block size
    # changes the result.
    rows = max(1, BANZHAF_BLOCK // (n * D)) if game._paired else m
    # sums over the rows of d - shift and its square, shift the first row's
    # marginals: the shifted second moment keeps its precision where d varies little
    acc = acc2 = 0.0
    for lo in range(0, m, rows):
        with_, without = game.paired_values(masks[lo:lo + rows])
        d = np.subtract(with_, without, out=with_)
        del without
        if lo == 0:
            shift = d[0].copy()
        d -= shift
        d2 = d * d
        # the running sums go first, so each sum adds the rows in order
        d[0] += acc
        d2[0] += acc2
        acc, acc2 = np.cumsum(d, axis=0, out=d)[-1], np.cumsum(d2, axis=0, out=d2)[-1]
    phi = shift + acc / m
    var = np.maximum(acc2 - acc * acc / m, 0.0) / (m - 1) if m > 1 else np.full(n, np.nan)
    stderr = np.sqrt(var / m)
    return SampledEstimate(_finite(phi, "sampled Banzhaf"), stderr, m, seed)
