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
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .attribution import _finite, _resolve_baseline
from .errors import AspanelError, InfeasibleError
from .valuefn import ValueFunction, _as_features

EXACT_GUARD = 20
# (row, agent, dim) cells of the temporaries a sampled estimator holds at
# once; a block has at least one row
SAMPLE_BLOCK = 1 << 16


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
        # f's coalition hooks or the per-coalition path; restrict values
        # never read the baseline, pinned ones do
        hooks = f.coalition_hooks(z) if semantics == "restrict" else None
        self._masks, self._prefixes, self._pairs = hooks or (
            self._masks_by_value, self._prefixes_by_value, self._pairs_by_toggle)

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

    # ---- bulk coalition values ---------------------------------------------

    def mask_values(self, masks: np.ndarray) -> np.ndarray:
        """v(C) for each row of an (m, n) boolean coalition matrix."""
        return self._masks(np.asarray(masks, dtype=bool))

    def prefix_values(self, perms: np.ndarray) -> np.ndarray:
        """v(perm[:t]) for t = 1..n, the coalitions a permutation builds up,
        for each row perm of an (m, n) block of permutations, as an (m, n)
        array; a single permutation (n,) gives (n,)."""
        perms = np.asarray(perms)
        return self._prefixes(np.atleast_2d(perms)).reshape(perms.shape)

    def paired_values(self, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(v(C_j + i), v(C_j - i)) for each row C_j of an (m, n) boolean
        coalition matrix and each agent i, two (m, n) arrays; each row's
        values depend on that row alone."""
        return self._pairs(np.asarray(masks, dtype=bool))

    def _masks_by_value(self, masks):
        return np.array([self.value(np.flatnonzero(row)) for row in masks])

    def _prefixes_by_value(self, perms):
        return np.array([[self.value(perm[: t + 1]) for t in range(len(perm))]
                         for perm in perms])

    def _pairs_by_toggle(self, masks):
        agent = np.eye(self.n, dtype=bool)
        return (np.array([self.mask_values(row | agent) for row in masks]),
                np.array([self.mask_values(row & ~agent) for row in masks]))


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


def _mean_stderr(blocks: Iterable[np.ndarray], m: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error (ddof = 1, NaN at m = 1) of m samples of an
    n-vector that come in order as (rows, n) blocks, each a fresh array that
    this overwrites.  The sums are of x - shift and its square, shift the
    first sample, so the second moment keeps its precision where x varies
    little; no block size changes the result."""
    for j, d in enumerate(blocks):
        d = np.ascontiguousarray(d)
        if j == 0:
            shift, acc, acc2 = d[0].copy(), 0.0, 0.0
        d -= shift
        d2 = d * d
        # the running sums go first, and numpy sums a C-ordered block over its
        # rows one row at a time, so each sum adds the samples in order (a
        # one-agent block is summed pairwise, but its samples are all equal)
        d[0] += acc
        d2[0] += acc2
        acc, acc2 = d.sum(axis=0), d2.sum(axis=0)
    var = np.maximum(acc2 - acc * acc / m, 0.0) / (m - 1) if m > 1 else np.full(len(shift), np.nan)
    return shift + acc / m, np.sqrt(var / m)


def sampled_shapley(game: CoalitionGame, m: int, seed: Optional[int] = None) -> SampledEstimate:
    """Permutation Monte Carlo Shapley.

    Each permutation's marginals telescope to v([n]) - v(empty), so the mean
    estimate is efficient to rounding for every m.  Per-permutation seeds derive
    from the root seed by counter, making results independent of scheduling.
    The permutations come in row blocks, each block's prefix values from one
    ``prefix_values`` call.
    """
    if m < 1:
        raise AspanelError("need at least one permutation sample")
    n, D = game.features.shape
    rows = max(1, SAMPLE_BLOCK // (n * D))

    def blocks():
        for lo in range(0, m, rows):
            perms = np.array([
                np.random.default_rng((seed, j) if seed is not None else None).permutation(n)
                for j in range(lo, min(lo + rows, m))])
            block = np.empty(perms.shape)
            marginals = np.diff(game.prefix_values(perms), prepend=0.0, axis=1)
            np.put_along_axis(block, perms, marginals, axis=1)
            yield block

    mean, stderr = _mean_stderr(blocks(), m)
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
    rows = max(1, SAMPLE_BLOCK // (n * D))
    blocks = (np.subtract(*game.paired_values(masks[lo:lo + rows])) for lo in range(0, m, rows))
    phi, stderr = _mean_stderr(blocks, m)
    return SampledEstimate(_finite(phi, "sampled Banzhaf"), stderr, m, seed)
