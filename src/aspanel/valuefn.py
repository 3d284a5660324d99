"""Macro value functions: evaluation and analytic gradients.

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
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import AspanelError

# relative step for central finite differences on custom callbacks
FD_REL_STEP = 1e-6


def _as_features(z) -> np.ndarray:
    """The one coercion of feature input: a finite n x D float64 array with
    n, D >= 1."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        z = z[:, None]
    if z.ndim != 2 or min(z.shape) < 1:
        raise AspanelError(f"features must be a nonempty n x D array, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise AspanelError("features contain non-finite values")
    return z


# rows _row_sums adds at a time, so that a block stays in cache while its
# columns are added one by one
ROW_SUM_BLOCK = 1 << 14


def _row_sums(z: np.ndarray, divisors: Optional[np.ndarray] = None) -> np.ndarray:
    """z.sum(axis=-1) bit for bit, one column at a time.  Below 8 terms numpy
    adds a row's entries in order onto 0.0, so the sum starts from 0.0 (a row
    of -0.0 sums to +0.0); numpy's short-axis reduction costs more than the
    sums themselves.

    With ``divisors``, a length-D row, the row sums of z / divisors, a zero
    divisor's column taken as zeros, bit for bit as that quotient array
    sums; below 8 columns no such array is built.  A sum begun on 0.0 is
    never -0.0, so a column of +0.0 would leave it as it is: it is skipped."""
    D = z.shape[-1]
    if D >= 8:
        if divisors is not None:
            z = np.divide(z, divisors, out=np.zeros_like(z), where=divisors != 0)
        return z.sum(axis=-1)
    columns = range(D) if divisors is None else np.flatnonzero(divisors)
    rows = z.reshape(-1, D)
    out = np.zeros(len(rows))
    for lo in range(0, len(rows), ROW_SUM_BLOCK):
        block, acc = rows[lo:lo + ROW_SUM_BLOCK], out[lo:lo + ROW_SUM_BLOCK]
        for d in columns:
            acc += block[:, d] if divisors is None else block[:, d] / divisors[d]
    return out.reshape(z.shape[:-1])


# ---- ranks and rank correlation --------------------------------------------
# Each result equals scipy.stats' rankdata(method="average"), spearmanr and
# kendalltau (tau-b) bit for bit on finite input; the tests compare them.


def _run_starts(s: np.ndarray) -> np.ndarray:
    """True at 0 and wherever s differs from the entry before (-0.0 equals 0.0)."""
    start = np.empty(len(s), dtype=bool)
    start[:1] = True
    np.not_equal(s[1:], s[:-1], out=start[1:])
    return start


def _runs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """An ascending order of x and, along it, True where a run of equal values
    starts.  Tied values share one rank, so the order among them is free."""
    order = np.argsort(x)
    return order, _run_starts(x[order])


def _midranks(x: np.ndarray) -> tuple[np.ndarray, bool]:
    order, start = _runs(x)
    # run k holds the sorted positions edges[k]:edges[k + 1]
    edges = np.append(np.flatnonzero(start), len(x))
    ranks = np.empty(len(x))
    # scipy's midrank of a run, .5 * (count[dense] + count[dense - 1] + 1): exact in float64
    ranks[order] = np.repeat(0.5 * (edges[1:] + edges[:-1] + 1), np.diff(edges))
    return ranks, len(edges) - 1 < len(x)


def gini_ranks(g: np.ndarray) -> tuple[np.ndarray, bool]:
    """1-based ascending ranks of g, ties given their average (mid) rank.

    Any rank assignment among ties yields the same Gini value; midranks pin
    down the symmetric subgradient, so identical agents receive identical
    attribution.  Returns (ranks, had_ties).
    """
    return _midranks(g)


def _spearman_rho(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman's rho of two finite vectors of one length >= 2: Pearson's r of
    their midranks.  NaN, with no warning, when either vector is constant."""
    if (a == a[0]).all() or (b == b[0]).all():
        return math.nan
    # one stacked array as spearmanr builds it: corrcoef of two separate
    # vectors can differ in the last bit
    ranks = np.column_stack([_midranks(a)[0], _midranks(b)[0]])
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def _tied_pairs(start: np.ndarray) -> int:
    sizes = np.diff(np.append(np.flatnonzero(start), len(start)))
    return int((sizes * (sizes - 1) // 2).sum())


def _inversions(y: np.ndarray) -> int:
    """Pairs i < j with y[i] > y[j], for nonnegative integers y: a bottom-up
    merge sort that, at each block width w, counts for each element of a right
    block the elements above it in the left block beside it (O(n log^2 n))."""
    n = len(y)
    pos = np.arange(n)
    span = int(y.max()) + 1
    count, w = 0, 1
    while w < n:
        pair = pos // (2 * w)
        key = pair * span + y  # y ascends within each block of w, and so does key
        left = (pos // w) % 2 == 0
        lk, rk = key[left], key[~left]
        end = np.searchsorted(lk, (pair[~left] + 1) * span)  # end of the left block beside
        count += int((end - np.searchsorted(lk, rk, side="right")).sum())
        key.sort()
        y = key - pair * span
        w *= 2
    return count


def _kendall_tau_b(a: np.ndarray, b: np.ndarray) -> float:
    """Kendall's tau-b of two finite vectors of one length >= 2, from exact
    integer pair counts (Knight 1966).  NaN, with no warning, when either
    vector is constant."""
    n = len(a)
    order = np.lexsort((b, a))  # by a, ties by b: no pair tied in a is discordant
    a, b = a[order], b[order]
    b_order, b_start = _runs(b)
    y = np.empty(n, dtype=np.int64)
    y[b_order] = np.cumsum(b_start)  # dense ranks of b
    a_start = _run_starts(a)
    both_start = a_start | _run_starts(b)
    tot = n * (n - 1) // 2
    xtie, ytie, ntie = _tied_pairs(a_start), _tied_pairs(b_start), _tied_pairs(both_start)
    if xtie == tot or ytie == tot:
        return math.nan
    # tot = concordant + discordant + xtie + ytie - ntie
    con_minus_dis = tot - xtie - ytie + ntie - 2 * _inversions(y)
    tau = con_minus_dis / math.sqrt(tot - xtie) / math.sqrt(tot - ytie)
    return min(1.0, max(-1.0, tau))


@dataclass(frozen=True)
class Kind:
    """One value-function kind.  Its callables take (params, x), x what the
    kind reads of an n x D array z that :func:`_as_features` accepted: z
    itself, or for a ``row_sums`` kind g, the row sums of z as an n x 1
    column.  A gradient returns any shape that broadcasts to x."""

    evaluate: Callable
    gradient: Callable
    # (params, x, x0) -> (phi, (f(z), f(z0)), metadata): the exact path
    # integral from z0, a length-D row shared by every agent or an n x D
    # array, as attribution._resolve_baseline returns it and read as x0, and
    # the values whose difference delta_v is
    closed_form: Optional[Callable] = None
    covers: str = "any"  # baselines closed_form integrates: "any" | "shared_row"
    row_sums: bool = False  # f reads z only through g, its row sums
    # (params, x, x0): raises AspanelError where the straight path from the
    # resolved baseline z0 to z leaves the domain of f
    check_path: Callable = lambda p, z, z0: None
    # coalition values under restrict semantics, which read no baseline, all
    # or none: (stats, mask_values, prefix_values, paired_values).  stats(params,
    # x) runs once per game, and its stats feed mask_values(params, stats,
    # masks), v(C) for each row of an (m, n) boolean matrix, prefix_values(params,
    # stats, perms), the (m, n) array v(perm_j[:t]) for t = 1..n and each row
    # perm_j of an (m, n) block of permutations, and paired_values(params,
    # stats, masks), the two (m, n) arrays v(C_j + i) and v(C_j - i) for each
    # row j and agent i; each row's values come from that row alone, and
    # v(empty) = 0
    coalition: Optional[tuple] = None
    required: tuple = ()  # params every caller must supply
    agent_params: dict = field(default_factory=dict)  # name -> "rows" (n x D) | "pairs" (n x n)
    defaults: dict = field(default_factory=dict)
    check: Callable = lambda p: None  # raises AspanelError on invalid params


# ---- the built-in kinds ---------------------------------------------------


def _lin_phi(p, g, g0):
    phi = g - g0
    phi /= len(g)
    return phi[:, 0], (float(g.mean()), float(g0.mean())), {}


def _mean_product(sums, count):
    """np.prod(sums / count[..., None], axis=-1) bit for bit, one column at a
    time: numpy multiplies a row's entries in order, and its reduction over a
    short last axis costs more than the products themselves."""
    out = sums[..., 0] / count
    for d in range(1, sums.shape[-1]):
        out *= sums[..., d] / count
    return out


def _heat_value(p, z) -> float:
    return float(np.log1p(np.prod(z.mean(axis=0))))


def _heat_gradient(p, z):
    n, D = z.shape
    m = z.mean(axis=0)
    prod_others = np.array([np.prod(np.delete(m, d)) for d in range(D)])
    return prod_others / (n * (1.0 + np.prod(m)))


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
        values = float(np.log1p(np.prod(m1))), float(np.log1p(np.prod(m0)))
        return (z - z0) @ weights / n, values, {}
    sums = z.sum(axis=0)
    m1 = sums / n  # z.mean(axis=0), bit for bit
    _heat_check_path([1.0 + float(np.prod(m1))])  # q(tau) = 1 + tau^D prod(m1) is monotone
    val = float(np.log1p(np.prod(m1)))
    # From zero, phi_i = (v / D) sum_d z_id / sum_j z_jd; a zero column sum
    # means v = 0, so that column is left out rather than divided by zero.
    # With exactly one zero sum s_k, the path integral keeps the k-th gradient
    # term: phi_i = z_ik prod_{d != k}(s_d / n) / (n D); with two or more, phi = 0.
    zero = np.flatnonzero(sums == 0)
    if len(zero) == 1:
        k = zero[0]
        return z[:, k] * (np.prod(np.delete(sums, k) / n) / (n * D)), (val, 0.0), {}
    phi = _row_sums(z, sums)
    phi *= val / D
    return phi, (val, 0.0), {}


def _var_value(p, g) -> float:
    return float(np.mean((g - g.mean()) ** 2))


def _var_phi(p, g, g0):
    # The gradient is linear in tau, so phi_i = (g_i - g0_i)((g_i - gbar) +
    # (g0_i - g0bar)) / n; the order of operations keeps g (g - gbar) / n
    # bit for bit at the zero baseline.
    gbar, g0bar = g.mean(), g0.mean()
    phi = g - gbar
    value = float(np.mean(phi ** 2))
    phi -= g0bar - g0
    phi *= g - g0
    phi /= len(g)
    return phi[:, 0], (value, float(((g0 - g0bar) ** 2).mean())), {}


def _gini_value(p, g) -> float:
    g = g[:, 0]
    n = len(g)
    ranks, _ = gini_ranks(g)
    # sorted-rank identity for (1/2n^2) sum_ij |g_i - g_j|.  The integer rank
    # weights sum to exactly zero, so the sum may be taken on g - median(g):
    # its terms then share one sign and nothing cancels when g is near constant
    return float(np.dot(2.0 * ranks - n - 1.0, g - np.median(g)) / n**2)


def _gini_gradient(p, g):
    n = len(g)
    ranks, _ = gini_ranks(g[:, 0])
    return ((2.0 * ranks - n - 1.0) / n**2)[:, None]


def _gini_phi(p, g, g0):
    # From a shared row z0 every g_i moves as (1 - tau) g0 + tau g_i, so the
    # ranks hold along the path.  The rank weights sum to zero and f(z0) = 0,
    # hence f(z) = delta_v = sum(phi).
    g = g[:, 0]
    n = len(g)
    ranks, ties = gini_ranks(g)
    ranks *= 2.0  # the rank weights 2 r - n - 1, in place
    ranks -= n
    ranks -= 1.0
    phi = g - g0
    phi *= ranks
    phi /= n**2
    return phi, (float(phi.sum()), 0.0), {"gini_ties": ties}


# elements of the pairwise |g_s - g_j| block that _gini_prefix_values holds at once
GINI_PREFIX_BLOCK = 1 << 16


def _gini_members(stats, masks):
    """(g, membership, k, |C|) over the agents in ascending order of g, for
    each row of masks: the running member count R is a member's rank within
    C and an outsider's count b of members below it, and k = 2R - |C|, a
    column; ties may take any order."""
    g, order = stats
    member = masks[:, order]
    k = np.cumsum(member, axis=1, dtype=np.float64)
    size = k[:, -1:].copy()
    k *= 2.0
    k -= size
    return g[order], member, k, size


def _gini_mask_values(p, stats, masks):
    # by the sorted-rank identity v(C) = sum_C g (2R - |C| - 1) / |C|^2
    gs, member, k, size = _gini_members(stats, masks)
    return (((k - 1.0) * member) @ gs) / np.maximum(size[:, 0], 1.0) ** 2


def _gini_paired_values(p, stats, masks):
    # With S = |C|^2 v(C) and the sums of member g below and above agent i,
    # removing member i gives S - g_i (2R - |C| - 1) + below - above, and
    # adding outsider i gives S - below + above + g_i (2b - |C|).  Every sum
    # runs in order along one row, so a row's values do not depend on the
    # rows beside it.
    gs, member, k, size = _gini_members(stats, masks)
    mg = member * gs
    run = np.cumsum(mg, axis=1)
    S = np.cumsum(mg * (k - 1.0), axis=1)[:, -1:]
    sign = 1.0 - 2.0 * member  # +1 adds outsider i, -1 removes member i
    toggled = S + sign * (gs * (k - member) + (run[:, -1:] - run) - (run - mg))
    toggled /= np.maximum(size + sign, 1.0) ** 2
    v = S / np.maximum(size, 1.0) ** 2
    back = np.argsort(stats[1])
    return (np.where(member, v, toggled).take(back, axis=1),
            np.where(member, toggled, v).take(back, axis=1))


def _gini_prefix_values(p, stats, perms):
    # v(perm[:t]) = S_t / t^2, S_t the sum of |g_i - g_j| over the pairs in
    # the prefix: each new agent s adds its distances to the agents before it,
    # one permutation at a time
    n = perms.shape[1]
    rows = max(1, GINI_PREFIX_BLOCK // n)
    added = np.empty(perms.shape)
    for h, out in zip(stats[0][perms], added):
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            dist = np.abs(h[lo:hi, None] - h[None, :hi])
            out[lo:hi] = np.tril(dist, lo - 1).sum(axis=1)
    t = np.arange(1.0, n + 1)
    return np.cumsum(added, axis=1) / (t * t)


def _quadratic_value(p, z) -> float:
    s = _row_sums(z)
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
    return sig * p["weights"]


def _check_scale(p) -> None:
    if not 0 < p["scale"] < math.inf:
        raise AspanelError("softplus scale must be positive and finite")


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
    return (_row_sums(p["weights"] * z),)


def _summed(agent_stats, from_stats) -> tuple:
    """The coalition hooks of a kind whose v(C) is from_stats(params, the
    coalition sums of its agent_stats(params, x), |C|): mask sums as M @ s,
    prefix sums as cumsum(s[perms]) along each permutation, which adds each
    one's terms in order as a single permutation's cumsum does."""

    def values(p, sums, count):
        safe = np.where(count > 0, count, 1.0)
        return np.where(count > 0, from_stats(p, sums, safe), 0.0)

    def mask_values(p, stats, masks):
        m = masks.astype(np.float64)
        return values(p, [m @ s for s in stats], m.sum(axis=1))

    def prefix_values(p, stats, perms):
        count = np.arange(1, perms.shape[1] + 1, dtype=np.float64)
        return values(p, [np.cumsum(s[perms], axis=1) for s in stats], count)

    def paired_values(p, stats, masks):
        # row j, agent i: the sums of C_j without i are M_j @ s - M_ji s_i,
        # those of C_j with i add s_i back.  With the agents on the last axis
        # each row sum is one contiguous numpy sum, so a row's values do not
        # depend on the rows beside it (BLAS's M @ s can)
        m = masks.astype(np.float64)
        count = m.sum(axis=1)[:, None] - m
        with_, without = [], []
        for s in stats:
            s = np.moveaxis(s, 0, -1)  # (..., n)
            inside = m.reshape(m.shape[:1] + (1,) * (s.ndim - 1) + m.shape[1:]) * s
            rest = inside.sum(axis=-1, keepdims=True) - inside
            without.append(np.moveaxis(rest, -1, 1))
            with_.append(np.moveaxis(rest + s, -1, 1))
        return values(p, with_, count + 1.0), values(p, without, count)

    return agent_stats, mask_values, prefix_values, paired_values


KINDS: dict[str, Kind] = {
    "lin": Kind(
        evaluate=lambda p, g: float(g.mean()),
        gradient=lambda p, g: np.full_like(g, 1.0 / len(g)),
        closed_form=_lin_phi, row_sums=True,
        coalition=_summed(lambda p, g: (g[:, 0],), lambda p, s, count: s[0] / count),
    ),
    "heat": Kind(
        evaluate=_heat_value, gradient=_heat_gradient, closed_form=_heat_phi,
        check_path=_heat_path,
        coalition=_summed(lambda p, z: (z,), lambda p, s, count: np.log1p(
            _mean_product(s[0], count))),
    ),
    "var": Kind(
        evaluate=_var_value, gradient=lambda p, g: (2.0 / len(g)) * (g - g.mean()),
        closed_form=_var_phi, row_sums=True,
        coalition=_summed(lambda p, g: (g[:, 0], g[:, 0] ** 2),
                          lambda p, s, count: s[1] / count - (s[0] / count) ** 2),
    ),
    "gini": Kind(
        evaluate=_gini_value, gradient=_gini_gradient, closed_form=_gini_phi,
        covers="shared_row", row_sums=True,
        coalition=(lambda p, g: (g[:, 0], np.argsort(g[:, 0], kind="stable")),
                   _gini_mask_values, _gini_prefix_values, _gini_paired_values),
    ),
    "additive": Kind(
        evaluate=lambda p, z: float(np.sum(p["weights"] * z)),
        gradient=lambda p, z: p["weights"],
        coalition=_summed(_weighted_sums, lambda p, s, count: s[0]),
        required=("weights",), agent_params={"weights": "rows"},
    ),
    "quadratic_cross": Kind(
        evaluate=_quadratic_value,
        gradient=lambda p, z: 2.0 * p["diag"] * z + (p["coupling"] @ _row_sums(z))[:, None],
        required=("diag", "coupling"), agent_params={"diag": "rows", "coupling": "pairs"},
        check=_check_coupling,
    ),
    "softplus": Kind(
        evaluate=_softplus_value, gradient=_softplus_gradient,
        coalition=_summed(_weighted_sums, lambda p, s, count: np.logaddexp(
            0.0, p["scale"] * s[0]) / p["scale"]),
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
            if not np.all(np.isfinite(params[name])):
                raise AspanelError(f"{self.kind} param {name!r} contains non-finite values")
        spec.check(params)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "_spec", spec)

    def _check(self, z: np.ndarray) -> np.ndarray:
        """What the kind reads of z, features or a resolved baseline (see
        :class:`Kind`), after checking that every per-agent param fits z.
        A shared row has no agent axis to fit."""
        if self._spec.row_sums:
            return _row_sums(z)[..., None]
        if z.ndim == 1:
            return z
        for name, layout in self._spec.agent_params.items():
            n, D = z.shape
            shape = self.params[name].shape
            if shape not in (((n, n),) if layout == "pairs" else ((n, D), (n, 1))):
                raise AspanelError(f"{name} of shape {shape} does not fit {n} agents x {D} dims")
        return z

    def _gradient(self, x: np.ndarray) -> np.ndarray:
        """The kind's gradient at x = _check(z), in a shape that broadcasts to x."""
        return self._spec.gradient(self.params, x)

    def evaluate(self, features) -> float:
        return self._spec.evaluate(self.params, self._check(_as_features(features)))

    def gradient(self, features) -> np.ndarray:
        """The n x D gradient of f at the features."""
        z = _as_features(features)
        return np.broadcast_to(self._gradient(self._check(z)), z.shape).copy()

    def closed_form(self, x: np.ndarray, x0: np.ndarray) -> tuple[np.ndarray, tuple, dict]:
        """(phi, (f(z), f(z0)), metadata) of the path integral from a resolved
        baseline z0 (see :class:`Kind`) to z, an array that :func:`_as_features`
        accepted, given what the kind reads of them: x = _check(z), x0 = _check(z0)."""
        return self._spec.closed_form(self.params, x, x0)

    def check_path(self, x: np.ndarray, x0: np.ndarray) -> None:
        """Raise AspanelError where the straight path from the resolved
        baseline to the features leaves the domain of f; x and x0 as in
        :meth:`closed_form`."""
        self._spec.check_path(self.params, x, x0)

    def covers(self, z0: np.ndarray) -> bool:
        """The kind has a closed form from the resolved baseline z0: a shared
        row or, for most kinds, a per-agent array."""
        spec = self._spec
        return spec.closed_form is not None and (spec.covers == "any" or z0.ndim == 1)

    def coalition_hooks(self, z: np.ndarray) -> Optional[tuple[Callable, ...]]:
        """The kind's mask_values, prefix_values and paired_values (see
        :class:`Kind`) bound to f's params and the agent stats of z; None when
        the kind has no coalition hooks.  z as above."""
        if self._spec.coalition is None:
            return None
        make_stats, *hooks = self._spec.coalition
        stats = make_stats(self.params, self._check(z))
        return tuple(partial(hook, self.params, stats) for hook in hooks)

    @property
    def has_closed_form(self) -> bool:
        return self._spec.closed_form is not None

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

