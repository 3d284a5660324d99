"""Reference computations and output checks, in plain Python and numpy.

Nothing here imports aspanel: every expected value is rebuilt from the
generator's own inputs or from the definitions in the paper.  Each check
returns a list of failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import struct

import numpy as np

from gen import FOLLOW, POST, REPLY, REPOST

EFFICIENCY_RTOL = 1e-9  # closed forms and exact midpoint cases, relative to scale
NULL_RTOL = 1e-9  # |phi| of a null agent, relative to max |phi|


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---- panel file -----------------------------------------------------------


def read_asp1(data: bytes) -> tuple[np.ndarray, list[str]]:
    """Decode an ASP1 panel file: magic, int64 N,T,D, float64 payload, ids."""
    if data[:4] != b"ASP1":
        raise ValueError("not an ASP1 file")
    n, t, d = struct.unpack("<3q", data[4:28])
    end = 28 + 8 * n * t * d
    feats = np.frombuffer(data[28:end], dtype="<f8").reshape(n, t, d)
    ids = data[end:].decode("utf-8").split("\n")
    return feats, ids


# ---- ingest ---------------------------------------------------------------


def expected_ingest(stream, keep) -> tuple[list[str], np.ndarray]:
    """Rebuild the ingest panel from the generator's event list.

    ``keep`` is a boolean per account: False for accounts the exclusion regex
    removes.  Reach counts every follow of an active account, from a kept
    account, before the bucket start; activity counts topic-matching posts
    and reposts per bucket; resonance counts topic-matching replies received.
    """
    spec = stream.spec
    start, end = spec.window
    inside = (stream.ts >= start) & (stream.ts < end)
    keep = np.asarray(keep, dtype=bool)
    active_codes = np.unique(stream.actor[inside & keep[stream.actor]])
    names = [stream.names[c] for c in active_codes]
    order = np.argsort(np.array(names))  # aspanel sorts agents by id
    active_codes = active_codes[order]
    names = [names[i] for i in order]
    n, T = len(active_codes), spec.n_steps
    row = np.full(len(stream.names), -1)
    row[active_codes] = np.arange(n)

    bucket = np.where(inside, (stream.ts - start) // spec.step, -1)
    posts = np.zeros((n, T))
    sel = inside & np.isin(stream.kind, (POST, REPOST)) & stream.match & (row[stream.actor] >= 0)
    np.add.at(posts, (row[stream.actor[sel]], bucket[sel]), 1)
    replies = np.zeros((n, T))
    tgt = np.where(stream.target >= 0, row[np.maximum(stream.target, 0)], -1)
    sel = inside & (stream.kind == REPLY) & stream.match & (tgt >= 0)
    np.add.at(replies, (tgt[sel], bucket[sel]), 1)

    reach = np.zeros((n, T))
    fol = (stream.kind == FOLLOW) & (tgt >= 0) & keep[stream.actor]
    for t in range(T):
        before = fol & (stream.ts < start + t * spec.step)
        reach[:, t] = np.bincount(tgt[before], minlength=n)
    feats = np.stack([np.log1p(reach), np.log1p(posts), np.log1p(replies)], axis=2)
    return names, feats


def check_ingest(panel_bytes: bytes, names, feats, malformed_seen, malformed_expected) -> list[str]:
    errs = []
    got, ids = read_asp1(panel_bytes)
    if ids != names:
        errs.append(f"ingest: {len(ids)} agent ids, expected {len(names)} (or order differs)")
    elif got.shape != feats.shape:
        errs.append(f"ingest: panel shape {got.shape}, expected {feats.shape}")
    else:
        bad = int(np.count_nonzero(got != feats))
        if bad:
            errs.append(f"ingest: {bad} panel cells differ from the recount")
    if malformed_seen != malformed_expected:
        errs.append(f"ingest: malformed count {malformed_seen}, expected {malformed_expected}")
    return errs


# ---- value functions ------------------------------------------------------


def midranks(g: np.ndarray) -> np.ndarray:
    """1-based ascending ranks with ties given their average rank."""
    order = np.argsort(g, kind="stable")
    s = g[order]
    first = np.concatenate(([True], s[1:] != s[:-1]))
    starts = np.flatnonzero(first)
    ends = np.concatenate((starts[1:], [len(s)]))
    avg = (starts + ends + 1) / 2.0  # mean of 1-based positions start+1 .. end
    ranks = np.empty(len(g))
    ranks[order] = np.repeat(avg, ends - starts)
    return ranks


def value(kind: str, z: np.ndarray) -> float:
    """f(z) for an (n, D) configuration, straight from the definitions."""
    n = z.shape[0]
    g = z.sum(axis=1)
    if kind == "lin":
        return float(g.mean())
    if kind == "heat":
        return math.log1p(float(np.prod(z.mean(axis=0))))
    if kind == "var":
        return float(((g - g.mean()) ** 2).mean())
    if kind == "gini":  # (1 / 2n^2) sum_ij |g_i - g_j| via sorted order
        s = np.sort(g)
        return float(np.dot(2.0 * np.arange(1, n + 1) - n - 1.0, s) / n**2)
    raise ValueError(kind)


def closed_form_phi(kind: str, z: np.ndarray) -> np.ndarray:
    """Aumann-Shapley attribution at the zero baseline, from the ray forms."""
    n, D = z.shape
    g = z.sum(axis=1)
    if kind == "lin":
        return g / n
    if kind == "var":
        return g * (g - g.mean()) / n
    if kind == "gini":
        return g * (2.0 * midranks(g) - n - 1.0) / n**2
    if kind == "heat":
        sums = z.sum(axis=0)
        shares = np.divide(z, sums, out=np.zeros_like(z), where=sums != 0)
        return shares.sum(axis=1) * value("heat", z) / D
    raise ValueError(kind)


def midpoint_error_bound(kind: str, z: np.ndarray, z0: np.ndarray, K: int) -> float:
    """Bound on |sum(phi) - delta_v| for the K-point midpoint rule.

    Along the straight path F(tau) = f(z0 + tau (z - z0)); the rule
    integrates F' and errs by at most max|F'''| / (24 K^2).  With every
    agent sharing one baseline row, lin is linear and var quadratic in tau,
    and gini is linear (the ranks do not change along the path), so their
    bound is zero.  For heat F = log1p(prod_d m_d(tau)) with each column mean
    m_d linear in tau; F''' is taken by finite differences on a fine grid.
    """
    if kind != "heat":
        return 0.0
    m1, m0 = z.mean(axis=0), np.broadcast_to(z0, z.shape).mean(axis=0)
    h = 1e-3
    taus = np.linspace(0.0, 1.0, 201)
    F = lambda t: np.log1p(np.prod(m0[None, :] + t[:, None] * (m1 - m0)[None, :], axis=1))
    third = (F(taus + 2 * h) - 2 * F(taus + h) + 2 * F(taus - h) - F(taus - 2 * h)) / (2 * h**3)
    return float(np.abs(third).max()) / (24.0 * K**2)


def check_attribution(label, kind, z, z0, phi, delta_v, K=None, plants=None) -> list[str]:
    """Efficiency, delta_v, null and duplicate checks for one step.

    ``K`` is None for a closed form, else the midpoint K.  ``plants`` is a
    pair (null_rows, (dup_a, dup_b)) valid for this baseline.
    """
    errs = []
    z0_full = np.broadcast_to(z0, z.shape)
    dv_ref = value(kind, z) - value(kind, np.array(z0_full))
    scale = max(abs(value(kind, z)), abs(value(kind, np.array(z0_full))), 1e-300)
    if not abs(delta_v - dv_ref) <= EFFICIENCY_RTOL * scale:
        errs.append(f"{label}: delta_v {delta_v!r} != f(z)-f(z0) {dv_ref!r}")
    tol = EFFICIENCY_RTOL * scale + (0.0 if K is None else 4.0 * midpoint_error_bound(kind, z, z0, K))
    resid = abs(float(np.sum(phi)) - dv_ref)
    if not resid <= tol:
        errs.append(f"{label}: efficiency residual {resid:.3g} > {tol:.3g}")
    if K is None:
        ref = closed_form_phi(kind, z)
        worst = float(np.max(np.abs(phi - ref)))
        if not worst <= EFFICIENCY_RTOL * max(float(np.max(np.abs(ref))), 1e-300):
            errs.append(f"{label}: phi differs from the closed form by {worst:.3g}")
    if plants is not None:
        null_rows, (dup_a, dup_b) = plants
        big = max(float(np.max(np.abs(phi))), 1e-300)
        if np.any(np.abs(phi[null_rows]) > NULL_RTOL * big):
            errs.append(f"{label}: a null agent has nonzero phi")
        if np.any(np.abs(phi[dup_a] - phi[dup_b]) > 1e-12 * big):
            errs.append(f"{label}: duplicate agents have different phi")
    return errs


def check_tier_shares(label, shares, phi, delta_v, labels) -> list[str]:
    ref = np.bincount(labels, weights=phi / delta_v, minlength=len(shares))
    errs = []
    total = float(np.sum(phi)) / delta_v  # 1 up to the quadrature error
    if not abs(float(np.sum(shares)) - total) <= 1e-9:
        errs.append(f"{label}: tier shares sum to {float(np.sum(shares))!r}, not {total!r}")
    if not np.allclose(shares, ref, rtol=0, atol=1e-9):
        errs.append(f"{label}: tier shares differ from the group sums of phi")
    return errs


# ---- attribution CSV ------------------------------------------------------


def check_attribute_csv(label, kind, csv_bytes, ids, feats, summary, plants=None) -> list[str]:
    """Rows, phi_norm * delta_v = phi, efficiency, f(z) - f(0) per step."""
    errs = []
    rows = list(csv.reader(io.StringIO(csv_bytes.decode("utf-8"))))
    n, T, _ = feats.shape
    if rows[:1] != [["agent_id", "step", "phi", "phi_norm"]]:
        return [f"{label}: bad CSV header {rows[:1]}"]
    body = rows[1:]
    if len(body) != n * T:
        return [f"{label}: {len(body)} CSV rows, expected {n * T}"]
    phi = np.array([float(r[2]) for r in body]).reshape(T, n)
    norm = np.array([float(r[3]) if r[3] else np.nan for r in body]).reshape(T, n)
    if [r[0] for r in body[:n]] != list(ids) or any(int(r[1]) != k // n for k, r in enumerate(body)):
        errs.append(f"{label}: CSV agent/step columns out of order")
    dv = np.asarray(summary["delta_v"], dtype=np.float64)
    for t in range(T):
        if not np.allclose(norm[t] * dv[t], phi[t], rtol=1e-12, atol=0):
            errs.append(f"{label}: step {t}: phi_norm * delta_v != phi")
        errs += check_attribution(f"{label} step {t}", kind, feats[:, t, :], np.zeros(feats.shape[2]),
                                  phi[t], float(dv[t]), plants=plants)
    return errs


def null_and_duplicates(feats: np.ndarray):
    """Rows of an (n, T, D) panel that are zero at every step, and pairs of
    identical rows, found by hashing rows."""
    flat = feats.reshape(len(feats), -1)
    null = np.flatnonzero(~flat.any(axis=1))
    _, first, inverse = np.unique(flat, axis=0, return_index=True, return_inverse=True)
    inverse = inverse.ravel()
    dup_b = np.flatnonzero(first[inverse] != np.arange(len(flat)))
    dup_a = first[inverse[dup_b]]
    return null, (dup_a, dup_b)


# ---- study ----------------------------------------------------------------


def _zscore(x):
    sd = x.std()
    return (x - x.mean()) / sd if sd > 0 else np.zeros_like(x)


def draw_subset(feats, protocol, n, seed, pool_fraction, pool_size) -> np.ndarray:
    """The four sampling protocols, written from their definitions."""
    N = len(feats)
    rng = np.random.default_rng(seed)
    a, b, c = feats[:, 0], feats[:, 1], feats[:, 2]
    if protocol == "random":
        return np.sort(rng.choice(N, size=n, replace=False))
    if protocol == "bias_visibility":
        score = _zscore(a) + _zscore(np.log1p(np.expm1(b) + np.expm1(c)))
        psize = max(1, math.ceil(pool_fraction * N))
    elif protocol == "bias_topic_x_follow":
        score, psize = np.log1p(b + c) * a, min(pool_size, N)
    else:
        score, psize = b, min(pool_size, N)
    order = np.argsort(-score, kind="stable")
    pool = order[:psize]
    if n < len(pool):
        return np.sort(rng.choice(pool, size=n, replace=False))
    extra = rng.choice(order[psize:], size=n - len(pool), replace=False)
    return np.sort(np.concatenate([pool, extra]))


def tier_labels(metric, ids, cut_fractions=(0.01, 0.10, 1.0)) -> np.ndarray:
    """Rank descending by metric, ties by id, slice at ceil(fraction * N)."""
    order = np.lexsort((np.asarray(ids), -np.asarray(metric)))
    labels = np.empty(len(metric), dtype=np.int64)
    lo = 0
    for k, f in enumerate(cut_fractions):
        hi = math.ceil(f * len(metric))
        labels[order[lo:hi]] = k
        lo = hi
    return labels


def collapse(feats: np.ndarray) -> np.ndarray:
    out = np.empty((feats.shape[0], feats.shape[2]))
    out[:, 0] = feats[:, -1, 0]
    for d in range(1, feats.shape[2]):
        out[:, d] = np.log1p(np.expm1(feats[:, :, d]).sum(axis=1))
    return out


def check_flip_csv(label, kind, csv_bytes, z, labels, n_seeds, n_groups=3) -> list[str]:
    """The full row equals the reference tier shares; every row accounts for
    all seeds, and its mean shares sum to one unless every seed was
    degenerate (a subset with no macro change)."""
    rows = list(csv.reader(io.StringIO(csv_bytes.decode("utf-8"))))
    errs = []
    if len(rows) < 2 or rows[1][0] != "full":
        return [f"{label}: no full-population row"]
    phi = closed_form_phi(kind, z)
    ref = np.bincount(labels, weights=phi / phi.sum(), minlength=n_groups)
    full = np.array([float(x) for x in rows[1][4:4 + n_groups]])
    if not np.allclose(full, ref, rtol=0, atol=1e-9):
        errs.append(f"{label}: full-panel tier shares {full} != reference {ref}")
    for r in rows[2:]:
        shares = np.array([float(x) for x in r[4:4 + n_groups]])
        if int(r[2]) + int(r[3]) != n_seeds:
            errs.append(f"{label}: row {r[:2]} accounts for {int(r[2]) + int(r[3])} of {n_seeds} seeds")
        if int(r[2]) and not abs(shares.sum() - 1.0) <= 1e-9:
            errs.append(f"{label}: row {r[:2]} shares sum to {shares.sum()!r}")
    return errs


def check_rescale_csv(label, kind, csv_bytes, z, subsets) -> list[str]:
    """Attribution Scaling Bias: for lin, epsilon = 0 and c* is the ratio of
    the full to the subset generator sum; for var and gini under
    bias_visibility, epsilon > 0.  ``subsets`` maps (n, seed) to indices, or
    is None when the protocol is not bias_visibility and kind is not lin."""
    rows = list(csv.reader(io.StringIO(csv_bytes.decode("utf-8"))))[1:]
    errs = []
    g = z.sum(axis=1)
    if subsets is not None and len(rows) != len(subsets):
        errs.append(f"{label}: {len(rows)} rows, expected {len(subsets)}")
    for r in rows:
        n, seed, c_star, eps = int(r[1]), int(r[2]), float(r[3]), float(r[4])
        if kind == "lin":
            ratio = g.sum() / g[subsets[(n, seed)]].sum()
            if not (abs(eps) <= 1e-9 and abs(c_star - ratio) <= 1e-9 * ratio):
                errs.append(f"{label}: n={n} seed={seed}: lin gives eps={eps!r}, c*={c_star!r} vs {ratio!r}")
        elif subsets is not None and not eps > 1e-6:
            errs.append(f"{label}: n={n} seed={seed}: {kind} gives eps={eps!r}, expected > 0")
    return errs


# ---- coalition estimators -------------------------------------------------


def check_close(label, got, want, atol) -> list[str]:
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    worst = float(np.max(np.abs(got - want))) if got.size else 0.0
    return [] if worst <= atol else [f"{label}: off by {worst:.3g} (tolerance {atol:.3g})"]


def check_verify(report) -> list[str]:
    errs = []
    errs += check_close("verify shares_full", report["shares_full"], [0.3, 0.3, 0.4], 1e-12)
    errs += check_close("verify shares_subset", report["shares_subset"], [0.5, 0.5], 1e-12)
    errs += check_close("verify implied_c", report["implied_c"], [5.0 / 3.0, 5.0 / 4.0], 1e-12)
    return errs
