"""Seeded input generators for the benchmark.

Everything here is plain Python and numpy; nothing imports aspanel, so the
generator's own event list can serve as the reference the ingest output is
checked against.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

KINDS = ("post", "reply", "repost", "follow")
POST, REPLY, REPOST, FOLLOW = range(4)

TOPICS = ("solar", "heatwave", "Grid", "turbine")
FILLER = ("lunch photo", "good morning", "match tonight", "new playlist", "cat pics")
EXCLUDE_REGEX = "^bot"


@dataclass(frozen=True)
class EventSpec:
    """Make-up of one synthetic Bluesky-like event stream.

    The size is the ROADMAP's ingest baseline: 300k events into a
    20k x 24 x 3 panel, 15 events per agent.  The rest of the make-up (kind
    mix, tail exponents, topic share, the counts of edge cases) is assumed;
    no measured platform traffic backs it.
    """

    n_users: int = 20000
    n_bots: int = 200  # accounts named bot*, excluded by EXCLUDE_REGEX
    n_events: int = 300000  # valid events, inside and outside the window
    n_out_of_window: int = 12000  # non-follow events before or after the window
    n_pre_window_follows: int = 18000  # follows before the window start
    n_malformed: int = 1500  # lines read_events_jsonl must skip and count
    n_steps: int = 24
    step: int = 3600
    window_start: int = 1_700_000_000
    match_share: float = 0.35  # share of texts that contain a topic keyword
    activity_alpha: float = 1.2  # Pareto tail of per-actor activity
    indegree_alpha: float = 1.1  # Pareto tail of follow / reply targets

    @property
    def window(self) -> tuple[int, int]:
        return self.window_start, self.window_start + self.n_steps * self.step


@dataclass
class EventStream:
    """The generator's own record of the stream, one entry per valid event."""

    spec: EventSpec
    names: list[str]  # account names; index = account code
    ts: np.ndarray  # int64
    actor: np.ndarray  # account code
    kind: np.ndarray  # index into KINDS
    target: np.ndarray  # account code, -1 when the kind has none
    match: np.ndarray  # bool, text contains a topic keyword
    lines: list[str]  # JSONL lines in file order, malformed ones included

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("\n".join(self.lines))
            fh.write("\n")


def _pareto_weights(rng, n, alpha):
    w = 1.0 + rng.pareto(alpha, n)
    return w / w.sum()


def make_events(spec: EventSpec, seed: int) -> EventStream:
    rng = np.random.default_rng([seed, 101])
    n_acc = spec.n_users + spec.n_bots
    names = [f"u{i:06d}" for i in range(spec.n_users)] + [f"bot{i:05d}" for i in range(spec.n_bots)]
    activity = _pareto_weights(rng, n_acc, spec.activity_alpha)
    popularity = _pareto_weights(rng, n_acc, spec.indegree_alpha)
    start, end = spec.window
    n_in = spec.n_events - spec.n_out_of_window - spec.n_pre_window_follows

    # in-window events: every kind, actors by activity
    kind_in = rng.choice(4, size=n_in, p=[0.45, 0.2, 0.15, 0.2])
    ts_in = rng.integers(start, end, n_in)
    # some events fall exactly on a bucket boundary, where off-by-one bucketing shows
    on_edge = rng.random(n_in) < 0.02
    ts_in[on_edge] = start + spec.step * rng.integers(0, spec.n_steps, int(on_edge.sum()))
    # out-of-window events: posts, replies and reposts before or after the window
    kind_out = rng.choice(3, size=spec.n_out_of_window, p=[0.5, 0.3, 0.2])
    kind_out = np.array([POST, REPLY, REPOST])[kind_out]
    before = rng.random(spec.n_out_of_window) < 0.5
    ts_out = np.where(
        before,
        rng.integers(start - 7 * 86400, start, spec.n_out_of_window),
        rng.integers(end, end + 7 * 86400, spec.n_out_of_window),
    )
    # pre-window follows seed the follower counts at window start
    kind_pre = np.full(spec.n_pre_window_follows, FOLLOW)
    ts_pre = rng.integers(start - 30 * 86400, start, spec.n_pre_window_follows)

    kind = np.concatenate([kind_in, kind_out, kind_pre]).astype(np.int64)
    ts = np.concatenate([ts_in, ts_out, ts_pre]).astype(np.int64)
    n = len(kind)
    actor = rng.choice(n_acc, size=n, p=activity)
    # every account posts once in the window, so the panel always has
    # n_users agents whatever the seed
    kind[:n_acc] = POST
    actor[:n_acc] = rng.permutation(n_acc)
    target = np.full(n, -1, dtype=np.int64)
    follows = kind == FOLLOW
    target[follows] = rng.choice(n_acc, size=int(follows.sum()), p=popularity)
    # replies go to accounts that post in the window, weighted by popularity
    replies = kind == REPLY
    posters = np.unique(actor[(kind == POST) & (ts >= start) & (ts < end)])
    pw = popularity[posters] / popularity[posters].sum()
    target[replies] = posters[rng.choice(len(posters), size=int(replies.sum()), p=pw)]
    self_target = target == actor  # no self-follows or self-replies
    target[self_target] = (target[self_target] + 1) % n_acc
    has_text = kind != FOLLOW
    match = has_text & (rng.random(n) < spec.match_share)
    topic_pick = rng.integers(len(TOPICS), size=n)
    filler_pick = rng.integers(len(FILLER), size=n)
    upper = rng.random(n) < 0.3

    order = rng.permutation(n)  # file order is not time order
    lines = []
    for j in order:
        rec = {"ts": int(ts[j]), "actor": names[actor[j]], "kind": KINDS[kind[j]]}
        if has_text[j]:
            word = TOPICS[topic_pick[j]] if match[j] else ""
            if upper[j]:
                word = word.upper()
            rec["text"] = f"{FILLER[filler_pick[j]]} {word}".strip()
        if target[j] >= 0:
            rec["target"] = names[target[j]]
        lines.append(json.dumps(rec))
    lines = _insert_malformed(lines, spec.n_malformed, names, start, rng)
    return EventStream(spec, names, ts, actor, kind, target, match, lines)


def _insert_malformed(lines, count, names, start, rng):
    """Interleave `count` lines that read_events_jsonl must skip, cycling
    through the ways a line can be bad."""
    variants = (
        lambda k: '{"ts": %d, "actor": "u000001", "kind": "post"' % (start + k),  # cut JSON
        lambda k: json.dumps({"actor": names[k % len(names)], "kind": "post"}),  # no ts
        lambda k: json.dumps({"ts": start + k, "actor": "u000002", "kind": "like"}),
        lambda k: json.dumps({"ts": start + k, "actor": "u000003", "kind": "follow"}),
        lambda k: json.dumps({"ts": "noon", "actor": "u000004", "kind": "post"}),
        lambda k: json.dumps([start + k, "u000005", "post"]),
    )
    bad = [variants[k % len(variants)](k) for k in range(count)]
    pos = np.sort(rng.integers(0, len(lines) + 1, count))
    out, prev = [], 0
    for p, line in zip(pos, bad):
        out.extend(lines[prev:p])
        out.append(line)
        prev = p
    out.extend(lines[prev:])
    return out


def topic_text() -> str:
    return ", ".join(TOPICS)


# ---- panels ---------------------------------------------------------------


@dataclass(frozen=True)
class Plants:
    """Rows of a synthetic panel overwritten so that the attribution has a
    known answer: zero rows (null under the zero baseline), rows at the
    panel-wide mean (null under the population_mean baseline) and pairs of
    identical rows (equal attribution)."""

    zero: np.ndarray
    at_mean: np.ndarray
    dup_a: np.ndarray
    dup_b: np.ndarray


def choose_plants(n_agents: int, seed: int, n_each: int = 8) -> Plants:
    rng = np.random.default_rng([seed, 202])
    rows = rng.choice(n_agents, size=4 * n_each, replace=False)
    return Plants(*np.sort(rows.reshape(4, n_each), axis=1))


def plant(features: np.ndarray, plants: Plants) -> np.ndarray:
    """Return a copy of an (N, T, D) array with the plants written in."""
    z = np.array(features, dtype=np.float64)
    z[plants.zero] = 0.0
    z[plants.dup_b] = z[plants.dup_a]
    # a row equal to the mean of all other rows leaves the panel mean unchanged
    others = np.ones(len(z), dtype=bool)
    others[plants.at_mean] = False
    z[plants.at_mean] = z[others].reshape(-1, z.shape[2]).mean(axis=0)
    return z
