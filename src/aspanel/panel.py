"""Feature-panel data model: ingestion, tier partitioning, synthetic generation.

The panel is a dense nonnegative (agents x steps x dims) tensor with three
default dimensions per agent per step: reach (log1p cumulative followers at
step start), activity (log1p topic-matching posts+reposts in the step), and
resonance (log1p topic-matching replies received in the step).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import re
import struct
import warnings
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import AspanelError, EmptyPanelError

EVENT_KINDS = ("post", "reply", "repost", "follow")
_KIND_CODE = {k: c for c, k in enumerate(EVENT_KINDS)}
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_TS_TYPES, _OPTIONAL_STR = (int, np.integer), (str, type(None))
DEFAULT_DIM_NAMES = ("reach", "activity", "resonance")
DEFAULT_CUT_FRACTIONS = (0.01, 0.10, 1.00)

_MAGIC = b"ASP1"


def _validate(ts, actor, kind, text, target) -> None:
    """Raise ValueError unless the fields make a valid event."""
    if not isinstance(ts, _TS_TYPES) or not _INT64_MIN <= ts <= _INT64_MAX:
        raise ValueError(f"ts {ts!r} is not an int64 timestamp")
    # agent ids are newline-delimited UTF-8 in the panel file
    if not isinstance(actor, str) or not actor or "\n" in actor:
        # an empty actor could never be a follow or reply target
        raise ValueError(f"actor {actor!r} is not a nonempty one-line string")
    if not actor.isascii():
        actor.encode("utf-8")  # a lone surrogate raises UnicodeEncodeError, a ValueError
    if kind not in EVENT_KINDS:
        raise ValueError(f"unknown event kind {kind!r}")
    if not isinstance(text, _OPTIONAL_STR):
        raise ValueError(f"text {text!r} is neither a string nor null")
    if not isinstance(target, _OPTIONAL_STR) or (target and "\n" in target):
        raise ValueError(f"target {target!r} is neither a one-line string nor null")
    if kind in ("follow", "reply") and not target:
        raise ValueError(f"{kind} event requires a target")


class EventRecord(NamedTuple):
    ts: int  # UTC seconds
    actor: str
    kind: str
    text: Optional[str] = None
    target: Optional[str] = None

    def validate(self) -> None:
        _validate(*self)


@dataclass
class FeaturePanel:
    """Immutable N x T x D feature tensor with agent identities.

    All entries must be finite and nonnegative.
    """

    features: np.ndarray
    agent_ids: list[str]
    dim_names: tuple[str, ...] = DEFAULT_DIM_NAMES

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 3:
            raise AspanelError("features must be a 3-d (agents, steps, dims) array")
        if feats.shape[0] == 0:
            raise EmptyPanelError("panel has no agents")
        if not np.all(np.isfinite(feats)):
            raise AspanelError("panel contains non-finite values")
        if np.any(feats < 0):
            raise AspanelError("panel contains negative values")
        if len(self.agent_ids) != feats.shape[0]:
            raise AspanelError("agent_ids length must match the agent axis")
        if len(set(self.agent_ids)) != len(self.agent_ids):
            raise AspanelError("agent_ids must be unique")
        if len(self.dim_names) != feats.shape[2]:
            object.__setattr__(self, "dim_names", tuple(f"dim{d}" for d in range(feats.shape[2])))
        feats.setflags(write=False)
        self.features = feats

    @property
    def n_agents(self) -> int:
        return self.features.shape[0]

    @property
    def n_steps(self) -> int:
        return self.features.shape[1]

    @property
    def n_dims(self) -> int:
        return self.features.shape[2]

    def step_slice(self, t: int) -> np.ndarray:
        return self.features[:, t, :]

    def collapse(self) -> np.ndarray:
        """Agent-level N x D summary: reach (dim 0) at the last step, other
        dims re-log1p'd over the summed per-step counts."""
        out = np.empty((self.n_agents, self.n_dims))
        out[:, 0] = self.features[:, -1, 0]
        for d in range(1, self.n_dims):
            out[:, d] = np.log1p(np.expm1(self.features[:, :, d]).sum(axis=1))
        return out

    # ---- container I/O ---------------------------------------------------

    def save(self, path) -> None:
        """Flat binary container: magic 'ASP1', little-endian int64 dims
        N,T,D, row-major float64 payload, newline-delimited agent ids.

        Raises AspanelError, before writing anything, for agent ids that
        ``load`` could not read back: ids containing a newline or not
        encodable as UTF-8."""
        if any("\n" in a for a in self.agent_ids):
            raise AspanelError("agent ids must not contain a newline")
        try:
            id_block = "\n".join(self.agent_ids).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise AspanelError(f"agent ids are not UTF-8 encodable ({exc.reason})") from None
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<3q", self.n_agents, self.n_steps, self.n_dims))
            fh.write(np.ascontiguousarray(self.features, dtype="<f8").tobytes())
            fh.write(id_block)

    @classmethod
    def load(cls, path, dim_names: Sequence[str] = DEFAULT_DIM_NAMES) -> "FeaturePanel":
        with open(path, "rb") as fh:
            if fh.read(4) != _MAGIC:
                raise AspanelError(f"{path}: not an ASP1 panel file")
            header = fh.read(24)
            if len(header) != 24:
                raise AspanelError(f"{path}: truncated ASP1 header")
            n, t, d = struct.unpack("<3q", header)
            size = 8 * n * t * d
            if min(n, t, d) < 0 or size > os.fstat(fh.fileno()).st_size - 28:
                raise AspanelError(f"{path}: truncated ASP1 payload for N,T,D = {n},{t},{d}")
            feats = np.empty((n, t, d), dtype="<f8")  # read in place: no second copy
            if fh.readinto(feats) != size:
                raise AspanelError(f"{path}: truncated ASP1 payload for N,T,D = {n},{t},{d}")
            try:
                ids = fh.read().decode("utf-8").split("\n")
            except UnicodeDecodeError as exc:
                raise AspanelError(f"{path}: agent id block is not UTF-8 ({exc.reason})") from None
        if len(ids) != n:
            raise AspanelError(f"{path}: agent id count {len(ids)} != header N={n}")
        names = tuple(dim_names) if len(dim_names) == d else tuple(f"dim{k}" for k in range(d))
        return cls(feats, ids, names)

    def to_csv(self, path) -> None:
        """Agent-major rows ``agent_id,step,<dims>``, floats as ``repr``."""
        T = self.n_steps
        ids = csv_quoted(self.agent_ids)
        steps = [f",{t}" for t in range(T)]
        per_block = max(1, CSV_BLOCK_ROWS // T)  # agents per write
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(["agent_id", "step", *self.dim_names])
            for lo in range(0, self.n_agents, per_block):
                heads = [q + s for q in ids[lo:lo + per_block] for s in steps]
                rows = self.features[lo:lo + per_block].reshape(len(heads), -1)
                write_csv_rows(fh, heads, list(rows.T))


# ---- bulk CSV text --------------------------------------------------------

CSV_BLOCK_ROWS = 1 << 16  # rows formatted per write; bounds the text held in memory


def csv_quoted(ids: Sequence[str]) -> list[str]:
    """Each id as ``csv.writer`` writes it as the first field of a row:
    quoted where the excel dialect quotes it, an empty id left empty."""
    lines = []
    csv.writer(SimpleNamespace(write=lines.append)).writerows(zip(ids, itertools.repeat("")))
    return [line[:-3] for line in lines]  # drop the "," + "\r\n" of the blank second field


def write_csv_rows(fh, heads: Sequence[str], columns) -> None:
    """Write one row per head, the same bytes ``csv.writer`` writes.

    Each head is the row's leading fields, already CSV text (see
    :func:`csv_quoted`).  Each column is either a float64 array with one
    value per row, written with ``repr``, or a string written on every row.
    Lines end in ``\r\n``; rows go out ``CSV_BLOCK_ROWS`` at a time.
    """
    for lo in range(0, len(heads), CSV_BLOCK_ROWS):
        hi = lo + CSV_BLOCK_ROWS
        fields = [itertools.repeat(c) if isinstance(c, str) else _reprs(c[lo:hi]) for c in columns]
        fh.write("\r\n".join(map(",".join, zip(heads[lo:hi], *fields))) + "\r\n")


def _reprs(values: np.ndarray) -> list[str]:
    """``repr`` of each float64, computed once per distinct bit pattern.

    Panels built from event counts repeat few values across many agents, and
    identical rows get identical attributions.  Comparing bits keeps -0.0
    apart from 0.0, whose reprs differ.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return text[inverse].tolist()


# ---- ingestion -----------------------------------------------------------


# An event stream as five parallel lists (ts, actor, kind, text, target),
# one entry per valid event.
_Columns = tuple[list, list, list, list, list]


def _read_event_columns(path) -> tuple[_Columns, int]:
    """The valid events of a JSONL file as columns, and the count of
    malformed lines (see :func:`read_events_jsonl`)."""
    decode = json.JSONDecoder().raw_decode
    cols = [], [], [], [], []
    add_ts, add_actor, add_kind, add_text, add_target = (c.append for c in cols)
    bad = 0
    with open(path, "rb") as fh:
        for raw in fh:  # line by line: a whole-file read holds the file's text too
            try:
                line = raw.decode("utf-8").strip()  # UnicodeDecodeError is a ValueError
                if not line:
                    continue
                obj, end = decode(line)
                if end != len(line):
                    raise ValueError("trailing data after the JSON value")
                ts, actor, kind = int(obj["ts"]), str(obj["actor"]), str(obj["kind"])
                text, target = obj.get("text"), obj.get("target")
                _validate(ts, actor, kind, text, target)
            except (ValueError, KeyError, TypeError, OverflowError, RecursionError):
                bad += 1
                continue
            add_ts(ts)
            add_actor(actor)
            add_kind(kind)
            add_text(text)
            add_target(target)
    return cols, bad


def _warn_malformed(bad: int) -> None:
    """Warn of skipped records on behalf of the caller of this function's caller."""
    if bad:
        warnings.warn(f"skipped {bad} malformed event records", stacklevel=3)


def read_events_jsonl(path) -> tuple[list[EventRecord], int]:
    """Parse a JSONL event file; malformed lines are skipped and counted.

    A line is malformed when it is not one JSON object (trailing data
    included), lacks ``ts``/``actor``/``kind``, has a ``ts`` that is not an
    int64 integer, fails ``EventRecord.validate``, or is not UTF-8.  Lines
    end at a newline byte.
    """
    cols, bad = _read_event_columns(path)
    _warn_malformed(bad)
    return list(itertools.starmap(EventRecord, zip(*cols))), bad


def _matches(text: Optional[str], keywords_lower: list[str]) -> bool:
    if not text:
        return False
    return any(map(text.lower().__contains__, keywords_lower))


def _pair_counts(agent: np.ndarray, bucket: np.ndarray, n: int, width: int) -> np.ndarray:
    """(n, width) float64 table counting each (agent, bucket) pair."""
    flat = np.bincount(agent * width + bucket, minlength=n * width)
    return flat.reshape(n, width).astype(np.float64)


def _n_steps(window: tuple[int, int], step: int) -> int:
    start, end = window
    if end <= start:
        raise AspanelError("window must be nonempty")
    if step <= 0 or (end - start) % step != 0:
        raise AspanelError("step must divide the window into T >= 1 buckets")
    return (end - start) // step


def _count_events(cols: _Columns, topic_keywords, window, step, n_steps,
                  follower_snapshot, cumulative, exclude_pattern):
    """The feature panel of validated event columns (see :func:`ingest_events`),
    and the counts of events by an excluded actor and of non-follow events
    outside the window.

    Events are counted per (active agent, bucket): topical posts+reposts,
    topical replies received, and follows by the first bucket whose start is
    after them.  With a follower snapshot, follows before the window start
    are dropped.
    """
    kw = [k.lower() for k in topic_keywords]
    try:
        excl = re.compile(exclude_pattern) if exclude_pattern else None
    except re.error as exc:
        raise AspanelError(f"exclude pattern {exclude_pattern!r} is not a valid regex ({exc})") from None
    ts_list, actors, kinds, texts, targets = cols
    start, end = window
    m = len(ts_list)
    ts = np.array(ts_list, dtype=np.int64)
    kind = np.fromiter(map(_KIND_CODE.__getitem__, kinds), np.int8, m)
    in_window = (ts >= start) & (ts < end)

    # every actor by sorted name; code len(names) stands for a non-actor target
    names = sorted(set(actors))
    code = {a: i for i, a in enumerate(names)}
    actor = np.fromiter(map(code.__getitem__, actors), np.int64, m)
    target = np.fromiter(map(code.get, targets, itertools.repeat(len(names))), np.int64, m)
    kept = np.ones(len(names), dtype=bool)
    if excl:
        kept[:] = [excl.search(a) is None for a in names]
    keeps = kept[actor]  # per event: its actor is not excluded
    active = np.zeros(len(names) + 1, dtype=bool)
    active[actor[in_window & keeps]] = True
    ids = list(itertools.compress(names, active.tolist()))
    if not ids:
        raise EmptyPanelError("no active agents after filtering (empty panel)")
    n = len(ids)
    # panel row per code, -1 for an agent that is not active
    row = np.where(active, np.cumsum(active) - 1, -1)
    actor_row, target_row = row[actor], row[target]

    # `pos` counts the bucket starts at or before each event, so an in-window
    # event falls in bucket pos - 1 and a follow counts from bucket pos on.
    # Every int64 ts is past a start below int64 and before one above it.
    starts = (start + t * step for t in range(n_steps))
    bucket_starts = np.array([max(b, _INT64_MIN) for b in starts if b <= _INT64_MAX],
                             dtype=np.int64)
    pos = np.searchsorted(bucket_starts, ts, side="right")

    def topical(rows: np.ndarray) -> np.ndarray:
        return rows[np.array([_matches(texts[j], kw) for j in rows.tolist()], dtype=bool)]

    is_follow = kind == _KIND_CODE["follow"]
    is_post = (kind == _KIND_CODE["post"]) | (kind == _KIND_CODE["repost"])
    posts = topical(np.flatnonzero(in_window & is_post & (actor_row >= 0)))
    replies = topical(np.flatnonzero(in_window & (kind == _KIND_CODE["reply"]) & (target_row >= 0)))

    # follow events targeting an active agent from a kept actor; one at or
    # after the last bucket start lands in column T, which no bucket counts
    follows = np.flatnonzero(is_follow & (target_row >= 0) & keeps)
    if follower_snapshot is not None:
        follows = follows[ts[follows] >= start]

    activity = _pair_counts(actor_row[posts], pos[posts] - 1, n, n_steps)
    resonance = _pair_counts(target_row[replies], pos[replies] - 1, n, n_steps)
    gained = _pair_counts(target_row[follows], pos[follows], n, n_steps + 1)
    reach = np.cumsum(gained[:, :n_steps], axis=1)
    if follower_snapshot is not None:
        reach += np.array([follower_snapshot.get(a, 0) for a in ids], dtype=np.float64)[:, None]
    if cumulative:
        activity = np.cumsum(activity, axis=1)
        resonance = np.cumsum(resonance, axis=1)

    feats = np.empty((n, n_steps, 3))
    feats[:, :, 0] = np.log1p(reach)
    feats[:, :, 1] = np.log1p(activity)
    feats[:, :, 2] = np.log1p(resonance)
    counters = {"excluded": int(np.count_nonzero(~keeps)),
                "out_of_window": int(np.count_nonzero(~in_window & ~is_follow))}
    return FeaturePanel(feats, ids), counters


def ingest_events(
    stream: Iterable[EventRecord],
    topic_keywords: Sequence[str],
    window: tuple[int, int],
    step: int,
    follower_snapshot: Optional[dict[str, int]] = None,
    cumulative: bool = False,
    exclude_pattern: Optional[str] = None,
) -> FeaturePanel:
    """Aggregate an event stream into a 3-dim feature panel.

    Order-independent: events are counted per (agent, bucket) pair, so the
    stream order never matters.  Agents with zero events inside the window
    are excluded.  When a follower snapshot is given it defines the count at
    window start and pre-window follow events are ignored; otherwise
    followers accumulate from all observed follow events.
    """
    n_steps = _n_steps(window, step)
    valid, bad = [], 0
    for ev in stream:
        try:
            ev.validate()
        except ValueError:
            bad += 1
            continue
        valid.append(ev)
    _warn_malformed(bad)
    cols = tuple(map(list, zip(*valid))) if valid else ([], [], [], [], [])
    return _count_events(cols, topic_keywords, window, step, n_steps,
                         follower_snapshot, cumulative, exclude_pattern)[0]


def ingest_jsonl(
    path,
    topic_keywords: Sequence[str],
    window: tuple[int, int],
    step: int,
    follower_snapshot: Optional[dict[str, int]] = None,
    cumulative: bool = False,
    exclude_pattern: Optional[str] = None,
) -> tuple[FeaturePanel, dict[str, int]]:
    """:func:`read_events_jsonl` then :func:`ingest_events`, with each line
    decoded and validated once and no :class:`EventRecord` built.

    Returns the panel and its record counters: ``malformed`` lines,
    ``records`` (valid events), ``excluded`` (valid events whose actor
    matches ``exclude_pattern``) and ``out_of_window`` (valid non-follow
    events outside the window).
    """
    cols, bad = _read_event_columns(path)
    _warn_malformed(bad)
    pn, counters = _count_events(cols, topic_keywords, window, step, _n_steps(window, step),
                                 follower_snapshot, cumulative, exclude_pattern)
    return pn, {"malformed": bad, "records": len(cols[0]), **counters}


# ---- tier partitioning ---------------------------------------------------


@dataclass(frozen=True)
class TierPartition:
    labels: np.ndarray  # per-agent group index, 0 = highest tier
    group_names: tuple[str, ...]
    anchor_metric: str
    cut_fractions: tuple[float, ...]

    @property
    def n_groups(self) -> int:
        return len(self.group_names)

    def group_sizes(self) -> list[int]:
        return [int(np.count_nonzero(self.labels == k)) for k in range(self.n_groups)]

    def group_indices(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.labels == k)


def make_tier_partition(
    panel_or_values: Union[FeaturePanel, np.ndarray],
    anchor: Union[Callable, np.ndarray, None] = None,
    cut_fractions: Sequence[float] = DEFAULT_CUT_FRACTIONS,
    group_names: Optional[Sequence[str]] = None,
    anchor_name: str = "anchor",
    agent_ids: Optional[Sequence[str]] = None,
) -> TierPartition:
    """Rank agents descending by an anchor metric and slice into tiers.

    Ties are broken by agent id (lexicographic) so partitions are
    reproducible.  Group k holds the agents in cumulative-fraction slice k;
    boundaries are ceil(fraction * N).
    """
    fracs = tuple(float(f) for f in cut_fractions)
    if any(b <= a for a, b in zip(fracs, fracs[1:])) or fracs[-1] != 1.0:
        raise AspanelError("cut_fractions must be strictly increasing and end at 1.0")

    if isinstance(panel_or_values, FeaturePanel):
        ids = np.asarray(panel_or_values.agent_ids)
        metric = anchor(panel_or_values) if callable(anchor) else anchor
        if metric is None:
            metric = panel_or_values.collapse()[:, 0]
    else:
        metric = np.asarray(panel_or_values, dtype=np.float64)
        ids = (
            np.asarray(agent_ids)
            if agent_ids is not None
            else np.array([f"{i:09d}" for i in range(len(metric))])
        )
    metric = np.asarray(metric, dtype=np.float64)
    n = len(metric)
    if n < len(fracs):
        raise AspanelError(f"cannot split {n} agents into {len(fracs)} groups")

    order = np.lexsort((ids, -metric))
    bounds = [math.ceil(f * n) for f in fracs]
    labels = np.empty(n, dtype=np.int64)
    lo = 0
    for k, hi in enumerate(bounds):
        labels[order[lo:hi]] = k
        lo = hi
    names = tuple(group_names) if group_names else tuple(
        ("top", "mid", "tail")[k] if len(fracs) == 3 else f"group{k}" for k in range(len(fracs))
    )
    return TierPartition(labels, names, anchor_name, fracs)


# ---- synthetic generation ------------------------------------------------

FEATURE_LAWS = ("uniform_pm1", "abs_gaussian", "pareto_reach")


@dataclass(frozen=True)
class SyntheticPanelSpec:
    n_agents: int
    n_steps: int = 1
    n_dims: int = 3
    feature_law: str = "abs_gaussian"
    pareto_alpha: float = 1.5
    reach_coupling: float = 1.0  # pareto_reach: engagement ~ reach^coupling
    seed: int = 0

    def __post_init__(self):
        if self.feature_law not in FEATURE_LAWS:
            raise AspanelError(f"unknown feature law {self.feature_law!r}")
        if self.n_agents < 1 or self.n_steps < 1 or self.n_dims < 1:
            raise AspanelError("panel dimensions must be positive")
        if self.feature_law == "pareto_reach" and not self.pareto_alpha > 1.0:
            raise AspanelError("pareto_alpha must exceed 1 (finite mean)")


def generate_synthetic(spec: SyntheticPanelSpec) -> FeaturePanel:
    """Deterministic synthetic panel from a spec."""
    rng = np.random.default_rng(spec.seed)
    shape = (spec.n_agents, spec.n_steps, spec.n_dims)
    if spec.feature_law == "uniform_pm1":
        feats = (rng.uniform(-1.0, 1.0, shape) + 1.0) / 2.0
    elif spec.feature_law == "abs_gaussian":
        feats = np.abs(rng.standard_normal(shape))
    else:  # pareto_reach
        reach_raw = 1.0 + rng.pareto(spec.pareto_alpha, (spec.n_agents, spec.n_steps))
        feats = np.empty(shape)
        feats[:, :, 0] = np.log1p(reach_raw)
        for d in range(1, spec.n_dims):
            noise = np.abs(rng.standard_normal((spec.n_agents, spec.n_steps)))
            feats[:, :, d] = np.log1p(reach_raw**spec.reach_coupling * noise)
    ids = [f"a{i:08d}" for i in range(spec.n_agents)]
    return FeaturePanel(feats, ids)
