"""Feature-panel data model: ingestion, tier partitioning, synthetic generation.

The panel is a dense nonnegative (agents x steps x dims) tensor with three
default dimensions per agent per step: reach (log1p cumulative followers at
step start), activity (log1p topic-matching posts+reposts in the step), and
resonance (log1p topic-matching replies received in the step).
"""

from __future__ import annotations

import collections
import csv
import itertools
import json
import math
import operator
import os
import re
import struct
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import AspanelError, EmptyPanelError

EVENT_KINDS = ("post", "reply", "repost", "follow")
_KIND_CODE = {k: c for c, k in enumerate(EVENT_KINDS)}
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_TS_TYPES, _OPTIONAL_STR = (int, np.integer), (str, type(None))
DEFAULT_DIM_NAMES = ("reach", "activity", "resonance")
DEFAULT_CUT_FRACTIONS = (0.01, 0.10, 1.00)

_MAGIC = b"ASP1"


def _check_fields(ts, actor, kind, text, target) -> None:
    """Raise ValueError unless the fields make a valid event, leaving out
    what :func:`_agent_id_ok` and :func:`_one_line` decide of the actor and
    target strings: that is decided once per distinct string."""
    if not isinstance(ts, _TS_TYPES) or isinstance(ts, bool) or not _INT64_MIN <= ts <= _INT64_MAX:
        raise ValueError(f"ts {ts!r} is not an int64 timestamp")
    if not isinstance(actor, str):
        raise ValueError(f"actor {actor!r} is not a string")
    if kind not in EVENT_KINDS:
        raise ValueError(f"unknown event kind {kind!r}")
    if not isinstance(text, _OPTIONAL_STR):
        raise ValueError(f"text {text!r} is neither a string nor null")
    if not isinstance(target, _OPTIONAL_STR):
        raise ValueError(f"target {target!r} is neither a string nor null")
    if kind in ("follow", "reply") and not target:
        raise ValueError(f"{kind} event requires a target")


def _one_line(name: str) -> bool:
    # agent ids are newline-delimited in the panel file
    return "\n" not in name


def _agent_id_ok(name: str) -> bool:
    """A nonempty one-line string that UTF-8 encodes: an id a panel can save.
    An empty actor could never be a follow or reply target."""
    if not name or "\n" in name:
        return False
    if name.isascii():
        return True
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate has no encoding
        return False
    return True


def _validate(ts, actor, kind, text, target) -> None:
    """Raise ValueError unless the fields make a valid event."""
    _check_fields(ts, actor, kind, text, target)
    if not _agent_id_ok(actor):
        raise ValueError(f"actor {actor!r} is not a nonempty one-line UTF-8 string")
    if target and not _one_line(target):
        raise ValueError(f"target {target!r} is not a one-line string")


class EventRecord(NamedTuple):
    ts: int  # UTC seconds
    actor: str
    kind: str
    text: Optional[str] = None
    target: Optional[str] = None

    def validate(self) -> None:
        _validate(*self)


def _strictly_increasing(ids: Sequence[str]) -> bool:
    """Whether each id sorts before the next, scanned without a Python loop.

    Sorted ids are unique, and every panel aspanel builds has them: ingest
    sorts by name and synthetic ids are zero-padded.  Raises AspanelError
    for ids that do not compare, such as a string beside a number."""
    try:
        return all(map(operator.lt, ids, itertools.islice(ids, 1, None)))
    except TypeError:
        raise AspanelError("agent ids must be strings") from None


def _check_unique(ids: Sequence[str]) -> None:
    if not _strictly_increasing(ids) and len(set(ids)) != len(ids):
        raise AspanelError("agent_ids must be unique")


@dataclass(frozen=True, eq=False)
class FeaturePanel:
    """Immutable N x T x D feature tensor with agent identities.

    All entries must be finite and nonnegative.
    """

    features: np.ndarray
    agent_ids: list[str]

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 3:
            raise AspanelError("features must be a 3-d (agents, steps, dims) array")
        if feats.shape[0] == 0:
            raise EmptyPanelError("panel has no agents")
        if feats.shape[2] == 0:
            raise AspanelError("panel has no feature dims")
        # two reductions and no tensor-sized temporary: a NaN carries
        # through min and max, so non-finite is found before negative, and
        # -0.0 is not below zero
        lo, hi = feats.min(initial=0.0), feats.max(initial=0.0)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise AspanelError("panel contains non-finite values")
        if lo < 0:
            raise AspanelError("panel contains negative values")
        ids = self.agent_ids
        if len(ids) != feats.shape[0]:
            raise AspanelError("agent_ids length must match the agent axis")
        _check_unique(ids)
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)

    @property
    def n_agents(self) -> int:
        return self.features.shape[0]

    @property
    def n_steps(self) -> int:
        return self.features.shape[1]

    @property
    def n_dims(self) -> int:
        return self.features.shape[2]

    @property
    def dim_names(self) -> tuple[str, ...]:
        """reach, activity, resonance for three dims; dim0, dim1, ... otherwise."""
        D = self.n_dims
        return DEFAULT_DIM_NAMES if D == 3 else tuple(f"dim{d}" for d in range(D))

    def step_slice(self, t: int) -> np.ndarray:
        return self.features[:, t, :]

    def collapse(self) -> np.ndarray:
        """Agent-level N x D summary: reach (dim 0) at the last step, other
        dims re-log1p'd over the summed per-step counts."""
        from .valuefn import _row_sums  # valuefn is loaded with the package: a lookup here

        out = np.empty((self.n_agents, self.n_dims))
        out[:, 0] = self.features[:, -1, 0]
        for d in range(1, self.n_dims):
            with np.errstate(over="ignore"):
                out[:, d] = np.log1p(_row_sums(np.expm1(self.features[:, :, d])))
            if not np.isfinite(out[:, d]).all():
                raise AspanelError(f"the summed per-step counts of dim {self.dim_names[d]!r} "
                                   "overflow float64")
        return out

    # ---- container I/O ---------------------------------------------------

    def save(self, path) -> None:
        """Flat binary container: magic 'ASP1', little-endian int64 dims
        N,T,D, row-major float64 payload, newline-delimited agent ids.

        Raises AspanelError, before writing anything, for agent ids that
        ``load`` could not read back: ids that are not strings, contain a
        newline, repeat or are not encodable as UTF-8.  The id list can be
        changed in place after the panel checked it, so it is checked again."""
        try:
            id_text = "\n".join(self.agent_ids)
        except TypeError:
            raise AspanelError("agent ids must be strings") from None
        if id_text.count("\n") != self.n_agents - 1:  # a newline inside an id
            raise AspanelError("agent ids must not contain a newline")
        _check_unique(self.agent_ids)
        try:
            id_block = id_text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise AspanelError(f"agent ids are not UTF-8 encodable ({exc.reason})") from None
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<3q", self.n_agents, self.n_steps, self.n_dims))
            fh.write(np.ascontiguousarray(self.features, dtype="<f8").data)  # no payload copy
            fh.write(id_block)

    @classmethod
    def load(cls, path) -> "FeaturePanel":
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
        return cls(feats, ids)

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
                write_csv_rows(fh, heads, rows, _float_fields)


# ---- bulk CSV text --------------------------------------------------------

CSV_BLOCK_ROWS = 1 << 16  # rows formatted per write; bounds the text held in memory


def csv_quoted(ids: Sequence[str]) -> list[str]:
    """Each id as ``csv.writer`` writes it as the first field of a row:
    quoted where the excel dialect quotes it, an empty id left empty."""
    lines = []
    csv.writer(SimpleNamespace(write=lines.append)).writerows(zip(ids, itertools.repeat("")))
    return [line[:-3] for line in lines]  # drop the "," + "\r\n" of the blank second field


def write_csv_rows(fh, heads: Sequence[str], values: np.ndarray,
                   tails: Callable[[np.ndarray], Iterable[str]]) -> None:
    """Write row i as ``heads[i]`` then the text ``tails`` makes of ``values[i]``,
    the same bytes ``csv.writer`` writes.

    Each head is the row's leading fields, already CSV text (see
    :func:`csv_quoted`).  ``values`` holds one float64, or one row of them,
    per head.  Rows go out ``CSV_BLOCK_ROWS`` at a time, and each block is
    deduped once on the bit patterns of its values: ``tails`` gets the
    distinct ones in an array and returns, for each, the rest of its row
    through the ``\r\n`` that ends it.  Panels built from event counts
    repeat few values across many agents, and identical rows get identical
    attributions, so each distinct value's text is formatted once.  Comparing
    bits keeps -0.0 apart from 0.0, whose reprs differ.
    """
    for lo in range(0, len(heads), CSV_BLOCK_ROWS):
        block = values[lo:lo + CSV_BLOCK_ROWS]
        if block.ndim == 1:
            keys = block.view(np.int64)
        else:  # each row's bytes as one key
            keys = np.ascontiguousarray(block).view((np.void, block[0].nbytes)).ravel()
        distinct, inverse = np.unique(keys, return_inverse=True)
        text = np.fromiter(tails(distinct.view(np.float64).reshape(-1, *block.shape[1:])),
                           dtype=object, count=len(distinct))
        rows = zip(heads[lo:lo + CSV_BLOCK_ROWS], text[inverse].tolist())
        fh.write("".join(itertools.chain.from_iterable(rows)))


def _float_fields(rows: np.ndarray) -> Iterable[str]:
    """``,repr(v)`` for each value of each row, then ``\r\n``."""
    fields = [f for col in rows.T.tolist() for f in (itertools.repeat(","), map(repr, col))]
    return map("".join, zip(*fields, itertools.repeat("\r\n")))


def write_table(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A small CSV as ``csv.writer`` writes it, every ``float`` (numpy
    float64 included) as ``repr(float(v))`` so that it round-trips exactly;
    other cells as ``csv.writer`` writes them, ``None`` as an empty cell."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)


def write_json(path, obj) -> None:
    """``obj`` as JSON indented by 2, ending in a newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


# ---- ingestion -----------------------------------------------------------

INGEST_CHUNK_EVENTS = 1 << 16  # events read before they are counted; bounds the strings held

# A chunk of an event stream as five parallel sequences (ts, actor, kind,
# text, target), one entry per event that passed _check_fields.
_Columns = tuple[Sequence, Sequence, Sequence, Sequence, Sequence]


def _read_event_chunks(path, flush: Callable[[_Columns], int]) -> int:
    """Decode and check each line of a JSONL file (see :func:`read_events_jsonl`),
    handing the events to ``flush`` as columns, INGEST_CHUNK_EVENTS at a
    time.  ``flush`` returns how many of them it found malformed; the result
    is the count of malformed lines."""
    decode = json.JSONDecoder().raw_decode
    chunk = INGEST_CHUNK_EVENTS
    cols = [], [], [], [], []
    ts_col = cols[0]
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
                ts, actor, kind = obj["ts"], obj["actor"], obj["kind"]
                text, target = obj.get("text"), obj.get("target")
                _check_fields(ts, actor, kind, text, target)
            except (ValueError, KeyError, TypeError, OverflowError, RecursionError):
                bad += 1
                continue
            add_ts(ts)
            add_actor(actor)
            add_kind(kind)
            add_text(text)
            add_target(target)
            if len(ts_col) == chunk:
                bad += flush(cols)
                for c in cols:
                    c.clear()
    if ts_col:
        bad += flush(cols)
    return bad


def _warn_malformed(bad: int) -> None:
    """Warn of skipped records on behalf of the caller of this function's caller."""
    if bad:
        warnings.warn(f"skipped {bad} malformed event records", stacklevel=3)


def read_events_jsonl(path) -> tuple[list[EventRecord], int]:
    """Parse a JSONL event file; malformed lines are skipped and counted.

    A line is malformed when it is not one JSON object (trailing data
    included), lacks ``ts``/``actor``/``kind``, has a ``ts`` that is not a
    JSON integer in int64, fails ``EventRecord.validate``, or is not UTF-8.
    Lines end at a newline byte.
    """
    events = []

    def keep(cols: _Columns) -> int:
        held = len(events)
        events.extend(ev for ev in itertools.starmap(EventRecord, zip(*cols))
                      if _agent_id_ok(ev.actor) and (not ev.target or _one_line(ev.target)))
        return len(cols[0]) - (len(events) - held)

    bad = _read_event_chunks(path, keep)
    _warn_malformed(bad)
    return events, bad


# Ingest builds the bucket starts in a Python loop over T and gives each name
# a row of 3T + 1 int64 counts, so T is bounded before either exists: 2**16
# steps hold seven years of hourly buckets, with a 1.5 MB row per name.
MAX_STEPS = 2**16


def _n_steps(window: tuple[int, int], step: int) -> int:
    start, end = window
    if end <= start:
        raise AspanelError("window must be nonempty")
    if step <= 0 or (end - start) % step != 0:
        raise AspanelError("step must divide the window into T >= 1 buckets")
    T = (end - start) // step
    if T > MAX_STEPS:
        raise AspanelError(f"the window holds {T} steps of {step}, more than {MAX_STEPS}")
    return T


class _EventCounts:
    """The counts behind :func:`ingest_events`, taken one chunk of events at
    a time, so that memory grows with the distinct names, not the events.

    Each distinct actor or target string gets a code when first seen, and is
    validated and matched against the exclude pattern once.  Its row of
    ``table`` counts, in 3T + 1 columns: its topical posts+reposts per
    bucket, the topical replies it received per bucket, and the follows it
    gained by the first bucket whose start is after them (column T of that
    block lies past the last start, which no bucket counts).  With a
    follower snapshot, follows before the window start are dropped.  The
    codes follow the stream order; the panel orders its rows by name.
    """

    def __init__(self, topic_keywords, window, step, follower_snapshot, cumulative,
                 exclude_pattern):
        T = self.n_steps = _n_steps(window, step)
        try:
            self.exclude = re.compile(exclude_pattern) if exclude_pattern else None
        except re.error as exc:
            raise AspanelError(
                f"exclude pattern {exclude_pattern!r} is not a valid regex ({exc})") from None
        self.keywords = [k.lower() for k in topic_keywords]
        self.window, self.snapshot, self.cumulative = window, follower_snapshot, cumulative
        # `pos` counts the bucket starts at or before each event, so an in-window
        # event falls in bucket pos - 1 and a follow counts from bucket pos on.
        # Every int64 ts is past a start below int64 and before one above it.
        starts = (window[0] + t * step for t in range(T))
        self.bucket_starts = np.array([max(b, _INT64_MIN) for b in starts if b <= _INT64_MAX],
                                      dtype=np.int64)
        # name -> code, the next code for a name not seen before; code 0 is "no target"
        self.code = collections.defaultdict(itertools.count(1).__next__, {None: 0})
        # per code: a valid actor string, a valid target string, an actor the
        # exclude pattern keeps, an actor with an event in the window
        self.actor_ok = np.zeros(1, dtype=bool)
        self.target_ok = np.ones(1, dtype=bool)
        self.kept = np.zeros(1, dtype=bool)
        self.active = np.zeros(1, dtype=bool)
        self.table = np.zeros((1, 3 * T + 1), dtype=np.int64)
        # valid events; of them, by an excluded actor; non-follow ones outside the window
        self.records = self.excluded = self.out_of_window = 0

    def _register(self, base: int) -> None:
        """Decide what the names given codes from ``base`` on may be."""
        size = len(self.code)
        new = list(itertools.islice(reversed(self.code), size - base))[::-1]
        if size > len(self.active):
            cap = max(size, len(self.active) * 3 // 2)
            for name in ("actor_ok", "target_ok", "kept", "active", "table"):
                old = getattr(self, name)
                grown = np.zeros((cap, *old.shape[1:]), dtype=old.dtype)
                grown[:len(old)] = old
                setattr(self, name, grown)
        ok = [_agent_id_ok(a) for a in new]
        self.actor_ok[base:size] = ok
        self.target_ok[base:size] = [_one_line(a) for a in new]
        if self.exclude:
            ok = [k and self.exclude.search(a) is None for a, k in zip(new, ok)]
        self.kept[base:size] = ok

    def add(self, cols: _Columns) -> int:
        """Count a chunk of events that passed _check_fields; return how many
        of them were malformed for their actor or target string."""
        ts_list, actors, kinds, texts, targets = cols
        code = self.code
        base, m = len(code), len(ts_list)
        actor = np.fromiter(map(code.__getitem__, actors), np.int64, m)
        target = np.fromiter(map(code.__getitem__, targets), np.int64, m)
        if len(code) > base:
            self._register(base)
        kind = np.fromiter(map(_KIND_CODE.__getitem__, kinds), np.int8, m)
        ts = np.array(ts_list, dtype=np.int64)
        start, end = self.window
        in_window = (ts >= start) & (ts < end)
        is_follow = kind == _KIND_CODE["follow"]

        valid = self.actor_ok[actor] & self.target_ok[target]
        keeps = valid & self.kept[actor]  # per event: valid, and its actor is not excluded
        n_valid = int(np.count_nonzero(valid))
        self.records += n_valid
        self.excluded += n_valid - int(np.count_nonzero(keeps))
        self.out_of_window += int(np.count_nonzero(valid & ~in_window & ~is_follow))
        self.active[actor[keeps & in_window]] = True

        kw = self.keywords

        def topical(rows: np.ndarray) -> np.ndarray:
            """The rows whose text contains a keyword, case-insensitively."""
            picked = map(texts.__getitem__, rows.tolist())
            hits = [bool(t) and any(map(t.lower().__contains__, kw)) for t in picked]
            return rows[np.array(hits, dtype=bool)]

        # only a kept actor can be active, so replies and follows to any other
        # target never reach the panel
        is_post = (kind == _KIND_CODE["post"]) | (kind == _KIND_CODE["repost"])
        posts = topical(np.flatnonzero(keeps & in_window & is_post))
        reply_to_kept = (kind == _KIND_CODE["reply"]) & self.kept[target]
        replies = topical(np.flatnonzero(valid & in_window & reply_to_kept))
        follows = np.flatnonzero(keeps & is_follow & self.kept[target])
        if self.snapshot is not None:
            follows = follows[ts[follows] >= start]

        T = self.n_steps
        width = 3 * T + 1
        pos = np.searchsorted(self.bucket_starts, ts, side="right")
        cells = np.concatenate([actor[posts] * width + (pos[posts] - 1),
                                target[replies] * width + (pos[replies] + (T - 1)),
                                target[follows] * width + (pos[follows] + 2 * T)])
        # add.at costs O(chunk); a bincount over the whole table would cost O(names x T)
        np.add.at(self.table.reshape(-1), cells, 1)
        return m - n_valid

    def panel(self) -> FeaturePanel:
        """The active agents, sorted by name, and their counts as features."""
        names = list(self.code)
        rows = sorted(np.flatnonzero(self.active).tolist(), key=names.__getitem__)
        if not rows:
            raise EmptyPanelError("no active agents after filtering (empty panel)")
        ids = [names[r] for r in rows]
        T = self.n_steps
        counts = self.table[rows].astype(np.float64)
        activity, resonance = counts[:, :T], counts[:, T:2 * T]
        reach = np.cumsum(counts[:, 2 * T:3 * T], axis=1)
        if self.snapshot is not None:
            reach += np.array([self.snapshot.get(a, 0) for a in ids], dtype=np.float64)[:, None]
        if self.cumulative:
            activity = np.cumsum(activity, axis=1)
            resonance = np.cumsum(resonance, axis=1)

        feats = np.empty((len(ids), T, 3))
        feats[:, :, 0] = np.log1p(reach)
        feats[:, :, 1] = np.log1p(activity)
        feats[:, :, 2] = np.log1p(resonance)
        return FeaturePanel(feats, ids)


def _fields_ok(ev) -> bool:
    try:
        _check_fields(*ev)
    except ValueError:
        return False
    return True


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
    followers accumulate from all observed follow events.  Invalid records
    are skipped with a warning.  The stream is read INGEST_CHUNK_EVENTS
    records at a time, so a generator is never held whole.
    """
    counts = _EventCounts(topic_keywords, window, step, follower_snapshot, cumulative,
                          exclude_pattern)
    bad = 0
    events = iter(stream)
    while chunk := list(itertools.islice(events, INGEST_CHUNK_EVENTS)):
        valid = list(filter(_fields_ok, chunk))
        bad += len(chunk) - len(valid)
        if valid:
            bad += counts.add(tuple(zip(*valid)))
    _warn_malformed(bad)
    return counts.panel()


def ingest_jsonl(
    path,
    topic_keywords: Sequence[str],
    window: tuple[int, int],
    step: int,
    follower_snapshot: Optional[dict[str, int]] = None,
    cumulative: bool = False,
    exclude_pattern: Optional[str] = None,
) -> tuple[FeaturePanel, dict[str, int]]:
    """:func:`read_events_jsonl` then :func:`ingest_events`, counting each
    chunk of lines as it is read, with no :class:`EventRecord` built.

    Returns the panel and its record counters: ``malformed`` lines,
    ``records`` (valid events), ``excluded`` (valid events whose actor
    matches ``exclude_pattern``) and ``out_of_window`` (valid non-follow
    events outside the window).
    """
    counts = _EventCounts(topic_keywords, window, step, follower_snapshot, cumulative,
                          exclude_pattern)
    bad = _read_event_chunks(path, counts.add)
    _warn_malformed(bad)
    return counts.panel(), {"malformed": bad, "records": counts.records,
                            "excluded": counts.excluded, "out_of_window": counts.out_of_window}


# ---- tier partitioning ---------------------------------------------------


def argsort_head(a: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(a, kind="stable")[:k]`` for a 1-d float array, without
    sorting all of it.  Selection finds the k-th smallest value (Floyd &
    Rivest 1975); the values below it and the first of its ties in index
    order are the head, and only those k are sorted.  NaN sorts last and
    -0.0 ties with 0.0, as in ``np.argsort``."""
    if k >= len(a):
        return np.argsort(a, kind="stable")
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    cut = np.partition(a, k - 1)[k - 1]
    if np.isnan(cut):  # fewer than k numbers: all of them, then the first NaNs
        at = np.isnan(a)
        below = ~at
    else:
        below, at = a < cut, a == cut
    below = np.flatnonzero(below)
    head = np.concatenate([below, np.flatnonzero(at)[:k - len(below)]])
    return head[np.argsort(a[head], kind="stable")]


@dataclass(frozen=True)
class TierPartition:
    labels: np.ndarray  # per-agent group index, 0 = highest tier
    group_names: tuple[str, ...]
    # each group's agent indices, ascending, taken once from the labels
    groups: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        groups = tuple(np.flatnonzero(self.labels == k) for k in range(self.n_groups))
        for idx in groups:
            idx.setflags(write=False)
        object.__setattr__(self, "groups", groups)

    @property
    def n_groups(self) -> int:
        return len(self.group_names)

    def group_sizes(self) -> list[int]:
        return [len(idx) for idx in self.groups]

    def group_indices(self, k: int) -> np.ndarray:
        return self.groups[k]


def make_tier_partition(
    values,
    cut_fractions: Sequence[float] = DEFAULT_CUT_FRACTIONS,
    agent_ids: Optional[Sequence[str]] = None,
) -> TierPartition:
    """Rank agents descending by an anchor metric and slice into tiers.

    Ties are broken by agent id (lexicographic; by index when ``agent_ids``
    is None) so partitions are reproducible.  Group k holds the agents in
    cumulative-fraction slice k; boundaries are ceil(fraction * N).  Only
    the agents above the last cut are ranked (:func:`argsort_head`); every
    other agent gets the last label.  Three groups are named top, mid and
    tail.
    """
    fracs = tuple(float(f) for f in cut_fractions)
    if any(b <= a for a, b in zip(fracs, fracs[1:])) or fracs[-1] != 1.0 or not fracs[0] > 0:
        raise AspanelError("cut_fractions must be positive, strictly increasing and end at 1.0")
    metric = np.asarray(values, dtype=np.float64)
    if np.isnan(metric).any():
        raise AspanelError("tier values contain NaN, which has no rank")
    n = len(metric)
    if n < len(fracs):
        raise AspanelError(f"cannot split {n} agents into {len(fracs)} groups")
    if agent_ids is not None and len(agent_ids) != n:
        raise AspanelError("agent_ids length must match the tier values")
    bounds = [math.ceil(f * n) for f in fracs]
    ranked = bounds[-2] if len(bounds) > 1 else 0  # agents above the last cut
    if agent_ids is None or _strictly_increasing(agent_ids):
        # ids in index order: a stable sort already breaks ties by id
        order = argsort_head(-metric, ranked)
    else:
        # ids as Python strings, since a numpy string array drops a trailing
        # "\x00"; then a stable sort on the values keeps id order within ties
        try:
            by_id = np.argsort(np.array(agent_ids, dtype=object), kind="stable")
        except TypeError:
            raise AspanelError("agent ids must be strings") from None
        order = by_id[argsort_head(-metric[by_id], ranked)]
    labels = np.full(n, len(bounds) - 1, dtype=np.int64)
    lo = 0
    for k, hi in enumerate(bounds[:-1]):
        labels[order[lo:hi]] = k
        lo = hi
    names = ("top", "mid", "tail") if len(fracs) == 3 else tuple(
        f"group{k}" for k in range(len(fracs)))
    return TierPartition(labels, names)


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
    n = spec.n_agents
    ids = ("a%08d " * n % tuple(range(n))).split()  # f"a{i:08d}", formatted as one string
    return FeaturePanel(feats, ids)
