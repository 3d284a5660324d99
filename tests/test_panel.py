import json
import math
import os
import re
import struct
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aspanel import cli, panel
from aspanel.errors import AspanelError, EmptyPanelError


def make_events():
    """Hand-built stream covering all four kinds, in and out of window."""
    E = panel.EventRecord
    return [
        E(50, "u3", "follow", target="alice"),      # pre-window follow
        E(100, "alice", "post", text="solar panels rollout"),
        E(110, "bob", "reply", text="more solar please", target="alice"),
        E(120, "bob", "post", text="unrelated lunch"),
        E(150, "carol", "follow", target="alice"),
        E(210, "alice", "repost", text="SOLAR again"),
        E(260, "carol", "post", text="wind and solar mix"),
        E(400, "dave", "post", text="solar but too late"),  # past window end
    ]


class TestEventRecord:
    def test_valid(self):
        panel.EventRecord(1, "a", "post", text="x").validate()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            panel.EventRecord(1, "a", "like").validate()

    def test_follow_needs_target(self):
        with pytest.raises(ValueError):
            panel.EventRecord(1, "a", "follow").validate()

    def test_fields_and_defaults(self):
        rec = panel.EventRecord(ts=5, actor="a", kind="reply", target="b")
        assert (rec.ts, rec.actor, rec.kind, rec.text, rec.target) == (5, "a", "reply", None, "b")
        assert rec == panel.EventRecord(5, "a", "reply", None, "b")

    @pytest.mark.parametrize("fields", [
        {"text": 7},
        {"text": ["solar"]},
        {"target": ["b"]},
        {"target": 3},
        {"ts": 2**63},
        {"ts": -(2**63) - 1},
        {"ts": 1.5},
        {"actor": 4},
    ])
    def test_wrong_types_rejected(self, fields):
        rec = panel.EventRecord(**{"ts": 1, "actor": "a", "kind": "post", **fields})
        with pytest.raises(ValueError):
            rec.validate()

    @pytest.mark.parametrize("fields", [
        {"actor": "a\nb"},
        {"actor": "a\n"},
        {"kind": "reply", "target": "b\nc"},
    ])
    def test_newline_in_agent_id_rejected(self, fields):
        # agent ids are newline-delimited in the panel file
        rec = panel.EventRecord(**{"ts": 1, "actor": "a", "kind": "post", "target": "b", **fields})
        with pytest.raises(ValueError):
            rec.validate()

    def test_empty_actor_rejected(self):
        # an empty id could never be a follow or reply target, so its row
        # would never count reach or resonance
        with pytest.raises(ValueError):
            panel.EventRecord(1, "", "post").validate()

    def test_lone_surrogate_actor_rejected(self):
        # agent ids are UTF-8 in the panel file, and a lone surrogate has no encoding
        with pytest.raises(ValueError):
            panel.EventRecord(1, "b\ud800", "post").validate()

    def test_int64_edges_accepted(self):
        panel.EventRecord(2**63 - 1, "a", "post").validate()
        panel.EventRecord(-(2**63), "a", "post").validate()


class TestIngest:
    def test_shape_and_agents(self):
        pn = panel.ingest_events(make_events(), ["solar"], (100, 300), 100)
        # active actors within [100, 300): alice, bob, carol
        assert pn.agent_ids == ["alice", "bob", "carol"]
        assert pn.features.shape == (3, 2, 3)

    def test_activity_counts(self):
        pn = panel.ingest_events(make_events(), ["solar"], (100, 300), 100)
        i = pn.agent_ids.index("alice")
        # bucket 0: one matching post; bucket 1: one matching repost
        assert pn.features[i, 0, 1] == pytest.approx(math.log1p(1))
        assert pn.features[i, 1, 1] == pytest.approx(math.log1p(1))
        b = pn.agent_ids.index("bob")
        # bob's only post does not match the topic
        assert pn.features[b, :, 1] == pytest.approx(0.0)

    def test_resonance_credits_target(self):
        pn = panel.ingest_events(make_events(), ["solar"], (100, 300), 100)
        i = pn.agent_ids.index("alice")
        assert pn.features[i, 0, 2] == pytest.approx(math.log1p(1))
        assert pn.features[pn.agent_ids.index("bob"), 0, 2] == pytest.approx(0.0)

    def test_reach_accumulates_without_snapshot(self):
        pn = panel.ingest_events(make_events(), ["solar"], (100, 300), 100)
        i = pn.agent_ids.index("alice")
        # bucket 0 start: only the t=50 follow; bucket 1 start: plus carol's
        assert pn.features[i, 0, 0] == pytest.approx(math.log1p(1))
        assert pn.features[i, 1, 0] == pytest.approx(math.log1p(2))

    def test_snapshot_overrides_prewindow_follows(self):
        pn = panel.ingest_events(
            make_events(), ["solar"], (100, 300), 100,
            follower_snapshot={"alice": 10},
        )
        i = pn.agent_ids.index("alice")
        # snapshot seeds the count; the t=50 follow is ignored
        assert pn.features[i, 0, 0] == pytest.approx(math.log1p(10))
        assert pn.features[i, 1, 0] == pytest.approx(math.log1p(11))

    def test_order_independent(self):
        evs = make_events()
        pn1 = panel.ingest_events(evs, ["solar"], (100, 300), 100)
        pn2 = panel.ingest_events(list(reversed(evs)), ["solar"], (100, 300), 100)
        assert np.array_equal(pn1.features, pn2.features)
        assert pn1.agent_ids == pn2.agent_ids

    def test_cumulative(self):
        pn = panel.ingest_events(make_events(), ["solar"], (100, 300), 100,
                                 cumulative=True)
        i = pn.agent_ids.index("alice")
        assert pn.features[i, 1, 1] == pytest.approx(math.log1p(2))

    def test_exclude_pattern(self):
        pn = panel.ingest_events(make_events(), ["solar"], (100, 300), 100,
                                 exclude_pattern="^bob$")
        assert "bob" not in pn.agent_ids

    def test_empty_window_raises(self):
        with pytest.raises(EmptyPanelError):
            panel.ingest_events(make_events(), ["solar"], (1000, 1200), 100)

    def test_bad_step_raises(self):
        with pytest.raises(AspanelError):
            panel.ingest_events(make_events(), ["solar"], (100, 300), 70)

    def test_malformed_events_warned(self):
        evs = make_events() + [panel.EventRecord(130, "x", "follow")]  # no target
        with pytest.warns(UserWarning, match="malformed"):
            pn = panel.ingest_events(evs, ["solar"], (100, 300), 100)
        assert "x" not in pn.agent_ids

    def test_newline_actor_never_reaches_the_panel(self, tmp_path):
        evs = make_events() + [panel.EventRecord(130, "eve\nmallory", "post", text="solar")]
        with pytest.warns(UserWarning, match="skipped 1 malformed"):
            pn = panel.ingest_events(evs, ["solar"], (100, 300), 100)
        pn.save(tmp_path / "p.asp")
        assert panel.FeaturePanel.load(tmp_path / "p.asp").agent_ids == ["alice", "bob", "carol"]

    def test_wrongly_typed_events_warned(self):
        evs = make_events() + [
            panel.EventRecord(130, "x", "post", text=12),
            panel.EventRecord(130, "y", "reply", text="solar", target=["alice"]),
        ]
        with pytest.warns(UserWarning, match="skipped 2 malformed"):
            pn = panel.ingest_events(evs, ["solar"], (100, 300), 100)
        assert pn.agent_ids == ["alice", "bob", "carol"]


# ---- property test against a per-event recount ----------------------------


def recount(stream, topic_keywords, window, step, follower_snapshot=None, cumulative=False,
             exclude_pattern=None):
    """Reference for `ingest_events`: walks the events one by one."""
    start, end = window
    n_steps = (end - start) // step
    kw = [k.lower() for k in topic_keywords]

    def keep(agent):
        return not exclude_pattern or re.search(exclude_pattern, agent) is None

    def topical(text):
        return bool(text) and any(k in text.lower() for k in kw)

    valid = []
    for ev in stream:
        try:
            ev.validate()
            valid.append(ev)
        except ValueError:
            pass
    ids = sorted({e.actor for e in valid if start <= e.ts < end and keep(e.actor)})
    row = {a: i for i, a in enumerate(ids)}
    counts = np.zeros((len(ids), n_steps, 3))
    if follower_snapshot is not None:
        for a, i in row.items():
            counts[i, :, 0] = follower_snapshot.get(a, 0)
    for e in valid:
        if e.kind == "follow" and e.target in row and keep(e.actor):
            for t in range(n_steps):
                if e.ts < start + t * step and (follower_snapshot is None or e.ts >= start):
                    counts[row[e.target], t, 0] += 1
        if not start <= e.ts < end:
            continue
        t = (e.ts - start) // step
        if e.kind in ("post", "repost") and e.actor in row and topical(e.text):
            counts[row[e.actor], t, 1] += 1
        elif e.kind == "reply" and e.target in row and topical(e.text):
            counts[row[e.target], t, 2] += 1
    if cumulative:
        counts[:, :, 1:] = np.cumsum(counts[:, :, 1:], axis=1)
    return ids, np.log1p(counts)


AGENTS = ("alice", "bob", "bot7", "carol", "xbo")


@st.composite
def ingest_cases(draw):
    start = draw(st.integers(-50, 50))
    step = draw(st.integers(1, 30))
    n_steps = draw(st.integers(1, 4))
    end = start + n_steps * step
    edges = [start - 1, start, end - 1, end] + [start + t * step for t in range(n_steps)]
    ts = st.one_of(st.sampled_from(edges), st.integers(start - 2 * step, end + step))
    event = st.builds(
        panel.EventRecord,
        ts=ts,
        actor=st.sampled_from(AGENTS),
        kind=st.sampled_from(panel.EVENT_KINDS),
        text=st.sampled_from([None, "", "Solar farm", "lunch", "GRID down", "solarium"]),
        target=st.one_of(st.none(), st.sampled_from(AGENTS + ("nobody",))),
    )
    return {
        "stream": draw(st.lists(event, max_size=40)),
        "topic_keywords": ["solar", "grid"],
        "window": (start, end),
        "step": step,
        "exclude_pattern": draw(st.sampled_from([None, "", "^bo", "o$"])),
    }


@given(case=ingest_cases(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_ingest_equals_per_event_recount(case, data):
    snapshot = data.draw(st.dictionaries(
        st.sampled_from(AGENTS + ("nobody",)), st.integers(0, 9), max_size=3))
    shuffled = data.draw(st.permutations(case["stream"]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for options in ({}, {"follower_snapshot": snapshot}, {"cumulative": True},
                        {"follower_snapshot": snapshot, "cumulative": True}):
            ids, feats = recount(**case, **options)
            for stream in (case["stream"], shuffled):
                args = {**case, "stream": stream, **options}
                if not ids:
                    with pytest.raises(EmptyPanelError):
                        panel.ingest_events(**args)
                    continue
                pn = panel.ingest_events(**args)
                assert pn.agent_ids == ids
                assert np.array_equal(pn.features, feats)


@pytest.mark.parametrize("start", [2**63 - 60, -(2**63) - 50])
def test_window_past_int64_edges(start):
    # one bucket start lies outside int64; events sit on both sides of the other
    rows = [(-10, "a", "follow", "b"), (0, "b", "post", None), (59, "a", "repost", None),
            (60, "a", "follow", "b"), (60, "c", "reply", "a"), (110, "b", "follow", "a"),
            (140, "c", "post", None)]
    events = [panel.EventRecord(start + dt, actor, kind, "solar", target)
              for dt, actor, kind, target in rows if -(2**63) <= start + dt < 2**63]
    case = dict(stream=events, topic_keywords=["solar"], window=(start, start + 200), step=100)
    ids, feats = recount(**case)
    pn = panel.ingest_events(**case)
    assert pn.agent_ids == ids and len(ids) >= 2
    assert np.array_equal(pn.features, feats)


MALFORMED_LINES = [
    '{"ts": 100, "actor": "a", "kind": "post", "text": 5}',
    '{"ts": 100, "actor": "a", "kind": "post", "text": ["solar"]}',
    '{"ts": 100, "actor": "a", "kind": "reply", "text": "hi", "target": ["b"]}',
    '{"ts": 100, "actor": "a", "kind": "follow", "target": {"id": "b"}}',
    '{"ts": 9223372036854775808, "actor": "a", "kind": "post"}',
    '{"ts": -9223372036854775809, "actor": "a", "kind": "post"}',
    '{"ts": Infinity, "actor": "a", "kind": "post"}',
    '{"ts": 100, "actor": "a", "kind": "post"} {"ts": 101}',
    '{"ts": 100, "actor": "a", "kind": "post"}]',
    '[100, "a", "post"]',
    '"post"',
    "[" * 100000 + "]" * 100000,
]


class TestJsonl:
    def test_round_trip_with_bad_lines(self, tmp_path):
        p = tmp_path / "events.jsonl"
        lines = [
            json.dumps({"ts": 100, "actor": "a", "kind": "post", "text": "hi"}),
            "not json",
            json.dumps({"ts": 101, "actor": "b", "kind": "like"}),
            json.dumps({"ts": 102, "actor": "c", "kind": "follow", "target": "a"}),
            "",
        ]
        p.write_text("\n".join(lines))
        with pytest.warns(UserWarning):
            events, bad = panel.read_events_jsonl(p)
        assert bad == 2
        assert [e.actor for e in events] == ["a", "c"]

    @pytest.mark.parametrize("line", MALFORMED_LINES)
    def test_malformed_line_counted(self, tmp_path, line):
        p = tmp_path / "events.jsonl"
        good = json.dumps({"ts": 100, "actor": "g", "kind": "post", "text": "hi"})
        p.write_text(good + "\n" + line + "\n")
        with pytest.warns(UserWarning, match="skipped 1 malformed"):
            events, bad = panel.read_events_jsonl(p)
        assert bad == 1
        assert events == [panel.EventRecord(100, "g", "post", "hi")]

    def test_non_utf8_line_counted(self, tmp_path):
        p = tmp_path / "events.jsonl"
        p.write_bytes(b'{"ts": 100, "actor": "g", "kind": "post", "text": "hi"}\n'
                      b'{"ts": 101, "actor": "\xff", "kind": "post"}\n')
        with pytest.warns(UserWarning, match="skipped 1 malformed"):
            events, bad = panel.read_events_jsonl(p)
        assert bad == 1
        assert events == [panel.EventRecord(100, "g", "post", "hi")]

    def test_lone_surrogate_actor_counted(self, tmp_path):
        # a JSON \ud800 escape decodes to a str that save could not write
        p = tmp_path / "events.jsonl"
        p.write_text('{"ts": 100, "actor": "g", "kind": "post", "text": "hi"}\n'
                     '{"ts": 101, "actor": "b\\ud800", "kind": "post", "text": "hi"}\n')
        with pytest.warns(UserWarning, match="skipped 1 malformed"):
            events, bad = panel.read_events_jsonl(p)
        assert bad == 1
        pn = panel.ingest_events(events, ["hi"], (0, 200), 100)
        pn.save(tmp_path / "p.asp")
        assert panel.FeaturePanel.load(tmp_path / "p.asp").agent_ids == ["g"]

    def test_empty_actor_counted(self, tmp_path):
        p = tmp_path / "events.jsonl"
        p.write_text('{"ts": 100, "actor": "g", "kind": "post", "text": "hi"}\n'
                     '{"ts": 101, "actor": "", "kind": "post", "text": "hi"}\n'
                     '{"ts": 102, "actor": "g", "kind": "reply", "text": "hi", "target": ""}\n')
        with pytest.warns(UserWarning, match="skipped 2 malformed"):
            events, bad = panel.read_events_jsonl(p)
        assert bad == 2
        assert panel.ingest_events(events, ["hi"], (0, 200), 100).agent_ids == ["g"]

    def test_utf8_and_crlf_lines_read(self, tmp_path):
        p = tmp_path / "events.jsonl"
        p.write_bytes('{"ts": 7, "actor": "zoë", "kind": "post", "text": "☀"}\r\n'.encode("utf-8") * 2)
        events, bad = panel.read_events_jsonl(p)
        assert bad == 0
        assert events == [panel.EventRecord(7, "zoë", "post", "☀")] * 2

    def test_surrounding_whitespace_allowed(self, tmp_path):
        p = tmp_path / "events.jsonl"
        p.write_text('  {"ts": 7, "actor": "a", "kind": "post"}\t\n')
        events, bad = panel.read_events_jsonl(p)
        assert bad == 0
        assert events == [panel.EventRecord(7, "a", "post")]


# ---- fuzz: the JSONL reader and the CLI against a per-line reference --------


def reference_read(data: bytes):
    """Reference for `read_events_jsonl`: one `json.loads` per newline-split line."""
    events, bad = [], 0
    for raw in data.split(b"\n"):
        try:
            line = raw.decode("utf-8").strip()
            if not line:
                continue
            obj = json.loads(line)
            rec = panel.EventRecord(int(obj["ts"]), str(obj["actor"]), str(obj["kind"]),
                                    obj.get("text"), obj.get("target"))
            rec.validate()
        except (ValueError, KeyError, TypeError, OverflowError, RecursionError):
            bad += 1
            continue
        events.append(rec)
    return events, bad


# lines that decode only when joined with their neighbours (see ROADMAP item 1)
SPLIT_VALUE_LINES = [
    '{"ts": 1, "actor": "a", "kind": "post", "z": [[1',
    '2]]}',
    '{"ts": 2, "actor": "b", "kind": "post"}, {"ts": 3, "actor": "c", "kind": "post"}',
]


@st.composite
def event_objects(draw):
    def mostly(usual, odd):
        return draw(st.sampled_from(odd)) if draw(st.integers(0, 4)) == 0 else draw(st.sampled_from(usual))

    obj = {
        "ts": mostly([0, 99, 100, 150, 199], [-1, 200, 250, 1.9, True, "150"]),
        "actor": mostly(AGENTS, [4, None, "", "a\nb", "b\ud800"]),
        "kind": mostly(panel.EVENT_KINDS, ["like"]),
    }
    for key, values in (("text", [None, "Solar farm", "lunch", "GRID down", 5, "solar \ud800"]),
                        ("target", [None, *AGENTS, "nobody", "", ["b"], "b\ud800"])):
        if draw(st.booleans()):
            obj[key] = draw(st.sampled_from(values))
    depth = draw(st.sampled_from([0] * 6 + [50, 100000]))  # nested arrays, or none
    if depth:
        obj["z"] = None
    text = json.dumps(obj, ensure_ascii=draw(st.booleans()))
    return text.replace('"z": null', '"z": ' + "[" * depth + "]" * depth)


@st.composite
def jsonl_lines(draw):
    body = draw(st.one_of(
        event_objects(), event_objects(), event_objects(),
        st.sampled_from(MALFORMED_LINES + SPLIT_VALUE_LINES + ["", "not json", "{}"]),
    ))
    pad = st.sampled_from(["", " ", "\t", "\xa0", "\u3000", "\u2028", "\x1c"])
    line = (draw(pad) + body + draw(pad)).encode("utf-8", "surrogatepass")  # lone surrogates too
    if draw(st.integers(0, 9)) == 0:
        line = line.replace(b'"', b'"\xff', 1)  # not UTF-8
    return line + draw(st.sampled_from([b"\n", b"\r\n"]))


@given(lines=st.lists(jsonl_lines(), max_size=25), exclude=st.sampled_from([None, "^bo"]))
@settings(max_examples=120, deadline=None)
def test_reader_and_cli_agree_with_per_line_reference(lines, exclude):
    data = b"".join(lines)
    expected, expected_bad = reference_read(data)
    window = ["--window-start", "0", "--window-end", "200", "--step", "100"]
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "events.jsonl")
        with open(src, "wb") as fh:
            fh.write(data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            events, bad = panel.read_events_jsonl(src)
        assert events == expected and bad == expected_bad
        assert [(str(w.message), w.filename) for w in caught] == (
            [(f"skipped {bad} malformed event records", __file__)] if bad else [])
        try:
            lib = panel.ingest_events(events, ["solar", "grid"], (0, 200), 100,
                                      exclude_pattern=exclude)
        except EmptyPanelError:
            lib = None

        out = os.path.join(tmp, "cli.asp")
        argv = ["ingest", src, "solar,grid", *window, "--out", out, "--out-dir", tmp]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv + (["--exclude", exclude] if exclude else []))
        # one warning, attributed to the CLI code that reads the file
        assert [(str(w.message), w.filename) for w in caught] == (
            [(f"skipped {bad} malformed event records", cli.__file__)] if bad else [])
        if lib is None:
            assert code == 1
            return
        assert code == 0
        lib.save(os.path.join(tmp, "lib.asp"))
        with open(out, "rb") as a, open(os.path.join(tmp, "lib.asp"), "rb") as b:
            assert a.read() == b.read()
        with open(os.path.join(tmp, "manifest.json")) as fh:
            counters = json.load(fh)["ingest"]
        assert (counters["malformed"], counters["records"]) == (bad, len(events))


class TestPanelContainer:
    def test_save_load_round_trip(self, tmp_path, abs_gaussian):
        feats = abs_gaussian(5, seed=3).reshape(5, 1, 3)
        pn = panel.FeaturePanel(feats, [f"u{i}" for i in range(5)])
        path = tmp_path / "p.asp"
        pn.save(path)
        back = panel.FeaturePanel.load(path)
        assert np.array_equal(back.features, pn.features)
        assert back.agent_ids == pn.agent_ids
        assert back.dim_names == pn.dim_names

    @pytest.mark.parametrize("bad_id", ["u\n1", "\n", "u\ud800"])
    def test_save_rejects_ids_load_cannot_read(self, tmp_path, bad_id):
        pn = panel.FeaturePanel(np.ones((2, 1, 3)), ["u0", bad_id])
        path = tmp_path / "p.asp"
        with pytest.raises(AspanelError):
            pn.save(path)
        assert not path.exists()

    def test_load_reads_payload_once(self, tmp_path):
        # 14.4 MB payload on few agents, so the id list is negligible beside it
        pn = panel.FeaturePanel(np.ones((2_000, 300, 3)), [f"u{i}" for i in range(2_000)])
        path = tmp_path / "p.asp"
        pn.save(path)
        del pn
        tracemalloc.start()
        try:
            back = panel.FeaturePanel.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * back.features.nbytes

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.asp"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(AspanelError):
            panel.FeaturePanel.load(path)

    @pytest.mark.parametrize("keep", [4, 20, 28, 28 + 8 * 7, 28 + 8 * 15 - 3])
    def test_truncated_file_rejected(self, tmp_path, keep):
        path = tmp_path / "p.asp"
        panel.FeaturePanel(np.ones((5, 1, 3)), [f"u{i}" for i in range(5)]).save(path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(AspanelError):
            panel.FeaturePanel.load(path)

    def test_negative_header_rejected(self, tmp_path):
        path = tmp_path / "p.asp"
        path.write_bytes(b"ASP1" + struct.pack("<3q", -1, 1, 3) + b"\x00" * 64)
        with pytest.raises(AspanelError):
            panel.FeaturePanel.load(path)

    def test_negative_rejected(self):
        with pytest.raises(AspanelError):
            panel.FeaturePanel(np.full((2, 1, 3), -1.0), ["a", "b"])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(AspanelError):
            panel.FeaturePanel(np.ones((2, 1, 3)), ["a", "a"])

    def test_empty_rejected(self):
        with pytest.raises(EmptyPanelError):
            panel.FeaturePanel(np.empty((0, 1, 3)), [])

    def test_features_read_only(self):
        pn = panel.FeaturePanel(np.ones((2, 1, 3)), ["a", "b"])
        with pytest.raises(ValueError):
            pn.features[0, 0, 0] = 2.0

    def test_collapse(self):
        feats = np.zeros((1, 2, 3))
        feats[0, :, 0] = [math.log1p(3), math.log1p(7)]
        feats[0, :, 1] = [math.log1p(2), math.log1p(5)]
        pn = panel.FeaturePanel(feats, ["a"])
        out = pn.collapse()
        assert out[0, 0] == pytest.approx(math.log1p(7))  # last-step reach
        assert out[0, 1] == pytest.approx(math.log1p(7))  # log1p(2 + 5)


class TestTierPartition:
    def test_boundaries(self):
        metric = np.arange(200, dtype=np.float64)
        part = panel.make_tier_partition(metric, cut_fractions=(0.01, 0.10, 1.0))
        assert part.group_sizes() == [2, 18, 180]
        # highest-metric agents land in group 0
        assert set(part.group_indices(0)) == {198, 199}

    def test_ties_broken_by_id(self):
        metric = np.array([1.0, 1.0, 1.0, 0.0])
        ids = ["d", "c", "b", "a"]
        part = panel.make_tier_partition(metric, cut_fractions=(0.25, 1.0),
                                         agent_ids=ids)
        # among the tied top three, "b" sorts first lexicographically
        assert list(part.group_indices(0)) == [2]

    def test_labels_partition_everyone(self, rng):
        metric = rng.random(137)
        part = panel.make_tier_partition(metric)
        assert sum(part.group_sizes()) == 137

    def test_bad_fractions_rejected(self):
        with pytest.raises(AspanelError):
            panel.make_tier_partition(np.arange(10.0), cut_fractions=(0.5, 0.4, 1.0))
        with pytest.raises(AspanelError):
            panel.make_tier_partition(np.arange(10.0), cut_fractions=(0.5, 0.9))

    def test_panel_anchor_default_reach(self):
        feats = np.zeros((3, 1, 3))
        feats[:, 0, 0] = [1.0, 3.0, 2.0]
        pn = panel.FeaturePanel(feats, ["a", "b", "c"])
        part = panel.make_tier_partition(pn, cut_fractions=(0.33, 1.0))
        assert list(part.group_indices(0)) == [1]


class TestSynthetic:
    def test_deterministic(self):
        spec = panel.SyntheticPanelSpec(50, seed=11)
        a = panel.generate_synthetic(spec)
        b = panel.generate_synthetic(spec)
        assert np.array_equal(a.features, b.features)

    def test_uniform_law_support(self):
        spec = panel.SyntheticPanelSpec(100, feature_law="uniform_pm1", seed=1)
        pn = panel.generate_synthetic(spec)
        assert pn.features.min() >= 0.0 and pn.features.max() <= 1.0
        raw = panel.generate_synthetic(spec, raw=True)
        assert raw.min() < 0.0

    def test_pareto_reach_correlated(self):
        spec = panel.SyntheticPanelSpec(20000, feature_law="pareto_reach",
                                        pareto_alpha=1.5, seed=7)
        pn = panel.generate_synthetic(spec)
        z = pn.collapse()
        corr = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
        assert corr > 0.5

    def test_bad_law_rejected(self):
        with pytest.raises(AspanelError):
            panel.SyntheticPanelSpec(10, feature_law="cauchy")

    def test_pareto_alpha_must_exceed_one(self):
        with pytest.raises(AspanelError):
            panel.SyntheticPanelSpec(10, feature_law="pareto_reach", pareto_alpha=1.0)
