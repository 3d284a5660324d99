import csv
import io
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import aspanel
from aspanel import attribution, cli, panel, scalingbias, study, valuefn
from aspanel.errors import AspanelError


def run(argv):
    return cli.main(argv)


@pytest.fixture
def events_file(tmp_path):
    rows = [
        {"ts": 50, "actor": "u3", "kind": "follow", "target": "alice"},
        {"ts": 100, "actor": "alice", "kind": "post", "text": "solar rollout"},
        {"ts": 110, "actor": "bob", "kind": "reply", "text": "solar yes", "target": "alice"},
        {"ts": 150, "actor": "carol", "kind": "follow", "target": "alice"},
        {"ts": 210, "actor": "alice", "kind": "repost", "text": "solar again"},
        {"ts": 260, "actor": "carol", "kind": "post", "text": "wind and solar"},
    ]
    p = tmp_path / "events.jsonl"
    p.write_text("\n".join(json.dumps(r) for r in rows))
    return p


@pytest.fixture
def panel_file(tmp_path):
    out = tmp_path / "panel.asp"
    assert run(["synth", "--n-agents", "40", "--seed", "3",
                "--out", str(out), "--out-dir", str(tmp_path)]) == 0
    return out


class TestConfig:
    def test_parse(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("mode = flip  # study kind\n\nsizes = 100 300\n")
        assert cli.read_kv_config(p) == {"mode": "flip", "sizes": "100 300"}

    def test_bad_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("just words\n")
        with pytest.raises(AspanelError):
            cli.read_kv_config(p)

    @pytest.mark.parametrize("command", ["study", "bench", "ingest"])
    def test_text_input_not_utf8_is_data_error(self, events_file, tmp_path, capsys, command):
        # a study or bench config, or an ingest topics file, that does not
        # decode ended in a UnicodeDecodeError traceback
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("mode = flip\nf = var  # d\xe9j\xe0 vu\n".encode("latin-1"))
        argv = {"study": ["study", str(bad)], "bench": ["bench", "--config", str(bad)],
                "ingest": ["ingest", str(events_file), str(bad), "--window-start", "100",
                           "--window-end", "300", "--step", "100"]}[command]
        out = tmp_path / "out"
        assert run([*argv, "--out-dir", str(out)]) == 1
        assert f"{bad}: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()


class TestIngest:
    def test_end_to_end(self, events_file, tmp_path, capsys):
        out = tmp_path / "panel.asp"
        code = run(["ingest", str(events_file), "solar",
                    "--window-start", "100", "--window-end", "300", "--step", "100",
                    "--out", str(out), "--csv", "--out-dir", str(tmp_path)])
        assert code == 0
        assert "3 agents x 2 steps x 3 dims" in capsys.readouterr().out
        pn = panel.FeaturePanel.load(out)
        assert pn.agent_ids == ["alice", "bob", "carol"]
        assert (tmp_path / "panel.asp.csv").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["version"]
        assert str(out) in manifest["outputs"]

    def test_manifest_records_argv_and_counters(self, events_file, tmp_path, monkeypatch):
        with open(events_file, "a") as fh:
            fh.write('\nnot json\n{"ts": 120, "actor": "dave", "kind": "post", "text": 3}\n')
        monkeypatch.setattr("sys.argv", ["host", "--its-own-flag"])
        argv = ["ingest", str(events_file), "solar",
                "--window-start", "100", "--window-end", "300", "--step", "100",
                "--out", str(tmp_path / "panel.asp"), "--out-dir", str(tmp_path)]
        with pytest.warns(UserWarning, match="skipped 2 malformed"):
            assert run(argv) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["argv"] == argv
        assert manifest["ingest"] == {"malformed": 2, "records": 6, "excluded": 0,
                                      "out_of_window": 0, "agents": 3}

    def test_manifest_counts_excluded_and_out_of_window(self, events_file, tmp_path):
        with open(events_file, "a") as fh:
            for ts, actor, kind in [(120, "bot1", "post"), (400, "bot1", "follow"),
                                    (99, "alice", "post"), (300, "dave", "reply"),
                                    (-5, "erin", "follow")]:
                fh.write("\n" + json.dumps({"ts": ts, "actor": actor, "kind": kind,
                                            "text": "solar", "target": "alice"}))
        assert run(["ingest", str(events_file), "solar", "--exclude", "^(bot|u3)",
                    "--window-start", "100", "--window-end", "300", "--step", "100",
                    "--out", str(tmp_path / "panel.asp"), "--out-dir", str(tmp_path)]) == 0
        counters = json.loads((tmp_path / "manifest.json").read_text())["ingest"]
        # excluded: u3's follow and bot1's post and follow; out of window: the
        # post at 99 and the reply at 300, not the follows at -5, 50 or 400
        assert counters == {"malformed": 0, "records": 11, "excluded": 3,
                            "out_of_window": 2, "agents": 3}

    def test_missing_events_is_usage_error(self, tmp_path):
        code = run(["ingest", str(tmp_path / "nope.jsonl"), "solar",
                    "--window-start", "0", "--window-end", "100", "--step", "100",
                    "--out-dir", str(tmp_path)])
        assert code == 2

    def test_bad_exclude_regex_is_usage_error(self, events_file, tmp_path, capsys):
        code = run(["ingest", str(events_file), "solar", "--exclude", "(",
                    "--window-start", "100", "--window-end", "300", "--step", "100",
                    "--out-dir", str(tmp_path)])
        assert code == 2
        assert "--exclude" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("text", ['{"a": "x"}', "[1, 2]", "{not json", '{"a": Infinity}'],
                             ids=["value_not_int", "not_an_object", "invalid_json", "infinite"])
    def test_bad_follower_snapshot_is_data_error(self, events_file, tmp_path, capsys, text):
        snap = tmp_path / "snap.json"
        snap.write_text(text)
        code = run(["ingest", str(events_file), "solar", "--follower-snapshot", str(snap),
                    "--window-start", "100", "--window-end", "300", "--step", "100",
                    "--out-dir", str(tmp_path)])
        assert code == 1
        assert str(snap) in capsys.readouterr().err

    def test_follower_snapshot_takes_json_integers(self, events_file, tmp_path):
        snap = tmp_path / "snap.json"
        snap.write_text('{"alice": 10, "bob": 9223372036854775807, "carol": 0}')
        out = tmp_path / "panel.asp"
        assert run(["ingest", str(events_file), "solar", "--follower-snapshot", str(snap),
                    "--window-start", "100", "--window-end", "300", "--step", "100",
                    "--out", str(out), "--out-dir", str(tmp_path)]) == 0
        pn = panel.FeaturePanel.load(out)
        assert pn.features[pn.agent_ids.index("alice"), 0, 0] == pytest.approx(np.log1p(10))
        assert pn.features[pn.agent_ids.index("bob"), 0, 0] == pytest.approx(np.log1p(2.0**63))

    @pytest.mark.parametrize("count", ["-5", "1e308", "true", "1" + "0" * 400, "2.0", '"10"'],
                             ids=["negative", "float", "bool", "past_int64", "integral_float",
                                  "string"])
    def test_follower_count_not_a_json_int64_fails_before_output(self, events_file, tmp_path,
                                                                capsys, count):
        snap = tmp_path / "snap.json"
        snap.write_text(f'{{"carol": 1, "alice": {count}}}')
        out = tmp_path / "out"
        code = run(["ingest", str(events_file), "solar", "--follower-snapshot", str(snap),
                    "--window-start", "100", "--window-end", "300", "--step", "100",
                    "--out-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (f"error: {snap}: the follower count of 'alice' is not an integer "
                       f"from 0 to 2**63 - 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("where", ["events", "topics", "follower_snapshot"])
    def test_directory_input_is_usage_error(self, events_file, tmp_path, capsys, where):
        folder = tmp_path / "folder"
        folder.mkdir()
        args = {"events": str(events_file), "topics": "solar"}
        extra = ["--follower-snapshot", str(folder)] if where == "follower_snapshot" else []
        args[where] = str(folder)
        code = run(["ingest", args["events"], args["topics"], *extra,
                    "--window-start", "100", "--window-end", "300", "--step", "100",
                    "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and str(folder) in err
        assert len(err.strip().split("\n")) == 1

    def test_unreadable_input_is_usage_error(self, events_file, tmp_path, capsys, monkeypatch):
        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(panel, "ingest_jsonl", denied)
        code = run(["ingest", str(events_file), "solar",
                    "--window-start", "100", "--window-end", "300", "--step", "100",
                    "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("usage error: [Errno 13] Permission denied")

    def test_empty_panel_is_data_error(self, events_file, tmp_path):
        code = run(["ingest", str(events_file), "solar",
                    "--window-start", "5000", "--window-end", "5100", "--step", "100",
                    "--out-dir", str(tmp_path)])
        assert code == 1


class TestSynth:
    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.asp", tmp_path / "b.asp"
        for out in (a, b):
            assert run(["synth", "--n-agents", "25", "--law", "pareto_reach",
                        "--seed", "9", "--out", str(out), "--out-dir", str(tmp_path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_required_flag_is_usage_error(self, tmp_path):
        assert run(["synth", "--out-dir", str(tmp_path)]) == 2

    def test_no_threads_flag_or_manifest_key(self, panel_file, tmp_path):
        assert "threads" not in json.loads((tmp_path / "manifest.json").read_text())
        assert run(["synth", "--n-agents", "5", "--threads", "2",
                    "--out-dir", str(tmp_path)]) == 2


class TestSeedFlag:
    """--seed exists only on synth, bench and verify, which draw from it."""

    @pytest.mark.parametrize("command", ["ingest", "attribute", "study"])
    def test_rejected_where_no_seed_is_drawn(self, events_file, panel_file, tmp_path,
                                             study_config, command):
        argv = {"ingest": [str(events_file), "solar", "--window-start", "100",
                           "--window-end", "300", "--step", "100"],
                "attribute": [str(panel_file), "--f", "var"],
                "study": [str(study_config("mode = kconv\nf = heat\nK_list = 5\n", 20))]}
        out = tmp_path / "seeded"
        assert run([command, *argv[command], "--seed", "1", "--out-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "bench", "verify"])
    def test_negative_seed_is_one_line_usage_error(self, tmp_path, capsys, command):
        # numpy's generators reject a negative seed with a ValueError traceback
        extra = ["--n-agents", "10"] if command == "synth" else []
        out = tmp_path / "seeded"
        assert run([command, *extra, "--seed", "-1", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "usage error: --seed -1 is negative\n"
        assert not out.exists()

    def test_manifest_seed_is_null_where_none_is_drawn(self, panel_file, tmp_path):
        def seed(out_dir):
            return json.loads((out_dir / "manifest.json").read_text())["seed"]

        assert seed(tmp_path) == 3  # the panel_file fixture's synth --seed 3
        assert run(["verify", "--seed", "5", "--out-dir", str(tmp_path / "v")]) == 0
        assert seed(tmp_path / "v") == 5
        assert run(["attribute", str(panel_file), "--f", "var",
                    "--out-dir", str(tmp_path / "a")]) == 0
        assert seed(tmp_path / "a") is None


class TestAttribute:
    def test_csv_and_summary(self, panel_file, tmp_path):
        out = tmp_path / "attr.csv"
        code = run(["attribute", str(panel_file), "--f", "var",
                    "--out", str(out), "--out-dir", str(tmp_path)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        norm_sum = sum(float(r["phi_norm"]) for r in rows)
        assert norm_sum == pytest.approx(1.0, abs=1e-9)
        summary = json.loads((tmp_path / "attr.csv.summary.json").read_text())
        assert summary["efficiency_residual_max"] <= 1e-9
        assert summary["n_agents"] == 40

    def test_midpoint_population_mean(self, panel_file, tmp_path):
        code = run(["attribute", str(panel_file), "--f", "heat",
                    "--method", "midpoint", "--baseline", "population_mean",
                    "--K", "50", "--out", str(tmp_path / "a.csv"),
                    "--out-dir", str(tmp_path)])
        assert code == 0

    @pytest.mark.parametrize("f,baseline,method", [
        ("var", "zero", {"name": "analytic", "f": "var"}),
        ("var", "population_mean", {"name": "closed_form", "baseline": "shared_row", "f": "var"}),
        ("heat", "first_step", {"name": "closed_form", "baseline": "per_agent", "f": "heat"}),
        ("gini", "first_step", {"name": "midpoint", "K": 30, "f": "gini"}),
    ])
    def test_summary_names_the_path(self, panel_file, tmp_path, f, baseline, method):
        assert run(["attribute", str(panel_file), "--f", f, "--baseline", baseline,
                    "--out", str(tmp_path / "a.csv"), "--out-dir", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "a.csv.summary.json").read_text())
        assert summary["method"] == method

    def test_analytic_nonzero_baseline_is_usage_error(self, panel_file, tmp_path):
        code = run(["attribute", str(panel_file), "--f", "var",
                    "--method", "analytic", "--baseline", "population_mean",
                    "--out-dir", str(tmp_path)])
        assert code == 2

    def test_missing_panel_is_usage_error(self, tmp_path):
        assert run(["attribute", str(tmp_path / "nope.asp"), "--f", "var",
                    "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("kind", ["additive", "softplus"])
    def test_weighted_kind_without_weights_is_usage_error(self, panel_file, tmp_path, kind):
        assert run(["attribute", str(panel_file), "--f", kind,
                    "--out-dir", str(tmp_path)]) == 2

    def test_additive_with_weights(self, panel_file, tmp_path):
        weights = tmp_path / "w.csv"
        weights.write_text("1,0.5,2\n" * 40)  # one row per agent of the 40-agent panel
        assert run(["attribute", str(panel_file), "--f", "additive", "--weights", str(weights),
                    "--out", str(tmp_path / "a.csv"), "--out-dir", str(tmp_path)]) == 0

    def test_weights_not_one_row_per_agent_is_data_error(self, panel_file, tmp_path):
        weights = tmp_path / "w.csv"
        weights.write_text("1,0.5\n" * 3)  # 3 x 2 for a 40 x 3 panel
        assert run(["attribute", str(panel_file), "--f", "additive", "--weights", str(weights),
                    "--out", str(tmp_path / "a.csv"), "--out-dir", str(tmp_path)]) == 1

    def test_non_numeric_weights_is_data_error(self, tmp_path):
        pfile = tmp_path / "p4.asp"
        assert run(["synth", "--n-agents", "4", "--out", str(pfile), "--out-dir", str(tmp_path)]) == 0
        weights = tmp_path / "w.csv"
        weights.write_text("a,b,c\n" * 4)
        assert run(["attribute", str(pfile), "--f", "additive", "--weights", str(weights),
                    "--out", str(tmp_path / "a.csv"), "--out-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_weights_is_data_error(self, panel_file, tmp_path, capsys, bad):
        weights = tmp_path / "w.csv"
        weights.write_text("1,0.5,2\n" * 39 + f"1,{bad},2\n")
        out = tmp_path / "a.csv"
        assert run(["attribute", str(panel_file), "--f", "additive", "--weights", str(weights),
                    "--out", str(out), "--out-dir", str(tmp_path)]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("f,baseline", [("lin", "population_mean"), ("var", "zero")])
    def test_float64_overflow_is_data_error(self, tmp_path, capsys, f, baseline):
        pfile = tmp_path / "huge.asp"
        panel.FeaturePanel(np.full((4, 1, 2), 1e308), ["a", "b", "c", "d"]).save(pfile)
        out = tmp_path / "a.csv"
        with pytest.warns(RuntimeWarning):  # overflow, then invalid values
            code = run(["attribute", str(pfile), "--f", f, "--baseline", baseline,
                        "--out", str(out), "--out-dir", str(tmp_path)])
        assert code == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_agent_ids_is_data_error(self, panel_file, tmp_path):
        panel_file.write_bytes(panel_file.read_bytes()[:-1] + b"\xff")
        assert run(["attribute", str(panel_file), "--f", "var",
                    "--out-dir", str(tmp_path)]) == 1

    def test_panel_without_feature_dims_is_data_error(self, tmp_path, capsys):
        pfile = tmp_path / "flat.asp"
        pfile.write_bytes(b"ASP1" + struct.pack("<3q", 3, 2, 0) + b"a\nb\nc")
        out = tmp_path / "a.csv"
        assert run(["attribute", str(pfile), "--f", "lin", "--out", str(out),
                    "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: panel has no feature dims\n"
        assert not out.exists()

    def test_truncated_panel_is_data_error(self, panel_file, tmp_path):
        panel_file.write_bytes(panel_file.read_bytes()[:100])
        assert run(["attribute", str(panel_file), "--f", "var",
                    "--out-dir", str(tmp_path)]) == 1


# ---- CSV bytes against per-row csv.writer references ----------------------

AWKWARD_IDS = ["a,b", 'q"x', " sp", "a\rb", ""]


def reference_attribute_csv(path, pn, res, f):
    """The per-row writer the bulk `attribute` writer replaced; phi_norm is
    blank where |delta_v| <= DEGENERATE_TOL * max(|f(z)|, |f(z0)|)."""
    f0 = f.evaluate(np.broadcast_to(res.baseline, pn.step_slice(0).shape))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["agent_id", "step", "phi", "phi_norm"])
        for t in range(pn.n_steps):
            dv = float(res.delta_v[t])
            scale = max(abs(f.evaluate(pn.step_slice(t))), abs(f0))
            norm_ok = abs(dv) > attribution.DEGENERATE_TOL * scale
            for i, aid in enumerate(pn.agent_ids):
                phi = float(res.phi[i, t])
                w.writerow([aid, t, repr(phi), repr(phi / dv) if norm_ok else ""])


def reference_panel_csv(path, pn):
    """The per-row writer the bulk `FeaturePanel.to_csv` replaced."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["agent_id", "step", *pn.dim_names])
        for i, aid in enumerate(pn.agent_ids):
            for t in range(pn.n_steps):
                w.writerow([aid, t, *(repr(float(v)) for v in pn.features[i, t])])


def awkward_panel(path, n, n_steps=3):
    """A synthetic panel whose first ids need CSV quoting, whose step 1 is all
    zeros (lin has delta_v = 0 there) and whose step 2, if any, is scaled
    down so that lin's delta_v is below DEGENERATE_TOL but not degenerate,
    being all of f(z)."""
    feats = panel.generate_synthetic(panel.SyntheticPanelSpec(
        n_agents=n, n_steps=n_steps, feature_law="pareto_reach", seed=11)).features.copy()
    feats[:, 1] = 0.0
    feats[:, 2:] *= 1e-14
    ids = AWKWARD_IDS + [f"u{i}" for i in range(n - len(AWKWARD_IDS))]
    panel.FeaturePanel(feats, ids).save(path)
    return panel.FeaturePanel.load(path)


def repeated_panel(path, n):
    """n agents (a multiple of 4) whose rows cycle through four with row sums
    0, 1, 2, 1, which average to exactly 1.  At a zero baseline var gives the
    zero rows -0.0 and the rows at the mean 0.0; step 1 is all zeros, so its
    change is degenerate."""
    cycle = np.array([[0.0, 0.0, 0.0], [0.5, 0.25, 0.25], [1.0, 0.5, 0.5], [0.25, 0.5, 0.25]])
    feats = np.zeros((n, 2, 3))
    feats[:, 0] = np.tile(cycle, (n // 4, 1))
    ids = [f"r{i}" for i in range(n)]
    panel.FeaturePanel(feats, ids).save(path)
    return panel.FeaturePanel.load(path)


class TestCsvBytes:
    @pytest.mark.parametrize("f,baseline,method", [
        ("lin", "zero", "auto"), ("var", "zero", "auto"), ("gini", "population_mean", "auto"),
        ("heat", "first_step", "midpoint"),
    ])
    def test_attribute_matches_per_row_writer(self, tmp_path, f, baseline, method):
        pn = awkward_panel(tmp_path / "p.asp", 50)
        out = tmp_path / "attr.csv"
        assert run(["attribute", str(tmp_path / "p.asp"), "--f", f, "--baseline", baseline,
                    "--method", method, "--out", str(out), "--out-dir", str(tmp_path)]) == 0
        res = attribution.attribute_temporal(valuefn.by_name(f), pn,
                                             attribution.BaselineSpec(baseline), method)
        reference_attribute_csv(tmp_path / "ref.csv", pn, res, valuefn.by_name(f))
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        if f == "lin":  # phi_norm blank at delta_v = 0, written at a tiny delta_v of tiny values
            assert b'\r\n"a,b",1,0.0,\r\n' in out.read_bytes()
            assert 0 < abs(res.delta_v[2]) <= attribution.DEGENERATE_TOL
            with open(out, newline="") as fh:
                assert all(row["phi_norm"] for row in csv.DictReader(fh) if row["step"] == "2")

    def test_ingest_csv_matches_per_row_writer(self, tmp_path):
        p = tmp_path / "events.jsonl"
        rows = []
        for k, a in enumerate(AWKWARD_IDS + ["bob"]):
            rows.append({"ts": 100 + k, "actor": a, "kind": "post", "text": "solar"})
            if a:  # an empty target makes a follow or reply malformed
                rows += [{"ts": 150 + k, "actor": "bob", "kind": "follow", "target": a},
                         {"ts": 210 + k, "actor": "bob", "kind": "reply", "text": "solar", "target": a}]
        p.write_text("\n".join(json.dumps(r) for r in rows))
        out = tmp_path / "panel.asp"
        # an empty actor is malformed, so the empty id cannot come from ingest
        with pytest.warns(UserWarning, match="skipped 1 malformed"):
            assert run(["ingest", str(p), "solar", "--window-start", "100", "--window-end", "300",
                        "--step", "100", "--out", str(out), "--csv", "--out-dir", str(tmp_path)]) == 0
        pn = panel.FeaturePanel.load(out)
        assert sorted(pn.agent_ids) == sorted([a for a in AWKWARD_IDS if a] + ["bob"])
        reference_panel_csv(tmp_path / "ref.csv", pn)
        assert (tmp_path / "panel.asp.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_repeated_values_and_signed_zeros(self, monkeypatch):
        # values repeat within a block and across blocks of 7 rows, and -0.0
        # and 0.0 have different reprs
        monkeypatch.setattr(panel, "CSV_BLOCK_ROWS", 7)
        col = np.array([0.0, -0.0, 1.5, 0.1 + 0.2, 1.5, -0.0, np.nan, -np.inf, 0.0, 5e-324])
        ids = AWKWARD_IDS * 2
        rows = np.column_stack([col, col[::-1]])

        def check(values, tails, want_rows):
            got, want = io.StringIO(newline=""), io.StringIO(newline="")
            panel.write_csv_rows(got, panel.csv_quoted(ids), values, tails)
            csv.writer(want).writerows(want_rows)
            assert got.getvalue() == want.getvalue()

        # the rows of `ingest --csv`, then an attribute step by a negative
        # delta_v and a degenerate one, whose phi_norm is blank
        check(rows, panel._float_fields,
              [[aid, repr(a), repr(b)] for aid, (a, b) in zip(ids, rows.tolist())])
        for dv in (-0.7, None):
            check(col, cli._phi_fields(3, dv),
                  [[aid, 3, repr(p), "" if dv is None else repr(p / dv)]
                   for aid, p in zip(ids, col.tolist())])

    @pytest.mark.parametrize("small_blocks", [True, False])
    def test_writers_across_write_blocks(self, tmp_path, monkeypatch, small_blocks):
        # more rows per step, and more panel rows, than one write block holds
        if small_blocks:
            monkeypatch.setattr(panel, "CSV_BLOCK_ROWS", 7)
        n = 20 if small_blocks else panel.CSV_BLOCK_ROWS + 5
        awkward_panel(tmp_path / "p.asp", n, n_steps=2)
        repeated_panel(tmp_path / "rep.asp", 4 * (n // 4 + 1))
        for name, kind in (("p.asp", "lin"), ("rep.asp", "var")):
            pn = panel.FeaturePanel.load(tmp_path / name)
            pn.to_csv(tmp_path / "panel.csv")
            reference_panel_csv(tmp_path / "ref_panel.csv", pn)
            assert (tmp_path / "panel.csv").read_bytes() == (tmp_path / "ref_panel.csv").read_bytes()
            out = tmp_path / "attr.csv"
            assert run(["attribute", str(tmp_path / name), "--f", kind,
                        "--out", str(out), "--out-dir", str(tmp_path)]) == 0
            res = attribution.attribute_temporal(valuefn.by_name(kind), pn)
            reference_attribute_csv(tmp_path / "ref.csv", pn, res, valuefn.by_name(kind))
            assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        # the repeated panel's step 0 holds both zeros, and its step 1 is degenerate
        text = out.read_bytes()
        assert b'\r\nr0,0,-0.0,' in text and b'\r\nr1,0,0.0,' in text
        assert text.endswith(b",1,-0.0,\r\n") or text.endswith(b",1,0.0,\r\n")


def reference_flip_csv(path, rep):
    """The per-row writer `FlipReport.to_csv` had before `panel.write_table`."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["protocol", "n", "n_seeds", "n_degenerate",
                    *(f"share_{g}" for g in rep.group_names),
                    *(f"std_{g}" for g in rep.group_names),
                    *(f"delta_pp_{g}" for g in rep.group_names)])
        w.writerow(["full", rep.n_full, 1, 0, *(repr(float(s)) for s in rep.full_shares),
                    *(["0.0"] * 2 * len(rep.group_names))])
        for r in rep.rows:
            w.writerow([r["protocol"], r["n"], r["n_seeds"], r["n_degenerate"],
                        *(repr(float(v)) for key in ("mean_shares", "std_shares", "delta_pp")
                          for v in r[key])])


def reference_rescale_csv(path, reports):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["f_kind", "n", "seed", "c_star", "epsilon", "spearman"])
        for r in reports:
            w.writerow([r.f_kind, r.n, r.subset_seed, repr(float(r.c_star)),
                        repr(float(r.epsilon)), repr(float(r.rank_spearman))])


def reference_bench_csv(path, rows, methods):
    cell = {(r["n"], r["method"]): r for r in rows}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", *methods])
        for n in sorted({r["n"] for r in rows}):
            out = [n]
            for m in methods:
                r = cell.get((n, m))
                out.append("" if r is None else repr(float(r["seconds"]))
                           if r["status"] == "ok" else r["status"])
            w.writerow(out)


class TestTableBytes:
    """Every small table goes through `panel.write_table`; each must equal a
    per-row `csv.writer` with `repr(float(...))` floats."""

    ODD = [np.float64(0.1) + 0.2, -0.0, np.nan, 2.5, np.float64(-np.inf), 5e-324]

    def test_flip(self, tmp_path):
        v = np.array(self.ODD[:3])
        rep = study.FlipReport(np.array([0.5, -0.0, 0.5]), ("top", "mid", "tail"), n_full=9)
        rep.rows += [{"protocol": "random", "n": 2, "n_seeds": 0, "n_degenerate": 4,
                      "mean_shares": np.full(3, np.nan), "std_shares": np.full(3, np.nan),
                      "delta_pp": np.full(3, np.nan)},
                     {"protocol": "a,b", "n": 5, "n_seeds": 3, "n_degenerate": 1,
                      "mean_shares": v, "std_shares": v[::-1], "delta_pp": v * 100.0}]
        rep.to_csv(tmp_path / "flip.csv")
        reference_flip_csv(tmp_path / "ref.csv", rep)
        assert (tmp_path / "flip.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_rescale(self, tmp_path):
        R = scalingbias.RescaleReport
        reports = [R(np.float64(2.5), 0.0, np.nan, 3, "var", None),
                   R(*self.ODD[:3], 40, "lin", 7), R(*self.ODD[3:], 2, "gini", 0)]
        scalingbias.write_reports_csv(tmp_path / "rescale.csv", reports)
        reference_rescale_csv(tmp_path / "ref.csv", reports)
        got = (tmp_path / "rescale.csv").read_bytes()
        assert got == (tmp_path / "ref.csv").read_bytes()
        assert got.split(b"\r\n")[1] == b"var,3,,2.5,0.0,nan"  # not "np.float64(2.5)"

    def test_bench(self, tmp_path):
        methods = ("ours_analytic", "loo", "exact_shapley", "sampled_banzhaf")
        rows = [{"n": 8, "method": "ours_analytic", "seconds": 1e-05, "status": "ok"},
                {"n": 8, "method": "exact_shapley", "seconds": np.float64(0.1) + 0.2,
                 "status": "ok"},
                {"n": 30, "method": "loo", "seconds": -0.0, "status": "ok"},
                {"n": 30, "method": "exact_shapley", "seconds": None, "status": "infeasible"},
                {"n": 30, "method": "sampled_banzhaf", "seconds": None,
                 "status": "error: a, \"quoted\" cause"}]
        study.bench_rows_to_csv(tmp_path / "bench.csv", rows, methods)
        reference_bench_csv(tmp_path / "ref.csv", rows, methods)
        assert (tmp_path / "bench.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_kconv(self, tmp_path, monkeypatch, study_config):
        rows = [{"K": K, "rel_l1_error": err, "seconds": sec}
                for K, err, sec in zip((5, 10, 20), self.ODD, self.ODD[3:])]
        monkeypatch.setattr(study, "k_convergence_sweep", lambda z, f, K_list: rows)
        cfg = study_config("mode = kconv\nf = heat\n", 20)
        assert run(["study", str(cfg), "--out-dir", str(tmp_path)]) == 0
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["K", "rel_l1_error"])
            w.writerows([r["K"], repr(float(r["rel_l1_error"]))] for r in rows)
        assert (tmp_path / "kconv_heat.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        # the wall clock goes to the manifest's timings, not the table
        timings = json.loads((tmp_path / "manifest.json").read_text())["timings"]
        assert [timings[f"kconv_heat_K{r['K']}_seconds"] for r in rows] == self.ODD[3:6]


class TestStudy:
    @pytest.mark.parametrize("mode", ["flip", "rescale"])
    def test_negative_seed_fails_before_output(self, tmp_path, capsys, study_config, mode):
        cfg = study_config(f"mode = {mode}\nf = var\nsizes = 50\nseeds = 0 -1\n", 300)
        out = tmp_path / "out"
        assert run(["study", str(cfg), "--out-dir", str(out)]) == 1
        assert "config seeds = '0 -1': a seed is negative" in capsys.readouterr().err
        assert not out.exists()

    def test_flip_mode(self, tmp_path, study_config):
        cfg = study_config("mode = flip\nf = var\nprotocols = bias_visibility random\n"
                           "sizes = 50\nseeds = 0 1 2\n", 2000, seed=7)
        assert run(["study", str(cfg), "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "flip_var.csv").read_text().strip().split("\n")
        assert len(lines) == 4

    def test_rescale_mode(self, tmp_path, study_config):
        cfg = study_config("mode = rescale\nf = lin var\nprotocols = bias_visibility\n"
                           "sizes = 50\nseeds = 0 1\n", 1000, seed=7)
        assert run(["study", str(cfg), "--out-dir", str(tmp_path)]) == 0
        for name in ("lin", "var"):
            rows = (tmp_path / f"rescale_{name}.csv").read_text().strip().split("\n")
            assert rows[0].startswith("f_kind,n,seed")
            assert len(rows) == 3
        # linear family reconciles, variance does not
        eps_lin = [float(r.split(",")[4]) for r in
                   (tmp_path / "rescale_lin.csv").read_text().strip().split("\n")[1:]]
        assert max(eps_lin) <= 1e-9

    def test_rescale_defaults_to_bias_visibility(self, tmp_path, study_config):
        body = "mode = rescale\nf = var\nsizes = 50\nseeds = 0 1\n"
        out = {}
        for tag, extra in (("default", ""), ("explicit", "protocols = bias_visibility\n")):
            cfg = study_config(body + extra, 1000, seed=7, name=f"{tag}.cfg")
            assert run(["study", str(cfg), "--out-dir", str(tmp_path / tag)]) == 0
            out[tag] = (tmp_path / tag / "rescale_var.csv").read_bytes()
        assert out["default"] == out["explicit"]

    @pytest.mark.parametrize("protocols", ["bias_visibility random", ""])
    def test_rescale_takes_exactly_one_protocol(self, tmp_path, protocols, capsys, study_config):
        # the rescale CSV has no protocol column: a second protocol was dropped
        cfg = study_config(f"mode = rescale\nf = var\nprotocols = {protocols}\nsizes = 50\n"
                           "seeds = 0\n", 300)
        assert run(["study", str(cfg), "--out-dir", str(tmp_path)]) == 1
        assert "exactly one protocol" in capsys.readouterr().err
        assert not (tmp_path / "rescale_var.csv").exists()

    def test_rescale_mode_on_two_agents(self, tmp_path, study_config):
        # rescale builds no tier partition, which cannot split 2 agents into 3 groups
        cfg = study_config("mode = rescale\nf = var\nsizes = 2\nseeds = 0 1\n", 2)
        assert run(["study", str(cfg), "--out-dir", str(tmp_path)]) == 0
        with open(tmp_path / "rescale_var.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["seed"] for r in rows] == ["0", "1"]
        assert all(float(r["c_star"]) == pytest.approx(1.0) for r in rows)

    @pytest.mark.parametrize("mode", ["flip", "rescale"])
    @pytest.mark.parametrize("dims,value,cause", [
        ([1], 800.0, "the summed per-step counts of dim 'activity' overflow float64"),
        ([1, 2], 709.5, "bias_visibility: the engagement counts"),
    ])
    def test_overflowing_counts_are_data_error(self, tmp_path, capsys, mode, dims, value, cause):
        feats = np.ones((20, 1, 3))
        feats[0, 0, dims] = value
        panel.FeaturePanel(feats, [f"a{i:02d}" for i in range(20)]).save(tmp_path / "p.asp")
        cfg = tmp_path / "study.cfg"
        cfg.write_text(f"mode = {mode}\npanel = {tmp_path / 'p.asp'}\nf = var\n"
                       "sizes = 5\nseeds = 0\n")
        assert run(["study", str(cfg), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cause}") and err.count("\n") == 1

    def test_kconv_mode(self, tmp_path, study_config):
        cfg = study_config("mode = kconv\nf = heat\nK_list = 5 10 20\n", 200, law="abs_gaussian")
        assert run(["study", str(cfg), "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "kconv_heat.csv").read_text().strip().split("\n")
        assert rows[0] == "K,rel_l1_error"
        errs = [float(r.split(",")[1]) for r in rows[1:]]
        assert errs == sorted(errs, reverse=True)

    def test_unknown_mode_is_data_error(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("mode = dance\n")
        assert run(["study", str(cfg), "--out-dir", str(tmp_path)]) == 1

    def test_cli_flip_equals_library_flip(self, tmp_path, study_config):
        # a saved synthetic panel through `aspanel study` gives the library's table
        cfg = study_config(f"mode = flip\nf = var gini\nprotocols = {' '.join(study.PROTOCOLS)}\n"
                           "sizes = 50 100\nseeds = 0 1 2\n", 2000, seed=7)
        assert run(["study", str(cfg), "--out-dir", str(tmp_path / "cli")]) == 0
        pn = panel.generate_synthetic(panel.SyntheticPanelSpec(2000, feature_law="pareto_reach",
                                                               seed=7))
        z = pn.collapse()
        part = panel.make_tier_partition(z[:, 0], panel.DEFAULT_CUT_FRACTIONS, pn.agent_ids)
        samplers = {p: study.SubsetSampler(z, p, study.DEFAULT_POOL_FRACTION,
                                           study.DEFAULT_POOL_SIZE) for p in study.PROTOCOLS}
        for name in ("var", "gini"):
            rep = study.flip_study(z, valuefn.by_name(name), part, samplers, (50, 100), range(3))
            rep.to_csv(tmp_path / f"lib_{name}.csv")
            got = (tmp_path / "cli" / f"flip_{name}.csv").read_bytes()
            assert got == (tmp_path / f"lib_{name}.csv").read_bytes()

    def test_config_without_panel_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("mode = flip\nf = var\nsizes = 50\nseeds = 0\n")
        out = tmp_path / "out"
        assert run(["study", str(cfg), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "aspanel synth" in err and err.count("\n") == 1
        assert not out.exists()

    def test_unknown_f_is_caught_before_any_output(self, tmp_path, capsys, study_config):
        cfg = study_config("mode = flip\nf = var bogus\nsizes = 50\nseeds = 0\n", 300)
        assert run(["study", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
        assert "unknown value-function kind 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "out" / "flip_var.csv").exists()
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_unknown_mode_without_f_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("mode = bogus\nf =\n")
        assert run(["study", str(cfg), "--out-dir", str(tmp_path)]) == 1
        assert "unknown study mode 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("mode", ["flip", "rescale"])
    @pytest.mark.parametrize("sizes", ["-5", "0"])
    def test_subset_size_below_one_is_data_error(self, tmp_path, capsys, mode, sizes,
                                                 study_config):
        cfg = study_config(f"mode = {mode}\nf = var\nsizes = {sizes}\nseeds = 0\n", 300)
        assert run(["study", str(cfg), "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: subset size {sizes} is below 1\n"

    @pytest.mark.parametrize("mode", ["flip", "rescale"])
    def test_subset_size_above_n_is_caught_before_any_output(self, tmp_path, capsys, mode,
                                                             study_config):
        cfg = study_config(f"mode = {mode}\nf = var\nsizes = 50 5000\nseeds = 0\n", 300)
        out = tmp_path / "out"
        assert run(["study", str(cfg), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "error: subset size 5000 exceeds population 300\n"
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("sizes", "abc"), ("seeds", "0 x"), ("cut_fractions", "0.1 x 1.0"),
        ("pool_fraction", "abc"), ("pool_size", "1e3"), ("K_list", "5 ten"),
    ])
    def test_non_numeric_config_is_data_error(self, tmp_path, capsys, key, value, study_config):
        mode = "kconv" if key == "K_list" else "flip"
        cfg = study_config(f"mode = {mode}\nf = var\nsizes = 50\nseeds = 0\n{key} = {value}\n",
                           300)
        assert run(["study", str(cfg), "--out-dir", str(tmp_path)]) == 1
        assert f"config {key} = {value!r}" in capsys.readouterr().err


class TestConfigKeys:
    """Each command reads the keys CONFIG_KEYS declares for it: another key
    exits 1, naming it, before the run directory exists."""

    @pytest.mark.parametrize("body,message", [
        # a kconv config that ran the defaults and exited 0
        ("mode = kconv\nf = heat\nK = 0 -1\ncut_fractions = 0.5 1.0\n",
         "config key 'K' is unknown"),
        ("mode = kconv\nf = heat\ncut_fractions = 0.5 1.0\n",
         "config key 'cut_fractions' is not read in kconv mode"),
        ("mode = flip\nf = var\nK_list = 5\n", "config key 'K_list' is not read in flip mode"),
        ("mode = rescale\nf = var\ncut_fractions = 1.0\n",
         "config key 'cut_fractions' is not read in rescale mode"),
        ("mode = flip\nf = var\nseed = 3\n", "config key 'seed' is unknown"),
    ])
    def test_study_key_not_read_fails_before_output(self, tmp_path, capsys, study_config,
                                                    body, message):
        out = tmp_path / "out"
        assert run(["study", str(study_config(body, 300)), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("line,message", [
        ("size = 10", "config key 'size' is unknown"),
        ("seeds = 0 1", "config key 'seeds' is not read by bench"),
    ])
    def test_bench_key_not_read_fails_before_output(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"methods = loo\nrepeats = 1\n{line}\n")
        out = tmp_path / "out"
        assert run(["bench", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_every_mode_runs_on_its_declared_keys(self, tmp_path, study_config):
        for mode, keys in cli.CONFIG_KEYS.items():
            if mode == "bench":
                continue
            given = {"mode": mode, "f": "var", "sizes": "20", "seeds": "0 1", "K_list": "5 10"}
            body = "".join(f"{k} = {v}\n" for k, v in given.items() if k in keys)
            cfg = study_config(body, 300, name=f"{mode}.cfg")
            assert run(["study", str(cfg), "--out-dir", str(tmp_path / mode)]) == 0

    def test_study_draws_each_subset_once(self, tmp_path, monkeypatch, study_config):
        drawn = []
        draw = study.SubsetSampler.draw
        monkeypatch.setattr(study.SubsetSampler, "draw",
                            lambda self, n, seed: drawn.append((self.protocol, n, seed))
                            or draw(self, n, seed))
        cfg = study_config("mode = flip\nf = var gini heat\nsizes = 20 50\nseeds = 0 1 2\n"
                           "protocols = random bias_visibility\n", 400)
        assert run(["study", str(cfg), "--out-dir", str(tmp_path)]) == 0
        assert sorted(drawn) == sorted((p, n, seed) for p in ("random", "bias_visibility")
                                       for n in (20, 50) for seed in range(3))


class TestBench:
    def test_default_config(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("sizes = 10 30\nmethods = ours_analytic loo exact_shapley\n"
                       "repeats = 1\nf = var\n")
        assert run(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "infeasible" in out
        assert (tmp_path / "bench.csv").exists()

    @pytest.mark.parametrize("line", ["sizes = 10 x", "repeats = two", "m_samples = 1.5"])
    def test_non_numeric_config_is_data_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"methods = ours_analytic\n{line}\n")
        assert run(["bench", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
        assert f"config {line.split()[0]} = " in capsys.readouterr().err


    @pytest.mark.parametrize("sizes", ["0", "-3", "0 10"])
    def test_sizes_below_one_fails_before_output(self, tmp_path, capsys, sizes):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"sizes = {sizes}\nmethods = loo\nrepeats = 1\n")
        out = tmp_path / "out"
        assert run(["bench", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert f"config sizes = {sizes!r}: a size is below 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("repeats", ["0", "-2"])
    def test_repeats_below_one_fails_before_output(self, tmp_path, capsys, repeats):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(f"sizes = 10\nmethods = ours_analytic\nrepeats = {repeats}\n")
        out = tmp_path / "out"
        assert run(["bench", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert f"config repeats = {repeats!r}: below 1" in capsys.readouterr().err
        assert not out.exists()


class TestRunDirectory:
    """The output directory is made with the first output: a command that
    fails before writing one leaves no directory."""

    def test_made_on_first_output(self, tmp_path):
        out = tmp_path / "a" / "b"
        assert run(["verify", "--out-dir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "verify.json"]

    @pytest.mark.parametrize("case", ["bench_unknown_method", "attribute_missing_panel",
                                      "ingest_negative_snapshot", "ingest_empty_panel"])
    def test_failed_command_leaves_no_directory(self, events_file, tmp_path, case):
        out = tmp_path / "out"
        window = ["--window-start", "100", "--window-end", "300", "--step", "100"]
        if case == "bench_unknown_method":
            cfg = tmp_path / "bench.cfg"
            cfg.write_text("sizes = 10\nmethods = bogus\nrepeats = 1\n")
            argv, code = ["bench", "--config", str(cfg)], 1
        elif case == "attribute_missing_panel":
            argv, code = ["attribute", str(tmp_path / "nope.asp"), "--f", "var"], 2
        elif case == "ingest_negative_snapshot":
            snap = tmp_path / "snap.json"
            snap.write_text('{"alice": -5}')
            argv, code = ["ingest", str(events_file), "solar", "--follower-snapshot", str(snap),
                          *window], 1
        else:  # no event in the window: no agent to write
            window[1], window[3] = "5000", "5200"
            argv, code = ["ingest", str(events_file), "solar", *window], 1
        assert run([*argv, "--out-dir", str(out)]) == code
        assert not out.exists()


class TestVerify:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        assert run(["verify", "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        text = (tmp_path / "verify.json").read_text()
        rep = json.loads(text)
        assert rep["max_abs_error"] <= 1e-12
        assert text == json.dumps(rep, indent=2) + "\n"


class TestImport:
    def test_runtime_imports_no_scipy(self):
        # scipy is the tests' reference only; a fresh interpreter sees what aspanel loads
        src = os.path.dirname(os.path.dirname(aspanel.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = ("import aspanel, aspanel.cli, sys; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"
