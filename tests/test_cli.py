import csv
import io
import json

import numpy as np
import pytest

from aspanel import attribution, cli, panel, valuefn
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

    def test_non_utf8_agent_ids_is_data_error(self, panel_file, tmp_path):
        panel_file.write_bytes(panel_file.read_bytes()[:-1] + b"\xff")
        assert run(["attribute", str(panel_file), "--f", "var",
                    "--out-dir", str(tmp_path)]) == 1

    def test_truncated_panel_is_data_error(self, panel_file, tmp_path):
        panel_file.write_bytes(panel_file.read_bytes()[:100])
        assert run(["attribute", str(panel_file), "--f", "var",
                    "--out-dir", str(tmp_path)]) == 1


# ---- CSV bytes against per-row csv.writer references ----------------------

AWKWARD_IDS = ["a,b", 'q"x', " sp", "a\rb", ""]


def reference_attribute_csv(path, pn, res):
    """The per-row writer the bulk `attribute` writer replaced."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["agent_id", "step", "phi", "phi_norm"])
        for t in range(pn.n_steps):
            dv = float(res.delta_v[t])
            norm_ok = abs(dv) > attribution.DEGENERATE_TOL
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
    down so that lin's delta_v is nonzero but within DEGENERATE_TOL."""
    feats = panel.generate_synthetic(panel.SyntheticPanelSpec(
        n_agents=n, n_steps=n_steps, feature_law="pareto_reach", seed=11)).features.copy()
    feats[:, 1] = 0.0
    feats[:, 2:] *= 1e-14
    ids = AWKWARD_IDS + [f"u{i}" for i in range(n - len(AWKWARD_IDS))]
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
        reference_attribute_csv(tmp_path / "ref.csv", pn, res)
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        if f == "lin":  # blank phi_norm at delta_v = 0 and at a tiny delta_v
            assert b'\r\n"a,b",1,0.0,\r\n' in out.read_bytes()
            assert 0 < abs(res.delta_v[2]) <= attribution.DEGENERATE_TOL

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

    def test_repeated_values_and_signed_zeros(self):
        # values repeat within a column, and -0.0 and 0.0 have different reprs
        col = np.array([0.0, -0.0, 1.5, 0.1 + 0.2, 1.5, -0.0, np.nan, -np.inf, 0.0, 5e-324])
        ids = AWKWARD_IDS * 2
        got, want = io.StringIO(newline=""), io.StringIO(newline="")
        panel.write_csv_rows(got, panel.csv_quoted(ids), ["3", col, col[::-1].copy()])
        w = csv.writer(want)
        for aid, a, b in zip(ids, col.tolist(), col[::-1].tolist()):
            w.writerow([aid, 3, repr(a), repr(b)])
        assert got.getvalue() == want.getvalue()

    @pytest.mark.parametrize("small_blocks", [True, False])
    def test_writers_across_write_blocks(self, tmp_path, monkeypatch, small_blocks):
        # more rows per step, and more panel rows, than one write block holds
        if small_blocks:
            monkeypatch.setattr(panel, "CSV_BLOCK_ROWS", 7)
        n = 20 if small_blocks else panel.CSV_BLOCK_ROWS + 5
        pn = awkward_panel(tmp_path / "p.asp", n, n_steps=2)
        pn.to_csv(tmp_path / "panel.csv")
        reference_panel_csv(tmp_path / "ref_panel.csv", pn)
        assert (tmp_path / "panel.csv").read_bytes() == (tmp_path / "ref_panel.csv").read_bytes()
        out = tmp_path / "attr.csv"
        assert run(["attribute", str(tmp_path / "p.asp"), "--f", "lin",
                    "--out", str(out), "--out-dir", str(tmp_path)]) == 0
        res = attribution.attribute_temporal(valuefn.by_name("lin"), pn)
        reference_attribute_csv(tmp_path / "ref.csv", pn, res)
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestStudy:
    def test_flip_mode(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "mode = flip\nn_agents = 2000\nlaw = pareto_reach\npanel_seed = 7\n"
            "f = var\nprotocols = bias_visibility random\nsizes = 50\n"
            "seeds = 0 1 2\n"
        )
        assert run(["study", str(cfg), "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "flip_var.csv").read_text().strip().split("\n")
        assert len(lines) == 4

    def test_rescale_mode(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "mode = rescale\nn_agents = 1000\nlaw = pareto_reach\npanel_seed = 7\n"
            "f = lin var\nprotocols = bias_visibility\nsizes = 50\nseeds = 0 1\n"
        )
        assert run(["study", str(cfg), "--out-dir", str(tmp_path)]) == 0
        for name in ("lin", "var"):
            rows = (tmp_path / f"rescale_{name}.csv").read_text().strip().split("\n")
            assert rows[0].startswith("f_kind,n,seed")
            assert len(rows) == 3
        # linear family reconciles, variance does not
        eps_lin = [float(r.split(",")[4]) for r in
                   (tmp_path / "rescale_lin.csv").read_text().strip().split("\n")[1:]]
        assert max(eps_lin) <= 1e-9

    def test_rescale_defaults_to_bias_visibility(self, tmp_path):
        body = ("mode = rescale\nn_agents = 1000\nlaw = pareto_reach\npanel_seed = 7\n"
                "f = var\nsizes = 50\nseeds = 0 1\n")
        out = {}
        for tag, extra in (("default", ""), ("explicit", "protocols = bias_visibility\n")):
            cfg = tmp_path / f"{tag}.cfg"
            cfg.write_text(body + extra)
            assert run(["study", str(cfg), "--out-dir", str(tmp_path / tag)]) == 0
            out[tag] = (tmp_path / tag / "rescale_var.csv").read_bytes()
        assert out["default"] == out["explicit"]

    @pytest.mark.parametrize("protocols", ["bias_visibility random", ""])
    def test_rescale_takes_exactly_one_protocol(self, tmp_path, protocols, capsys):
        # the rescale CSV has no protocol column: a second protocol was dropped
        cfg = tmp_path / "study.cfg"
        cfg.write_text("mode = rescale\nn_agents = 300\nlaw = pareto_reach\n"
                       f"f = var\nprotocols = {protocols}\nsizes = 50\nseeds = 0\n")
        assert run(["study", str(cfg), "--out-dir", str(tmp_path)]) == 1
        assert "exactly one protocol" in capsys.readouterr().err
        assert not (tmp_path / "rescale_var.csv").exists()

    def test_kconv_mode(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("mode = kconv\nn_agents = 200\nlaw = abs_gaussian\n"
                       "f = heat\nK_list = 5 10 20\n")
        assert run(["study", str(cfg), "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "kconv_heat.csv").read_text().strip().split("\n")
        assert rows[0] == "K,rel_l1_error,seconds"
        errs = [float(r.split(",")[1]) for r in rows[1:]]
        assert errs == sorted(errs, reverse=True)

    def test_unknown_mode_is_data_error(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("mode = dance\n")
        assert run(["study", str(cfg), "--out-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("key,value", [
        ("sizes", "abc"), ("seeds", "0 x"), ("n_agents", "abc"), ("n_steps", "2.5"),
        ("pareto_alpha", "x"), ("panel_seed", ""), ("cut_fractions", "0.1 x 1.0"),
        ("pool_fraction", "abc"), ("pool_size", "1e3"), ("K_list", "5 ten"),
    ])
    def test_non_numeric_config_is_data_error(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "study.cfg"
        mode = "kconv" if key == "K_list" else "flip"
        cfg.write_text(f"mode = {mode}\nn_agents = 300\nlaw = pareto_reach\nf = var\n"
                       f"sizes = 50\nseeds = 0\n{key} = {value}\n")
        assert run(["study", str(cfg), "--out-dir", str(tmp_path)]) == 1
        assert f"config {key} = {value!r}" in capsys.readouterr().err


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


class TestVerify:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        assert run(["verify", "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        rep = json.loads((tmp_path / "verify.json").read_text())
        assert rep["max_abs_error"] <= 1e-12
