"""Command-line entry point: every pipeline as a subcommand.

Exit codes: 0 ok, 1 data error, 2 usage error.  Every run writes a manifest
JSON (command line, config hash, seed, version, outputs, timings; ingest
adds its record counters) into the output directory; re-running with
identical inputs reproduces byte-identical non-timing outputs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, attribution, panel, scalingbias, study, valuefn
from .errors import AspanelError, DegenerateChangeError, EmptyPanelError, NonzeroBaselineError

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2


def read_text(path) -> str:
    """A text input file (config, topics, follower snapshot) decoded as
    UTF-8; bytes that do not decode are an AspanelError, not a traceback."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise AspanelError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_kv_config(path) -> dict:
    """Flat key = value config; '#' starts a comment; values keep raw strings."""
    cfg = {}
    for raw in read_text(path).split("\n"):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise AspanelError(f"bad config line: {raw.strip()!r}")
        key, val = line.split("=", 1)
        cfg[key.strip()] = val.strip()
    return cfg


def _split(value: str) -> list[str]:
    return [v for v in value.replace(",", " ").split() if v]


def _cfg_number(cfg: dict, key: str, default, kind=int, many=False):
    """Config value ``key`` (``default`` when absent) as one ``kind``, or as a
    list of them with ``many``; a value that does not parse is an
    AspanelError naming the key."""
    raw = cfg.get(key, default)
    try:
        return [kind(x) for x in _split(raw)] if many else kind(raw)
    except ValueError:
        raise AspanelError(f"config {key} = {raw!r}: not "
                           f"{'a list of ' if many else 'a single '}{kind.__name__}") from None


class _Run:
    """Collects outputs and timings, writes the manifest on close.  The output
    directory is made with the first output, so a failed command leaves none."""

    def __init__(self, args, config_path=None):
        self.out_dir = Path(getattr(args, "out_dir", ".") or ".")
        self.argv = args.argv
        self.seed = getattr(args, "seed", None)
        self.outputs: list[str] = []
        self.timings: dict[str, float] = {}
        self.config_hash = None
        if config_path:
            self.config_hash = hashlib.sha256(Path(config_path).read_bytes()).hexdigest()
        self._t0 = time.perf_counter()

    def path(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        p = self.out_dir / name
        self.outputs.append(str(p))
        return p

    def finish(self, **sections):
        """Write the manifest; keyword arguments add command-specific sections."""
        self.timings["total_seconds"] = time.perf_counter() - self._t0
        self.out_dir.mkdir(parents=True, exist_ok=True)
        manifest = {
            "argv": self.argv,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "version": __version__,
            "outputs": self.outputs,
            "timings": self.timings,
            **sections,
        }
        panel.write_json(self.out_dir / "manifest.json", manifest)


def _add_common(p: argparse.ArgumentParser):
    # not --seed: only synth, bench and verify draw one; other manifests say null
    p.add_argument("--out-dir", default=".")


# ---- subcommands ------------------------------------------------------------


def cmd_ingest(args) -> int:
    keywords = _split(read_text(args.topics) if Path(args.topics).exists() else args.topics)
    snapshot = None
    if args.follower_snapshot:
        try:
            snapshot = dict(json.loads(read_text(args.follower_snapshot)).items())
        except (ValueError, AttributeError) as exc:
            raise AspanelError(f"{args.follower_snapshot}: not a JSON object of integer "
                               f"follower counts ({exc})") from None
        for agent, count in snapshot.items():
            # a JSON integer: not a float such as 1e308, not true, and within int64
            if type(count) is not int or not 0 <= count < 2**63:
                raise AspanelError(f"{args.follower_snapshot}: the follower count of {agent!r} "
                                   f"is not an integer from 0 to 2**63 - 1")
    run = _Run(args)
    pn, counters = panel.ingest_jsonl(
        args.events,
        keywords,
        (args.window_start, args.window_end),
        args.step,
        follower_snapshot=snapshot,
        cumulative=args.cumulative,
        exclude_pattern=args.exclude,
    )
    pn.save(run.path(args.out))
    if args.csv:
        pn.to_csv(run.path(args.out + ".csv"))
    run.finish(ingest={**counters, "agents": pn.n_agents})
    print(f"panel: {pn.n_agents} agents x {pn.n_steps} steps x {pn.n_dims} dims")
    return EXIT_OK


def cmd_synth(args) -> int:
    run = _Run(args)
    spec = panel.SyntheticPanelSpec(
        n_agents=args.n_agents,
        n_steps=args.n_steps,
        n_dims=args.n_dims,
        feature_law=args.law,
        pareto_alpha=args.pareto_alpha,
        reach_coupling=args.reach_coupling,
        seed=args.seed,
    )
    pn = panel.generate_synthetic(spec)
    pn.save(run.path(args.out))
    run.finish()
    print(f"panel: {pn.n_agents} agents x {pn.n_steps} steps x {pn.n_dims} dims")
    return EXIT_OK


# `attribute --f` kinds (required params the CLI can supply) -> needs --weights
_CLI_KINDS = {name: "weights" in kind.required
              for name, kind in valuefn.KINDS.items() if set(kind.required) <= {"weights"}}


def _phi_fields(t: int, dv):
    """The ``tails`` of :func:`panel.write_csv_rows` for step ``t`` of the
    attribute CSV: ``,t,repr(phi),repr(phi/dv)``, or a blank ``phi_norm``
    when ``dv`` is None (a degenerate step)."""
    def tails(phi: np.ndarray):
        fields = [itertools.repeat(f",{t},"), map(repr, phi.tolist()), itertools.repeat(",")]
        if dv is not None:
            fields.append(map(repr, (phi / dv).tolist()))
        return map("".join, zip(*fields, itertools.repeat("\r\n")))
    return tails


def cmd_attribute(args) -> int:
    run = _Run(args)
    pn = panel.FeaturePanel.load(args.panel)
    W = None
    if _CLI_KINDS[args.f]:
        try:
            W = np.loadtxt(args.weights, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise AspanelError(f"{args.weights}: not a numeric CSV matrix ({exc})") from None
    f = valuefn.by_name(args.f) if W is None else valuefn.by_name(args.f, weights=W)
    baseline = attribution.BaselineSpec(args.baseline)
    if args.method == "analytic" and args.baseline != "zero":
        raise NonzeroBaselineError(
            "analytic method requires --baseline zero; use --method auto or midpoint"
        )
    res = attribution.attribute_temporal(f, pn, baseline, args.method, args.K)

    out_csv = run.path(args.out)
    ids = panel.csv_quoted(pn.agent_ids)
    with open(out_csv, "w", newline="") as fh:
        csv.writer(fh).writerow(["agent_id", "step", "phi", "phi_norm"])
        for t in range(pn.n_steps):
            dv = float(res.delta_v[t])
            blank = attribution.degenerate(dv, res.value_scale[t])
            panel.write_csv_rows(fh, ids, res.phi[:, t], _phi_fields(t, None if blank else dv))
    residuals = np.abs(res.step_totals() - res.delta_v)
    summary = {
        "delta_v": res.delta_v.tolist(),
        "method": res.method,
        "K": args.K,
        "baseline": args.baseline,
        "efficiency_residual_max": float(residuals.max()),
        "n_agents": pn.n_agents,
        "n_steps": pn.n_steps,
    }
    panel.write_json(run.path(args.out + ".summary.json"), summary)
    run.finish()
    print(f"attributed {pn.n_agents} agents over {pn.n_steps} steps; "
          f"max efficiency residual {residuals.max():.3g}")
    return EXIT_OK


def cmd_study(args) -> int:
    cfg = read_kv_config(args.config)
    mode = cfg.get("mode", "flip")
    if mode not in ("flip", "rescale", "kconv"):
        raise AspanelError(f"unknown study mode {mode!r}")
    if "panel" not in cfg:
        raise AspanelError("study config has no 'panel = <file>'; write one with aspanel synth")
    # every name and key is checked, and the panel read, before any output
    fs = [valuefn.by_name(name) for name in _split(cfg.get("f", "var"))]
    pn = panel.FeaturePanel.load(cfg["panel"])
    feats = pn.collapse()
    if mode == "flip":
        cuts = _cfg_number(cfg, "cut_fractions", "0.01 0.10 1.0", float, many=True)
        part = panel.make_tier_partition(feats[:, 0], cuts, pn.agent_ids)
    if mode == "kconv":
        K_list = _cfg_number(cfg, "K_list", "5 10 20 30 50 100 300", many=True)
    else:
        sizes = _cfg_number(cfg, "sizes", "100", many=True)
        for n in sizes:
            study.check_subset_size(n, pn.n_agents)
        seeds = _cfg_number(cfg, "seeds", " ".join(map(str, range(10))), many=True)
        if min(seeds, default=0) < 0:
            raise AspanelError(f"config seeds = {cfg['seeds']!r}: a seed is negative")
        pool_fraction = _cfg_number(cfg, "pool_fraction", study.DEFAULT_POOL_FRACTION, float)
        pool_size = _cfg_number(cfg, "pool_size", study.DEFAULT_POOL_SIZE)
        protocols = _split(cfg.get("protocols", "bias_visibility random" if mode == "flip"
                                   else "bias_visibility"))
        # the rescale CSV has no protocol column, so one run takes one protocol
        if mode == "rescale" and len(protocols) != 1:
            raise AspanelError(f"rescale mode takes exactly one protocol, got {protocols}")
        # each protocol's pool is ranked once per panel, not once per f
        samplers = {p: study.SubsetSampler(feats, p, pool_fraction, pool_size) for p in protocols}

    run = _Run(args, config_path=args.config)
    for f in fs:
        if mode == "flip":
            rep = study.flip_study(feats, f, part, samplers, sizes, seeds)
            rep.to_csv(run.path(f"flip_{f.kind}.csv"))
        elif mode == "rescale":
            reports = study.rescale_study(feats, f, samplers[protocols[0]], sizes, seeds)
            scalingbias.write_reports_csv(run.path(f"rescale_{f.kind}.csv"), reports)
        else:  # kconv
            rows = study.k_convergence_sweep(feats, f, K_list)
            panel.write_table(run.path(f"kconv_{f.kind}.csv"), ["K", "rel_l1_error", "seconds"],
                              [[r["K"], r["rel_l1_error"], r["seconds"]] for r in rows])
    run.finish()
    print(f"study mode={mode} complete: {len(run.outputs)} output files in {run.out_dir}")
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = read_kv_config(args.config) if args.config else {}
    sizes = _cfg_number(cfg, "sizes", "10 100 1000", many=True)
    if min(sizes, default=1) < 1:
        raise AspanelError(f"config sizes = {cfg['sizes']!r}: a size is below 1")
    methods = _split(cfg.get("methods", " ".join(study.BENCH_METHODS)))
    f = valuefn.by_name(cfg.get("f", "heat"))
    m_samples = _cfg_number(cfg, "m_samples", 1000)
    repeats = _cfg_number(cfg, "repeats", 3)
    if repeats < 1:
        raise AspanelError(f"config repeats = {cfg['repeats']!r}: below 1")
    run = _Run(args, config_path=args.config)
    rows = study.bench_scaling(f, sizes, methods, m_samples=m_samples, repeats=repeats,
                               seed=args.seed)
    study.bench_rows_to_csv(run.path("bench.csv"), rows, methods)
    run.finish()
    for r in rows:
        mark = f"{r['seconds']:.3g}s" if r["status"] == "ok" else r["status"]
        print(f"n={r['n']:>9} {r['method']:<16} {mark}")
    return EXIT_OK


def cmd_verify(args) -> int:
    run = _Run(args)
    report = scalingbias.counterexample_check()
    print(f"counterexample: max abs error {report['max_abs_error']:.3g} "
          f"(epsilon {report['epsilon']:.3f}, implied c {report['implied_c']})")
    # axiom spot checks on random panels
    rng = np.random.default_rng(args.seed)
    for kind in [name for name, k in valuefn.KINDS.items() if k.closed_form and not k.required]:
        f = valuefn.by_name(kind)
        z = np.abs(rng.standard_normal((50, 3)))
        res = attribution.attribute_analytic(f, z)
        resid = res.efficiency_residual() / max(1.0, abs(res.delta_v))
        if not resid <= 1e-9:
            raise AssertionError(f"{kind}: efficiency residual {resid}")
        zero_row = z.copy()
        zero_row[0] = 0.0
        if abs(attribution.attribute_analytic(f, zero_row).phi[0]) > 1e-12:
            raise AssertionError(f"{kind}: null agent received attribution")
        print(f"axioms[{kind}]: efficiency residual {resid:.3g} ok")
    panel.write_json(run.path("verify.json"), report)
    run.finish()
    print("verify: all checks passed")
    return EXIT_OK


# ---- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="aspanel",
        description="Path-integral attribution over multi-agent feature panels",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="aggregate a JSONL event stream into a panel file")
    p.add_argument("events")
    p.add_argument("topics", help="keyword file or inline comma-separated keywords")
    p.add_argument("--window-start", type=int, required=True)
    p.add_argument("--window-end", type=int, required=True)
    p.add_argument("--step", type=int, required=True, help="bucket width in seconds")
    p.add_argument("--out", default="panel.asp")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--cumulative", action="store_true")
    p.add_argument("--exclude", help="regex excluding matching agent ids")
    p.add_argument("--follower-snapshot", help="JSON {agent: count} at window start")
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic panel file")
    p.add_argument("--n-agents", type=int, required=True)
    p.add_argument("--n-steps", type=int, default=1)
    p.add_argument("--n-dims", type=int, default=3)
    p.add_argument("--law", default="abs_gaussian", choices=panel.FEATURE_LAWS)
    p.add_argument("--pareto-alpha", type=float, default=1.5)
    p.add_argument("--reach-coupling", type=float, default=1.0)
    p.add_argument("--out", default="panel.asp")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("attribute", help="attribute a panel file")
    p.add_argument("panel")
    p.add_argument("--f", required=True, choices=list(_CLI_KINDS))
    p.add_argument("--method", default="auto", choices=["auto", "analytic", "midpoint"])
    p.add_argument("--K", type=int, default=attribution.DEFAULT_K)
    p.add_argument("--baseline", default="zero",
                   choices=["zero", "population_mean", "first_step"])
    p.add_argument("--weights", help="CSV weight matrix for additive/softplus")
    p.add_argument("--out", default="attribution.csv")
    _add_common(p)
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("study", help="run a flip/rescale/kconv study from a config file")
    p.add_argument("config")
    _add_common(p)
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("bench", help="wall-clock scaling benchmark")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="run the counterexample and axiom self-checks")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        if _CLI_KINDS.get(getattr(args, "f", None)) and not args.weights:
            ap.error(f"--f {args.f} requires --weights")
        if getattr(args, "exclude", None):
            try:
                re.compile(args.exclude)
            except re.error as exc:
                ap.error(f"--exclude {args.exclude!r} is not a valid regex ({exc})")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if getattr(args, "seed", 0) < 0:  # numpy's generators take no negative seed
        print(f"usage error: --seed {args.seed} is negative", file=sys.stderr)
        return EXIT_USAGE
    args.argv = argv
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, PermissionError, NonzeroBaselineError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EmptyPanelError, DegenerateChangeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except AspanelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except AssertionError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
