"""The three workloads: set-up, the timed round of operations, and checks.

A workload is a list of operations.  Each operation belongs to one stage
(ingest, attribute, study or coalition), counts the work units its stage's
rate metric is made of, and keeps what it produced for the checks.  The
timed round runs the operations in order, each one after the previous one
has returned (a closed loop in one process).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import statistics
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import gen
import reference as ref

STAGES = ("ingest", "attribute", "study", "coalition")
PROTOCOLS = ("bias_visibility", "bias_topic_x_follow", "bias_topic_top", "random")
POOL_FRACTION, POOL_SIZE = 0.05, 5000


class OpFailed(Exception):
    """An operation did not complete: a nonzero exit code or an exception."""


@dataclass
class Op:
    stage: str
    label: str
    run: Callable[[], object]
    units: int  # lines, phi cells, subsets or marginals
    collect: Callable[[object], dict] = lambda value: {"value": value}


@dataclass
class Workload:
    """The operations of one round and the checks of their outputs."""

    ctx: "Context"
    ops: list[Op] = field(default_factory=list)
    checks: list[Callable[[dict], list[str]]] = field(default_factory=list)


# ---- sizes ----------------------------------------------------------------

COMPANION_COALITION = dict(sizes=(100,), shapley_heat_m=(1500,), banzhaf_heat_m=(450,),
                           shapley_gini_m=(48,), exact_n=10, additive_m=75)


def companion_study(seeds: int) -> dict:
    return dict(flip_f=("var",), rescale_f=("lin", "var"), flip_protocols=("bias_visibility", "random"),
                rescale_protocols=("bias_visibility",), sizes=(100,), seeds=seeds)


# Each workload leans on some stages; the others run as a companion pass so
# that every workload reports every end-to-end metric.  Every stage takes a
# second or more per round: rates of sub-second stages did not repeat from
# run to run.  The ingest is the same full-size stream in every workload.
SIZES = {
    "event_pipeline": dict(
        events=gen.EventSpec(),
        study=companion_study(160),  # on the ingested panel, 20k agents
        coalition=COMPANION_COALITION,
    ),
    "full_scale": dict(
        events=gen.EventSpec(),
        full_panel=(1_000_000, 3), path_panel=(50_000, 3),
        study=companion_study(54),  # on the path panel
        coalition=COMPANION_COALITION,
    ),
    "small_panel": dict(
        events=gen.EventSpec(),
        population=(100_000, 2),
        study=dict(flip_f=("var", "gini", "heat"), rescale_f=("lin", "var", "gini"),
                   flip_protocols=PROTOCOLS, rescale_protocols=PROTOCOLS,
                   sizes=(100, 1000), seeds=4),
        coalition=dict(sizes=(100, 1000), shapley_heat_m=(500, 200), banzhaf_heat_m=(200, 20),
                       shapley_gini_m=(20, 1), exact_n=11, additive_m=25),
    ),
}

TOY = {
    "events": gen.EventSpec(n_users=300, n_bots=6, n_events=3000, n_out_of_window=200,
                            n_pre_window_follows=200, n_malformed=12, n_steps=6),
    "full_panel": (2000, 2), "path_panel": (600, 2), "population": (3000, 2),
    "study": dict(flip_f=("var", "gini", "heat"), rescale_f=("lin", "var", "gini"),
                  flip_protocols=PROTOCOLS, rescale_protocols=PROTOCOLS, sizes=(20, 50), seeds=2),
    "coalition": dict(sizes=(20, 50), shapley_heat_m=(20, 10), banzhaf_heat_m=(10, 5),
                      shapley_gini_m=(4, 1), exact_n=6, additive_m=5),
}


def sizes_for(name: str, toy: bool) -> dict:
    s = dict(SIZES[name])
    if toy:
        s = {key: TOY[key] for key in s}
    s["pool_size"] = 200 if toy else POOL_SIZE
    return s


# ---- helpers --------------------------------------------------------------


class Context:
    def __init__(self, aspanel, work: str, seed: int, toy: bool):
        self.aspanel = aspanel
        self.work = work
        self.seed = seed
        self.toy = toy

    def path(self, name: str) -> str:
        """An input or set-up file."""
        return os.path.join(self.work, name)

    def out(self, name: str) -> str:
        """A file an operation writes; removed before every round."""
        return os.path.join(self.work, "out", name)

    def clear_outputs(self) -> None:
        # Removing last round's files before they are rewritten keeps each
        # write a fresh file: rewriting a file in place makes the file
        # system flush it first, which puts disk latency into the round.
        shutil.rmtree(os.path.join(self.work, "out"), ignore_errors=True)
        os.makedirs(os.path.join(self.work, "out"))


def cli_call(ctx: Context, argv: list[str]) -> str:
    """Run `aspanel <argv>` in-process; returns what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = ctx.aspanel.cli.main(argv)
    if code != 0:
        raise OpFailed(f"aspanel {argv[0]} exited {code}: {buf.getvalue()[-400:]}")
    return buf.getvalue()


def read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def make_panel(ctx: Context, n_agents: int, n_steps: int, name: str, seed_offset: int):
    """A pareto_reach panel with planted rows, saved to the work directory,
    and its reach tiers.  This is set-up work done with aspanel."""
    ap = ctx.aspanel.panel
    seed = ctx.seed * 10 + seed_offset
    pn = ap.generate_synthetic(ap.SyntheticPanelSpec(
        n_agents=n_agents, n_steps=n_steps, feature_law="pareto_reach", seed=seed))
    plants = gen.choose_plants(n_agents, seed)
    pn = ap.FeaturePanel(gen.plant(pn.features, plants), pn.agent_ids)
    pn.save(ctx.path(name))
    part = ap.make_tier_partition(pn.features[:, -1, 0], agent_ids=pn.agent_ids)
    return {"path": ctx.path(name), "features": pn.features, "ids": pn.agent_ids,
            "plants": plants, "labels": part.labels, "partition": part}


# ---- stage: ingest ----------------------------------------------------------

_MALFORMED = re.compile(r"skipped (\d+) malformed")


def ingest_ops(ctx: Context, spec: gen.EventSpec, tag: str):
    """`aspanel ingest` of a generated stream; returns the op, its check, the
    panel path and the (ids, features) the panel must hold, rebuilt from the
    generator's event list."""
    stream = gen.make_events(spec, ctx.seed)
    events, topics = ctx.path(f"{tag}.jsonl"), ctx.path(f"{tag}_topics.txt")
    stream.write(events)
    with open(topics, "w") as fh:
        fh.write(gen.topic_text())
    out = ctx.out(f"{tag}.asp")
    start, end = spec.window
    argv = ["ingest", events, topics, "--window-start", str(start), "--window-end", str(end),
            "--step", str(spec.step), "--exclude", gen.EXCLUDE_REGEX, "--out", out,
            "--out-dir", ctx.out(f"{tag}_run")]

    def run():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cli_call(ctx, argv)
        counts = [int(m.group(1)) for w in caught for m in [_MALFORMED.search(str(w.message))] if m]
        return counts[0] if counts else 0

    keep = np.array([re.search(gen.EXCLUDE_REGEX, a) is None for a in stream.names])
    names, feats = ref.expected_ingest(stream, keep)

    def check(out_by_label):
        got = out_by_label[f"ingest {tag}"]
        return ref.check_ingest(got["panel"], names, feats, got["value"], spec.n_malformed)

    op = Op("ingest", f"ingest {tag}", run, stream.n_lines,
            lambda value: {"value": value, "panel": read(out)})
    return op, check, out, (names, feats)


# ---- stage: attribute -------------------------------------------------------


def attribute_cli_ops(ctx: Context, panel_path: str, expected, kinds=("var", "gini")):
    """`aspanel attribute --f <kind>` on the ingested panel, CSV per kind."""
    names, feats = expected
    n, T, _ = feats.shape
    null, dups = ref.null_and_duplicates(feats)
    ops, checks = [], []
    for kind in kinds:
        csv_path = ctx.out(f"attribute_{kind}.csv")
        argv = ["attribute", panel_path, "--f", kind, "--out", csv_path,
                "--out-dir", ctx.out("attribute_run")]
        label = f"attribute --f {kind}"
        ops.append(Op("attribute", label, lambda argv=argv: cli_call(ctx, argv), n * T,
                      lambda _, p=csv_path: {"csv": read(p), "summary": read(p + ".summary.json")}))

        def check(out, label=label, kind=kind):
            got = out[label]
            return ref.check_attribute_csv(label, kind, got["csv"], names, feats,
                                           json.loads(got["summary"]), (null, dups))
        checks.append(check)
    return ops, checks


def attribute_lib_op(ctx: Context, pdata: dict, kinds, baseline: str, K: int, tag: str):
    """Load a panel file and attribute it per step for each kind, with tier
    shares for every step; no per-row output."""
    asp = ctx.aspanel
    attribution, valuefn = asp.attribution, asp.valuefn
    feats = pdata["features"]
    n, T, D = feats.shape
    label = f"attribute {tag} {baseline}"

    def run():
        pn = asp.panel.FeaturePanel.load(pdata["path"])
        spec = attribution.BaselineSpec(baseline)
        out = {}
        for kind in kinds:
            res = attribution.attribute_temporal(valuefn.by_name(kind), pn, spec, K=K)
            shares = [
                attribution.tier_shares(attribution.normalize(attribution.AttributionResult(
                    res.phi[:, t], float(res.delta_v[t]), res.baseline, res.method)),
                    pdata["partition"])
                for t in range(T)
            ]
            out[kind] = (res.phi, res.delta_v, np.asarray(res.baseline), np.array(shares))
        return out

    plants = pdata["plants"]
    null = plants.zero if baseline == "zero" else plants.at_mean

    def check(out_by_label):
        errs = []
        for kind, (phi, dv, z0, shares) in out_by_label[label]["value"].items():
            z0_ref = (np.zeros(D) if baseline == "zero" else feats.reshape(-1, D).mean(axis=0))
            if not np.allclose(z0, z0_ref, rtol=1e-12, atol=0):
                errs.append(f"{label} {kind}: baseline {z0} != {z0_ref}")
            for t in range(T):
                lab = f"{label} {kind} step {t}"
                errs += ref.check_attribution(lab, kind, feats[:, t, :], z0_ref, phi[:, t], float(dv[t]),
                                              K=None if baseline == "zero" else K,
                                              plants=(null, (plants.dup_a, plants.dup_b)))
                errs += ref.check_tier_shares(lab, shares[t], phi[:, t], float(dv[t]), pdata["labels"])
        return errs

    return Op("attribute", label, run, n * T * len(kinds)), check


# ---- stage: study -----------------------------------------------------------


def study_ops(ctx: Context, panel_path: str, feats: np.ndarray, ids, s: dict, pool_size: int, tag: str):
    """`aspanel study` in flip mode and, once per protocol, in rescale mode."""
    seeds = list(range(s["seeds"]))
    z = ref.collapse(feats)
    labels = ref.tier_labels(z[:, 0], ids)
    common = [f"panel = {panel_path}", f"sizes = {' '.join(map(str, s['sizes']))}",
              f"seeds = {' '.join(map(str, seeds))}", f"pool_fraction = {POOL_FRACTION}",
              f"pool_size = {pool_size}"]
    runs = [("flip", s["flip_f"], s["flip_protocols"])]
    runs += [("rescale", s["rescale_f"], (p,)) for p in s["rescale_protocols"]]
    ops, checks = [], []
    for mode, fs, protocols in runs:
        name = f"{tag}_{mode}_{protocols[0] if mode == 'rescale' else 'all'}"
        cfg = ctx.path(name + ".cfg")
        with open(cfg, "w") as fh:
            fh.write("\n".join(common + [f"mode = {mode}", f"f = {' '.join(fs)}",
                                         f"protocols = {' '.join(protocols)}"]) + "\n")
        out_dir = ctx.out(name)
        files = [os.path.join(out_dir, f"{mode}_{f}.csv") for f in fs]
        units = len(fs) * len(protocols) * len(s["sizes"]) * len(seeds)
        label = f"study {name}"
        ops.append(Op("study", label, lambda cfg=cfg, d=out_dir: cli_call(ctx, ["study", cfg, "--out-dir", d]),
                      units, lambda _, files=files: {os.path.basename(p): read(p) for p in files}))

        def check(out, mode=mode, fs=fs, protocols=protocols, label=label):
            errs = []
            for f in fs:
                data = out[label][f"{mode}_{f}.csv"]
                if mode == "flip":
                    errs += ref.check_flip_csv(f"{label} {f}", f, data, z, labels, len(seeds))
                    continue
                p = protocols[0]
                subsets = None
                if f == "lin" or p == "bias_visibility":
                    subsets = {(n, sd): ref.draw_subset(z, p, n, sd, POOL_FRACTION, pool_size)
                               for n in s["sizes"] for sd in seeds}
                errs += ref.check_rescale_csv(f"{label} {f}", f, data, z, subsets)
            return errs
        checks.append(check)
    return ops, checks


# ---- stage: coalition -------------------------------------------------------


def coalition_ops(ctx: Context, z_pop: np.ndarray, s: dict, pool_size: int):
    """Coalition estimators on bias_visibility subsets of the population,
    exact enumeration at small n, an additive game, and `aspanel verify`."""
    asp = ctx.aspanel
    bl, vf = asp.baselines, asp.valuefn
    rng = np.random.default_rng([ctx.seed, 303])
    ops, checks = [], []
    expect = {}  # label -> check(value) -> list[str]

    def add(label, fn, units, check):
        ops.append(Op("coalition", label, fn, units))
        expect[label] = check

    for k, n in enumerate(s["sizes"]):
        z = z_pop[ref.draw_subset(z_pop, "bias_visibility", n, ctx.seed, POOL_FRACTION, pool_size)]
        heat_v, gini_v = ref.value("heat", z), ref.value("gini", z)
        m = s["shapley_heat_m"][k]
        add(f"sampled_shapley heat n={n}", lambda z=z, m=m: bl.sampled_shapley(bl.CoalitionGame(vf.heat(), z), m, 1),
            n * m, lambda r, v=heat_v, lab=f"shapley heat n={n}": ref.check_close(
                lab + " efficiency", r.values.sum(), v, 1e-9 * abs(v)))
        m = s["banzhaf_heat_m"][k]
        add(f"sampled_banzhaf heat n={n}", lambda z=z, m=m: bl.sampled_banzhaf(bl.CoalitionGame(vf.heat(), z), m, 2),
            n * m, lambda r, n=n, lab=f"banzhaf heat n={n}": [] if r.values.shape == (n,) and np.all(
                np.isfinite(r.values)) else [f"{lab}: bad estimate"])
        m = s["shapley_gini_m"][k]
        add(f"sampled_shapley gini n={n}", lambda z=z, m=m: bl.sampled_shapley(bl.CoalitionGame(vf.gini(), z), m, 3),
            n * m, lambda r, v=gini_v, lab=f"shapley gini n={n}": ref.check_close(
                lab + " efficiency", r.values.sum(), v, 1e-9 * abs(v)))
        loo_ref = heat_v - np.array([
            np.log1p(np.prod((z.sum(axis=0) - z[i]) / (n - 1))) for i in range(n)])
        add(f"loo heat n={n}", lambda z=z: bl.leave_one_out(bl.CoalitionGame(vf.heat(), z)), n,
            lambda r, want=loo_ref, lab=f"loo heat n={n}": ref.check_close(lab, r, want, 1e-12))

    ne = s["exact_n"]
    z = z_pop[ref.draw_subset(z_pop, "bias_visibility", ne, ctx.seed + 1, POOL_FRACTION, pool_size)]
    shap_ref, banz_ref = _exact_reference("gini", z)
    for kind in ("gini", "heat"):
        sref, bref = (shap_ref, banz_ref) if kind == "gini" else _exact_reference("heat", z)
        add(f"exact_shapley {kind} n={ne}", lambda z=z, kind=kind: bl.exact_shapley(
            bl.CoalitionGame(vf.by_name(kind), z)), ne * 2 ** (ne - 1),
            lambda r, w=sref, lab=f"exact_shapley {kind}": ref.check_close(lab, r, w, 1e-12))
        add(f"exact_banzhaf {kind} n={ne}", lambda z=z, kind=kind: bl.exact_banzhaf(
            bl.CoalitionGame(vf.by_name(kind), z)), ne * 2 ** (ne - 1),
            lambda r, w=bref, lab=f"exact_banzhaf {kind}": ref.check_close(lab, r, w, 1e-12))

    # an additive game: every estimator must return each agent's own term
    na, ma = s["sizes"][0], s["additive_m"]
    W = rng.random((na, 3))
    za = z_pop[:na]
    own = (W * za).sum(axis=1)
    tol = 1e-9 * float(np.abs(own).max())
    add(f"sampled_shapley additive n={na}", lambda: bl.sampled_shapley(bl.CoalitionGame(vf.additive(W), za), ma, 4),
        na * ma, lambda r: ref.check_close("shapley additive", r.values, own, tol))
    add(f"sampled_banzhaf additive n={na}", lambda: bl.sampled_banzhaf(bl.CoalitionGame(vf.additive(W), za), ma, 5),
        na * ma, lambda r: ref.check_close("banzhaf additive", r.values, own, tol))
    add(f"exact_banzhaf additive n={ne}", lambda: bl.exact_banzhaf(bl.CoalitionGame(vf.additive(W[:ne]), za[:ne])),
        ne * 2 ** (ne - 1), lambda r: ref.check_close("exact banzhaf additive", r, own[:ne], tol))

    verify_dir = ctx.out("verify_run")
    ops.append(Op("coalition", "verify", lambda: cli_call(ctx, ["verify", "--out-dir", verify_dir]), 3 * 2 ** 2,
                  lambda _: {"report": read(os.path.join(verify_dir, "verify.json"))}))
    expect["verify"] = None

    def check(out):
        errs = ref.check_verify(json.loads(out["verify"]["report"]))
        for label, fn in expect.items():
            if fn is not None:
                errs += fn(out[label]["value"])
        return errs

    return ops, [check]


def _exact_reference(kind: str, z: np.ndarray):
    """Exact Shapley and Banzhaf by enumerating every coalition, with the
    coalition's value taken on the restricted configuration."""
    n = len(z)
    vals = np.zeros(1 << n)
    members = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    for mask in range(1, 1 << n):
        vals[mask] = ref.value(kind, z[members[mask].astype(bool)])
    size = members.sum(axis=1)
    fact = [1.0]
    for k in range(1, n + 1):
        fact.append(fact[-1] * k)
    shap, banz = np.zeros(n), np.zeros(n)
    for i in range(n):
        without = np.flatnonzero(members[:, i] == 0)
        diff = vals[without | (1 << i)] - vals[without]
        w = np.array([fact[s] * fact[n - s - 1] / fact[n] for s in size[without]])
        shap[i] = float(np.sum(w * diff))
        banz[i] = float(diff.mean())
    return shap, banz


# ---- workloads --------------------------------------------------------------


def setup(name: str, ctx: Context) -> dict:
    """The part of set-up done with aspanel: panels and their tiers."""
    s = sizes_for(name, ctx.toy)
    made = {}
    if name == "full_scale":
        made["full"] = make_panel(ctx, *s["full_panel"], "full.asp", 1)
        made["path"] = make_panel(ctx, *s["path_panel"], "path.asp", 2)
    elif name == "small_panel":
        made["population"] = make_panel(ctx, *s["population"], "population.asp", 3)
    return made


def build(name: str, ctx: Context, made: dict) -> Workload:
    """Generate the benchmark's own inputs and assemble the round."""
    s = sizes_for(name, ctx.toy)
    wl = Workload(ctx)
    op, check, ingested, expected = ingest_ops(ctx, s["events"], "events")
    wl.ops.append(op)
    wl.checks.append(check)
    if name == "event_pipeline":
        ops, checks = attribute_cli_ops(ctx, ingested, expected)
        study_panel = (ingested, expected[1], expected[0])
    elif name == "full_scale":
        op_full, ck_full = attribute_lib_op(ctx, made["full"], ("lin", "heat", "var", "gini"), "zero", 30, "full")
        op_path, ck_path = attribute_lib_op(ctx, made["path"], ("heat", "var", "gini"), "population_mean", 30, "path")
        ops, checks = [op_full, op_path], [ck_full, ck_path]
        p = made["path"]
        study_panel = (p["path"], p["features"], p["ids"])
    else:
        p = made["population"]
        op_pop, ck_pop = attribute_lib_op(ctx, p, ("lin", "heat", "var", "gini"), "zero", 30, "population")
        op_mid, ck_mid = attribute_lib_op(ctx, p, ("heat", "var", "gini"), "population_mean", 30, "population")
        ops, checks = [op_pop, op_mid], [ck_pop, ck_mid]
        study_panel = (p["path"], p["features"], p["ids"])
    wl.ops += ops
    wl.checks += checks
    ops, checks = study_ops(ctx, *study_panel, s["study"], s["pool_size"], "study")
    wl.ops += ops
    wl.checks += checks
    ops, checks = coalition_ops(ctx, ref.collapse(study_panel[1]), s["coalition"], s["pool_size"])
    wl.ops += ops
    wl.checks += checks
    return wl


def measure(wl: Workload, seconds: float):
    """Run whole rounds until the next one would end past `seconds` of
    measured time; at least one round.  Round 0's outputs are kept, later
    rounds are compared with it by digest."""
    rounds, outputs, failures, first = [], {}, [], None
    mismatched = set()
    while True:
        times, digests, out, fail = run_round(wl, keep_outputs=not rounds)
        rounds.append(times)
        failures += fail
        if first is None:
            first, outputs = digests, out
        mismatched |= {op.label for op, a, b in zip(wl.ops, first, digests)
                       if a is not None and b is not None and a != b}
        totals = [sum(t) for t in rounds]
        if sum(totals) + statistics.median(totals) > seconds:
            return rounds, outputs, failures, mismatched


def run_round(wl: Workload, keep_outputs: bool):
    """Run every operation once.  Returns per-op seconds, digests, outputs
    (when kept) and failures."""
    times, digests, outputs, failures = [], [], {}, []
    wl.ctx.clear_outputs()
    for op in wl.ops:
        t0 = time.perf_counter()
        try:
            value = op.run()
        except Exception as exc:  # one failed operation must not stop the round
            times.append(time.perf_counter() - t0)
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            digests.append(None)
            continue
        times.append(time.perf_counter() - t0)
        out = op.collect(value)
        digests.append(_digest(out))
        if keep_outputs:
            outputs[op.label] = out
    return times, digests, outputs, failures


def _digest(out: dict) -> str:
    """Hash of an operation's outputs; files by their bytes, arrays by value."""
    parts = []

    def walk(x):
        if isinstance(x, bytes):
            parts.append(x)
        elif isinstance(x, np.ndarray):
            parts.append(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, dict):
            for k in sorted(x):
                parts.append(str(k).encode())
                walk(x[k])
        elif isinstance(x, (list, tuple)):
            for v in x:
                walk(v)
        elif hasattr(x, "values") and hasattr(x, "stderr"):  # SampledEstimate
            walk((x.values, x.stderr))
        else:
            parts.append(repr(x).encode())
    walk(out)
    return ref.sha256(b"\0".join(parts))
