"""Toy-size runs of every workload, the output schema, and the checks.

    python3 -m pytest benchmark/test_benchmark.py -q

Each reference check must pass on the real outputs and fail on one
deliberately corrupted copy of them.  No timing is asserted.
"""

import copy
import json
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import aspanel  # noqa: E402
import aspanel.cli  # noqa: E402,F401
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "benchmark", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_run_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float)) and np.isfinite(v["value"])
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_overhead_alternates_traced_rounds():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "overhead.py"), "--workload", "full_scale",
                           "--seed", "3", "--pairs", "2", "--toy"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[2] for line in proc.stderr.splitlines()] == ["traced=0", "traced=1", "traced=1", "traced=0"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["untraced_s"] > 0 and result["traced_s"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench("--workload", "small_panel", "--seed", "1", "--seconds", "1", "--toy",
                     cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---- the checks, on real and on corrupted outputs ------------------------------


@pytest.fixture(scope="module", params=[w["name"] for w in SPEC["workloads"]])
def toy_round(request, tmp_path_factory):
    ctx = workloads.Context(aspanel, str(tmp_path_factory.mktemp(request.param)), 5, toy=True)
    made = workloads.setup(request.param, ctx)
    wl = workloads.build(request.param, ctx, made)
    times, digests, outputs, failures = workloads.run_round(wl, keep_outputs=True)
    assert failures == []
    return request.param, wl, outputs, made


def errors_of(wl, outputs):
    errs = []
    for check in wl.checks:
        errs += check(outputs)
    return errs


def test_checks_pass_on_real_outputs(toy_round):
    _, wl, outputs, _ = toy_round
    assert errors_of(wl, outputs) == []


def _set_panel_cell(data: bytes, k: int, delta: float) -> bytes:
    off = 28 + 8 * k
    (v,) = struct.unpack("<d", data[off:off + 8])
    return data[:off] + struct.pack("<d", v + delta) + data[off + 8:]


def _csv_edit(data: bytes, fn) -> bytes:
    lines = data.decode().splitlines()
    return ("\n".join(fn(lines)) + "\n").encode()


def _csv_field(data: bytes, row: int, col: int, fn) -> bytes:
    """Replace one numeric CSV field by fn(field)."""
    def edit(lines):
        cells = lines[row].split(",")
        cells[col] = repr(fn(float(cells[col])))
        return lines[:row] + [",".join(cells)] + lines[row + 1:]
    return _csv_edit(data, edit)


def _scale_phi_step0(lines):
    out = [lines[0]]
    for line in lines[1:]:
        aid, step, phi, norm = line.split(",")
        if step == "0":
            phi = repr(float(phi) * 1.01)
        out.append(",".join([aid, step, phi, norm]))
    return out


def _first_label(outputs, prefix):
    return next(k for k in outputs if k.startswith(prefix))


def _bump_first(arr, delta):
    arr.flat[0] += delta


def corruptions(name, outputs, made):
    """(description, function mutating a copy of the outputs) pairs."""
    ing = "ingest events"
    flip = _first_label(outputs, "study study_flip")
    flip_csv = sorted(outputs[flip])[0]
    resc = "study study_rescale_bias_visibility"

    def verify_share(o):
        report = json.loads(o["verify"]["report"])
        report["shares_full"][2] += 1e-3
        o["verify"]["report"] = json.dumps(report).encode()

    cases = [
        ("ingest panel cell", lambda o: o[ing].update(panel=_set_panel_cell(o[ing]["panel"], 5, 1.0))),
        ("ingest malformed count", lambda o: o[ing].update(value=o[ing]["value"] + 1)),
        ("flip full-row share", lambda o: o[flip].update(
            {flip_csv: _csv_field(o[flip][flip_csv], 1, 4, lambda v: v + 1e-3)})),
        ("rescale lin c*", lambda o: o[resc].update(
            {"rescale_lin.csv": _csv_field(o[resc]["rescale_lin.csv"], 1, 3, lambda v: v * 1.01)})),
        ("verify constants", verify_share),
    ]
    if name == "event_pipeline":
        cases += [
            ("attribute CSV drops a row", lambda o: o["attribute --f var"].update(
                csv=_csv_edit(o["attribute --f var"]["csv"], lambda ls: ls[:-1]))),
            ("attribute CSV phi x 1.01", lambda o: o["attribute --f gini"].update(
                csv=_csv_edit(o["attribute --f gini"]["csv"], _scale_phi_step0))),
        ]
    else:
        lab = _first_label(outputs, "attribute ")
        plants = made["full" if name == "full_scale" else "population"]["plants"]

        def var_result(o):
            phi, dv, z0, shares = o[lab]["value"]["var"]
            return phi, shares

        def null_agent(o):
            phi, _ = var_result(o)
            phi[plants.zero[0], 0] = 1e-3 * np.abs(phi).max()

        def duplicate(o):
            phi, _ = var_result(o)
            phi[plants.dup_b[0], 0] = phi[plants.dup_a[0], 0] * (1 + 1e-9) + 1e-12

        cases += [
            ("library phi x 1.01", lambda o: var_result(o)[0].__imul__(1.01)),
            ("library null agent", null_agent),
            ("library duplicate agent", duplicate),
            ("library tier share", lambda o: _bump_first(var_result(o)[1], 1e-6)),
        ]
    shap = _first_label(outputs, "sampled_shapley heat")
    cases += [
        ("sampled Shapley efficiency", lambda o: o[shap]["value"].values.__imul__(1.01)),
        ("leave-one-out value", lambda o: _bump_first(o[_first_label(o, "loo heat")]["value"], 1e-6)),
        ("exact Shapley value", lambda o: _bump_first(o[_first_label(o, "exact_shapley gini")]["value"], 1e-9)),
        ("exact Banzhaf value", lambda o: _bump_first(o[_first_label(o, "exact_banzhaf gini")]["value"], 1e-9)),
        ("sampled Banzhaf on additive", lambda o: _bump_first(
            o[_first_label(o, "sampled_banzhaf additive")]["value"].values, 1e-6)),
    ]
    return cases


def test_every_check_catches_a_corruption(toy_round):
    name, wl, outputs, made = toy_round
    missed = []
    for desc, corrupt in corruptions(name, outputs, made):
        bad = copy.deepcopy(outputs)
        corrupt(bad)
        if not errors_of(wl, bad):
            missed.append(desc)
    assert missed == []


def test_digest_tells_outputs_apart():
    a = {"csv": b"agent_id,step\n", "value": np.arange(3.0)}
    b = {"csv": b"agent_id,step\n", "value": np.arange(3.0) * 1.01}
    assert workloads._digest(a) == workloads._digest(copy.deepcopy(a))
    assert workloads._digest(a) != workloads._digest(b)
