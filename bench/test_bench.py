"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import GRID_STEPS, WORKLOADS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# --- simulate check ---------------------------------------------------------

def _sim_rows(workload: str, trials: int) -> tuple[list[dict], dict]:
    """Rows at exactly the reference frequencies, as the CLI would print them."""
    ref = checks.sim_reference(workload)
    rows = []
    for p in ref["points"]:
        cj, c1, c2 = (round(trials * p[k] / ref["trials"]) for k in
                      ("count_joint", "count1", "count2"))
        rows.append({
            "n": str(p["n"]), "kind1": p["kind1"], "kind2": p["kind2"],
            "m1": str(p["m1"]), "m2": str(p["m2"]), "trials": str(trials),
            "count_joint": str(cj), "count1": str(c1), "count2": str(c2),
            "jep_hat": repr(cj / trials), "sep1_hat": repr(c1 / trials),
            "sep2_hat": repr(c2 / trials), "partial": "false",
        })
    return rows, ref


@pytest.mark.parametrize("workload", ["sim-direct", "sim-radial"])
def test_simulate_check_accepts_reference_frequencies(workload):
    trials = WORKLOADS[workload].trials
    rows, ref = _sim_rows(workload, trials)
    assert checks.check_simulate(rows, ref, trials) == [True] * len(ref["points"])


def _corrupt(rows, **cells):
    bad = copy.deepcopy(rows)
    bad[0].update(cells)
    return bad


def test_simulate_check_rejects_corrupted_reports():
    trials = WORKLOADS["sim-direct"].trials
    rows, ref = _sim_rows("sim-direct", trials)
    cj = int(rows[0]["count_joint"])
    c1, c2 = int(rows[0]["count1"]), int(rows[0]["count2"])
    corruptions = [
        # counting identity: joint below the larger marginal
        _corrupt(rows, count_joint=str(max(c1, c2) - 1),
                 jep_hat=repr((max(c1, c2) - 1) / trials)),
        # joint count far from the reference frequency (every trial an excess)
        _corrupt(rows, count_joint=str(trials), count1=str(trials), count2=str(trials),
                 jep_hat="1", sep1_hat="1", sep2_hat="1"),
        # no excess ever reported: passes the counting identity and the hats
        _corrupt(rows, count_joint="0", count1="0", count2="0",
                 jep_hat="0.0", sep1_hat="0.0", sep2_hat="0.0"),
        # layer 1 lost: no layer-1 excess, so the joint count is layer 2's
        _corrupt(rows, count1="0", count_joint=str(c2), sep1_hat="0.0",
                 jep_hat=repr(c2 / trials)),
        # estimate column disagrees with its count
        _corrupt(rows, jep_hat=repr(cj / trials + 0.05)),
        # another code size than the reference point
        _corrupt(rows, m1="8481"),
        _corrupt(rows, partial="true"),
        _corrupt(rows, trials=str(trials - 1)),
        _corrupt(rows, count1="x"),
    ]
    for bad in corruptions:
        verdicts = checks.check_simulate(bad, ref, trials)
        assert verdicts[0] is False and all(verdicts[1:]), bad[0]
    assert checks.check_simulate(rows[:-1], ref, trials)[-1] is False
    assert not any(checks.check_simulate(rows + rows[:1], ref, trials))


@pytest.mark.parametrize("workload", ["sim-direct", "sim-radial"])
def test_pooled_check_rejects_a_shift_that_single_reps_pass(workload):
    """Ten reps whose counts are all 35% low each pass the per-rep bound;
    their pooled counts do not."""
    trials = WORKLOADS[workload].trials
    rows, ref = _sim_rows(workload, trials)
    assert checks.check_simulate_pooled([rows] * 10, ref)
    low = copy.deepcopy(rows)
    for r in low:
        for count, hat in (("count_joint", "jep_hat"), ("count1", "sep1_hat"),
                           ("count2", "sep2_hat")):
            k = round(0.65 * int(r[count]))
            r[count], r[hat] = str(k), repr(k / trials)
        cj, c1, c2 = (int(r[c]) for c in ("count_joint", "count1", "count2"))
        assert max(c1, c2) <= cj <= c1 + c2
    assert all(checks.check_simulate(low, ref, trials))
    assert not checks.check_simulate_pooled([low] * 10, ref)


# --- grid check -------------------------------------------------------------

@pytest.mark.parametrize("workload", ["grid-gaussian", "grid-discrete"])
def test_grid_check_accepts_the_reference_subgrid(workload):
    ref = checks.grid_reference(workload)
    assert len(ref) == GRID_STEPS * GRID_STEPS
    rows_idx, cols_idx = WORKLOADS[workload].grid_cells()
    rows = [dict(ref[i * GRID_STEPS + j]) for i in rows_idx for j in cols_idx]
    # the CLI marks zero edges within the subgrid it was given
    jep = {(a, b): float(ref[i * GRID_STEPS + j]["jep_exponent"])
           for a, i in enumerate(rows_idx) for b, j in enumerate(cols_idx)}
    for k, r in enumerate(rows):
        edge = checks._zero_edge(jep, *divmod(k, len(cols_idx)))
        r["zero_edge"] = "true" if edge else "false"
    assert all(checks.check_grid(rows, ref, rows_idx, cols_idx))


def test_grid_check_rejects_corrupted_reports():
    ref = checks.grid_reference("grid-gaussian")
    full = list(range(GRID_STEPS))
    rows = [dict(r) for r in ref]
    positive = next(k for k, r in enumerate(rows) if float(r["jep_exponent"]) > 0.01)
    value = float(rows[positive]["jep_exponent"])
    corruptions = {
        "value": {"jep_exponent": repr(value * (1 + 1e-6))},
        "flag": {"jep_positive": "false"},
        "case": {"l1_case": "ii" if rows[positive]["l1_case"] != "ii" else "i"},
        "edge": {"zero_edge": "true" if rows[positive]["zero_edge"] == "false" else "false"},
        "nan": {"sep_e1": "nan"},
    }
    for what, cells in corruptions.items():
        bad = [dict(r) for r in rows]
        bad[positive].update(cells)
        verdicts = checks.check_grid(bad, ref, full, full)
        assert verdicts.count(False) == 1 and not verdicts[positive], what
    # a value within the stated tolerance passes
    ok = [dict(r) for r in rows]
    ok[positive]["jep_exponent"] = repr(value * (1 + 1e-10))
    assert all(checks.check_grid(ok, ref, full, full))
    assert checks.check_grid(rows[:-5], ref, full, full).count(False) == 5
    assert not any(checks.check_grid(rows + rows[:1], ref, full, full))
    missing = [{k: v for k, v in r.items() if k != "region"} for r in rows]
    assert not any(checks.check_grid(missing, ref, full, full))


# --- tracer -----------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    # parent [0, 100]; children on two threads overlap on [20, 40]
    spans = np.array([
        [1, 0, 0, 0, 100],
        [2, 1, 1, 10, 40],
        [3, 1, 1, 20, 60],
        [4, 2, 2, 15, 25],
    ], dtype=np.int64)
    out = tracer.summarize(spans)
    a, b, c = tracer.SPAN_NAMES[:3]
    assert out[a]["self_s"] * 1e9 == pytest.approx(100 - 50)
    assert out[b]["self_s"] * 1e9 == pytest.approx((30 - 10) + 40)
    assert out[b]["calls"] == 2 and out[c]["calls"] == 1
    assert out[a]["total_s"] * 1e9 == pytest.approx(100)


def test_tracer_parents_worker_spans_under_the_main_thread_span():
    t = tracer.Tracer()
    inner = t.wrap(1, lambda: time.sleep(0.01))

    def outer():
        th = [threading.Thread(target=inner) for _ in range(3)]
        for x in th:
            x.start()
        for x in th:
            x.join(timeout=10)
        assert not any(x.is_alive() for x in th)
        inner()

    t.wrap(0, outer)()
    spans = np.array([s for st in t._threads for s in st["spans"]], dtype=np.int64)
    root = spans[spans[:, 2] == 0]
    kids = spans[spans[:, 2] == 1]
    assert len(root) == 1 and len(kids) == 4
    assert set(kids[:, 1]) == {root[0, 0]}
    out = tracer.summarize(spans)
    # the three worker sleeps overlap, so the parent's self time is well
    # above total - sum(children)
    name = tracer.SPAN_NAMES[0]
    assert out[name]["self_s"] > out[name]["total_s"] - out[tracer.SPAN_NAMES[1]]["total_s"]


def test_install_patches_every_binding_site():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import srgauss.cli  # noqa: F401

    saved = {name: dict(vars(m)) for name, m in sys.modules.items()
             if name == "srgauss" or name.startswith("srgauss.")}
    spec = sys.modules["srgauss.sources"].SourceSpec
    methods = {k: vars(spec)[k] for k in ("sample", "log_mgf_x2")}
    try:
        tracer.Tracer().install()
        mc = sys.modules["srgauss.montecarlo"]
        for mod, attr in [("srgauss.montecarlo", "run_trial"), ("srgauss.montecarlo", "gen_codebook"),
                          ("srgauss.asymptotics", "rate_function_x2"),
                          ("srgauss.asymptotics", "invert_iid_exponent"),
                          ("srgauss.asymptotics", "iid_nonexcess_exponent"),
                          ("srgauss.cli", "estimate"), ("srgauss.cli", "jep_exponent"),
                          ("srgauss.cli", "sep_exponents"), ("srgauss", "run_trial"),
                          ("srgauss.core", "iid_nonexcess_exponent")]:
            assert hasattr(getattr(sys.modules[mod], attr), "__wrapped__"), (mod, attr)
        assert hasattr(spec.sample, "__wrapped__") and hasattr(spec.log_mgf_x2, "__wrapped__")
        assert not hasattr(mc._radial_trial, "__wrapped__")
    finally:
        for name, d in saved.items():
            vars(sys.modules[name]).update(d)
        for k, v in methods.items():
            setattr(spec, k, v)


def test_traced_counts_repeat_and_match_the_inputs(tmp_path):
    """Two traced CLI processes on one input give identical counts, and the
    computed counts follow from (m, n, dtype)."""
    ini = tmp_path / "sim.ini"
    ini.write_text(WORKLOADS["sim-direct"].config.format(trials=2), encoding="utf-8")
    sigs = []
    for k in range(2):
        spans = str(tmp_path / f"spans{k}.npy")
        result = str(tmp_path / f"result{k}.json")
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "bench", "child.py"), repr(time.monotonic()),
             result, spans, "simulate", "--config", str(ini), "--seed", "5",
             "--out", str(tmp_path / "out.csv")],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        with open(result, encoding="utf-8") as fh:
            assert json.load(fh)["rc"] == 0
        layers = tracer.summarize(np.load(spans))
        with open(spans + ".counts.json", encoding="utf-8") as fh:
            counts = json.load(fh)
        sigs.append(run._count_signature(types.SimpleNamespace(layers=layers, counts=counts)))
    assert sigs[0] == sigs[1]
    calls, counts = sigs[0]["calls"], sigs[0]["counts"]
    assert calls["codec.run_trial"] == 8 and calls["codec.gen_codebook"] == 16
    # layer 1: 8 trials x 8480 x 24; layer 2: 2 trials per combo of M2 in
    # {2046, 1335, 2046, 1335}, all float32
    draws = 8 * 8480 * 24 + 2 * 24 * (2046 + 1335 + 2046 + 1335)
    assert counts["codec.gen_codebook"]["draws"] == draws
    assert counts["codec.gen_codebook"]["bytes_computed"] == 4 * draws
    assert counts["codec.encode_layer"]["madds"] == draws


def test_benchmark_json_lists_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
