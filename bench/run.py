"""Benchmark of the ``srgauss`` CLI: four seeded workloads, each rep in a
fresh process, end-to-end metrics untraced and per-layer metrics traced.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` a run launches the CLI
repeatedly for about S seconds and reports, as medians over its reps:

    items_per_s   trials (simulate) or grid points (exponent-grid) per
                  reference second of CLI wall time after set-up
    setup_s       process launch until ``srgauss.cli`` is imported, in
                  reference seconds
    peak_rss_mb   peak resident set size of the CLI process

Both times are speed-adjusted into reference seconds: scaled by
CAL_REF_S / cal_s, where cal_s is a fixed calibration kernel timed in the
same process around the CLI call, so that drift in the shared machine's
speed cancels (README.md).  The unadjusted medians print on a ``raw`` line.

With ``--trace 1`` it alternates untraced and traced reps on identical
inputs and reports per-function calls, self time and latency percentiles,
the computed work counts, the tracing overhead, and the untraced reps'
unadjusted ``raw.*`` times (see README.md).

Every report row is checked (checks.py); a row that fails its check, or
belongs to a CLI call that exited non-zero, counts as failed.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from checks import (check_grid, check_simulate, check_simulate_pooled, grid_reference, parse_csv,
                    sim_reference)
from tracer import SPAN_NAMES, summarize
from workloads import WORKERS, WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

MIN_REPS = 3  # untraced reps per run, at least
MIN_TRACED = 2  # traced reps per run, at least; their counts must agree
REP_TIMEOUT_S = 120

# The calibration kernel's typical duration (child.calibrate) on the machine
# the benchmark was defined on: a 2-core Intel Xeon (family 6, model 143)
# KVM guest, Python 3.11.7, numpy 2.4.6.  Times are reported in seconds of
# that machine: measured time * CAL_REF_S / cal_s of the same rep.
CAL_REF_S = 0.1

END_TO_END = {"items_per_s": "items/ref-s", "setup_s": "s", "peak_rss_mb": "MB"}
# The untraced reps' unadjusted medians, reported with --trace 1.
RAW = {"raw.items_per_s": "items/s", "raw.setup_s": "s", "raw.cal_s": "s"}

# Per-layer statistics reported for each traced function.
LAYER_STATS = {
    "codec.gen_codebook": ("calls", "self_s", "draws", "bytes_computed"),
    "codec.encode_layer": ("calls", "self_s", "madds", "bytes_computed"),
    "codec.run_trial": ("calls", "self_s", "p50_us", "p99_us"),
    "montecarlo.estimate": ("calls", "self_s"),
    "montecarlo.trial_stream": ("calls", "self_s"),
    "sources.sample": ("calls", "self_s"),
    "sources.log_mgf_x2": ("calls", "self_s"),
    "core.rate_function_x2": ("calls", "self_s"),
    "core.invert_iid_exponent": ("calls", "self_s"),
    "core.iid_nonexcess_exponent": ("calls", "self_s"),
    "asymptotics.jep_exponent": ("calls", "self_s", "p50_us", "p99_us"),
    "asymptotics.jep_exponent_lambda1": ("calls", "self_s"),
    "asymptotics.sep_exponents": ("calls", "self_s", "p50_us", "p99_us"),
    "asymptotics.region_contains": ("calls", "self_s"),
    "asymptotics.second_order_plan": ("calls", "self_s"),
    "cli.main": ("self_s",),
    "report.write": ("self_s", "bytes"),
}
COUNTS = ("calls", "draws", "madds", "bytes_computed", "bytes")
UNITS = {"calls": "count", "draws": "count", "madds": "count", "bytes_computed": "B",
         "bytes": "B", "self_s": "s", "p50_us": "us", "p99_us": "us"}


def per_layer_units() -> dict[str, str]:
    """Every --trace 1 metric name with its unit, in report order."""
    units = {}
    for fn, stats in LAYER_STATS.items():
        for stat in stats:
            units[f"{fn}.{stat}"] = UNITS[stat]
            if stat in COUNTS:
                units[f"{fn}.{stat}_per_item"] = UNITS[stat] + "/item"
    units["trace.coverage"] = "ratio"
    units["trace.overhead"] = "ratio"
    units.update(RAW)
    return units


@dataclass
class Rep:
    rc: int | None
    input_index: int = 0  # the rep index its inputs were made from
    setup_s: float = 0.0
    main_s: float = 0.0
    cal_s: float = 0.0
    peak_rss_mb: float = 0.0
    items: int = 0
    attempted: int = 0
    failed: int = 0
    rows: list = field(default_factory=list)  # simulate report rows
    layers: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.rc == 0

    @property
    def scale(self) -> float:
        """Reference seconds per measured second at the time of this rep."""
        return CAL_REF_S / self.cal_s


def _launch(work: str, cli_args: list[str], spans: str | None = None) -> tuple[dict | None, str]:
    result = os.path.join(work, "result.json")
    if os.path.exists(result):
        os.remove(result)
    launch = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, repr(launch), result, spans or "-"] + cli_args,
            cwd=ROOT, capture_output=True, text=True, timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # the child has been killed and reaped
        return None, f"no exit within {REP_TIMEOUT_S} s\n"
    if proc.returncode != 0 or not os.path.exists(result):
        return None, proc.stderr
    with open(result, encoding="utf-8") as fh:
        return json.load(fh), proc.stderr


def run_rep(wl: Workload, seed: int, rep: int, work: str, trace: bool) -> Rep:
    config, args = wl.rep_inputs(seed, rep)
    cfg = os.path.join(work, "rep.ini")
    out = os.path.join(work, "report.csv")
    spans = os.path.join(work, "spans.npy") if trace else None
    for path in (out, spans):
        if path and os.path.exists(path):
            os.remove(path)
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(config)
    res, stderr = _launch(work, [wl.command, "--config", cfg, "--out", out] + args, spans)

    if wl.command == "simulate":
        reference = sim_reference(wl.name)
        expected = len(reference["points"])
    else:
        r1_rows, r2_cols = wl.grid_cells()
        expected = len(r1_rows) * len(r2_cols)
    rc = None if res is None else res["rc"]
    if rc != 0 or not os.path.exists(out):
        sys.stderr.write(f"{wl.name} rep {rep}: CLI exit {rc}\n{stderr}")
        return Rep(rc=rc if rc is not None else -1, input_index=rep,
                   attempted=expected, failed=expected)

    with open(out, encoding="utf-8") as fh:
        rows = parse_csv(fh.read())
    if wl.command == "simulate":
        verdicts = check_simulate(rows, reference, wl.trials)
        items = wl.trials * len(rows)
    else:
        verdicts = check_grid(rows, grid_reference(wl.name), r1_rows, r2_cols)
        items = len(rows)
    failed = verdicts.count(False)
    if failed:
        sys.stderr.write(f"{wl.name} rep {rep}: {failed} of {len(verdicts)} rows fail the check\n")
    r = Rep(rc=0, input_index=rep, setup_s=res["setup_s"], main_s=res["main_s"],
            cal_s=res["cal_s"], peak_rss_mb=res["peak_rss_mb"], items=items,
            attempted=len(verdicts), failed=failed,
            rows=rows if wl.command == "simulate" else [])
    if trace:
        r.layers = summarize(np.load(spans))
        with open(spans + ".counts.json", encoding="utf-8") as fh:
            r.counts = json.load(fh)
    return r


def run_record(wl: Workload, seed: int, seconds: int, trace: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for idx in sorted(os.listdir(base)):
            try:
                with open(os.path.join(base, idx, "level")) as a, \
                        open(os.path.join(base, idx, "type")) as b, \
                        open(os.path.join(base, idx, "size")) as c:
                    caches[f"L{a.read().strip()} {b.read().strip()}"] = c.read().strip()
            except OSError:
                continue
    return {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workers": WORKERS,
        "workers_why": "a second worker thread would compete with other tenants and "
                       "with the benchmark's parent process for the second core",
        "item": wl.item,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def _median(xs: list[float]) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def end_to_end(reps: list[Rep]) -> tuple[dict[str, float], dict[str, float]]:
    """Speed-adjusted metrics for the JSON, and their raw counterparts."""
    ok = [r for r in reps if r.ok and r.items]
    adjusted = {
        "items_per_s": _median([r.items / (r.main_s * r.scale) for r in ok]),
        "setup_s": _median([r.setup_s * r.scale for r in ok]),
        "peak_rss_mb": _median([r.peak_rss_mb for r in ok]),
    }
    raw = {
        "items_per_s": _median([r.items / r.main_s for r in ok]),
        "setup_s": _median([r.setup_s for r in ok]),
        "cal_s": _median([r.cal_s for r in ok]),
    }
    return adjusted, raw


def _count_signature(rep: Rep) -> dict:
    calls = {name: rep.layers[name]["calls"] for name in SPAN_NAMES}
    return {"calls": calls, "counts": rep.counts}


def per_layer(untraced: list[Rep], traced: list[Rep]) -> tuple[dict[str, float], bool]:
    """Per-layer metrics and whether every count repeated exactly."""
    good = [r for r in traced if r.ok and r.layers]
    if not good:
        return {name: 0.0 for name in per_layer_units()}, False
    repeat = all(_count_signature(r) == _count_signature(good[0]) for r in good)
    first = good[0]
    items = first.items or 1
    out = {}
    for fn, stats in LAYER_STATS.items():
        for stat in stats:
            if stat == "calls":
                value = first.layers[fn]["calls"]
            elif stat in COUNTS:
                value = first.counts.get(fn, {}).get(stat, 0)
            else:
                value = _median([r.layers[fn][stat] for r in good])
            out[f"{fn}.{stat}"] = value
            if stat in COUNTS:
                out[f"{fn}.{stat}_per_item"] = value / items
    main = [r.layers["cli.main"] for r in good]
    out["trace.coverage"] = _median([1.0 - m["self_s"] / m["total_s"] for m in main])
    plain = [r.main_s * r.scale for r in untraced if r.ok]
    out["trace.overhead"] = (
        _median([r.main_s * r.scale for r in good]) / _median(plain) - 1.0 if plain else 0.0
    )
    _, raw = end_to_end(untraced)
    out.update({f"raw.{name}": raw[name] for name in ("items_per_s", "setup_s", "cal_s")})
    return out, repeat


def run_workload(wl: Workload, seed: int, seconds: int, trace: bool, work: str) -> dict:
    _launch(work, [])  # warm-up: fills the bytecode cache, not timed
    start = time.monotonic()
    untraced: list[Rep] = []
    traced: list[Rep] = []
    while True:
        if trace:
            # identical inputs (rep 0) on every rep, so counts must repeat
            untraced.append(run_rep(wl, seed, 0, work, trace=False))
            traced.append(run_rep(wl, seed, 0, work, trace=True))
            done = len(traced) >= MIN_TRACED
        else:
            untraced.append(run_rep(wl, seed, len(untraced), work, trace=False))
            done = len(untraced) >= MIN_REPS
        for kind, r in (("untraced", untraced[-1]), ("traced", traced[-1] if trace else None)):
            if r is not None and r.ok:
                print(f"{wl.name} rep {kind} items={r.items} main_s={r.main_s:.4f} "
                      f"setup_s={r.setup_s:.4f} cal_s={r.cal_s:.4f}")
        elapsed = time.monotonic() - start
        per_iter = elapsed / max(len(untraced), 1)
        if done and elapsed + per_iter > seconds:
            break
    reps = untraced + traced
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    if wl.command == "simulate":
        # each distinct input once: traced runs repeat rep 0's input
        distinct = {r.input_index: r.rows for r in reps if r.ok and not r.failed}
        if distinct and not check_simulate_pooled(list(distinct.values()),
                                                  sim_reference(wl.name)):
            sys.stderr.write(f"{wl.name}: counts pooled over {len(distinct)} inputs fail "
                             "the count bound; every row of the run counts as failed\n")
            failed = attempted
    correct = failed == 0
    if trace:
        metrics, repeat = per_layer(untraced, traced)
        units = per_layer_units()
        if not repeat:
            sys.stderr.write(f"{wl.name}: counts differ between traced reps of one input\n")
            correct = False
    else:
        metrics, raw = end_to_end(untraced)
        units = END_TO_END
        print(f"{wl.name} raw items_per_s {raw['items_per_s']:.6g} items/s, "
              f"setup_s {raw['setup_s']:.6g} s, calibration {raw['cal_s']:.6g} s "
              f"(reference {CAL_REF_S} s; the metrics below are in reference seconds)")
    for name, value in metrics.items():
        print(f"{wl.name} {name} {value:.6g} {units[name]}")
    print(f"{wl.name} failed_frac {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted} report rows; reps {len(untraced)} untraced, "
          f"{len(traced)} traced)")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 10**15 or args.seconds < 1:
        # simulate reps pass --seed 1000*seed + rep, which must stay a u64
        ap.error("requires 0 <= --seed < 10**15 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "srgauss", "cli.py")):
        print(f"no srgauss sources under {os.path.join(ROOT, 'src')}; "
              "run from the repository root", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    work_root = os.path.join(ROOT, ".bench_work")
    work = os.path.join(work_root, str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    results = {}
    try:
        for name in names:
            wl = WORKLOADS[name]
            print("run_record " + json.dumps(run_record(wl, args.seed, args.seconds, args.trace)))
            results[name] = run_workload(wl, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(work_root) and not os.listdir(work_root):
            os.rmdir(work_root)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
