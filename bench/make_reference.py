"""Capture the reference reports that ``checks.py`` compares against.

    python3 bench/make_reference.py

Writes ``bench/reference/grid-*.csv.gz`` (the full 60x60 grid of each grid
workload) and ``bench/reference/simulate.json`` (count_joint, count1 and
count2 of each simulate point over a large run at REFERENCE_SEED).  The
committed files were captured at the commit that introduced the benchmark;
regenerate them only when the law of the outputs is meant to change.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import srgauss.cli  # noqa: E402

from checks import REFERENCE_DIR, parse_csv  # noqa: E402
from workloads import SIM_BUDGET, WORKLOADS  # noqa: E402

REFERENCE_SEED = 20220808
REFERENCE_TRIALS = {"sim-direct": 5000, "sim-radial": 20000}  # per point
REFERENCE_WORKERS = 2  # counts do not depend on the worker count


def _run_cli(command: str, config: str, args: list[str], tmp: str) -> str:
    cfg = os.path.join(tmp, "ref.ini")
    out = os.path.join(tmp, "ref.csv")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(config)
    rc = srgauss.cli.main([command, "--config", cfg, "--out", out] + args)
    if rc != 0:
        raise SystemExit(f"{command} exited {rc}")
    with open(out, encoding="utf-8") as fh:
        return fh.read()


def main() -> int:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    sim = {}
    with tempfile.TemporaryDirectory() as tmp:
        for wl in WORKLOADS.values():
            if wl.command == "exponent-grid":
                full = dataclasses.replace(wl, r1_stride=1, r2_stride=1)
                config, cli_args = full.rep_inputs(0, 0)
                text = _run_cli(wl.command, config, cli_args, tmp)
                with gzip.open(os.path.join(REFERENCE_DIR, f"{wl.name}.csv.gz"), "wt",
                               encoding="utf-8", compresslevel=9) as fh:
                    fh.write(text)
                continue
            n = REFERENCE_TRIALS[wl.name]
            config = wl.config.format(trials=n)
            cli_args = ["--seed", str(REFERENCE_SEED), "--workers", str(REFERENCE_WORKERS),
                        "--budget", str(SIM_BUDGET)]
            rows = parse_csv(_run_cli(wl.command, config, cli_args, tmp))
            keys = ("n", "kind1", "kind2", "m1", "m2", "count_joint", "count1", "count2")
            sim[wl.name] = {
                "trials": n,
                "seed": REFERENCE_SEED,
                "points": [
                    {k: (r[k] if k.startswith("kind") else int(r[k])) for k in keys}
                    for r in rows
                ],
            }
            print(wl.name, sim[wl.name], flush=True)
    with open(os.path.join(REFERENCE_DIR, "simulate.json"), "w", encoding="utf-8") as fh:
        json.dump(sim, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
