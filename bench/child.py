"""One CLI process of the benchmark.

    python3 bench/child.py LAUNCH RESULT SPANS [CLI ARGS...]

LAUNCH is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` runs from process launch until ``srgauss.cli`` is
imported.  The CLI then runs in-process through ``srgauss.cli.main``; with
SPANS other than ``-`` it runs under the tracer and the spans are written
to SPANS.  With no CLI ARGS the process only imports and exits (a warm-up).
RESULT receives a JSON object: exit code, setup_s, main_s, cal_s, peak RSS.

cal_s is the mean duration of a fixed calibration kernel, run once just
before and once just after the CLI call in the same process.  It measures
how fast the machine is at that moment, independent of ``srgauss``.
"""

import json
import math
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def calibrate() -> float:
    """Seconds for a fixed mix of large-array numpy work, many small numpy
    calls and Python bytecode, the three kinds of work the workloads do."""
    import numpy as np

    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(12345))
    for _ in range(40):
        np.sort(rng.random(50_000))
    small = np.arange(4.0)
    for i in range(6_000):
        np.logaddexp.reduce(small * (i * 1e-4))
    acc = 0.0
    for i in range(500_000):
        acc += math.sqrt(i)
    return time.perf_counter() - t0


def main() -> int:
    launch = float(sys.argv[1])
    result_path, spans_path = sys.argv[2], sys.argv[3]
    cli_args = sys.argv[4:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import srgauss.cli

    ready = time.monotonic()
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(srgauss.cli.__file__).startswith(src + os.sep):
        print(f"srgauss imported from {srgauss.cli.__file__}, not {src}", file=sys.stderr)
        return 1
    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    rc = None
    main_s = cal_s = 0.0
    if cli_args:
        before = calibrate()
        t0 = time.perf_counter()
        rc = srgauss.cli.main(cli_args)
        main_s = time.perf_counter() - t0
        cal_s = (before + calibrate()) / 2
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"rc": rc, "setup_s": ready - launch, "main_s": main_s, "cal_s": cal_s,
             "peak_rss_mb": maxrss_kb / 1024.0},
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
