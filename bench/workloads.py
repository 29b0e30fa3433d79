"""The benchmark's four workloads and the CLI inputs each one generates.

Each workload is built so that one module of ``srgauss`` does most of its
work and little of another workload's:

* ``sim-direct``   codec (codebook fill and min-distance scan)
* ``sim-radial``   montecarlo (the radial sampler body; bypasses codec)
* ``grid-gaussian`` core (``minimize_scalar`` / ``brentq`` root-finders)
* ``grid-discrete`` sources (``log_mgf_x2`` of a 4-point pmf)

A run launches the CLI several times ("reps"), each in a fresh process.
A rep's inputs are a pure function of (workload, seed, rep index).
"""

from __future__ import annotations

from dataclasses import dataclass

# The CLI's cost model charges (m1 + m2) * n multiply-adds per trial even for
# `radial`, which draws two scalars per codeword; its default budget of 1e10
# would refuse sim-radial beyond about 8,200 trials.  The run length is set
# by --seconds, never by a budget refusal, so every simulate rep passes this.
SIM_BUDGET = 10**15

# One worker thread per CLI process: on a shared 2-core machine a second
# worker thread competes with other tenants and with the benchmark's parent
# process for the second core.  `exponent-grid` ignores --workers.
WORKERS = 1

GAUSSIAN_SOURCE = """\
[source]
family = gaussian
sigma2 = 1.0
"""

# sigma2 = 0.1*4 + 0.4*0.25 + 0.4*0.25 + 0.1*4 = 1, as for the Gaussian grid,
# so every cell takes the same branch and core gets the same number of calls.
DISCRETE_SOURCE = """\
[source]
family = discrete
values = -2 -0.5 0.5 2
probs = 0.1 0.4 0.4 0.1
"""

# Criterion 7's largest plan point: n = 24 gives M1 = 8480 and M2 = 2046
# (spherical layer 2) or 1335 (iid layer 2).
SIM_DIRECT_CONFIG = GAUSSIAN_SOURCE + """\
[distortion]
d1 = 0.6
d2 = 0.4

[second_order]
lambda = 1.0
epsilon = 0.2

[simulate]
mode = scheme
n = 24
kinds = spherical,spherical spherical,iid iid,spherical iid,iid
trials = {trials}
sizing = plan
method = direct
precision = single
"""

# The criterion-8 point: n = 20, M1 = ceil(e^11) = 59,875, M2 = 1024.
SIM_RADIAL_CONFIG = GAUSSIAN_SOURCE + """\
[distortion]
d1 = 0.5
d2 = 0.25

[rates]
r1 = 0.55
r2 = 0.8

[simulate]
mode = scheme
n = 20
kinds = iid,iid
trials = {trials}
sizing = rates
method = radial
"""

GRID_DISTORTION = """\
[distortion]
d1 = 0.5
d2 = 0.25
"""

GRID_STEPS = 60
R1_RANGE = (0.05, 1.2)
R2_RANGE = (0.0, 1.2)


def axis(lo: float, hi: float, steps: int) -> list[float]:
    """The CLI's own r*_min/r*_max/r*_steps spacing, reproduced exactly."""
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


R1_AXIS = axis(*R1_RANGE, GRID_STEPS)
R2_AXIS = axis(*R2_RANGE, GRID_STEPS)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    why: str
    # simulate: trials per kind combination per rep
    trials: int = 0
    config: str = ""
    # exponent-grid: every rep computes the same subgrid of the 60x60 grid,
    # rows i = 0 mod r1_stride by columns j = 0 mod r2_stride.  Every rep
    # does identical work: interleaved slices at different offsets differed
    # in cost by up to 25%, which showed as run-to-run spread.
    source: str = ""
    r1_stride: int = 1
    r2_stride: int = 1

    @property
    def item(self) -> str:
        return "trial" if self.command == "simulate" else "grid point"

    def grid_cells(self) -> tuple[list[int], list[int]]:
        """(r1 indices, r2 indices) of the subgrid each rep computes."""
        return (list(range(0, GRID_STEPS, self.r1_stride)),
                list(range(0, GRID_STEPS, self.r2_stride)))

    def rep_inputs(self, seed: int, rep: int) -> tuple[str, list[str]]:
        """(config text, extra CLI args) for one rep."""
        if self.command == "simulate":
            cli_seed = seed * 1000 + rep
            args = ["--seed", str(cli_seed), "--workers", str(WORKERS),
                    "--budget", str(SIM_BUDGET)]
            return self.config.format(trials=self.trials), args
        rows, cols = self.grid_cells()
        rates = "[rates]\nr1 = {}\nr2 = {}\n".format(
            " ".join(repr(R1_AXIS[i]) for i in rows),
            " ".join(repr(R2_AXIS[j]) for j in cols),
        )
        # exponent-grid has no randomness and ignores --seed; it is passed so
        # every workload's CLI call carries the benchmark seed.
        args = ["--seed", str(seed)]
        return self.source + GRID_DISTORTION + rates, args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sim-direct",
            command="simulate",
            why="codec-bound: criterion-7 plan point n=24, M1=8480, all four kind "
            "combinations, direct float32 trials; gen_codebook's RNG fill dominates",
            # 120 trials per combination, so that one rep's count check
            # already rejects a codec that reports no excess at all, or none
            # on layer 1 (checks.py; 60 would pass both)
            trials=120,
            config=SIM_DIRECT_CONFIG,
        ),
        Workload(
            name="sim-radial",
            command="simulate",
            why="montecarlo-bound: criterion-8 point n=20, M1=59,875, radial "
            "iid/iid trials; bypasses codec, so a codec change must read as no change",
            trials=300,
            config=SIM_RADIAL_CONFIG,
        ),
        Workload(
            name="grid-gaussian",
            command="exponent-grid",
            why="core-bound: 60x60 exponent grid of a Gaussian source; the "
            "minimize_scalar and brentq root-finders in core take most of the time",
            source=GAUSSIAN_SOURCE,
        ),
        Workload(
            name="grid-discrete",
            command="exponent-grid",
            why="sources-bound: a 12x30 subgrid of the same grid for a 4-point pmf with "
            "sigma2=1; log_mgf_x2 (logsumexp) dominates, isolating sources against grid-gaussian",
            source=DISCRETE_SOURCE,
            r1_stride=5,
            r2_stride=2,
        ),
    )
}
