"""Command-line contracts: exit codes, schema stability, byte determinism,
golden files on fixed seeds."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from srgauss import report, sources
from srgauss.asymptotics import RateQuery, jep_exponent
from srgauss.cli import (
    ASYMPTOTICS_COLUMNS,
    COMPARE_COLUMNS,
    CONFIG_KEYS,
    EXPONENT_GRID_COLUMNS,
    PSIPHI_COLUMNS,
    SIMULATE_COLUMNS,
    _zero_edge,
    main,
)
from srgauss.errors import ConfigError
from srgauss.report import read_report

GOLDEN = Path(__file__).parent / "golden"


def write_config(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


BASE = """
[source]
family = gaussian
sigma2 = 1.0

[distortion]
d1 = 0.5
d2 = 0.25
"""

DISCRETE_BASE = BASE.replace(
    "family = gaussian\nsigma2 = 1.0",
    "family = discrete\nvalues = -2 -0.5 0.5 2\nprobs = 0.1 0.4 0.4 0.1",
)

SIM_SMALL = (
    BASE
    + """
[simulate]
mode = scheme
n = 8
kinds = spherical,spherical iid,iid
trials = 400
seed = 11
sizing = explicit
lambda = 1.0
m1 = 24
m2 = 12
"""
)


SMALL_AXES = """
[rates]
r1 = 0 0.2 0.5 0.8 1.1
r2 = 0 0.2 0.3 0.6 1.0
"""

FULL_SECTIONS = """
[second_order]
lambda = 1.0
epsilon = 0.2
n = 16
c_log = 0.5
kind2 = iid

[moderate]
theta1 = 1.0
theta2 = 0.5
rho_exponent = 0.25
"""

PSI_SMALL = (
    BASE
    + """
[simulate]
mode = psi
kind = iid
n = 8 12 16
norm_arg = 1.0
power = 0.66
distortion = 0.66
trials = 3000
seed = 23
"""
)


class TestAsymptoticsCommand:
    def test_corner_query_row(self, tmp_path):
        corner = 0.5 * math.log(2.0)
        cfg = write_config(
            tmp_path,
            BASE + f"\n[rates]\nr1 = {corner!r}\nr2 = {corner!r}\n",
        )
        out = str(tmp_path / "out.csv")
        assert main(["asymptotics", "--config", cfg, "--out", out]) == 0
        rows = read_report(out)
        assert len(rows) == 1
        assert rows[0]["region"] == "boundary"
        assert rows[0]["jep_exponent"] == 0

    def test_grid_rows_and_monotone_columns(self, tmp_path):
        cfg = write_config(
            tmp_path,
            BASE
            + """
[rates]
r1_min = 0.05
r1_max = 1.2
r1_steps = 20
r2_min = 0.05
r2_max = 1.2
r2_steps = 20
""",
        )
        out = str(tmp_path / "grid.csv")
        assert main(["asymptotics", "--config", cfg, "--out", out]) == 0
        rows = read_report(out)
        assert len(rows) == 400
        by_r2 = {}
        for r in rows:
            by_r2.setdefault(r["r2"], []).append((r["r1"], r["jep_exponent"]))
        for pts in by_r2.values():
            pts.sort()
            vals = [v for _, v in pts]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("sections", ["", "second_order", "moderate"])
    def test_an_absent_optional_section_prints_empty_cells(self, tmp_path, fmt, sections):
        """With one optional section or none, each row is the full report's
        row: its listed columns carry the same cells, and a column of an
        absent section that a later section lists (second order, when only
        [moderate] is given) prints empty."""
        text = {"": "", "second_order": FULL_SECTIONS.split("[moderate]")[0],
                "moderate": "[moderate]" + FULL_SECTIONS.split("[moderate]")[1]}[sections]
        full, part = tmp_path / f"full.{fmt}", tmp_path / f"part.{fmt}"
        for out, extra in ((full, FULL_SECTIONS), (part, text)):
            cfg = write_config(tmp_path, BASE + SMALL_AXES + extra)
            assert main(["asymptotics", "--config", cfg, "--format", fmt, "--out", str(out)]) == 0
        columns = {"": ASYMPTOTICS_COLUMNS[:16], "second_order": ASYMPTOTICS_COLUMNS[:21],
                   "moderate": ASYMPTOTICS_COLUMNS}[sections]
        absent = ASYMPTOTICS_COLUMNS[16:21] if sections == "moderate" else []
        expected = [{c: None if c in absent else row[c] for c in columns}
                    for row in read_report(str(full))]
        assert read_report(str(part)) == expected
        header = part.read_text().splitlines()[0] if fmt == "csv" else (
            json.loads(part.read_text())["columns"])
        assert header == (",".join(columns) if fmt == "csv" else columns)

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            """
[source]
family = gaussian
sigma2 = 1.0
[distortion]
d1 = 0.25
d2 = 0.5
[rates]
r1 = 0.5
r2 = 0.5
""",
        )
        assert main(["asymptotics", "--config", cfg]) == 2
        assert "requires sigma2 > d1 > d2" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["asymptotics", "--config", "/nonexistent.ini"]) == 2

    def test_numeric_error_exit_3(self, tmp_path, monkeypatch, capsys):
        import srgauss.cli as cli
        from srgauss.errors import NumericError

        def boom(cp, args):
            raise NumericError("bracket lost")

        monkeypatch.setattr(cli, "cmd_asymptotics", boom)
        cfg = write_config(tmp_path, BASE + "\n[rates]\nr1 = 0.5\nr2 = 0.5\n")
        assert main(["asymptotics", "--config", cfg]) == 3
        assert "numeric error" in capsys.readouterr().err


PSI_BASE = BASE + """
[simulate]
mode = psi
n = 8
power = 0.66
distortion = 0.66
trials = 100
"""

PHI_SPHERICAL = PSI_BASE.replace("mode = psi", "mode = phi\nkind = spherical")

RATES_SIM = BASE + """
[rates]
r1 = 0.55

[simulate]
n = 8
kinds = iid,iid
trials = 10
sizing = rates
"""

# rate-based sizing: m1 = ceil(e^(n*r1)); at these rates lam < 1, so m2 = ceil(e^(n*r2))
RATES_RADIAL = BASE + """
[rates]
r1 = 0.55
r2 = 0.3

[simulate]
n = 8 12 16
kinds = iid,iid
trials = 300
seed = 3
sizing = rates
method = radial
"""

PLAN_SIM = BASE + """
[second_order]
lambda = 1.0
epsilon = 0.2
c_log = 0.0

[simulate]
mode = scheme
n = 12
kinds = spherical,spherical
trials = 200
seed = 5
sizing = plan
"""


def simulate_report(tmp_path, text, name="sim"):
    cfg = write_config(tmp_path, text, name=f"{name}.ini")
    out = str(tmp_path / f"{name}.csv")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    return out


# (command, config, the section.key or [section] the error must name)
MALFORMED = [
    ("asymptotics", BASE.replace("d2 = 0.25", "") + "[rates]\nr1 = 0.5\nr2 = 0.5\n",
     "distortion.d2"),
    ("simulate", SIM_SMALL.replace("trials =", "trails ="), "simulate.trails"),
    ("exponent-grid",
     BASE.replace("family = gaussian\nsigma2 = 1.0", "family = uniform") + SMALL_AXES,
     "source.half_width"),
    ("exponent-grid",
     BASE.replace("family = gaussian\nsigma2 = 1.0", "family = discrete\nvalues = -1 1")
     + SMALL_AXES,
     "source.probs"),
    ("asymptotics", BASE.replace("sigma2 =", "sigma =") + SMALL_AXES, "source.sigma"),
    ("asymptotics", BASE + SMALL_AXES + "[second_order]\nn = 16\n", "second_order.epsilon"),
    ("asymptotics", BASE + SMALL_AXES + "[moderate]\ntheta2 = 1.0\n", "moderate.theta1"),
    ("exponent-grid", BASE + "[rates]\nr1 = 0.5\nr2_min = 0\nr2_max = 1\nr2_steps = 2.5\n",
     "rates.r2_steps"),
    ("simulate", PSI_BASE, "simulate.norm_arg"),
    ("simulate", RATES_SIM, "rates.r2"),
    ("simulate", RATES_SIM.replace("r1 = 0.55", "r1 = 0.55\nr2 = 0"),
     "rates.r2: rate-based sizing"),
    ("simulate", SIM_SMALL.replace("trials = 400", "trials = many"), "simulate.trials"),
    ("asymptotics", BASE.replace("d1 = 0.5", "d1 = half") + SMALL_AXES, "distortion.d1"),
    ("compare", "[compare]\nquantity = jep\n", "compare.simulation"),
    ("simulate", SIM_SMALL + "[simulation]\nn = 8\n", "[simulation]"),
    ("asymptotics", BASE + "d1 = 0.4\n" + SMALL_AXES, "option 'd1' in section 'distortion'"),
    ("simulate", SIM_SMALL + "method = fast\n", "simulate.method"),
    ("simulate", SIM_SMALL + "precision = half\n", "simulate.precision"),
    ("exponent-grid", BASE + "[rates]\nr1 = nan\nr2 = 0.3\n", "rates.r1: cannot parse 'nan'"),
    ("asymptotics", BASE + "[rates]\nr1 = 0.5\nr2 = 0.2 nan\n", "rates.r2: cannot parse '0.2 nan'"),
    ("exponent-grid", BASE + "[rates]\nr1 = 0.5\nr2 = inf\n", "rates.r2: cannot parse 'inf'"),
    ("exponent-grid", BASE + "[rates]\nr1 = 0.5\nr2_min = -inf\nr2_max = 1\nr2_steps = 3\n",
     "rates.r2_min: cannot parse '-inf'"),
    ("asymptotics", BASE + "[rates]\nr1_min = 0.1\nr1_max = nan\nr1_steps = 2\nr2 = 0.3\n",
     "rates.r1_max: cannot parse 'nan'"),
    # every number in every section must be finite
    ("asymptotics", BASE.replace("d1 = 0.5", "d1 = nan") + SMALL_AXES,
     "distortion.d1: cannot parse 'nan' (must be finite)"),
    ("asymptotics", BASE + SMALL_AXES + FULL_SECTIONS.replace("c_log = 0.5", "c_log = nan"),
     "second_order.c_log: cannot parse 'nan'"),
    ("asymptotics", BASE + SMALL_AXES + "[moderate]\ntheta1 = inf\n",
     "moderate.theta1: cannot parse 'inf'"),
    ("simulate", PSI_BASE + "norm_arg = nan\n", "simulate.norm_arg: cannot parse 'nan'"),
    ("simulate", PSI_BASE.replace("power = 0.66", "power = inf") + "norm_arg = 1.0\n",
     "simulate.power: cannot parse 'inf'"),
    ("simulate", SIM_SMALL.replace("lambda = 1.0", "lambda = nan"),
     "simulate.lambda: cannot parse 'nan'"),
    ("exponent-grid", BASE.replace("sigma2 = 1.0", "sigma2 = inf") + SMALL_AXES,
     "source.sigma2: cannot parse 'inf'"),
    ("exponent-grid",
     BASE.replace("family = gaussian\nsigma2 = 1.0", "family = uniform\nhalf_width = inf")
     + SMALL_AXES,
     "source.half_width: cannot parse 'inf'"),
    ("exponent-grid",
     DISCRETE_BASE.replace("values = -2 -0.5 0.5 2", "values = -1 nan 0.5 2") + SMALL_AXES,
     "source.values: cannot parse '-1 nan 0.5 2'"),
    # [source] is read through CONFIG_KEYS like every other section
    ("asymptotics", BASE.replace("[source]\nfamily = gaussian\nsigma2 = 1.0", "") + SMALL_AXES,
     "config requires a [source] section"),
    ("asymptotics", BASE.replace("sigma2 = 1.0", "sigma2 = 1.0\nscale = 1.0") + SMALL_AXES,
     "unknown key source.scale (family 'gaussian')"),
    ("exponent-grid", BASE.replace("family = gaussian", "family = cauchy") + SMALL_AXES,
     "source.family: cannot parse 'cauchy'"),
    ("exponent-grid", BASE + "[rates]\nr1_min = 0.1\nr1_max = 1\nr1_steps = 0\nr2 = 0.3\n",
     "rates.r1_steps: requires >= 1"),
    # an axis given both as a list and as a grid
    ("asymptotics", BASE + "[rates]\nr1 = 0.5\nr1_min = 0.1\nr1_max = 1\nr1_steps = 3\nr2 = 0.3\n",
     "rates.r1, rates.r1_min, rates.r1_max, rates.r1_steps: give the r1 axis as a list"),
    ("exponent-grid", BASE + "[rates]\nr1 = 0.5\nr2 = 0.3\nr2_steps = 4\n",
     "rates.r2, rates.r2_steps: give the r2 axis as a list"),
    ("simulate", SIM_SMALL.replace("kinds = spherical,spherical iid,iid", "kinds = spherical"),
     "simulate.kinds: cannot parse 'spherical'"),
    ("simulate", RATES_SIM.replace("r1 = 0.55", "r1 = 0.55 0.6\nr2 = 0.3"),
     "needs one rates.r1 and one rates.r2"),
    ("simulate", RATES_SIM.replace("r1 = 0.55", "r1 = 0.55\nr1_min = 5\nr1_max = 9\nr1_steps = 2\n"
                                   "r2 = 0.3"),
     "config error: rates.r1, rates.r1_min, rates.r1_max, rates.r1_steps: give the r1 axis"),
    # scheme-mode ranges are refused by key, as psi/phi's are
    ("simulate", SIM_SMALL.replace("trials = 400", "trials = 0"),
     "config error: simulate.trials: requires trials >= 1, got trials=0"),
    ("simulate", SIM_SMALL.replace("\nn = 8\n", "\nn = 8 1\n"),
     "simulate.n: requires n >= 2, got n=1"),
    ("simulate", SIM_SMALL.replace("m1 = 24", "m1 = 0"), "simulate.m1: requires m1 >= 1, got m1=0"),
    ("simulate", SIM_SMALL.replace("lambda = 1.0", "lambda = 0.3"),
     "simulate.lambda: requires lambda in (d2/d1, 1] = (0.5, 1], got lambda=0.3"),
    # plan sizing and [second_order] refuse second_order_plan's ranges by key,
    # the distortions first, before d2/d1 is formed
    ("simulate", PLAN_SIM.replace("n = 12", "n = 4"),
     "simulate.n: requires n >= 8 so the layer-2 margin is positive, got n=4"),
    ("simulate", PLAN_SIM.replace("lambda = 1.0", "lambda = 0.3"),
     "second_order.lambda: requires lambda in (d2/d1, 1] = (0.5, 1], got lambda=0.3"),
    ("simulate", PLAN_SIM.replace("epsilon = 0.2", "epsilon = 1.5"),
     "second_order.epsilon: requires epsilon in (0, 1), got epsilon=1.5"),
    ("simulate", PLAN_SIM.replace("d1 = 0.5", "d1 = 0.2"),
     "requires sigma2 > d1 > d2 > 0, got (1.0, 0.2, 0.25)"),
    ("asymptotics", BASE + SMALL_AXES + FULL_SECTIONS.replace("n = 16", "n = 4"),
     "second_order.n: requires n >= 8 so the layer-2 margin is positive, got n=4"),
    ("asymptotics", BASE + SMALL_AXES + FULL_SECTIONS.replace("lambda = 1.0", "lambda = 0.3"),
     "second_order.lambda: requires lambda in (d2/d1, 1] = (0.5, 1], got lambda=0.3"),
    ("asymptotics", BASE + SMALL_AXES + FULL_SECTIONS.replace("epsilon = 0.2", "epsilon = 1.5"),
     "second_order.epsilon: requires epsilon in (0, 1), got epsilon=1.5"),
    # rate sizing refuses a rate above 300 nats before exp(2*r2) or n*r1 overflows
    ("simulate", RATES_SIM.replace("r1 = 0.55", "r1 = 0.55\nr2 = 400"),
     "requires r1, r2 <= 300 nats, got (0.55, 400.0)"),
    ("simulate", RATES_SIM.replace("r1 = 0.55", "r1 = 350\nr2 = 0.3"),
     "requires r1, r2 <= 300 nats, got (350.0, 0.3)"),
    # psi/phi blocklengths below 1 and empty list values
    ("simulate", PSI_BASE.replace("n = 8", "n = 0") + "norm_arg = 1.0\n",
     "n >= 1, w >= 0 and trials >= 1, got n=0"),
    ("simulate", PSI_BASE.replace("n = 8", "n = -3") + "norm_arg = 1.0\n",
     "n >= 1, w >= 0 and trials >= 1, got n=-3"),
    # psi/phi values core would refuse are refused first, by key
    ("simulate", PHI_SPHERICAL + "norm_arg = 0.0\n",
     "simulate.norm_arg: requires norm_arg > 0 for kind = spherical, got norm_arg=0.0"),
    ("simulate", PSI_BASE + "norm_arg = -1.0\n",
     "simulate.norm_arg: requires norm_arg >= 0, got norm_arg=-1.0"),
    # a spherical cap that needs distortion > (sqrt(norm_arg) - sqrt(power))^2
    ("simulate", PHI_SPHERICAL.replace("distortion = 0.66", "distortion = 0.1") + "norm_arg = 4.0\n",
     "simulate.norm_arg, simulate.power, simulate.distortion: cap is geometrically infeasible"),
    ("simulate", PSI_BASE.replace("trials = 100", "trials = 0") + "norm_arg = 1.0\n",
     "simulate.trials: requires trials >= 1, got trials=0"),
    ("simulate", PHI_SPHERICAL.replace("power = 0.66", "power = 0") + "norm_arg = 1.0\n",
     "simulate.power: requires power > 0, got power=0.0"),
    ("simulate", PHI_SPHERICAL.replace("distortion = 0.66", "distortion = 0") + "norm_arg = 1.0\n",
     "simulate.distortion: requires distortion > 0, got distortion=0.0"),
    ("simulate", SIM_SMALL.replace("\nn = 8\n", "\nn =\n"),
     "simulate.n: cannot parse '' (empty list)"),
    ("simulate", SIM_SMALL.replace("kinds = spherical,spherical iid,iid", "kinds ="),
     "simulate.kinds: cannot parse '' (empty list)"),
    ("exponent-grid", BASE + "[rates]\nr1 =\nr2 = 0.3\n",
     "rates.r1: cannot parse '' (empty list)"),
    ("exponent-grid", DISCRETE_BASE.replace("values = -2 -0.5 0.5 2", "values =") + SMALL_AXES,
     "source.values: cannot parse '' (empty list)"),
    # an explicit-sizing report carries neither a decay rate nor a target
    ("compare", f"[compare]\nsimulation = {GOLDEN / 'simulate_small.csv'}\nquantity = jep\n",
     "carries no prediction columns"),
]


@pytest.mark.parametrize(
    "command, text, names", MALFORMED,
    ids=[re.sub(r"\W+", "-", m[2]).strip("-") for m in MALFORMED],
)
def test_malformed_config_names_key(tmp_path, capsys, command, text, names):
    cfg = write_config(tmp_path, text)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and names in err


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("command, text", [
    ("asymptotics", BASE + SMALL_AXES),
    ("exponent-grid", BASE + SMALL_AXES),
    ("simulate", SIM_SMALL),
    ("simulate", PSI_SMALL),
    ("compare", f"[compare]\nsimulation = {GOLDEN / 'simulate_psi_small.csv'}\n"),
], ids=["asymptotics", "exponent-grid", "simulate-scheme", "simulate-psi", "compare"])
def test_workers_below_one_refused_by_name(tmp_path, capsys, command, text, workers):
    cfg = write_config(tmp_path, text)
    with pytest.raises(SystemExit) as exit_:
        main([command, "--config", cfg, "--workers", workers])
    assert exit_.value.code == 2
    assert f"argument --workers: requires workers >= 1, got {workers}" in capsys.readouterr().err


def test_readme_lists_every_config_key():
    # the README's ini block claims to list every accepted key: each
    # CONFIG_KEYS key is named in its section, and each key = line is one
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    sections = {}
    for line in block.splitlines():
        if header := re.match(r"\[(\w+)\]", line):
            current = sections.setdefault(header.group(1), [])
        current.append(line)
    assert sections.keys() == CONFIG_KEYS.keys()
    for name, lines in sections.items():
        listed = {m.group(1) for line in lines if (m := re.match(r"(\w+)\s*=", line))}
        assert listed <= CONFIG_KEYS[name].keys(), (name, listed - CONFIG_KEYS[name].keys())
        for key in CONFIG_KEYS[name]:
            assert re.search(rf"\b{key}\b", "\n".join(lines)), f"{name}.{key} not in README"


def test_readme_report_schemas_match_columns():
    # each "Report schemas" bullet lists its report's columns in order, one
    # comma-separated code span per column group
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"### Report schemas[^\n]*\n\n(.*?)\n\n", readme, re.S).group(1)
    listed = {}
    for bullet in re.split(r"^\* ", block, flags=re.M)[1:]:
        label, body = " ".join(bullet.split()).split(": ", 1)
        spans = re.findall(r"`([^`]*,[^`]*)`", body)
        listed[label.replace("`", "")] = [[c.split("=")[0] for c in s.split(", ")] for s in spans]
    assert listed == {
        "asymptotics": [ASYMPTOTICS_COLUMNS[:16], ASYMPTOTICS_COLUMNS[16:21],
                        ASYMPTOTICS_COLUMNS[21:]],
        "simulate (scheme mode)": [SIMULATE_COLUMNS],
        "simulate (psi/phi mode)": [PSIPHI_COLUMNS],
        "exponent-grid": [EXPONENT_GRID_COLUMNS],
        "compare": [COMPARE_COLUMNS[:9], COMPARE_COLUMNS[9:]],
    }


def test_start_up_leaves_out_the_optimizer(tmp_path):
    # in a fresh interpreter, so that this suite's own scipy imports cannot
    # hide a stray one: the CLI needs numpy and scipy.special only, and a
    # simulate and an exponent-grid run load nothing beyond what it imported
    sim = write_config(tmp_path, SIM_SMALL, "sim.ini")
    grid = write_config(tmp_path, BASE + SMALL_AXES, "grid.ini")
    out = str(tmp_path / "out.csv")
    script = textwrap.dedent(f"""
        import sys
        from srgauss.cli import main
        loaded = set(sys.modules)
        assert main(["simulate", "--config", {sim!r}, "--out", {out!r}]) == 0
        assert main(["exponent-grid", "--config", {grid!r}, "--out", {out!r}]) == 0
        print(sorted(m for m in loaded if m.startswith(("scipy.optimize", "scipy.linalg"))))
        print(sorted(set(sys.modules) - loaded))
    """)
    paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


def test_report_writes_infinities():
    rows, columns = [{"a": math.inf, "b": -math.inf}], ["a", "b"]
    table = report.transpose(rows, columns)
    assert report.render(table, columns, "csv") == "a,b\ninf,-inf\n"
    assert json.loads(report.render(table, columns, "json"))["rows"] == [{"a": "inf", "b": "-inf"}]


@pytest.mark.parametrize("case", ["out-dir-missing", "compare-simulation-missing"])
def test_unopenable_path_exits_2(tmp_path, capsys, case):
    missing = str(tmp_path / "missing" / "x.csv")
    if case == "out-dir-missing":
        cfg = write_config(tmp_path, BASE + SMALL_AXES)
        argv = ["asymptotics", "--config", cfg, "--out", missing]
    else:
        cfg = write_config(tmp_path, f"[compare]\nsimulation = {missing}\nquantity = jep\n")
        argv = ["compare", "--config", cfg]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("file error:") and missing in err


class TestSimulateCommand:
    def test_byte_identical_across_workers(self, tmp_path):
        cfg = write_config(tmp_path, SIM_SMALL)
        outs = []
        for w in (1, 2, 4):
            out = str(tmp_path / f"w{w}.csv")
            assert main(["simulate", "--config", cfg, "--workers", str(w), "--out", out]) == 0
            outs.append(Path(out).read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_byte_identical_repeat(self, tmp_path):
        cfg = write_config(tmp_path, SIM_SMALL)
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        assert main(["simulate", "--config", cfg, "--out", a]) == 0
        assert main(["simulate", "--config", cfg, "--out", b]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, SIM_SMALL)
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        assert main(["simulate", "--config", cfg, "--out", a]) == 0
        assert main(["simulate", "--config", cfg, "--seed", "99", "--out", b]) == 0
        assert Path(a).read_bytes() != Path(b).read_bytes()

    def test_counting_identity_in_report(self, tmp_path):
        cfg = write_config(tmp_path, SIM_SMALL)
        out = str(tmp_path / "c.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        for r in read_report(out):
            assert max(r["count1"], r["count2"]) <= r["count_joint"] <= r["count1"] + r["count2"]

    def test_budget_refusal_exit_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SIM_SMALL)
        assert main(["simulate", "--config", cfg, "--budget", "10"]) == 4
        err = capsys.readouterr().err
        assert "budget" in err and "multiply-adds" in err

    def test_psi_budget_refusal_exit_4(self, tmp_path, capsys):
        # psi/phi is charged trials * n per n: 100 * 8 = 800 here
        cfg = write_config(tmp_path, PSI_BASE + "norm_arg = 1.0\n")
        assert main(["simulate", "--config", cfg, "--budget", "799"]) == 4
        err = capsys.readouterr().err
        assert "budget" in err and "multiply-adds" in err
        assert main(["simulate", "--config", cfg, "--budget", "800"]) == 0

    def test_budget_charges_radial_per_quantile_draw(self, tmp_path):
        # iid/iid at n = 8, m1 + m2 = 36, 400 trials: direct is charged
        # 400 * 36 * 8 = 115,200 multiply-adds, radial 400 * (8 + 2) = 4,000
        # (one source norm plus two quantile draws, whatever m1 and m2 are)
        text = SIM_SMALL.replace("spherical,spherical iid,iid", "iid,iid")
        out = str(tmp_path / "b.csv")
        for method, code in (("radial", 0), ("direct", 4)):
            cfg = write_config(tmp_path, text + f"method = {method}\n")
            assert main(["simulate", "--config", cfg, "--budget", "50000", "--out", out]) == code

    def test_plan_sizing_emits_target(self, tmp_path):
        row = read_report(simulate_report(tmp_path, PLAN_SIM))[0]
        assert row["target_eps"] == 0.2
        assert row["m1"] >= 1 and row["m2"] >= 1

    def test_rates_sizing_emits_prediction(self, tmp_path):
        rows = read_report(simulate_report(tmp_path, RATES_RADIAL))
        pred = jep_exponent(sources.gaussian(1.0), RateQuery(0.55, 0.3, 1.0, 0.5, 0.25)).value
        assert [r["n"] for r in rows] == [8, 12, 16]
        for r in rows:
            assert r["m1"] == math.ceil(math.exp(r["n"] * 0.55))
            assert r["m2"] == math.ceil(math.exp(r["n"] * 0.3))
            assert r["pred_jep_exponent"] == float("%.12g" % pred)  # the report's 12 digits
            assert r["target_eps"] is None and r["partial"] is False

    @pytest.mark.parametrize("kinds", ["iid,iid", "iid,spherical", "spherical,iid",
                                       "spherical,spherical"])
    def test_rates_sizing_predicts_for_iid_codebooks_only(self, tmp_path, capsys, kinds):
        # the i.i.d. joint exponent is no prediction for a spherical layer:
        # at this point it is 0.01811, the spherical exponent 0.01488
        text = RATES_SIM.replace("r1 = 0.55", "r1 = 0.5\nr2 = 0.4").replace("kinds = iid,iid",
                                                                             f"kinds = {kinds}")
        sim = simulate_report(tmp_path, text)
        pred = read_report(sim)[0]["pred_jep_exponent"]
        cfg = write_config(tmp_path, f"[compare]\nsimulation = {sim}\nquantity = jep\n",
                           name="cmp.ini")
        code = main(["compare", "--config", cfg, "--out", str(tmp_path / "cmp.csv")])
        if kinds == "iid,iid":
            q = RateQuery(0.5, 0.4, 1.0, 0.5, 0.25)
            assert pred == float("%.12g" % jep_exponent(sources.gaussian(1.0), q).value)
            assert round(pred, 5) == 0.01811 and code == 0
        else:
            assert pred is None and code == 2
            assert "carries no prediction columns" in capsys.readouterr().err

    def test_compare_refuses_a_report_predicted_in_part(self, tmp_path, capsys):
        # one kind pair with a prediction and one without: no single target
        sim = simulate_report(tmp_path, RATES_SIM.replace("r1 = 0.55", "r1 = 0.5\nr2 = 0.4")
                              .replace("kinds = iid,iid", "kinds = iid,iid spherical,iid"))
        assert [r["pred_jep_exponent"] is None for r in read_report(sim)] == [False, True]
        cfg = write_config(tmp_path, f"[compare]\nsimulation = {sim}\nquantity = jep\n",
                           name="cmp.ini")
        assert main(["compare", "--config", cfg]) == 2
        assert "carries no prediction columns" in capsys.readouterr().err

    @pytest.mark.parametrize("kinds", ["iid,iid", "spherical,spherical"])
    def test_rates_sizing_refuses_zero_r1(self, tmp_path, capsys, kinds):
        text = RATES_SIM.replace("r1 = 0.55", "r1 = 0\nr2 = 0.4").replace("kinds = iid,iid",
                                                                           f"kinds = {kinds}")
        assert main(["simulate", "--config", write_config(tmp_path, text)]) == 2
        assert "rates.r1: rate-based sizing requires r1 > 0, got 0.0" in capsys.readouterr().err

    def test_rates_sizing_reads_a_grid_axis(self, tmp_path):
        # a one-point grid axis is the list of its one rate
        grid = RATES_RADIAL.replace("r1 = 0.55", "r1_min = 0.55\nr1_max = 0.55\nr1_steps = 1")
        a, b = (simulate_report(tmp_path, text, name) for text, name in
                ((RATES_RADIAL, "list"), (grid, "grid")))
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_rates_sizing_refuses_oversized_code(self, tmp_path, capsys):
        # n * r1 = 800 overflows exp(); refused like an oversized plan
        text = RATES_RADIAL.replace("r1 = 0.55", "r1 = 1.0").replace("n = 8 12 16", "n = 800")
        cfg = write_config(tmp_path, text)
        assert main(["simulate", "--config", cfg]) == 2
        assert "too large" in capsys.readouterr().err

    def test_json_mirrors_csv(self, tmp_path):
        cfg = write_config(tmp_path, SIM_SMALL)
        a = str(tmp_path / "r.csv")
        b = str(tmp_path / "r.json")
        assert main(["simulate", "--config", cfg, "--out", a]) == 0
        assert main(["simulate", "--config", cfg, "--format", "json", "--out", b]) == 0
        ra, rb = read_report(a), read_report(b)
        assert len(ra) == len(rb)
        assert ra[0]["count_joint"] == rb[0]["count_joint"]
        assert ra[0]["jep_hat"] == pytest.approx(rb[0]["jep_hat"], abs=1e-12)


class TestExponentGridCommand:
    def test_zero_edge_tracks_region_boundary(self, tmp_path):
        cfg = write_config(
            tmp_path,
            BASE
            + """
[rates]
r1_min = 0.05
r1_max = 1.2
r1_steps = 24
r2_min = 0.05
r2_max = 1.2
r2_steps = 24
""",
        )
        out = str(tmp_path / "grid.csv")
        assert main(["exponent-grid", "--config", cfg, "--out", out]) == 0
        rows = read_report(out)
        step = (1.2 - 0.05) / 23
        edges = [r for r in rows if r["zero_edge"]]
        assert edges
        for r in edges:
            # within one grid step of the analytic region boundary
            c1 = r["r1"] - 0.5 * math.log(1.0 / 0.5)
            c2 = r["r1"] + r["r2"] - 0.5 * math.log(1.0 / 0.25)
            assert min(abs(c1), abs(c2)) <= step + 1e-12 or min(c1, c2) <= 0

    def test_adaptive_positive_set_contains_fixed_split(self, tmp_path):
        cfg = write_config(
            tmp_path,
            BASE
            + """
[rates]
r1_min = 0.05
r1_max = 1.2
r1_steps = 20
r2_min = 0.05
r2_max = 1.2
r2_steps = 20
""",
        )
        out = str(tmp_path / "grid.csv")
        assert main(["exponent-grid", "--config", cfg, "--out", out]) == 0
        rows = read_report(out)
        strictly_larger = 0
        for r in rows:
            if r["l1_exponent"] > 0:
                assert r["jep_exponent"] > 0
            if r["jep_exponent"] > 0 and r["l1_exponent"] == 0:
                strictly_larger += 1
        assert strictly_larger > 0

    @pytest.mark.parametrize("command", ["exponent-grid", "asymptotics"])
    def test_zero_r2_at_layer2_floor(self, tmp_path, command):
        # d1 < 2*d2, so layer 2's floor at r2 = 0 is exactly 0: the fixed
        # split is in case iii there, not a refused rate inversion
        text = BASE.replace("d1 = 0.5", "d1 = 0.32272918413738216")
        text = text.replace("d2 = 0.25", "d2 = 0.300583050890696")
        cfg = write_config(tmp_path, text + "\n[rates]\nr1 = 0.3 0.8\nr2 = 0\n")
        out = str(tmp_path / "zero.csv")
        assert main([command, "--config", cfg, "--out", out]) == 0
        assert [r["l1_case"] for r in read_report(out)] == ["iii", "iii"]

    def test_single_point_grid(self, tmp_path):
        cfg = write_config(tmp_path, BASE + "\n[rates]\nr1 = 0.8\nr2 = 0.6\n")
        out = str(tmp_path / "one.csv")
        assert main(["exponent-grid", "--config", cfg, "--out", out]) == 0
        assert len(read_report(out)) == 1

    def test_empty_grid_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE + "\n[rates]\nr1 = \nr2 = 0.6\n")
        assert main(["exponent-grid", "--config", cfg]) == 2


# Every rate axis and distortion refusal of the two grid commands, with the
# message naming the first bad pair in row-major order (r1 outer).
GRID_REFUSALS = [
    ("r1 = 0.5 -0.2 -0.3\nr2 = 0.1 0.2\n", "requires finite r1, r2 >= 0, got (-0.2, 0.1)"),
    ("r1 = 0.5 0.7\nr2 = 0.1 -0.5 -0.6\n", "requires finite r1, r2 >= 0, got (0.5, -0.5)"),
    # a span beyond the largest float makes the axis [nan, inf]
    ("r1_min = -1e308\nr1_max = 1e308\nr1_steps = 2\nr2 = 0.3\n",
     "requires finite r1, r2 >= 0, got (nan, 0.3)"),
    ("r1 = 0.5\nr2_min = -1e308\nr2_max = 1e308\nr2_steps = 2\n",
     "requires finite r1, r2 >= 0, got (0.5, nan)"),
]


@pytest.mark.parametrize("command", ["exponent-grid", "asymptotics"])
@pytest.mark.parametrize("rates, message", GRID_REFUSALS)
def test_grid_commands_refuse_bad_rates(tmp_path, capsys, command, rates, message):
    cfg = write_config(tmp_path, BASE + "\n[rates]\n" + rates)
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("command", ["exponent-grid", "asymptotics"])
@pytest.mark.parametrize("rates, pair", [
    ("r1 = 0.5\nr2_min = 0\nr2_max = 1e308\nr2_steps = 3\n", "(0.5, inf)"),
    ("r1_min = 0\nr1_max = 1e308\nr1_steps = 3\nr2 = 0.3\n", "(inf, 0.3)"),
])
def test_grid_commands_refuse_an_infinite_rate_before_computing(tmp_path, capsys, command,
                                                                rates, pair):
    # an axis [0, 5e307, inf]: the whole grid is checked before any cell is
    # computed, so the cells at 5e307 are never reached
    cfg = write_config(tmp_path, BASE + "\n[rates]\n" + rates)
    assert main([command, "--config", cfg]) == 2
    assert f"requires finite r1, r2 >= 0, got {pair}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["exponent-grid", "asymptotics"])
@pytest.mark.parametrize("rates, pair", [
    # exp(2*r2) in the split overflows above about 354.9 nats; r1 takes the
    # same bound
    ("r1 = 0.5\nr2 = 0.1 300 400\n", "(0.5, 400.0)"),
    ("r1 = 0.5 300 1e300\nr2 = 0.3\n", "(1e+300, 0.3)"),
], ids=["r2", "r1"])
def test_grid_commands_refuse_a_rate_above_300_nats(tmp_path, capsys, command, rates, pair):
    cfg = write_config(tmp_path, BASE + "\n[rates]\n" + rates)
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == f"config error: requires r1, r2 <= 300 nats, got {pair}\n"


@pytest.mark.parametrize("command", ["exponent-grid", "asymptotics"])
@pytest.mark.parametrize("d1, d2", [(0.25, 0.5), (0.3, 0.3)])
def test_grid_commands_refuse_d1_at_or_below_d2(tmp_path, capsys, command, d1, d2):
    text = BASE.replace("d1 = 0.5", f"d1 = {d1}").replace("d2 = 0.25", f"d2 = {d2}")
    cfg = write_config(tmp_path, text + SMALL_AXES)
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        f"config error: requires sigma2 > d1 > d2 > 0, got (1.0, {d1}, {d2})\n")


# The 60x60 Gaussian grid and the 12x30 pmf subgrid the benchmark runs
# (bench/workloads.py), as the CLI spaces them.
BENCH_AXIS_R1 = [0.05 + (1.2 - 0.05) * i / 59 for i in range(60)]
BENCH_AXIS_R2 = [1.2 * j / 59 for j in range(60)]
BENCH_GRIDS = {
    "gaussian": (BASE + "\n[rates]\nr1_min = 0.05\nr1_max = 1.2\nr1_steps = 60\n"
                 "r2_min = 0.0\nr2_max = 1.2\nr2_steps = 60\n"),
    "discrete": (DISCRETE_BASE + "\n[rates]\nr1 = {}\nr2 = {}\n".format(
        " ".join(repr(r) for r in BENCH_AXIS_R1[::5]),
        " ".join(repr(r) for r in BENCH_AXIS_R2[::2]))),
}


@pytest.mark.parametrize("grid, counts", [
    # Every distinct covering radius is inverted once: the columns' gamma
    # and gamma2 by the scalar invert_iid_exponent (59 and 29), every cell's
    # in the one invert_iid_exponents batch (counted per triple), those at
    # or below their floor included, which take the threshold radius.  The
    # iid exponent fell from 7,392 and 758 when the fixed split's floor and
    # case-ii threshold moved to once per grid and once per column, then
    # to 5,310 and 563 and to 172 and 86 as the cells' floors moved to once
    # per distinct (p, d) pair and into the inversion; the rest is one
    # threshold per case-ii column (17 and 8) and layer 2's floor.  Every
    # distinct cell radius (5,183 and 518) takes its rate function once, in
    # the one rate_functions_x2 batch (counted per threshold); no scalar
    # rate function runs.
    ("gaussian", {"invert_iid_exponent": 59, "invert_iid_exponents": 5233,
                  "rate_function_x2": 0, "rate_functions_x2": 5183,
                  "iid_nonexcess_exponent": 18}),
    ("discrete", {"invert_iid_exponent": 29, "invert_iid_exponents": 525,
                  "rate_function_x2": 0, "rate_functions_x2": 518,
                  "iid_nonexcess_exponent": 9}),
])
def test_kernel_work_per_benchmark_grid(tmp_path, monkeypatch, grid, counts):
    """The benchmark grids make exactly these kernel calls, a batch counted
    per lane."""
    from srgauss import asymptotics

    batches = {"invert_iid_exponents": 0, "rate_functions_x2": 1}  # the batched argument
    seen = dict.fromkeys(counts, 0)
    for name in counts:
        def counted(*args, _f=getattr(asymptotics, name), _name=name):
            seen[_name] += len(args[batches[_name]]) if _name in batches else 1
            return _f(*args)

        monkeypatch.setattr(asymptotics, name, counted)
    cfg = write_config(tmp_path, BENCH_GRIDS[grid])
    out = str(tmp_path / "grid.csv")
    assert main(["exponent-grid", "--config", cfg, "--out", out]) == 0
    assert len(read_report(out)) == (3600 if grid == "gaussian" else 360)
    assert seen == counts
    inversions = {"gaussian": 5292, "discrete": 554}[grid]
    assert seen["invert_iid_exponent"] + seen["invert_iid_exponents"] == inversions


# SHA-256 of the exponent-grid report of each benchmark grid, pinned when
# the grid evaluator and the renderer went column by column and updated when
# the covering radius moved to Newton's method on the tilt; a change that
# moves a printed digit on purpose updates them
BENCH_GRID_SHA256 = {
    ("gaussian", "csv"): "3f271d85711d55506b3b3b9024275fdace7027c40b2660c5e968db248b7ce002",
    ("gaussian", "json"): "19d7117709be2559878e5bdb5ac3db4e44111024d5beb3177d72e2f01d2881a8",
    ("discrete", "csv"): "e0b456aed1d6fd9f82391d185ef1ec7a6e037c05ffb1d583660e9238de15b25f",
    ("discrete", "json"): "d0d326c8e2fa09a92699c1d6dba2ae86435fba8bd2f8cf47cb066e69726a4116",
}


@pytest.mark.parametrize("grid, fmt", list(BENCH_GRID_SHA256))
def test_benchmark_grid_reports_are_pinned(tmp_path, grid, fmt):
    cfg = write_config(tmp_path, BENCH_GRIDS[grid])
    out = tmp_path / f"grid.{fmt}"
    assert main(["exponent-grid", "--config", cfg, "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BENCH_GRID_SHA256[grid, fmt]


@pytest.mark.parametrize("grid", list(BENCH_GRIDS))
def test_benchmark_grid_csv_formats_no_cell_by_cell(tmp_path, monkeypatch, grid):
    """Every column of a benchmark grid's CSV report is all floats, all
    bools or all strings, so no cell goes through format_value."""
    calls = []

    def counted(v, _f=report.format_value):
        calls.append(v)
        return _f(v)

    monkeypatch.setattr(report, "format_value", counted)
    cfg = write_config(tmp_path, BENCH_GRIDS[grid])
    assert main(["exponent-grid", "--config", cfg, "--out", str(tmp_path / "grid.csv")]) == 0
    assert calls == []


NAN = object()  # a nan cell, which == would not match with a nan


def nan_marked(rows):
    return [{c: NAN if v != v else v for c, v in row.items()} for row in rows]


class TestReadReport:
    def read_both(self, tmp_path, command, cfg):
        """A command's report written as csv and as json, each read back."""
        rows = []
        for fmt in ("csv", "json"):
            out = str(tmp_path / f"report.{fmt}")
            assert main([command, "--config", cfg, "--format", fmt, "--out", out]) == 0
            rows.append(nan_marked(read_report(out)))
        return rows

    @pytest.mark.parametrize("command", ["exponent-grid", "asymptotics"])
    def test_json_reads_back_to_the_csv_rows(self, tmp_path, command):
        cfg = write_config(tmp_path, DISCRETE_BASE.replace("d1 = 0.5", "d1 = 0.6").replace(
            "d2 = 0.25", "d2 = 0.4") + "\n[rates]\nr1 = 0 0.3 1.5 3 6\nr2 = 0 0.2 1.0\n")
        csv_rows, json_rows = self.read_both(tmp_path, command, cfg)
        assert math.inf in [v for row in csv_rows for v in row.values()]
        assert json_rows == csv_rows

    def test_a_nan_stderr_reads_back_as_nan(self, tmp_path):
        sim = simulate_report(tmp_path, PLAN_SIM.replace("n = 12", "n = 10 12"))
        cfg = write_config(tmp_path, f"[compare]\nsimulation = {sim}\nquantity = jep\n",
                           name="cmp.ini")
        csv_rows, json_rows = self.read_both(tmp_path, "compare", cfg)
        assert json_rows[-1]["slope_stderr"] is NAN
        assert json_rows == csv_rows


def _render_by_row(rows, columns, fmt):
    """The row-by-row renderer the columnar one replaced, cell by cell
    through format_value and _json_value."""
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(report.format_value(row.get(c)) for c in columns) for row in rows]
        return "\n".join(lines) + "\n"
    payload = {"columns": list(columns),
               "rows": [{c: report._json_value(row.get(c)) for c in columns} for row in rows]}
    return json.dumps(payload, indent=2) + "\n"


class TestColumnarRenderer:
    FLOATS = [1.0, 0.1, -0.0, 0.0, 1e-300, -1e-300, 5e-324, 1e20, 123456789.123456789,
              -2.5, math.nan, math.inf, -math.inf, -math.nan, 2.0 / 3.0]
    MIXED = [1.5, math.nan, np.float64(0.1), np.float64(-math.inf), 7, -3, True, False,
             None, "inside", "", -0.0, 1e-300, np.float64(-0.0), math.inf, 2**70]

    def table_rows(self):
        n = len(self.FLOATS)
        cols = {
            "floats": self.FLOATS,
            "np_floats": [np.float64(v) for v in self.FLOATS],
            "floats_and_none": [None if k % 4 == 1 else v for k, v in enumerate(self.FLOATS)],
            "ints": list(range(-7, n - 8)) + [10**13],
            "bools": [k % 3 == 0 for k in range(n)],
            "bools_and_none": [None if k % 5 == 2 else k % 2 == 0 for k in range(n)],
            "nones": [None] * n,
            "strs": ["outside", "boundary", "inside", "iii", "low_r2"] * (n // 5),
            "mixed": self.MIXED[:n],
        }
        return [{c: col[k] for c, col in cols.items()} for k in range(n)], list(cols)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_renders_what_the_cells_render(self, fmt):
        rows, columns = self.table_rows()
        assert report.render(report.transpose(rows, columns), columns, fmt) == (
            _render_by_row(rows, columns, fmt))
        # a row that leaves out a column renders it empty; no rows, a header
        short = rows[:3] + [{"floats": 1.0}]
        assert report.render(report.transpose(short, columns), columns, fmt) == (
            _render_by_row(short, columns, fmt))
        assert report.render(report.transpose([], columns), columns, fmt) == (
            _render_by_row([], columns, fmt))

    def test_a_float_column_goes_to_the_format_call_as_it_is(self):
        # every float (nan and both infinities too) prints as format_value prints it
        spec, values = report._csv_column(self.FLOATS)
        assert values is self.FLOATS
        assert [spec % v for v in values] == [report.format_value(v) for v in self.FLOATS]
        # a cell that holds a format spec is not read as one
        assert report.render({"a": ["%s", "%%"], "b": [1.5, 2.0]}, ["a", "b"], "csv") == (
            "a,b\n%s,1.5\n%%,2\n")

    def test_json_is_json_dumps_of_the_rows(self):
        # random tables of every kind of cell, alone and mixed in a column:
        # floats that %.12g writes as repr does and ones it does not (1.0,
        # 1.5e13, 5e-324, -0.0), escapes and '%' in cells and names, values
        # json.dumps indents, a repeated column name, no rows and no columns
        pool = self.FLOATS + self.MIXED + [1e13, 1.5e13, 1e-5, 2.0000000000001, 1.5e20,
                                           'q"\\\n', "é%s", "%%", [1, [2.5, "x"]], {"k": (1, None)}]
        names = ["a", "b%s", "é", 'q"', "r1"]
        rng = np.random.default_rng(23)
        for _ in range(2000):
            columns = [names[k] for k in rng.integers(0, len(names), rng.integers(0, 5))]
            n, table = int(rng.integers(0, 6)), {}
            for c in columns:  # one to three kinds of cell per column
                kinds = rng.choice(len(pool), rng.integers(1, 4))
                table[c] = [pool[k] for k in rng.choice(kinds, n)]
            rows = zip(*(map(report._json_value, table[c]) for c in columns))
            want = json.dumps({"columns": columns, "rows": [dict(zip(columns, r)) for r in rows]},
                              indent=2) + "\n"
            assert report.render(table, columns, "json") == want, (table, columns)

    def test_cells_print_these_strings(self):
        cells = [(None, ""), (True, "true"), (False, "false"), (0, "0"),
                 (2**70, "1180591620717411303424"), (np.int64(-3), "-3"), (1.0, "1"),
                 (-0.0, "-0"), (0.1, "0.1"), (5e-324, "4.94065645841e-324"), (1e20, "1e+20"),
                 (math.nan, "nan"), (-math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
                 (np.float64(-math.inf), "-inf"), ("inside", "inside"), ("", "")]
        assert [report.format_value(v) for v, _ in cells] == [s for _, s in cells]
        json_cells = [(0.1, "0.1"), (1.23456789012345, "1.23456789012"),
                      (math.nan, "'nan'"), (math.inf, "'inf'"), (-math.inf, "'-inf'")]
        assert [repr(report._json_value(v)) for v, _ in json_cells] == [s for _, s in json_cells]

    def test_a_row_with_an_unknown_key_is_refused(self):
        rows = [{"a": 1.0}, {"a": 2.0, "zeta": 3.0, "b": None}]
        with pytest.raises(ConfigError, match=r"row carries unknown columns \['zeta'\]"):
            report.transpose(rows, ["a", "b"])


def _zero_edge_by_cell(jep, m):
    """The per-cell neighbour rule cmd_exponent_grid applied before the
    columnar one."""
    edges = []
    for k in range(len(jep)):
        near = (k - m, k + m, k - 1 if k % m else -1, k + 1 if (k + 1) % m else -1)
        edges.append(jep[k] == 0.0 and any(0 <= i < len(jep) and jep[i] > 0.0 for i in near))
    return edges


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (5, 7)])
def test_zero_edge_is_the_per_cell_rule(shape):
    rng = np.random.default_rng(sum(shape))
    values = [0.0, -0.0, 0.25, 1e-300, math.nan, math.inf]
    for _ in range(200):
        jep = [values[k] for k in rng.integers(0, len(values), shape[0] * shape[1])]
        edge = _zero_edge(jep, shape[1])
        assert edge == _zero_edge_by_cell(jep, shape[1])
        assert {type(v) for v in edge} == {bool}


class TestCompareCommand:
    def make_psi_report(self, tmp_path, trials=200_000):
        cfg = write_config(
            tmp_path,
            BASE
            + f"""
[simulate]
mode = psi
kind = iid
n = 10 20 30
norm_arg = 1.0
power = 0.66
distortion = 0.66
trials = {trials}
seed = 17
""",
            name="psi.ini",
        )
        out = str(tmp_path / "psi.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        return out

    def test_slope_fit_against_rate(self, tmp_path):
        sim = self.make_psi_report(tmp_path)
        cfg = write_config(
            tmp_path,
            f"[compare]\nsimulation = {sim}\nquantity = estimate\n",
            name="cmp.ini",
        )
        out = str(tmp_path / "cmp.csv")
        assert main(["compare", "--config", cfg, "--out", out]) == 0
        rows = read_report(out)
        points = [r for r in rows if r["row_kind"] == "point"]
        slope = [r for r in rows if r["row_kind"] == "slope"]
        assert len(points) == 3 and len(slope) == 1
        s = slope[0]
        assert s["slope"] > 0
        # the fitted slope lands within 20% of the analytic rate
        assert abs(s["slope"] - s["slope_target"]) <= 0.2 * s["slope_target"]
        for r in points:
            assert r["gap"] == pytest.approx(r["estimate"] - r["prediction"], abs=1e-12)

    def compare(self, tmp_path, sim, quantity):
        cfg = write_config(
            tmp_path, f"[compare]\nsimulation = {sim}\nquantity = {quantity}\n", name="cmp.ini"
        )
        out = str(tmp_path / "cmp.csv")
        assert main(["compare", "--config", cfg, "--out", out]) == 0
        rows = read_report(out)
        return rows[:-1], rows[-1]

    def test_rates_report_compared_to_predicted_exponent(self, tmp_path):
        sim = simulate_report(tmp_path, RATES_RADIAL)
        target = read_report(sim)[0]["pred_jep_exponent"]
        points, slope = self.compare(tmp_path, sim, "jep")
        assert slope["row_kind"] == "slope" and slope["slope_target"] == target
        for r in points:
            assert r["prediction"] == pytest.approx(math.exp(-r["n"] * target), rel=1e-11)

    def test_plan_report_compared_to_target_eps(self, tmp_path):
        sim = simulate_report(tmp_path, PLAN_SIM.replace("n = 12", "n = 10 12"))
        points, slope = self.compare(tmp_path, sim, "jep")
        assert [r["prediction"] for r in points] == [0.2, 0.2]
        assert slope["slope"] is not None
        assert slope["slope_target"] is None and slope["within_2se"] is None

    def test_empty_simulation_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("point,n,estimate\n", encoding="utf-8")
        cfg = write_config(
            tmp_path, f"[compare]\nsimulation = {empty}\nquantity = estimate\n"
        )
        assert main(["compare", "--config", cfg]) == 2
        assert "empty simulation input" in capsys.readouterr().err

    def test_missing_column_rejected(self, tmp_path, capsys):
        sim = self.make_psi_report(tmp_path, trials=1000)
        cfg = write_config(
            tmp_path, f"[compare]\nsimulation = {sim}\nquantity = jep\n"
        )
        assert main(["compare", "--config", cfg]) == 2
        assert "mismatched report" in capsys.readouterr().err


class TestGoldenFiles:
    # the small axes cover r1 = 0, both SEP branches (r2 below and above
    # 0.5*log(d1/d2) = 0.347) and all three fixed-split cases i, ii, iii
    @pytest.mark.parametrize(
        "command, extra, golden",
        [
            ("exponent-grid", SMALL_AXES, "exponent_grid_small.csv"),
            ("asymptotics", SMALL_AXES + FULL_SECTIONS, "asymptotics_full_small.csv"),
        ],
    )
    def test_small_axes_golden(self, tmp_path, command, extra, golden):
        cfg = write_config(tmp_path, BASE + extra)
        out = str(tmp_path / "out.csv")
        assert main([command, "--config", cfg, "--out", out]) == 0
        assert Path(out).read_bytes() == (GOLDEN / golden).read_bytes()

    def test_discrete_small_axes_golden(self, tmp_path):
        # the same axes for a pmf source (sigma2 = 1), pinning a non-Gaussian cgf
        cfg = write_config(tmp_path, DISCRETE_BASE + SMALL_AXES)
        out = str(tmp_path / "out.csv")
        assert main(["exponent-grid", "--config", cfg, "--out", out]) == 0
        golden = GOLDEN / "exponent_grid_discrete_small.csv"
        assert Path(out).read_bytes() == golden.read_bytes()

    def test_simulate_psi_golden(self, tmp_path):
        cfg = write_config(tmp_path, PSI_SMALL)
        out = str(tmp_path / "psi.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        assert Path(out).read_bytes() == (GOLDEN / "simulate_psi_small.csv").read_bytes()

    def test_asymptotics_golden(self, tmp_path):
        cfg = write_config(
            tmp_path,
            BASE
            + """
[rates]
r1_min = 0.2
r1_max = 1.0
r1_steps = 3
r2_min = 0.2
r2_max = 1.0
r2_steps = 3
""",
        )
        out = str(tmp_path / "asym.csv")
        assert main(["asymptotics", "--config", cfg, "--out", out]) == 0
        assert Path(out).read_bytes() == (GOLDEN / "asymptotics_small.csv").read_bytes()

    def test_simulate_golden(self, tmp_path):
        cfg = write_config(tmp_path, SIM_SMALL)
        out = str(tmp_path / "sim.csv")
        assert main(["simulate", "--config", cfg, "--workers", "2", "--out", out]) == 0
        assert Path(out).read_bytes() == (GOLDEN / "simulate_small.csv").read_bytes()
