"""Command-line contracts: exit codes, schema stability, byte determinism,
golden files on fixed seeds."""

import math
import os
import re
from pathlib import Path

import pytest

from srgauss.cli import main
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

RATES_SIM = BASE + """
[rates]
r1 = 0.55

[simulate]
n = 8
kinds = iid,iid
trials = 10
sizing = rates
"""

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
    ("simulate", SIM_SMALL.replace("trials = 400", "trials = many"), "simulate.trials"),
    ("asymptotics", BASE.replace("d1 = 0.5", "d1 = half") + SMALL_AXES, "distortion.d1"),
    ("compare", "[compare]\nquantity = jep\n", "compare.simulation"),
    ("simulate", SIM_SMALL + "[simulation]\nn = 8\n", "[simulation]"),
    ("asymptotics", BASE + "d1 = 0.4\n" + SMALL_AXES, "option 'd1' in section 'distortion'"),
    ("simulate", SIM_SMALL + "method = fast\n", "simulate.method"),
    ("simulate", SIM_SMALL + "precision = half\n", "simulate.precision"),
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
        cfg = write_config(
            tmp_path,
            BASE
            + """
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
""",
        )
        out = str(tmp_path / "plan.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        row = read_report(out)[0]
        assert row["target_eps"] == 0.2
        assert row["m1"] >= 1 and row["m2"] >= 1

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

    def test_single_point_grid(self, tmp_path):
        cfg = write_config(tmp_path, BASE + "\n[rates]\nr1 = 0.8\nr2 = 0.6\n")
        out = str(tmp_path / "one.csv")
        assert main(["exponent-grid", "--config", cfg, "--out", out]) == 0
        assert len(read_report(out)) == 1

    def test_empty_grid_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE + "\n[rates]\nr1 = \nr2 = 0.6\n")
        assert main(["exponent-grid", "--config", cfg]) == 2


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
