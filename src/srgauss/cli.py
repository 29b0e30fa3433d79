"""Config-driven experiment runner.

Subcommands read a flat INI-style config (one experiment per file, section
headers with key = value lines) and emit schema-stable CSV or JSON reports;
every emitted number is reproducible from (config, seed) alone.

``CONFIG_KEYS`` lists every section and every key a command may read;
``[source]`` keys belong to the family and are checked by
:func:`srgauss.sources.from_config`.  An unknown section or key, a missing
required key and a value that will not parse are config errors naming
``section.key``.

Exit codes: 0 ok, 2 config error or unreadable/unwritable path, 3 numeric
error, 4 budget refusal.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from functools import partial

from . import report, sources
from .asymptotics import (
    ModerateQuery,
    RateQuery,
    exponent_point,
    jep_exponent,
    lambda_for_rates,
    moderate_constants,
    second_order_plan,
    sep_exponents,  # noqa: F401  bench/test_bench.py expects the tracer to patch it here
    sep_second_order,
)
from .codec import SchemeConfig
from .core import iid_nonexcess_exponent, spherical_cap_exponent
from .errors import BudgetError, ConfigError, NumericError
from .montecarlo import (
    METHODS,
    PRECISIONS,
    estimate,
    estimate_nonexcess,
    ops_per_trial,
    wilson_interval,
)
from .sources import SourceSpec

_KIND_ALIASES = {"sp": "spherical", "spherical": "spherical", "iid": "iid"}


def _kind(raw: str) -> str:
    k = raw.strip().lower()
    if k not in _KIND_ALIASES:
        raise ValueError(f"codebook kind must be spherical|sp|iid, got {raw!r}")
    return _KIND_ALIASES[k]


def _kind_pairs(raw: str) -> list[tuple[str, str]]:
    pairs = [tuple(_kind(k) for k in pair.split(",")) for pair in raw.split()]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError("expected kind1,kind2 pairs")
    return pairs


def _floats(raw: str) -> list[float]:
    return [float(tok) for tok in raw.split()]


def _ints(raw: str) -> list[int]:
    return [int(tok) for tok in raw.split()]


def _choice(*options: str):
    def parse(raw: str) -> str:
        word = raw.strip().lower()
        if word not in options:
            raise ValueError(f"must be {'|'.join(options)}")
        return word

    return parse


# Every section and the union of the keys any command reads from it,
# key -> parser.  [source] keys depend on the family: sources.from_config.
CONFIG_KEYS = {
    "source": None,
    "distortion": {"d1": float, "d2": float},
    "rates": {
        "r1": _floats, "r2": _floats,
        "r1_min": float, "r1_max": float, "r1_steps": int,
        "r2_min": float, "r2_max": float, "r2_steps": int,
    },
    "second_order": {
        "lambda": float, "epsilon": float, "c_log": float, "n": int, "kind2": _kind,
    },
    "moderate": {"theta1": float, "theta2": float, "rho_exponent": float},
    "simulate": {
        "mode": _choice("scheme", "psi", "phi"), "n": _ints, "trials": int, "seed": int,
        # scheme mode
        "kinds": _kind_pairs, "sizing": _choice("plan", "rates", "explicit"),
        "method": _choice(*METHODS), "precision": _choice(*PRECISIONS),
        "m1": int, "m2": int, "lambda": float,
        # psi/phi mode
        "kind": _kind, "norm_arg": float, "power": float, "distortion": float,
    },
    "compare": {"simulation": str, "quantity": _choice("jep", "sep1", "sep2", "estimate")},
}

_REQUIRED = object()


def _load(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section in cp.sections():
        if section not in CONFIG_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if CONFIG_KEYS[section] is not None and key not in CONFIG_KEYS[section]:
                raise ConfigError(f"unknown key {section}.{key}")
    return cp


def _get(cp, section: str, key: str, default=_REQUIRED):
    """The config reader: ``section.key`` parsed by its CONFIG_KEYS entry,
    or ``default`` when absent; absent without a default is an error."""
    if not cp.has_option(section, key):
        if default is _REQUIRED:
            where = "" if cp.has_section(section) else f" (no [{section}] section)"
            raise ConfigError(f"missing required key {section}.{key}{where}")
        return default
    raw = cp.get(section, key)
    try:
        return CONFIG_KEYS[section][key](raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r} ({exc})") from None


def _source(cp) -> SourceSpec:
    if not cp.has_section("source"):
        raise ConfigError("config requires a [source] section")
    return sources.from_config(cp["source"])


def _rate_axes(cp) -> tuple[list[float], list[float]]:
    """Each axis is a list (r1 = 0.5 0.7) or a grid (r1_min/r1_max/r1_steps)."""
    rates = partial(_get, cp, "rates")
    axes = []
    for name in ("r1", "r2"):
        pts = rates(name, None)
        if pts is None:
            lo, hi, steps = (rates(f"{name}_{k}") for k in ("min", "max", "steps"))
            if steps < 1:
                raise ConfigError(f"rates.{name}_steps: requires >= 1, got {steps}")
            pts = [lo] if steps == 1 else [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
        axes.append(pts)
    if not all(axes):
        raise ConfigError("rate grid is empty")
    return axes[0], axes[1]


ASYMPTOTICS_COLUMNS = [
    "r1", "r2", "region", "eta", "lambda", "alpha_star",
    "jep_exponent", "jep_positive",
    "l1_case", "l1_exponent", "l1_positive",
    "sep_case", "sep_e1", "sep_e2", "sep_e1_positive", "sep_e2_positive",
    "log_m1", "log_m2", "so_case", "sep_l1", "sep_l2",
    "v_jep", "v1", "v2",
]


def cmd_asymptotics(cp, args) -> tuple[list[dict], list[str]]:
    source = _source(cp)
    d1, d2 = (_get(cp, "distortion", k) for k in ("d1", "d2"))
    r1s, r2s = _rate_axes(cp)
    extra = {}
    columns = ASYMPTOTICS_COLUMNS[:16]
    if cp.has_section("second_order"):
        so = partial(_get, cp, "second_order")
        eps = so("epsilon")
        plan = second_order_plan(
            source, d1, d2, so("lambda", 1.0), eps, so("n"),
            c_log=so("c_log", 0.0), kind2=so("kind2", "spherical"),
        )
        l1, l2 = sep_second_order(source, d1, d2, eps, eps)
        extra.update(log_m1=plan.log_m1, log_m2=plan.log_m2, so_case=plan.case,
                     sep_l1=l1, sep_l2=l2)
        columns = ASYMPTOTICS_COLUMNS[:21]
    if cp.has_section("moderate"):
        mod = partial(_get, cp, "moderate")
        mq = ModerateQuery(mod("theta1"), mod("theta2", 0.0), mod("rho_exponent", 0.25))
        v_jep, v1, v2 = moderate_constants(source, mq)
        extra.update(v_jep=v_jep, v1=v1, v2=v2)
        columns = ASYMPTOTICS_COLUMNS
    rows = []
    for r1 in r1s:
        for r2 in r2s:
            point = exponent_point(source, RateQuery(r1, r2, source.sigma2, d1, d2))
            rows.append({**point, **extra})
    return rows, columns


SIMULATE_COLUMNS = [
    "point", "n", "kind1", "kind2", "m1", "m2", "trials", "seed", "method",
    "precision", "count_joint", "count1", "count2",
    "jep_hat", "jep_lo", "jep_hi",
    "sep1_hat", "sep1_lo", "sep1_hi",
    "sep2_hat", "sep2_lo", "sep2_hi",
    "partial", "target_eps", "pred_jep_exponent",
]

PSIPHI_COLUMNS = [
    "point", "n", "kind", "quantity", "norm_arg", "power", "distortion",
    "trials", "seed", "estimate", "lo", "hi", "pred_rate",
]


def _scheme_points(cp, source) -> list[tuple[SchemeConfig, dict]]:
    sim = partial(_get, cp, "simulate")
    d1, d2 = (_get(cp, "distortion", k) for k in ("d1", "d2"))
    sizing = sim("sizing", "plan")
    points = []
    for n in sim("n"):
        for kind1, kind2 in sim("kinds", [("spherical", "spherical")]):
            extra = {"target_eps": None, "pred_jep_exponent": None}
            if sizing == "plan":
                so = partial(_get, cp, "second_order")
                lam, eps = so("lambda", 1.0), so("epsilon")
                plan = second_order_plan(
                    source, d1, d2, lam, eps, n, c_log=so("c_log", 0.0), kind2=kind2
                )
                m1, m2 = plan.m1, plan.m2
                extra["target_eps"] = eps
            elif sizing == "rates":
                r1s, r2s = _get(cp, "rates", "r1"), _get(cp, "rates", "r2")
                if len(r1s) != 1 or len(r2s) != 1:
                    raise ConfigError("rate-based sizing needs one rates.r1 and one rates.r2")
                r1, r2 = r1s[0], r2s[0]
                lam_choice = lambda_for_rates(r2, d1, d2)
                if lam_choice.degenerate:
                    raise ConfigError(
                        "rate-based sizing requires r2 > 0 (degenerate power split)"
                    )
                lam = lam_choice.value
                m1 = max(1, math.ceil(math.exp(n * r1)))
                r2_eff = min(r2, 0.5 * math.log(lam * d1 / d2))
                m2 = max(1, math.ceil(math.exp(n * r2_eff)))
                q = RateQuery(r1, r2, source.sigma2, d1, d2)
                extra["pred_jep_exponent"] = jep_exponent(source, q).value
            else:
                lam = sim("lambda", 1.0)
                m1, m2 = sim("m1"), sim("m2")
            cfg = SchemeConfig(
                n=n, m1=m1, m2=m2, kind1=kind1, kind2=kind2,
                d1=d1, d2=d2, lam=lam, sigma2=source.sigma2,
            )
            points.append((cfg, extra))
    return points


def cmd_simulate(cp, args) -> tuple[list[dict], list[str]]:
    source = _source(cp)
    sim = partial(_get, cp, "simulate")
    mode = sim("mode", "scheme")
    seed = args.seed if args.seed is not None else sim("seed", 0)
    trials = sim("trials")

    if mode == "scheme":
        points = _scheme_points(cp, source)
        method = sim("method", "direct")
        precision = sim("precision", "double")
        cost = sum(trials * ops_per_trial(cfg, method) for cfg, _ in points)
    else:
        ns = sim("n")
        kind = sim("kind", "iid")
        arg, power, dist = sim("norm_arg"), sim("power"), sim("distortion")
        cost = sum(trials * n for n in ns)
    if cost > args.budget:
        raise BudgetError(
            f"estimated {cost} distance multiply-adds exceed budget {args.budget}; "
            "raise --budget to proceed"
        )

    if mode != "scheme":
        rate = iid_nonexcess_exponent if kind == "iid" else spherical_cap_exponent
        pred = rate(arg, power, dist)
        rows = []
        for i, n in enumerate(ns):
            est = estimate_nonexcess(kind, n, arg, power, dist, trials, seed)
            lo, hi = wilson_interval(round(est * trials), trials)
            rows.append({
                "point": i, "n": n, "kind": kind, "quantity": mode,
                "norm_arg": arg, "power": power, "distortion": dist,
                "trials": trials, "seed": seed,
                "estimate": est, "lo": lo, "hi": hi, "pred_rate": pred,
            })
        return rows, PSIPHI_COLUMNS

    rows = []
    for i, (cfg, extra) in enumerate(points):
        res = estimate(
            cfg, source, trials=trials, seed=seed, workers=args.workers,
            method=method, precision=precision,
        )
        jep_lo, jep_hi = res.jep_interval
        s1_lo, s1_hi = res.sep1_interval
        s2_lo, s2_hi = res.sep2_interval
        rows.append({
            "point": i, "n": cfg.n, "kind1": cfg.kind1, "kind2": cfg.kind2,
            "m1": cfg.m1, "m2": cfg.m2, "trials": res.trials, "seed": seed,
            "method": method, "precision": precision,
            "count_joint": res.count_joint, "count1": res.count1,
            "count2": res.count2,
            "jep_hat": res.jep_hat, "jep_lo": jep_lo, "jep_hi": jep_hi,
            "sep1_hat": res.sep1_hat, "sep1_lo": s1_lo, "sep1_hi": s1_hi,
            "sep2_hat": res.sep2_hat, "sep2_lo": s2_lo, "sep2_hi": s2_hi,
            "partial": res.partial, **extra,
        })
    return rows, SIMULATE_COLUMNS


EXPONENT_GRID_COLUMNS = [
    "r1", "r2", "region", "lambda",
    "jep_exponent", "jep_positive", "l1_exponent", "l1_case",
    "sep_e1", "sep_e2", "zero_edge",
]


# exponent-grid reports zero exponents at r1 = 0, where none is computed
_GRID_AT_R1_ZERO = {
    "jep_exponent": 0.0, "jep_positive": False, "l1_exponent": 0.0, "l1_case": "iii",
    "sep_e1": 0.0, "sep_e2": 0.0,
}


def cmd_exponent_grid(cp, args) -> tuple[list[dict], list[str]]:
    source = _source(cp)
    d1, d2 = (_get(cp, "distortion", k) for k in ("d1", "d2"))
    r1s, r2s = _rate_axes(cp)
    values = {}
    rows = []
    for i, r1 in enumerate(r1s):
        for j, r2 in enumerate(r2s):
            q = RateQuery(r1, r2, source.sigma2, d1, d2)
            point = {**_GRID_AT_R1_ZERO, **exponent_point(source, q)}
            values[(i, j)] = point["jep_exponent"]
            rows.append({c: point[c] for c in EXPONENT_GRID_COLUMNS[:-1]})
    # mark the edge of the zero set: zero cells adjacent to a positive cell
    for (i, j), row in zip(values, rows):
        row["zero_edge"] = values[(i, j)] == 0.0 and any(
            values.get((i + di, j + dj), 0.0) > 0.0
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))
        )
    return rows, EXPONENT_GRID_COLUMNS


COMPARE_COLUMNS = [
    "row_kind", "point", "n", "estimate", "lo", "hi",
    "prediction", "gap", "per_n_exponent",
    "slope", "slope_stderr", "slope_target", "within_2se",
]


def cmd_compare(cp, args) -> tuple[list[dict], list[str]]:
    sim_path = _get(cp, "compare", "simulation")
    if not sim_path:
        raise ConfigError("compare requires simulation = <path to a simulate report>")
    sim_rows = report.read_report(sim_path)
    if not sim_rows:
        raise ConfigError(f"empty simulation input: {sim_path}")
    col = {
        "jep": "jep_hat", "sep1": "sep1_hat", "sep2": "sep2_hat",
        "estimate": "estimate",
    }[_get(cp, "compare", "quantity", "estimate")]
    if col not in sim_rows[0] or sim_rows[0].get(col) is None:
        raise ConfigError(
            f"mismatched report: column {col!r} absent from {sim_path}"
        )

    have_rate = sim_rows[0].get("pred_rate") is not None
    have_eps = sim_rows[0].get("target_eps") is not None
    have_exp = sim_rows[0].get("pred_jep_exponent") is not None
    if not (have_rate or have_eps or have_exp):
        raise ConfigError("simulation report carries no prediction columns")

    rows = []
    pts = []
    for i, r in enumerate(sim_rows):
        n = r["n"]
        est = float(r[col])
        if have_rate:
            rate = float(r["pred_rate"])
            prediction = math.exp(-n * rate)
            target = rate
        elif have_exp:
            target = float(r["pred_jep_exponent"])
            prediction = math.exp(-n * target)
        else:
            prediction = float(r["target_eps"])
            target = None
        lo = r.get("lo", r.get(col.replace("_hat", "_lo")))
        hi = r.get("hi", r.get(col.replace("_hat", "_hi")))
        per_n = -math.log(est) / n if est > 0 else None
        rows.append(
            {
                "row_kind": "point", "point": i, "n": n, "estimate": est,
                "lo": lo, "hi": hi, "prediction": prediction,
                "gap": est - prediction, "per_n_exponent": per_n,
            }
        )
        if est > 0:
            pts.append((n, -math.log(est), target))

    slope_row = {"row_kind": "slope", "point": None}
    ns = sorted({p[0] for p in pts})
    if len(ns) >= 2:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        xbar = sum(xs) / len(xs)
        ybar = sum(ys) / len(ys)
        sxx = sum((x - xbar) ** 2 for x in xs)
        slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
        intercept = ybar - slope * xbar
        rss = sum((y - slope * x - intercept) ** 2 for x, y in zip(xs, ys))
        dof = len(xs) - 2
        stderr = math.sqrt(rss / dof / sxx) if dof > 0 else math.nan
        target = pts[0][2]
        slope_row.update(
            slope=slope, slope_stderr=stderr, slope_target=target,
            within_2se=(
                abs(slope - target) <= 2 * stderr
                if target is not None and math.isfinite(stderr)
                else None
            ),
        )
    rows.append(slope_row)
    return rows, COMPARE_COLUMNS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="srgauss",
        description="Mismatched successive refinement: simulators and calculators",
    )
    parser.add_argument("command", choices=["asymptotics", "simulate", "exponent-grid", "compare"])
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed (u64)")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", default="csv", choices=["csv", "json"])
    parser.add_argument("--budget", type=int, default=10**10,
                        help="compute budget in distance multiply-adds (default 10^10)")
    args = parser.parse_args(argv)

    handlers = {
        "asymptotics": cmd_asymptotics,
        "simulate": cmd_simulate,
        "exponent-grid": cmd_exponent_grid,
        "compare": cmd_compare,
    }
    try:
        cp = _load(args.config)
        rows, columns = handlers[args.command](cp, args)
        report.write(rows, columns, args.format, args.out)
    except BudgetError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"file error: {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
