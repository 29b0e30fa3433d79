"""Config-driven experiment runner.

Subcommands read a flat INI-style config (one experiment per file, section
headers with key = value lines) and emit schema-stable CSV or JSON reports;
every emitted number is reproducible from (config, seed) alone.

``CONFIG_KEYS`` lists every section and every key a command may read, and
:func:`_get` is the one reader: every key, ``[source]`` included, is parsed
by its ``CONFIG_KEYS`` entry, and every number must be finite.  An unknown
section or key (for ``[source]``, also a key of another family), a missing
required key and a value that will not parse are config errors naming
``section.key``.

Exit codes: 0 ok, 2 config error or unreadable/unwritable path, 3 numeric
error, 4 budget refusal.
"""

from __future__ import annotations

import argparse
import configparser
import inspect
import math
import sys
from functools import partial

import numpy as np

from . import report, sources
from .asymptotics import (
    ModerateQuery,
    RateQuery,
    _check_distortions,
    code_size,
    exponent_columns,
    jep_exponent,
    lambda_for_rates,
    moderate_constants,
    second_order_plan,
    sep_exponents,  # noqa: F401  bench/test_bench.py expects the tracer to patch it here
    sep_second_order,
)
from .codec import KINDS, SchemeConfig
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


def _choice(*options: str):
    def parse(raw: str) -> str:
        word = raw.strip().lower()
        if word not in options:
            raise ValueError(f"must be {'|'.join(options)}")
        return word

    return parse


_kind = _choice(*KINDS)


def _items(raw: str) -> list[str]:
    items = raw.split()
    if not items:
        raise ValueError("empty list")
    return items


def _kind_pairs(raw: str) -> list[tuple[str, str]]:
    pairs = [tuple(_kind(k) for k in pair.split(",")) for pair in _items(raw)]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError("expected kind1,kind2 pairs")
    return pairs


def _number(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _numbers(raw: str) -> list[float]:
    return [_number(tok) for tok in _items(raw)]


def _ints(raw: str) -> list[int]:
    return [int(tok) for tok in _items(raw)]


# The [simulate] keys read in scheme mode only and in psi/phi mode only;
# each mode refuses the other's
SIMULATE_MODE_KEYS = {
    "scheme": {
        "kinds": _kind_pairs, "sizing": _choice("plan", "rates", "explicit"),
        "method": _choice(*METHODS), "precision": _choice(*PRECISIONS),
        "m1": int, "m2": int, "lambda": _number,
    },
    "psi/phi": {"kind": _kind, "norm_arg": _number, "power": _number, "distortion": _number},
}

# Every section and the union of the keys any command reads from it,
# key -> parser.  [source] holds the family and every family constructor's
# parameters (discrete's are number lists); _source refuses another
# family's key.
CONFIG_KEYS = {
    "source": {"family": _choice(*sources.FAMILIES)} | {
        key: _numbers if family == "discrete" else _number
        for family, make in sources.FAMILIES.items()
        for key in inspect.signature(make).parameters
    },
    "distortion": {"d1": _number, "d2": _number},
    "rates": {
        "r1": _numbers, "r2": _numbers,
        "r1_min": _number, "r1_max": _number, "r1_steps": int,
        "r2_min": _number, "r2_max": _number, "r2_steps": int,
    },
    "second_order": {
        "lambda": _number, "epsilon": _number, "c_log": _number, "n": int, "kind2": _kind,
    },
    "moderate": {"theta1": _number, "theta2": _number, "rho_exponent": _number},
    "simulate": {
        "mode": _choice("scheme", "psi", "phi"), "n": _ints, "trials": int, "seed": int,
        **SIMULATE_MODE_KEYS["scheme"], **SIMULATE_MODE_KEYS["psi/phi"],
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
            if key not in CONFIG_KEYS[section]:
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
    family = _get(cp, "source", "family", "gaussian")
    make = sources.FAMILIES[family]
    params = inspect.signature(make).parameters
    for key in cp["source"]:
        if key != "family" and key not in params:
            raise ConfigError(f"unknown key source.{key} (family {family!r})")
    return make(**{
        key: _get(cp, "source", key)
        for key, p in params.items()
        if p.default is p.empty or cp.has_option("source", key)
    })


def _rate_axes(cp) -> tuple[list[float], list[float]]:
    """Each axis is a list (r1 = 0.5 0.7) or a grid (r1_min/r1_max/r1_steps),
    not both."""
    rates = partial(_get, cp, "rates")
    axes = []
    for name in ("r1", "r2"):
        pts = rates(name, None)
        grid = [f"rates.{name}_{k}" for k in ("min", "max", "steps")
                if cp.has_option("rates", f"{name}_{k}")]
        if pts is not None and grid:
            raise ConfigError(f"rates.{name}, {', '.join(grid)}: give the {name} axis as a list "
                              "or as a grid, not both")
        if pts is None:
            lo, hi, steps = (rates(f"{name}_{k}") for k in ("min", "max", "steps"))
            if steps < 1:
                raise ConfigError(f"rates.{name}_steps: requires >= 1, got {steps}")
            pts = [lo] if steps == 1 else [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
        axes.append(pts)
    return axes[0], axes[1]


ASYMPTOTICS_COLUMNS = [
    "r1", "r2", "region", "eta", "lambda", "alpha_star",
    "jep_exponent", "jep_positive",
    "l1_case", "l1_exponent", "l1_positive",
    "sep_case", "sep_e1", "sep_e2", "sep_e1_positive", "sep_e2_positive",
    "log_m1", "log_m2", "so_case", "sep_l1", "sep_l2",
    "v_jep", "v1", "v2",
]


def cmd_asymptotics(cp, args) -> tuple[dict[str, list], list[str]]:
    source = _source(cp)
    d1, d2 = (_get(cp, "distortion", k) for k in ("d1", "d2"))
    r1s, r2s = _rate_axes(cp)
    extra = dict.fromkeys(ASYMPTOTICS_COLUMNS[16:])  # None where a section is absent
    columns = ASYMPTOTICS_COLUMNS[:16]
    if cp.has_section("second_order"):
        so = partial(_get, cp, "second_order")
        lam, eps, n = so("lambda", 1.0), so("epsilon"), so("n")
        _check_distortions(source.sigma2, d1, d2)  # before d2/d1 is formed
        _refuse(_plan_checks(lam, eps, n, "second_order.n", d1, d2))
        plan = second_order_plan(
            source, d1, d2, lam, eps, n, c_log=so("c_log", 0.0), kind2=so("kind2", "spherical"),
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
    table = exponent_columns(source, r1s, r2s, d1, d2)
    return table | {c: [extra[c]] * len(table["r1"]) for c in columns[16:]}, columns


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


def _refuse(checks) -> None:
    """Refuse the first failed (section.key, value, ok, need) check by its
    key: SchemeConfig, estimate, core, estimate_nonexcess and
    second_order_plan would name no key."""
    for key, value, ok, need in checks:
        if not ok:
            raise ConfigError(f"{key}: requires {need}, got {key.split('.')[1]}={value}")


def _split_check(key: str, lam: float, d1: float, d2: float) -> tuple:
    """The power split's range, by the key that set it."""
    return key, lam, d2 / d1 < lam <= 1.0, f"lambda in (d2/d1, 1] = ({d2 / d1}, 1]"


def _plan_checks(lam: float, eps: float, n: int, n_key: str, d1: float, d2: float) -> list:
    """second_order_plan's refusals, by the keys that set them."""
    return [_split_check("second_order.lambda", lam, d1, d2),
            ("second_order.epsilon", eps, 0.0 < eps < 1.0, "epsilon in (0, 1)"),
            (n_key, n, n >= 8, "n >= 8 so the layer-2 margin is positive")]


def _scheme_points(cp, source, ns: list[int], trials: int) -> list[tuple[SchemeConfig, dict]]:
    sim = partial(_get, cp, "simulate")
    d1, d2 = (_get(cp, "distortion", k) for k in ("d1", "d2"))
    sizing = sim("sizing", "plan")
    kinds = sim("kinds", [("spherical", "spherical")])
    checks = [("simulate.trials", trials, trials >= 1, "trials >= 1"),
              ("simulate.n", min(ns), min(ns) >= 2, "n >= 2")]
    pred = None
    _check_distortions(source.sigma2, d1, d2)  # before d2/d1 is formed
    if sizing == "plan":
        so = partial(_get, cp, "second_order")
        lam, eps, c_log = so("lambda", 1.0), so("epsilon"), so("c_log", 0.0)
        checks += _plan_checks(lam, eps, min(ns), "simulate.n", d1, d2)
    elif sizing == "rates":
        r1s, r2s = _rate_axes(cp)
        if len(r1s) != 1 or len(r2s) != 1:
            raise ConfigError("rate-based sizing needs one rates.r1 and one rates.r2")
        (r1,), (r2,) = r1s, r2s
        # refuses a rate above 300 nats before exp(2*r2) or n*r1 can overflow
        q = RateQuery(r1, r2, d1, d2)
        # r2 = 0 puts the power split on d2/d1: no second-layer power
        for name, r in (("r2", r2), ("r1", r1)):
            if not r > 0:
                raise ConfigError(f"rates.{name}: rate-based sizing requires {name} > 0, got {r}")
        lam = lambda_for_rates(r2, d1, d2)
        if ("iid", "iid") in kinds:  # the only codebooks it is derived for
            pred = jep_exponent(source, q).value
    else:
        lam, m1, m2 = sim("lambda", 1.0), sim("m1"), sim("m2")
        checks += [("simulate.m1", m1, m1 >= 1, "m1 >= 1"), ("simulate.m2", m2, m2 >= 1, "m2 >= 1"),
                   _split_check("simulate.lambda", lam, d1, d2)]
    _refuse(checks)
    points = []
    for n in ns:
        for kind1, kind2 in kinds:
            extra = {"target_eps": None,
                     "pred_jep_exponent": pred if (kind1, kind2) == ("iid", "iid") else None}
            if sizing == "plan":
                plan = second_order_plan(source, d1, d2, lam, eps, n, c_log=c_log, kind2=kind2)
                m1, m2 = plan.m1, plan.m2
                extra["target_eps"] = eps
            elif sizing == "rates":
                m1 = code_size(n * r1)
                m2 = code_size(n * min(r2, 0.5 * math.log(lam * d1 / d2)))
            cfg = SchemeConfig(n=n, m1=m1, m2=m2, kind1=kind1, kind2=kind2, d1=d1, d2=d2, lam=lam)
            points.append((cfg, extra))
    return points


def cmd_simulate(cp, args) -> tuple[dict[str, list], list[str]]:
    source = _source(cp)
    sim = partial(_get, cp, "simulate")
    mode = sim("mode", "scheme")
    other = "psi/phi" if mode == "scheme" else "scheme"
    stray = [f"simulate.{k}" for k in SIMULATE_MODE_KEYS[other] if cp.has_option("simulate", k)]
    if stray:
        raise ConfigError(f"{', '.join(stray)}: {other}-mode keys, refused in mode = {mode}")
    seed = args.seed if args.seed is not None else sim("seed", 0)
    trials, ns = sim("trials"), sim("n")

    if mode == "scheme":
        points = _scheme_points(cp, source, ns, trials)
        method = sim("method", "direct")
        precision = sim("precision", "double")
        cost = sum(trials * ops_per_trial(cfg, method) for cfg, _ in points)
    else:
        kind = sim("kind", "iid")
        arg, power, dist = sim("norm_arg"), sim("power"), sim("distortion")
        spherical = kind == "spherical"
        _refuse([
            # the wording estimate_nonexcess refused n < 1 with
            ("simulate.n", min(ns), min(ns) >= 1, "n >= 1, w >= 0 and trials >= 1"),
            ("simulate.trials", trials, trials >= 1, "trials >= 1"),
            ("simulate.power", power, power > 0, "power > 0"),
            ("simulate.distortion", dist, dist > 0, "distortion > 0"),
            ("simulate.norm_arg", arg, arg > 0 if spherical else arg >= 0,
             "norm_arg > 0 for kind = spherical" if spherical else "norm_arg >= 0"),
        ])
        try:  # what is left to refuse, an infeasible cap, couples three keys
            pred = (spherical_cap_exponent if spherical else iid_nonexcess_exponent)(
                arg, power, dist)
        except ConfigError as exc:
            raise ConfigError(
                f"simulate.norm_arg, simulate.power, simulate.distortion: {exc}") from None
        cost = sum(trials * n for n in ns)
    if cost > args.budget:
        raise BudgetError(
            f"estimated {cost} distance multiply-adds exceed budget {args.budget}; "
            "raise --budget to proceed"
        )

    if mode != "scheme":
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
        return report.transpose(rows, PSIPHI_COLUMNS), PSIPHI_COLUMNS

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
            # an over-budget run is refused up front, never truncated
            "partial": False, **extra,
        })
    return report.transpose(rows, SIMULATE_COLUMNS), SIMULATE_COLUMNS


EXPONENT_GRID_COLUMNS = [
    "r1", "r2", "region", "lambda",
    "jep_exponent", "jep_positive", "l1_exponent", "l1_case",
    "sep_e1", "sep_e2", "zero_edge",
]


# exponent-grid reports zero exponents at r1 = 0, where none is computed
_GRID_AT_R1_ZERO = dict.fromkeys(("jep_exponent", "l1_exponent", "sep_e1", "sep_e2"), 0.0) | {
    "jep_positive": False, "l1_case": "iii"}


def cmd_exponent_grid(cp, args) -> tuple[dict[str, list], list[str]]:
    source = _source(cp)
    d1, d2 = (_get(cp, "distortion", k) for k in ("d1", "d2"))
    r1s, r2s = _rate_axes(cp)
    # only the printed columns: the others are freed before the render
    table, m = exponent_columns(source, r1s, r2s, d1, d2), len(r2s)
    table = {c: table[c] for c in EXPONENT_GRID_COLUMNS[:-1]}
    for i in np.flatnonzero(np.array(r1s) == 0):
        for c, value in _GRID_AT_R1_ZERO.items():
            table[c][i * m:(i + 1) * m] = [value] * m
    table["zero_edge"] = _zero_edge(table["jep_exponent"], m)
    return table, EXPONENT_GRID_COLUMNS


def _zero_edge(jep: list[float], m: int) -> list[bool]:
    """The edge of the zero set of an r1-major grid with m columns: the zero
    cells with a positive cell above, below, left or right of them."""
    grid = np.array(jep, dtype=float).reshape(-1, m)
    positive = np.zeros((len(grid) + 2, m + 2), dtype=bool)  # a zero border
    positive[1:-1, 1:-1] = grid > 0.0
    near = positive[:-2, 1:-1] | positive[2:, 1:-1] | positive[1:-1, :-2] | positive[1:-1, 2:]
    return ((grid == 0.0) & near).ravel().tolist()


COMPARE_COLUMNS = [
    "row_kind", "point", "n", "estimate", "lo", "hi",
    "prediction", "gap", "per_n_exponent",
    "slope", "slope_stderr", "slope_target", "within_2se",
]


def cmd_compare(cp, args) -> tuple[dict[str, list], list[str]]:
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

    # a decay rate (psi/phi or rates sizing), else a plan's target_eps, in every row
    rate_col = next((c for c in ("pred_rate", "pred_jep_exponent")
                     if all(r.get(c) is not None for r in sim_rows)), None)
    if rate_col is None and any(r.get("target_eps") is None for r in sim_rows):
        raise ConfigError("simulation report carries no prediction columns")
    pairs = sorted({f"{r.get('kind1')},{r.get('kind2')}" for r in sim_rows})
    if len(pairs) > 1:  # one slope is fitted across all rows
        raise ConfigError(f"simulation report mixes kind1, kind2 pairs {' '.join(pairs)}; "
                          "compare fits one pair per report")

    rows = []
    pts = []
    for i, r in enumerate(sim_rows):
        n = r["n"]
        est = float(r[col])
        if rate_col:
            target = float(r[rate_col])
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
    return report.transpose(rows, COMPARE_COLUMNS), COMPARE_COLUMNS


def _workers(raw: str) -> int:
    """--workers: an int of at least 1, else argparse's refusal (exit 2)."""
    workers = int(raw)
    if workers < 1:
        raise argparse.ArgumentTypeError(f"requires workers >= 1, got {workers}")
    return workers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="srgauss",
        description="Mismatched successive refinement: simulators and calculators",
    )
    handlers = {
        "asymptotics": cmd_asymptotics,
        "simulate": cmd_simulate,
        "exponent-grid": cmd_exponent_grid,
        "compare": cmd_compare,
    }
    parser.add_argument("command", choices=handlers)
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--seed", type=int, default=None, help="master seed (u64)")
    parser.add_argument("--workers", type=_workers, default=1)
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", default="csv", choices=["csv", "json"])
    parser.add_argument("--budget", type=int, default=10**10,
                        help="compute budget in distance multiply-adds (default 10^10)")
    args = parser.parse_args(argv)

    try:
        cp = _load(args.config)
        table, columns = handlers[args.command](cp, args)
        report.write(table, columns, args.format, args.out)
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
