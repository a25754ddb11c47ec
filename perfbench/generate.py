"""Seeded scenario generation for the two benchmark workloads.

Each workload is a fixed list of case kinds at fixed iteration budgets.
The seed draws the numbers of the seeded kinds (loads, signals, solar
output, the infeasible cases' prices, the desk instances).  The heavy
budgeted solves, and the period an infeasible bound hits, come from fixed
core draws instead: over 30 draws, the time of the 50-iteration lam=0.999
arbitrage day ranges from 0.008 s to 2.4 s and that of the 30-iteration
T=168 arbitrage week from 0.012 s to 2.6 s, so seeding them would move every
time metric by far more than any regression worth catching.  The core draws
(CORE_SEEDS) were picked from those 30 as the ones whose heavy cases sit
nearest the median time of each case; the README lists the figures.
Cases are written as scenario JSON with only storage, bounds, cost, outputs
and solve.max_iterations, so they keep loading when solver knobs such as the
step rule are removed.

Why each workload exists:

hourly       budgeted solves at hourly resolution, in two groups.  The day
             (T=24, lam=0.999): with lam near 1 the dynamics matrix is
             ill-conditioned, so projection dominates arbitrage with a
             binding energy cap while peak shaving barely projects, and the
             infeasible cases exercise infeasibility detection and the CLI's
             error-to-exit-code mapping.  The leaky week and month (T=168
             and T=720, lam=0.9): the horizon-bound costs (dense O(T^2)
             transforms every iteration, O(T^3) set-up, T x T memory).  At
             the seed commit projection still takes over 90% of each week
             case, and 10% of the month case.
desk-oracle  validation jobs at T=2..4 with known optima: one solve each,
             then the brute-force grid oracle, a nonconvexity-witness search
             and a 1e5-sample midpoint-convexity probe, so the batched
             transform and cost paths (1e5..1e7 rows) dominate here and
             nowhere else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import exact

WORKLOADS = ("hourly", "desk-oracle")

#: Points per axis of the grid oracle, by horizon.
ORACLE_POINTS = {2: 401, 3: 101, 4: 51}

#: Samples of the midpoint-convexity probe run on every desk-oracle case.
PROBE_SAMPLES = 100_000

#: Seed of the slow-arbitrage trials, and which trials of it to keep.
SLOW_TRIALS_SEED = 20250810
SLOW_TRIALS = (5, 6)

#: Salts that keep the day, week and desk draws of one seed independent.
_SALT = {"day": 11, "week": 22, "desk": 33}

#: Seeds of the core series that the heavy budgeted solves use, for the
#: day and for the week and month: the draws among seeds 0..29 whose heavy
#: cases come nearest the median time of each case over those draws.
CORE_SEEDS = {"day": 8, "week": 18}


@dataclass(frozen=True)
class Case:
    """One scenario file plus what a correct run of it must show."""

    case_id: str
    path: str
    feasible: bool  # exit 2 is wrong when True, and required when False
    certified: bool  # exit 0 is wrong when False
    oracle_points: Optional[int] = None  # desk-oracle: grid points per axis


def _scenario(storage: dict, bounds: dict, cost: dict, max_iterations: int) -> dict:
    return {"storage": storage, "bounds": bounds, "cost": cost, "outputs": ["solution"],
            "solve": {"max_iterations": max_iterations}}


def _storage(eta_c, eta_d, lam, delta, x0, horizon) -> dict:
    return {"eta_c": eta_c, "eta_d": eta_d, "lambda": lam, "delta": delta, "x0": x0,
            "horizon": horizon}


def _bounds(u_max, u_min, x_max, x_min) -> dict:
    return {name: [float(v) for v in vec] for name, vec in
            (("u_max", u_max), ("u_min", u_min), ("x_max", x_max), ("x_min", x_min))}


def _daily(hours: np.ndarray, peak_hour: float) -> np.ndarray:
    return np.sin(2.0 * np.pi * (hours - peak_hour + 6.0) / 24.0)


def _series(rng, horizon: int) -> dict:
    """Price, load, regulation signal and solar output for `horizon` hours."""
    hours = np.arange(horizon, dtype=float)
    price = 30.0 + 15.0 * _daily(hours, 18.0) + rng.normal(0.0, 2.0, horizon)
    load = 2.0 + _daily(hours, 19.0) + rng.uniform(0.0, 0.3, horizon)
    signal = -np.abs(rng.normal(0.0, 0.5, horizon))
    solar = 3.0 * np.maximum(_daily(hours, 12.0), 0.0) + rng.normal(0.0, 0.2, horizon)
    return {"price": price.tolist(), "load": load.tolist(), "signal": signal.tolist(),
            "solar": solar.tolist()}


def _family(kind: str, series: dict) -> dict:
    if kind == "arbitrage":
        return {"family": "energy_arbitrage", "p_buy": series["price"], "p_sell": series["price"]}
    if kind == "peak":
        return {"family": "peak_shaving", "load": series["load"]}
    if kind == "regulation":
        return {"family": "power_regulation", "signal": series["signal"]}
    return {"family": "power_smoothing", "renewable": series["solar"]}


def _infeasible_bounds(storage: dict, bounds: dict, period: int, margin: float) -> dict:
    """Raise x_min at `period` to `margin` above the highest reachable energy."""
    probe = {"storage": storage, "bounds": bounds}
    hi = storage["x0"]
    for t in range(period + 1):
        hi = storage["lambda"] * hi + storage["delta"] * storage["eta_c"] * bounds["u_max"][t]
        if t < period:
            hi = min(hi, bounds["x_max"][t])
    out = {name: list(vec) for name, vec in bounds.items()}
    out["x_min"][period] = hi + margin
    out["x_max"][period] = hi + margin + 1.0
    probe["bounds"] = out
    if abs(exact.infeasibility_margin(probe) - margin) > 1e-9 * (1.0 + hi):
        raise RuntimeError(f"infeasible case misses its margin {margin:g}")
    return out


# ---------------------------------------------------------------------------
# workloads

#: the hourly workload's day cases: (case id, cost kind, energy-cap
#: multiplier, iteration budget, seeded).  Budgets below 1000 always run in
#: full, because the solver checks for stagnation only every
#: max(1000, budget // 10) steps.
DAY_CASES = (
    ("arbitrage", "arbitrage", 1.0, 50, False),
    ("peak", "peak", 1.0, 400, True),
    ("regulation", "regulation", 1.0, 400, True),
    ("smoothing", "smoothing", 1.0, 400, True),
    ("arbitrage-loose-cap", "arbitrage", 10.0, 12, False),
)
DAY_INFEASIBLE = (("infeasible-clear", 1.0), ("infeasible-1e-6", 1e-6))


def day_hourly(rng) -> list[tuple[str, dict, bool, bool]]:
    horizon = 24
    storage = _storage(0.9, 0.9, 0.999, 1.0, 1.0, horizon)
    ones = np.ones(horizon)
    seeded = _series(rng, horizon)
    core_rng = np.random.default_rng([CORE_SEEDS["day"], _SALT["day"]])
    core = _series(core_rng, horizon)
    cases = []
    for case_id, kind, cap, budget, is_seeded in DAY_CASES:
        bounds = _bounds(ones, ones, 2.0 * cap * ones, np.zeros(horizon))
        cost = _family(kind, seeded if is_seeded else core)
        cases.append((case_id, _scenario(storage, bounds, cost, budget), True,
                      kind != "smoothing"))
    base = _bounds(ones, ones, 2.0 * ones, np.zeros(horizon))
    for case_id, margin in DAY_INFEASIBLE:
        period = int(core_rng.integers(6, 18))
        bounds = _infeasible_bounds(storage, base, period, margin)
        cases.append((case_id, _scenario(storage, bounds, _family("arbitrage", seeded), 60),
                      False, True))
    return cases


#: the hourly workload's week and month cases: (case id, horizon, cost kind,
#: iteration budget).  All are heavy budgeted solves, so all draw from the
#: core seed.
WEEK_CASES = (
    ("week-arbitrage", 168, "arbitrage", 30),
    ("week-peak", 168, "peak", 30),
    ("week-regulation", 168, "regulation", 30),
    ("month-regulation", 720, "regulation", 5),
)


def week_leaky() -> list[tuple[str, dict, bool, bool]]:
    core_rng = np.random.default_rng([CORE_SEEDS["week"], _SALT["week"]])
    cases = []
    for case_id, horizon, kind, budget in WEEK_CASES:
        storage = _storage(0.9, 0.9, 0.9, 1.0, 1.0, horizon)
        ones = np.ones(horizon)
        bounds = _bounds(ones, ones, 4.0 * ones, np.zeros(horizon))
        cost = _family(kind, _series(core_rng, horizon))
        cases.append((case_id, _scenario(storage, bounds, cost, budget), True, True))
    return cases


def certified_instance(rng, horizon: int, family: Optional[int] = None):
    """Random certified instance with an analytic optimum.

    Draws exactly what the package's test helper of the same purpose draws,
    in the same order, so that a shared seed gives the same instance.  Energy
    bounds leave enough headroom that the optimum over the plain power box
    stays feasible, so each family's optimum sits at per-period vertices or
    zero (or at the clamped load for the quadratic family).  `family` fixes
    the cost family instead of drawing it (the draw is still consumed).
    Returns (scenario without solve options, optimal value).
    """
    eta_c = float(rng.uniform(0.4, 1.0))
    eta_d = float(rng.uniform(0.4, 1.0))
    lam = float(rng.uniform(0.9, 1.0))
    delta = float(rng.uniform(0.5, 1.5))
    u_max = rng.uniform(0.1, 0.5, horizon)
    u_min = rng.uniform(0.1, 0.5, horizon)
    x0 = delta * (1.0 / eta_d) * float(u_min.sum()) + 1.0
    x_max = np.full(horizon, x0 + delta * eta_c * float(u_max.sum()) + 1.0)
    storage = _storage(eta_c, eta_d, lam, delta, x0, horizon)
    bounds = _bounds(u_max, u_min, x_max, np.zeros(horizon))

    drawn = int(rng.integers(0, 4))
    family = drawn if family is None else family
    if family == 0:
        load = rng.uniform(0.0, 2.0, horizon)
        peak = int(np.argmax(load - u_min))
        if load[peak] - u_min[peak] < 0.05:
            load[peak] = u_min[peak] + float(rng.uniform(0.05, 1.0))
        cost = {"family": "peak_shaving", "load": load.tolist()}
        optimum = float(np.max(np.maximum(load - u_min, 0.0)))
    elif family == 1:
        load = rng.uniform(0.0, 0.8, horizon)
        cost = {"family": "load_balancing", "load": load.tolist()}
        optimum = float(np.sum((load - np.minimum(load, u_min)) ** 2))
    elif family == 2:
        signal = -u_min - rng.uniform(0.05, 1.0, horizon)
        cost = {"family": "power_regulation", "signal": signal.tolist()}
        optimum = float(np.sum(-u_min - signal))
    else:
        p_sell = rng.uniform(-1.0, 1.0, horizon)
        p_sell[np.abs(p_sell) < 0.05] = 0.5
        p_buy = np.maximum(rng.uniform(0.5, 2.0, horizon), eta_c * eta_d * p_sell + 0.1)
        cost = {"family": "energy_arbitrage", "p_buy": p_buy.tolist(), "p_sell": p_sell.tolist()}
        optimum = float(np.sum(np.where(p_sell > 0.0, -u_min * p_sell, 0.0)))
    return {"storage": storage, "bounds": bounds, "cost": cost, "outputs": ["solution"]}, optimum


def slow_trials() -> list[tuple[int, dict, float]]:
    """The fixed slow T=4 arbitrage instances (trials 5 and 6 of their seed)."""
    rng = np.random.default_rng(SLOW_TRIALS_SEED)
    out = []
    for trial in range(max(SLOW_TRIALS) + 1):
        horizon = int(rng.integers(2, 5))
        scenario, optimum = certified_instance(rng, horizon)
        if trial in SLOW_TRIALS:
            out.append((trial, scenario, optimum))
    return out


#: seeded desk-oracle slots: (horizon, family index of `certified_instance`).
#: Arbitrage is left to the fixed slow trials, so that the largest gap is a
#: property of the solver and not of the draw.
DESK_SLOTS = ((2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2))

#: Iteration budget of the generated desk-oracle cases.  The shipped
#: scenarios keep their own solve options.
DESK_BUDGET = 1000


def desk_oracle(rng, shipped_dir: Path) -> list[tuple[str, dict, bool, bool]]:
    cases = []
    for path in sorted(shipped_dir.glob("*.json")):
        scenario = exact.load(path)
        cases.append((f"shipped-{path.stem}", scenario, True, True))
    for trial, scenario, _ in slow_trials():
        scenario["solve"] = {"max_iterations": DESK_BUDGET}
        cases.append((f"slow-trial-{trial}", scenario, True, True))
    for slot, (horizon, family) in enumerate(DESK_SLOTS):
        scenario, _ = certified_instance(rng, horizon, family)
        scenario["solve"] = {"max_iterations": DESK_BUDGET}
        cases.append((f"certified-{slot}-T{horizon}", scenario, True, True))
    return cases


def generate(workload: str, seed: int, out_dir: Path, shipped_dir: Path) -> list[Case]:
    """Write the workload's scenario files into out_dir; return its cases."""
    if workload == "hourly":
        raw = day_hourly(np.random.default_rng([seed, _SALT["day"]])) + week_leaky()
    elif workload == "desk-oracle":
        raw = desk_oracle(np.random.default_rng([seed, _SALT["desk"]]), shipped_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    out_dir.mkdir(parents=True, exist_ok=True)
    cases = []
    for case_id, scenario, feasible, certified in raw:
        path = out_dir / f"{case_id}.json"
        path.write_text(json.dumps(scenario, indent=1) + "\n", encoding="utf-8")
        horizon = scenario["storage"]["horizon"]
        points = ORACLE_POINTS[horizon] if workload == "desk-oracle" else None
        cases.append(Case(case_id, str(path), feasible, certified, points))
    return cases
