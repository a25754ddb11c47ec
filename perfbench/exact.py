"""Exact references and independent checks for benchmark scenarios.

Everything here reads the scenario JSON directly and never imports
`lossy_storage`, so a defect in the package cannot leak into the yardstick.

The reference optimum is computed on the original power formulation with
scipy's HiGHS: first the LP that splits each period's power into a charging
part u+ and a discharging part u-, and, when that LP's optimum charges and
discharges in the same period, the MILP that adds one binary per period to
forbid it.  Both are exact for the three piecewise-linear families covered
(energy arbitrage, peak shaving, power regulation); the LP is just the
cheap path that usually already satisfies complementarity.

Run as a script it computes the references of the given scenario files and
writes them as JSON, so that scipy is imported by a helper process and not
by the process whose time and memory are measured::

    python3 perfbench/exact.py --out refs.json case1.json case2.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

REFERENCE_FAMILIES = ("energy_arbitrage", "peak_shaving", "power_regulation")

#: A period whose LP optimum charges and discharges by more than this
#: sends the instance to the MILP.
COMPLEMENTARITY_TOL = 1e-9

#: HiGHS primal and dual feasibility tolerance for the LP.
_HIGHS_TOL = 1e-10


def load(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _storage(scenario: dict) -> tuple[float, float, float, float, float, int]:
    s = scenario["storage"]
    return s["eta_c"], s["eta_d"], s["lambda"], s["delta"], s["x0"], s["horizon"]


def _bounds(scenario: dict) -> tuple[np.ndarray, ...]:
    b = scenario["bounds"]
    return tuple(np.asarray(b[k], dtype=float) for k in ("u_max", "u_min", "x_max", "x_min"))


def simulate(scenario: dict, u) -> np.ndarray:
    """Energy profile x_1..x_T reached by power profile u, by the recursion."""
    eta_c, eta_d, lam, delta, x0, horizon = _storage(scenario)
    x = np.empty(horizon)
    state = x0
    for t, ut in enumerate(np.asarray(u, dtype=float)):
        rate = eta_c * ut if ut >= 0.0 else ut / eta_d
        state = lam * state + delta * rate
        x[t] = state
    return x


def family_cost(scenario: dict, u) -> float:
    """Cost of power profile u under the scenario's cost family."""
    cost = scenario["cost"]
    u = np.asarray(u, dtype=float)
    family = cost["family"]
    if family == "energy_arbitrage":
        p_buy, p_sell = np.asarray(cost["p_buy"]), np.asarray(cost["p_sell"])
        return float(np.sum(p_buy * np.maximum(u, 0.0) + p_sell * np.minimum(u, 0.0)))
    if family == "peak_shaving":
        return float(np.max(np.abs(u + np.asarray(cost["load"]))))
    if family == "load_balancing":
        return float(np.sum((u + np.asarray(cost["load"])) ** 2))
    if family == "power_regulation":
        return float(np.sum(np.abs(u - np.asarray(cost["signal"]))))
    if family == "power_smoothing":
        return float(np.sum(np.abs(np.diff(np.asarray(cost["renewable"]) - u))))
    raise ValueError(f"unknown cost family {family!r}")


def infeasibility_margin(scenario: dict) -> float:
    """How far the energy bounds are from admitting any power profile.

    Propagates the interval of reachable energies period by period,
    R_t = [x_min_t, x_max_t] ∩ (lam R_{t-1} + delta [-u_min_t/eta_d, eta_c u_max_t]),
    and returns the largest distance by which an energy bound misses the
    reachable interval.  The instance is feasible exactly when the result
    is <= 0.
    """
    eta_c, eta_d, lam, delta, x0, _ = _storage(scenario)
    u_max, u_min, x_max, x_min = _bounds(scenario)
    lo = hi = x0
    worst = -math.inf
    for t in range(u_max.shape[0]):
        reach_lo = lam * lo - delta * u_min[t] / eta_d
        reach_hi = lam * hi + delta * eta_c * u_max[t]
        worst = max(worst, x_min[t] - reach_hi, reach_lo - x_max[t])
        lo, hi = max(reach_lo, x_min[t]), min(reach_hi, x_max[t])
        if lo > hi:
            return worst
    return worst


def _power_program(scenario: dict):
    """Split-power LP: (c, A_eq, b_eq, A_ub, b_ub, variable bounds).

    Variables: u+ (T), u- (T), x (T), then the family's epigraph variables.
    """
    from scipy import sparse

    eta_c, eta_d, lam, delta, x0, horizon = _storage(scenario)
    u_max, u_min, x_max, x_min = _bounds(scenario)
    cost = scenario["cost"]
    family = cost["family"]
    n = horizon
    extra = {"energy_arbitrage": 0, "peak_shaving": 1, "power_regulation": n}[family]
    eye = sparse.identity(n, format="csr")
    zeros = sparse.csr_matrix((n, n))

    # x_t - lam x_{t-1} - delta eta_c u+_t + (delta / eta_d) u-_t = [t == 0] lam x0
    shift = sparse.eye(n, k=-1, format="csr")
    a_eq = sparse.hstack(
        [-delta * eta_c * eye, (delta / eta_d) * eye, eye - lam * shift,
         sparse.csr_matrix((n, extra))],
        format="csr",
    )
    b_eq = np.zeros(n)
    b_eq[0] = lam * x0

    c = np.zeros(3 * n + extra)
    a_ub = b_ub = None
    if family == "energy_arbitrage":
        c[:n] = np.asarray(cost["p_buy"], dtype=float)
        c[n : 2 * n] = -np.asarray(cost["p_sell"], dtype=float)
    else:
        # |u+ - u- - target| <= epigraph, as two one-sided rows
        if family == "peak_shaving":
            target = -np.asarray(cost["load"], dtype=float)
            epi = sparse.csr_matrix(np.ones((n, 1)))
        else:
            target = np.asarray(cost["signal"], dtype=float)
            epi = eye
        c[3 * n :] = 1.0
        a_ub = sparse.vstack(
            [sparse.hstack([sign * eye, -sign * eye, zeros, -epi]) for sign in (1.0, -1.0)],
            format="csr",
        )
        b_ub = np.concatenate([target, -target])

    var_lo = np.concatenate([np.zeros(2 * n), x_min, np.full(extra, -np.inf)])
    var_hi = np.concatenate([u_max, u_min, x_max, np.full(extra, np.inf)])
    return c, a_eq, b_eq, a_ub, b_ub, var_lo, var_hi


def reference_optimum(scenario: dict) -> Optional[float]:
    """Exact optimum of the scenario on the power formulation, or None when
    its family has no reference.  Raises RuntimeError if HiGHS fails."""
    from scipy import sparse
    from scipy.optimize import Bounds, LinearConstraint, linprog, milp

    if scenario["cost"]["family"] not in REFERENCE_FAMILIES:
        return None
    n = scenario["storage"]["horizon"]
    c, a_eq, b_eq, a_ub, b_ub, var_lo, var_hi = _power_program(scenario)
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=np.column_stack([var_lo, var_hi]), method="highs",
        options={"primal_feasibility_tolerance": _HIGHS_TOL,
                 "dual_feasibility_tolerance": _HIGHS_TOL},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS LP failed: {res.message}")
    u_plus, u_minus = res.x[:n], res.x[n : 2 * n]
    if np.all(np.minimum(u_plus, u_minus) <= COMPLEMENTARITY_TOL):
        return family_cost(scenario, u_plus - u_minus)

    # binary z_t = 1 allows charging only, z_t = 0 discharging only
    nvar = c.shape[0]
    eye = sparse.identity(n, format="csr")
    pad = sparse.csr_matrix((n, nvar - 2 * n))
    gate = sparse.vstack(
        [
            sparse.hstack([eye, sparse.csr_matrix((n, n)), pad, -sparse.diags(var_hi[:n])]),
            sparse.hstack([sparse.csr_matrix((n, n)), eye, pad, sparse.diags(var_hi[n : 2 * n])]),
        ]
    )
    rows = [sparse.hstack([a_eq, sparse.csr_matrix((n, n))])]
    lower, upper = [b_eq], [b_eq]
    if a_ub is not None:
        rows.append(sparse.hstack([a_ub, sparse.csr_matrix((a_ub.shape[0], n))]))
        lower.append(np.full(a_ub.shape[0], -np.inf))
        upper.append(b_ub)
    rows.append(gate)
    lower.append(np.full(2 * n, -np.inf))
    upper.append(np.concatenate([np.zeros(n), var_hi[n : 2 * n]]))
    res = milp(
        np.concatenate([c, np.zeros(n)]),
        constraints=LinearConstraint(
            sparse.vstack(rows, format="csr"), np.concatenate(lower), np.concatenate(upper)
        ),
        bounds=Bounds(np.concatenate([var_lo, np.zeros(n)]), np.concatenate([var_hi, np.ones(n)])),
        integrality=np.concatenate([np.zeros(nvar), np.ones(n)]),
        options={"mip_rel_gap": 1e-12},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS MILP failed: {res.message}")
    return family_cost(scenario, res.x[:n] - res.x[n : 2 * n])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file for {scenario path: optimum}")
    parser.add_argument("scenarios", nargs="+")
    args = parser.parse_args(argv)
    refs = {path: reference_optimum(load(path)) for path in args.scenarios}
    Path(args.out).write_text(json.dumps(refs), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
