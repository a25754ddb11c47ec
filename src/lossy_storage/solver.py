"""First-order solver for the energy-coordinate problem.

Minimizes cost(energy_to_power(x)) over the feasible energy polytope by
projected subgradient descent with normalized directions, best-iterate
tracking and tail averaging.

The polytope is a chain: each x_t lies in the energy box, and each step
x_t - lam * x_{t-1} in delta times the velocity box (x_{-1} the initial
energy).  `project_onto_polytope` projects onto it exactly by dynamic
programming over the periods, as for the fused lasso (Johnson, JCGS 2013):
a forward sweep of reachable energy intervals decides feasibility and names
the first empty period, a backward pass carries the piecewise-linear
derivative of each period's cost-to-go, and a forward pass clips each
period's minimizer into what the previous period's choice can reach.

The solver never claims more than the certificate supports: solutions carry
"global-optimum-claimed" only when the convexity certificate fired,
otherwise "best-effort".
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .costs import (
    ConvexityCertificate,
    CostSpec,
    certify_convexity,
    evaluate_energy_cost,
    instance_digest,
    subgradient_energy_cost,
)
from .errors import InfeasibleProblem
from .model import ValidatedProblem, build_dynamics
from .transform import (
    MEMBERSHIP_TOL,
    EnergyPolytope,
    _energy_boxes,
    _largest_violation,
    _power_boxes,
    build_energy_polytope,
    energy_to_power,
)

__all__ = [
    "SolveOptions",
    "Solution",
    "project_onto_polytope",
    "solve",
    "recover_power_profile",
]

GUARANTEE_GLOBAL = "global-optimum-claimed"
GUARANTEE_BEST_EFFORT = "best-effort"

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max-iterations"


@dataclass(frozen=True, eq=False)
class SolveOptions:
    """Solver knobs.

    The solve starts from the projection of the zero-power profile b and
    takes steps a/sqrt(k) along normalized subgradients; step_parameter is
    that `a`, finite and positive, and None picks a tenth of the energy-box
    diameter.  It stops after max_iterations, or when a window of iterations
    improves the best objective by less than objective_tolerance (finite and
    positive).  seed does not affect the solve; it is only recorded in
    solution.json.
    """

    max_iterations: int = 20000
    step_parameter: Optional[float] = None
    objective_tolerance: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        tol, step = self.objective_tolerance, self.step_parameter
        if not 0.0 < tol < math.inf:
            raise ValueError(f"objective_tolerance must be finite and positive, got {tol!r}")
        if step is not None and not 0.0 < step < math.inf:
            raise ValueError(f"step_parameter must be finite and positive, got {step!r}")


@dataclass(frozen=True, eq=False)
class Solution:
    """Solver output; u_star is energy_to_power(x_star) by construction, so a
    single signed power variable carries both charge and discharge and no
    simultaneous charge/discharge artifact can occur."""

    x_star: np.ndarray
    u_star: np.ndarray
    objective: float
    iterations_used: int
    best_objective_trace: np.ndarray
    feasibility_residual: float
    certificate: ConvexityCertificate
    guarantee_flag: str
    status: str
    instance_digest: str


def _residual(x: np.ndarray, polytope: EnergyPolytope) -> float:
    """Largest violation of x against both boxes; NaN for a NaN entry."""
    return _largest_violation(_energy_boxes(x, polytope))


def _clip_knots(xs: list, ds: list, left: float, right: float) -> tuple[list, list]:
    """Restrict the piecewise-linear function through (xs, ds) to
    [left, right], a subinterval of [xs[0], xs[-1]]."""
    if left > xs[0]:
        i = bisect_left(xs, left)  # xs[i - 1] < left <= xs[i]
        d = ds[i - 1] + (ds[i] - ds[i - 1]) * (left - xs[i - 1]) / (xs[i] - xs[i - 1])
        xs, ds = [left] + xs[i:], [d] + ds[i:]
    if right < xs[-1]:
        j = bisect_right(xs, right)  # xs[j - 1] <= right < xs[j]
        d = ds[j - 1] + (ds[j] - ds[j - 1]) * (right - xs[j - 1]) / (xs[j] - xs[j - 1])
        xs, ds = xs[:j] + [right], ds[:j] + [d]
    return xs, ds


def project_onto_polytope(x, polytope: EnergyPolytope) -> np.ndarray:
    """Exact Euclidean projection of x onto the feasible energy polytope.

    x clipped onto the energy box comes back when it is a member: it is then
    the nearest point of a superset.  A member is its own clip, so members
    come back unchanged.
    Otherwise a dynamic program over the periods finds the projection in
    O(T * k) time, k the number of knots alive in the cost-to-go (a few to a
    few dozen in practice).

    Raises InfeasibleProblem naming the first period that no energy
    reachable from the earlier periods can meet, when it misses the energy
    box by more than MEMBERSHIP_TOL.  Closer misses are bridged at the
    midpoint of the gap.  Raises ValueError when x has a NaN entry.
    """
    x = np.asarray(x, dtype=float)
    clipped = np.clip(x, polytope.x_lower, polytope.x_upper)
    residual = _residual(clipped, polytope)
    if residual <= 0.0:
        return clipped
    if math.isnan(residual):
        raise ValueError("cannot project a profile with a NaN entry")

    dyn = polytope.dynamics
    lam = dyn.lam
    start = float(dyn.b_offset[0])  # lam * x0, where the first step starts
    y = x.tolist()
    x_lower, x_upper = polytope.x_lower.tolist(), polytope.x_upper.tolist()
    step_lower = (dyn.delta * polytope.v_lower).tolist()
    step_upper = (dyn.delta * polytope.v_upper).tolist()
    horizon = len(y)

    # Forward pass: the interval of energies reachable in each period.
    low = high = start
    for t in range(horizon):
        reach_low, reach_high = low + step_lower[t], high + step_upper[t]
        low, high = max(reach_low, x_lower[t]), min(reach_high, x_upper[t])
        if low - high > MEMBERSHIP_TOL:
            raise InfeasibleProblem(
                f"no feasible energy in period {t}: the reachable energies "
                f"[{reach_low:.9g}, {reach_high:.9g}] miss the energy box "
                f"[{x_lower[t]:.9g}, {x_upper[t]:.9g}] by {low - high:.3g}",
                period=t,
            )
        if low > high:
            low = high = 0.5 * (low + high)
        low, high = lam * low, lam * high

    # Backward pass over the cost-to-go of each period.  (xs, ds) are the
    # knots of its derivative, linear between knots, with a repeated
    # abscissa for a jump; xs[0] and xs[-1] bound the energies from which
    # the later periods stay feasible.  Running backward lets the recovery
    # below multiply by lam; recovering backward would divide by it and
    # amplify rounding by 1/lam per binding step.
    minimizers, lows, highs = [0.0] * horizon, [0.0] * horizon, [0.0] * horizon
    xs = [x_lower[-1], x_upper[-1]]
    ds = [xs[0] - y[-1], xs[1] - y[-1]]
    for t in range(horizon - 1, -1, -1):
        low, high = max(xs[0], x_lower[t]), min(xs[-1], x_upper[t])
        if low > high:  # a gap the forward pass bridged
            low = high = 0.5 * (low + high)
            xs, ds = [low], [0.0]
        else:
            xs, ds = _clip_knots(xs, ds, low, high)
        k = bisect_left(ds, 0.0)
        if k == 0:
            m = xs[0]
        elif k == len(xs):
            m = xs[-1]
        else:
            m = xs[k - 1] - ds[k - 1] * (xs[k] - xs[k - 1]) / (ds[k] - ds[k - 1])
        minimizers[t], lows[t], highs[t] = m, low, high
        if t:
            # the cost-to-go seen from period t - 1: knots left of the
            # minimizer are reached by the highest step, those right of it
            # by the lowest, and the minimum spans every step in between
            a, c, y_prev = step_lower[t], step_upper[t], y[t - 1]
            xs = (
                [(z - c) / lam for z in xs[:k]]
                + [(m - c) / lam, (m - a) / lam]
                + [(z - a) / lam for z in xs[k:]]
            )
            ds = [
                lam * d + z - y_prev
                for z, d in zip(xs, ds[:k] + [0.0, 0.0] + ds[k:])
            ]

    # Recovery: each period's minimizer, clipped into the energies the step
    # from the previous period's choice can reach.
    out, previous = [0.0] * horizon, start
    for t in range(horizon):
        out[t] = min(
            max(minimizers[t], previous + step_lower[t], lows[t]),
            previous + step_upper[t],
            highs[t],
        )
        previous = lam * out[t]
    return np.array(out)


def solve(
    problem: ValidatedProblem,
    cost: CostSpec,
    options: Optional[SolveOptions] = None,
) -> Solution:
    """Minimize the cost over the feasible energy polytope.

    Projected subgradient descent on normalized directions with steps
    a/sqrt(k), starting from the projection of b and tracking the best iterate and a tail average (restarted each
    time the iteration count doubles); the better of the two is returned.
    Deterministic for fixed options.  Raises InfeasibleProblem, naming the
    first period no reachable energy meets, when the polytope is empty; the
    first projection decides this exactly, so no later step can raise.
    """
    opts = options if options is not None else SolveOptions()
    params, bounds = problem.params, problem.bounds
    dyn = build_dynamics(params)
    polytope = build_energy_polytope(params, bounds, dyn)
    certificate = certify_convexity(cost, params)

    diameter = float(np.linalg.norm(polytope.x_upper - polytope.x_lower))
    step_base = opts.step_parameter if opts.step_parameter is not None else diameter / 10.0
    if step_base <= 0.0:
        step_base = 1.0  # degenerate zero-volume box; any positive step works

    x = project_onto_polytope(dyn.b_offset, polytope)

    best_x = x.copy()
    best_f = evaluate_energy_cost(cost, x, params, dyn)
    trace = [best_f]

    avg_sum = x.copy()
    avg_count = 1
    avg_restart = 2

    window = max(1000, opts.max_iterations // 10)
    window_best = best_f

    status = STATUS_MAX_ITERATIONS
    iterations = 0
    for k in range(1, opts.max_iterations + 1):
        iterations = k
        g = subgradient_energy_cost(cost, x, params, dyn)
        g_norm = float(np.linalg.norm(g))
        if g_norm == 0.0:
            # zero subgradient at a feasible point: unconstrained minimum
            trace.append(best_f)
            status = STATUS_CONVERGED
            break
        step = step_base / math.sqrt(k)
        x = project_onto_polytope(x - (step / g_norm) * g, polytope)
        f = evaluate_energy_cost(cost, x, params, dyn)
        if f < best_f:
            best_f = f
            best_x = x.copy()
        trace.append(best_f)

        avg_sum += x
        avg_count += 1
        if k >= avg_restart:
            avg_sum = x.copy()
            avg_count = 1
            avg_restart *= 2

        if k % window == 0:
            if window_best - best_f < opts.objective_tolerance:
                status = STATUS_CONVERGED
                break
            window_best = best_f

    x_avg = project_onto_polytope(avg_sum / avg_count, polytope)
    f_avg = evaluate_energy_cost(cost, x_avg, params, dyn)
    if f_avg < best_f:
        best_f, best_x = f_avg, x_avg

    u_star = energy_to_power(best_x, params, dyn)
    residual = _largest_violation(
        _energy_boxes(best_x, polytope) + _power_boxes(u_star, params, bounds, dyn)
    )

    return Solution(
        x_star=best_x,
        u_star=u_star,
        objective=best_f,
        iterations_used=iterations,
        best_objective_trace=np.array(trace),
        feasibility_residual=residual,
        certificate=certificate,
        guarantee_flag=GUARANTEE_GLOBAL if certificate.certified else GUARANTEE_BEST_EFFORT,
        status=status,
        instance_digest=instance_digest(params, bounds, cost),
    )


def recover_power_profile(x_star, params, dyn=None) -> np.ndarray:
    """Power profile realizing an energy profile.

    For members of the feasible energy polytope the result lies inside the
    power box (that is the half-space equivalence), so no clipping is done.
    """
    if dyn is None:
        dyn = build_dynamics(params)
    return energy_to_power(x_star, params, dyn)
