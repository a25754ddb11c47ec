"""First-order solver for the energy-coordinate problem.

Minimizes cost(energy_to_power(x)) over the feasible energy polytope by
projected subgradient descent with normalized directions, best-iterate
tracking and tail averaging.  One cost pass per iterate gives both its
objective and its subgradient.

The polytope is a chain: each x_t lies in the energy box, and each step
x_t - lam * x_{t-1} in delta times the velocity box (x_{-1} the initial
energy).  `project_onto_polytope` projects onto it exactly by dynamic
programming over the periods, as for the fused lasso (Johnson, JCGS 2013):
a forward sweep of reachable energy intervals decides feasibility and names
the first empty period, a backward pass carries the piecewise-linear
derivative of each period's cost-to-go, and a forward pass clips each
period's minimizer into what the previous period's choice can reach.  The
forward sweep, and the boxes as float lists, are set up once per polytope
(`EnergyPolytope.raise_if_empty`, `EnergyPolytope.chain`).

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
from .model import ValidatedProblem, build_dynamics
from .transform import (
    EnergyPolytope,
    _energy_boxes,
    _largest_violation,
    _power_boxes,
    build_energy_polytope,
    energy_to_power,
    velocity,
)

__all__ = [
    "SolveOptions",
    "Solution",
    "project_onto_polytope",
    "solve",
]

GUARANTEE_GLOBAL = "global-optimum-claimed"
GUARANTEE_BEST_EFFORT = "best-effort"

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max-iterations"

#: Iterations between two checks of the stop rule.
STOP_WINDOW = 1000
#: The stop rule: a window that improves the best objective by less than
#: this ends the solve.
OBJECTIVE_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class SolveOptions:
    """The one solver setting: max_iterations, a positive integer.

    The solve starts from the projection of the zero-power profile b and
    takes steps a/sqrt(k) along normalized subgradients, where a is a tenth
    of the energy-box diameter.  Every STOP_WINDOW (1000) iterations it
    stops when that window improved the best objective by less than
    OBJECTIVE_TOLERANCE (1e-9); max_iterations only caps the run.
    """

    max_iterations: int = 20000

    def __post_init__(self):
        n = self.max_iterations
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"max_iterations must be an integer >= 1, got {n!r}")


@dataclass(frozen=True, eq=False)
class Solution:
    """Solver output; u_star is energy_to_power(x_star) by construction, so a
    single signed power variable carries both charge and discharge and no
    simultaneous charge/discharge artifact can occur.  The fields are in
    the key order of solution.json, which holds all but the trace."""

    objective: float
    x_star: np.ndarray
    u_star: np.ndarray
    certificate: ConvexityCertificate
    guarantee_flag: str
    status: str
    iterations_used: int
    feasibility_residual: float
    instance_digest: str
    best_objective_trace: np.ndarray


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of v, bit for bit np.linalg.norm's wherever that is
    finite.  When the sum of squares overflows, v is first divided by its
    largest magnitude.  np.vdot, unlike np.linalg.norm, raises no
    RuntimeWarning on the overflow."""
    norm = math.sqrt(np.vdot(v, v))
    if math.isinf(norm):
        scale = float(np.max(np.abs(v)))
        if math.isfinite(scale):
            scaled = v / scale
            norm = scale * math.sqrt(np.vdot(scaled, scaled))
    return norm


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

    x clipped onto the energy box comes back when it is a member, that is
    when its velocity is in the velocity box: it is then the nearest point
    of a superset.  A member is its own clip, so members come back
    unchanged.  Otherwise a dynamic program over the periods finds the
    projection in O(T * k) time, k the number of knots alive in the
    cost-to-go (a few to a few dozen in practice).

    Raises InfeasibleProblem naming the first period that no energy
    reachable from the earlier periods can meet, when it misses the energy
    box by more than MEMBERSHIP_TOL.  Closer misses are bridged at the
    midpoint of the gap.  The forward sweep that decides this runs once per
    polytope; every projection onto an empty polytope raises.  Raises
    ValueError when x has a NaN entry.
    """
    x = np.asarray(x, dtype=float)
    dyn = polytope.dynamics
    clipped = np.clip(x, polytope.x_lower, polytope.x_upper)
    # the clip is inside the energy box, so only its velocity can be outside
    residual = _largest_violation(
        (("v", velocity(clipped, dyn), polytope.v_lower, polytope.v_upper),)
    )
    if residual <= 0.0:
        return clipped
    if math.isnan(residual):
        raise ValueError("cannot project a profile with a NaN entry")
    polytope.raise_if_empty()

    lam = dyn.lam
    start = float(dyn.b_offset[0])  # lam * x0, where the first step starts
    y = x.tolist()
    x_lower, x_upper, step_lower, step_upper = polytope.chain
    horizon = len(y)

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
    a/sqrt(k), where a is a tenth of the energy-box diameter, starting from
    the projection of b and tracking the best iterate and a tail average
    (restarted each time the iteration count doubles); the better of the
    two is returned.  Every STOP_WINDOW iterations it stops if that window
    gained less than OBJECTIVE_TOLERANCE; max_iterations only caps the run.
    Deterministic for fixed options.
    Raises InfeasibleProblem, naming the first period no reachable energy
    meets, when the polytope is empty; the first projection decides this
    exactly, so no later step can raise.
    """
    opts = options if options is not None else SolveOptions()
    params, bounds = problem.params, problem.bounds
    dyn = build_dynamics(params)
    polytope = build_energy_polytope(params, bounds, dyn)
    certificate = certify_convexity(cost, params)

    step_base = _norm(polytope.x_upper - polytope.x_lower) / 10.0

    # The tail sum holds up to max_iterations energies.  When those near the
    # float limit could overflow it, it sums them scaled by a power of two,
    # which is exact.
    shift = max(
        0,
        math.frexp(float(np.max(polytope.x_upper)))[1]
        + int(opts.max_iterations).bit_length()
        - 1023,
    )
    tail_scale = 2.0**-shift

    x = project_onto_polytope(dyn.b_offset, polytope)
    # Costs near the float limit may overflow here without a warning; a
    # subgradient that overflowed is taken again rescaled, which the
    # normalized step does not see.
    with np.errstate(over="ignore", invalid="ignore"):
        # one cost pass per iterate: its value, and the subgradient of the
        # step that leaves it
        best_f, g = subgradient_energy_cost(cost, x, params, dyn)
        best_x = x.copy()
        trace = [best_f]

        avg_sum = tail_scale * x
        avg_count = 1
        avg_restart = 2

        window_best = best_f

        status = STATUS_MAX_ITERATIONS
        iterations = 0
        for k in range(1, opts.max_iterations + 1):
            iterations = k
            g_norm = _norm(g)
            if not math.isfinite(g_norm):
                g = subgradient_energy_cost(cost, x, params, dyn, rescale=True)[1]
                g_norm = _norm(g)
            if g_norm == 0.0:
                # zero subgradient at a feasible point: unconstrained minimum
                trace.append(best_f)
                status = STATUS_CONVERGED
                break
            step = step_base / math.sqrt(k)
            x = project_onto_polytope(x - (step / g_norm) * g, polytope)
            f, g = subgradient_energy_cost(cost, x, params, dyn)
            if f < best_f:
                best_f = f
                best_x = x.copy()
            trace.append(best_f)

            avg_sum += tail_scale * x if shift else x
            avg_count += 1
            if k >= avg_restart:
                avg_sum = tail_scale * x
                avg_count = 1
                avg_restart *= 2

            if k % STOP_WINDOW == 0:
                if window_best - best_f < OBJECTIVE_TOLERANCE:
                    status = STATUS_CONVERGED
                    break
                window_best = best_f

    x_avg = project_onto_polytope(avg_sum / avg_count / tail_scale, polytope)
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
