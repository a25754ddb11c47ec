"""Solver for the energy-coordinate problem.

Minimizes cost(energy_to_power(x)) over the feasible energy polytope: in
one exact chain pass for certified energy arbitrage and load balancing, and
by projected subgradient descent for every other cost.  `solve` says how
each runs and why the descent stops.

The solver never claims more than the certificate supports: solutions carry
"global-optimum-claimed" only when the convexity certificate fired,
otherwise "best-effort".
"""

from __future__ import annotations

import math
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
from .errors import ObjectiveOutOfRange
from .model import ValidatedProblem, _check_count, build_dynamics
from .transform import (
    _chain_argmin,
    _energy_boxes,
    _largest_violation,
    _power_boxes,
    build_energy_polytope,
    energy_to_power,
    project_onto_polytope,
)

__all__ = [
    "SolveOptions",
    "Solution",
    "solve",
]

GUARANTEE_GLOBAL = "global-optimum-claimed"
GUARANTEE_BEST_EFFORT = "best-effort"

STATUS_EXACT = "exact"
STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max-iterations"

#: Iterations between two checks of the window stop.
STOP_WINDOW = 1000
#: The window stop: a window that improves the best objective by less
#: than this ends the solve.
OBJECTIVE_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class SolveOptions:
    """The one solver setting: max_iterations, a positive integer that
    caps the descent (`solve` gives its stops).  The exact pass takes no
    iterations."""

    max_iterations: int = 20000

    def __post_init__(self):
        _check_count(self.max_iterations, "max_iterations", 1)


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


def _descend(cost, polytope, params, dyn, max_iterations: int):
    """The descent of `solve`; returns (best x, its objective, the
    best-objective trace, status, iterations used)."""
    step_base = _norm(polytope.x_upper - polytope.x_lower) / 10.0
    x = project_onto_polytope(dyn.b_offset, polytope)
    # one cost pass per iterate: its value, and the subgradient of the
    # step that leaves it
    best_f, g = subgradient_energy_cost(cost, x, params, dyn)
    best_x = x
    trace = [best_f]

    avg_sum = x.copy()  # x is also best_x and the base of the next step
    avg_count = 1
    avg_restart = 2

    status = STATUS_MAX_ITERATIONS
    for k in range(1, max_iterations + 1):
        g_norm = _norm(g)
        if not math.isfinite(g_norm):
            g = subgradient_energy_cost(cost, x, params, dyn, rescale=True)[1]
            g_norm = _norm(g)
        if g_norm == 0.0:
            x_next = x  # an unconstrained minimum: no step, and no 0/0
        else:
            step = step_base / math.sqrt(k)
            x_next = project_onto_polytope(x - (step / g_norm) * g, polytope)
        if x_next.tobytes() == x.tobytes():
            # a projected fixed point: -g is normal to the polytope at x,
            # and every later step, being shorter, projects back to x
            trace.append(best_f)
            status = STATUS_CONVERGED
            break
        x = x_next
        f, g = subgradient_energy_cost(cost, x, params, dyn)
        if f < best_f:
            best_f, best_x = f, x
        trace.append(best_f)

        if k >= avg_restart:
            avg_sum, avg_count = x.copy(), 1
            avg_restart *= 2
        else:
            avg_sum += x
            avg_count += 1

        # trace[-STOP_WINDOW - 1] is the best objective when the window
        # began; an infinite objective gains NaN, which stops the solve too
        if k % STOP_WINDOW == 0 and not trace[-STOP_WINDOW - 1] - best_f >= OBJECTIVE_TOLERANCE:
            status = STATUS_CONVERGED
            break

    x_avg = project_onto_polytope(avg_sum / avg_count, polytope)
    f_avg = evaluate_energy_cost(cost, x_avg, params, dyn)
    if f_avg < best_f:
        best_f, best_x = f_avg, x_avg
    return best_x, best_f, trace, status, k  # max_iterations >= 1 ran the loop


# Costs near the float limit may overflow without a warning: a subgradient
# that overflowed is taken again rescaled, which the normalized step does not
# see, a bound beyond the float range is no bound, a tail sum that overflowed
# is clipped by its projection and evaluated like any other point, and an
# objective that overflowed is an error.
@np.errstate(over="ignore", invalid="ignore")
def solve(
    problem: ValidatedProblem,
    cost: CostSpec,
    options: Optional[SolveOptions] = None,
) -> Solution:
    """Minimize the cost over the feasible energy polytope.

    Certified energy arbitrage and load balancing are convex in the energy
    steps, piecewise linear and piecewise quadratic with one kink at 0, so
    one step-cost pass over the chain (`transform._chain_argmin`), with the
    terms their family's `step_terms` declares, solves them exactly: status
    "exact", no iterations, and a trace of one entry.  An uncertified cost
    never takes that pass.

    Every other cost takes projected subgradient descent, from the
    projection of the zero-power profile b.  Iteration k steps from x to
    the projection of x - (a / sqrt(k)) g / |g|, where a is a tenth of the
    energy-box diameter and g the subgradient at x; one cost pass gives
    each iterate's objective and subgradient.  The descent tracks the best
    iterate, whose objective the trace holds per iteration, and a tail
    average: the mean of the iterates from the latest power-of-two k of at
    least 2 on, kept as one running sum, whose projection is evaluated once
    the descent stops.  The better of the two is returned.

    The descent stops, with status "converged", at
    - a zero subgradient;
    - a projected fixed point: the step's projection is x bit for bit, so
      the iterate and its subgradient would repeat, and each later step,
      being shorter, projects back onto x too (the polytope is convex);
    - a stalled window: STOP_WINDOW iterations that improve the best
      objective by less than OBJECTIVE_TOLERANCE, or by nothing that is a
      number.
    Otherwise it runs max_iterations, with status "max-iterations".  For a
    convex cost the first two stops prove the iterate optimal, up to the
    rounding of the step: -g then lies in the normal cone of the polytope
    at x, so F(z) >= F(x) + g.(z - x) >= F(x) for every feasible z.  The
    window stop proves nothing.  Deterministic for fixed options.

    Raises InfeasibleProblem, naming the first period no reachable energy
    meets, when the polytope is empty; the first projection (or the exact
    pass) decides this exactly, so no later step can raise.  Raises
    ObjectiveOutOfRange when the objective of the returned point is not a
    finite float.
    """
    opts = options if options is not None else SolveOptions()
    params, bounds = problem.params, problem.bounds
    dyn = build_dynamics(params)
    polytope = build_energy_polytope(params, bounds, dyn)
    certificate = certify_convexity(cost, params)

    step_terms = cost.step_terms(params) if certificate.certified else None
    if step_terms is not None:
        best_x = np.array(_chain_argmin(polytope, *step_terms))
        best_f = evaluate_energy_cost(cost, best_x, params, dyn)
        trace, status, iterations = [best_f], STATUS_EXACT, 0
    else:
        best_x, best_f, trace, status, iterations = _descend(
            cost, polytope, params, dyn, opts.max_iterations
        )
    if not math.isfinite(best_f):
        raise ObjectiveOutOfRange(
            f"the objective of the best solution found, {best_f:.9g}, is "
            "beyond the float range"
        )

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
