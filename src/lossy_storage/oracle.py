"""Brute-force ground truth on the original power-coordinate formulation.

Searches a uniform grid over the power box for the cheapest profile in the
nonconvex power set.  Deliberately independent of the energy-coordinate
reformulation it is used to validate: it works in power coordinates and the
storage step recursion, never through the polytope.

The grid is walked as a chain.  The energy at period t depends on the first
t powers only, so the walk extends the surviving prefixes one period at a
time: each prefix's energy y_t = lam * y_{t-1} + delta * f(u_t) is computed
once, in `power_to_energy`'s order of operations (so the energy-box test is
`power_feasibility_mask`'s, bit for bit), and a prefix is dropped as soon as
it leaves its box.  The sum and max families fold their per-period terms
along each prefix (the family's `terms`, by its `fold`, as
`power_cost_batch` reduces them); power smoothing and custom costs are
evaluated by `power_cost_batch` on the feasible rows of each block.  The
folded sums match `power_cost_batch`'s bit for bit up to T = 7, where np.sum
adds in order; from 8 periods on np.sum adds pairwise and the two may differ
in the last bits.  The reported cost is always `power_cost_batch`'s.

Grids include the axis endpoints and the exact zero level (zero power and
bound-saturating profiles are the natural optimum candidates).  The walk
visits the grid in lexicographic order and keeps the first minimum, so ties
are broken lexicographically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .costs import CostSpec, instance_digest, power_cost_batch
from .errors import (
    GridTooLarge,
    HorizonTooLarge,
    InstanceMismatch,
    NoFeasiblePoint,
)
from .model import Bounds, Dynamics, StorageParams, build_dynamics
from .transform import MEMBERSHIP_TOL, _inside, loss_map, power_feasibility_mask

__all__ = [
    "GridSpec",
    "OracleResult",
    "GapReport",
    "enumerate_feasible",
    "brute_force_solve",
    "compare",
]

GRID_SIZE_GUARD = 10**8
#: Largest gap between solver and grid objectives that `compare` passes.
GAP_TOLERANCE = 1e-3
#: Most candidate points (prefix x level) one broadcast step of the walk holds.
_BLOCK = 1 << 14


@dataclass(frozen=True)
class GridSpec:
    """points_per_axis must be an integer of at least 3 (every axis also
    gets the exact zero level); horizon_cap, an integer of at least 1,
    limits the enumeration to desk scale."""

    points_per_axis: int
    horizon_cap: int = 3

    def __post_init__(self):
        for name, minimum in (("points_per_axis", 3), ("horizon_cap", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
                raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True, eq=False)
class OracleResult:
    """The best grid point and its cost.  discretization_bound is the
    family's Lipschitz constant over the power box times the widest grid
    spacing, None for custom costs."""

    u_best: np.ndarray
    cost_best: float
    feasible_count: int
    instance_digest: str
    discretization_bound: Optional[float]


@dataclass(frozen=True)
class GapReport:
    """Solver-vs-oracle comparison.

    gap is solver objective minus oracle objective.  The discretization
    bound is the oracle's (`OracleResult.discretization_bound`), and
    tolerance is GAP_TOLERANCE.  verdict is "no-guarantee" when the solution
    was best-effort only.  Otherwise it is "fail" when gap > tolerance (the
    solver is worse than a feasible grid point) or, with a known bound, when
    gap < -(tolerance + bound) (the solver beats the grid by more than its
    spacing explains), and "pass" in between.
    """

    gap: float
    discretization_bound: Optional[float]
    tolerance: float
    verdict: str


def _axis_levels(lo: float, hi: float, points: int) -> np.ndarray:
    levels = np.linspace(lo, hi, points)
    nearest = int(np.argmin(np.abs(levels)))
    if abs(levels[nearest]) <= 1e-12 * max(1.0, hi - lo):
        levels[nearest] = 0.0
    if not np.any(levels == 0.0):
        levels = np.append(levels, 0.0)
    return np.unique(levels)


def _grid_axes(params: StorageParams, bounds: Bounds, grid: GridSpec) -> list[np.ndarray]:
    if params.horizon > grid.horizon_cap:
        raise HorizonTooLarge(
            f"horizon {params.horizon} exceeds grid cap {grid.horizon_cap}"
        )
    if grid.points_per_axis > GRID_SIZE_GUARD:
        raise GridTooLarge(
            f"{grid.points_per_axis} points per axis exceed the {GRID_SIZE_GUARD:.0e} guard"
        )
    # an axis may gain the zero level, so the guard counts the real lengths,
    # after each axis, so that no axis is built once the grid is too large
    axes = []
    for t in range(params.horizon):
        axes.append(
            _axis_levels(-bounds.u_min_mag[t], bounds.u_max[t], grid.points_per_axis)
        )
        size = math.prod(len(axis) for axis in axes)
        if size > GRID_SIZE_GUARD:
            raise GridTooLarge(
                f"{' x '.join(str(len(axis)) for axis in axes)} = {size} grid points "
                f"exceed the {GRID_SIZE_GUARD:.0e} guard"
            )
    return axes


def _walk(
    params: StorageParams,
    bounds: Bounds,
    axes: list[np.ndarray],
    dyn: Dynamics,
    cost: Optional[CostSpec],
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]]:
    """Walk the grid period by period; yield its last-period blocks in
    lexicographic order.

    A block is (prefix, last, ok, folded): m prefixes (m, T-1) whose every
    period is inside its energy box, the last axis, whether each of the m x
    len(last) completions is inside the last box, and their folded cost
    when `cost` is separable (None otherwise).  No broadcast step holds
    more than _BLOCK candidates, or one axis where an axis alone is longer.
    """
    tol = MEMBERSHIP_TOL
    horizon = params.horizon
    # the power box test of power_feasibility_mask, level by level
    axes = [
        axis[_inside(axis, -bounds.u_min_mag[t], bounds.u_max[t], tol)]
        for t, axis in enumerate(axes)
    ]
    levels = np.zeros((max(len(axis) for axis in axes), horizon))
    for t, axis in enumerate(axes):
        levels[: len(axis), t] = axis
    # power_to_energy's order: f, then delta *, then the recurrence, then + b
    rates = params.delta * loss_map(levels, params)
    fold = None if cost is None else cost.fold
    terms = None if fold is None else cost.terms(levels)
    x_min, x_max = bounds.x_min.tolist(), bounds.x_max.tolist()

    def extend(t, prefix, y, folded):
        axis = axes[t]
        n = len(axis)
        step = max(1, _BLOCK // n)
        for s in range(0, len(y), step):
            block = slice(s, s + step)
            y_t = dyn.lam * y[block, None] + rates[:n, t]
            x_t = y_t + dyn.b_offset[t]
            ok = _inside(x_t, x_min[t], x_max[t], tol)
            folded_t = None
            if fold is not None:
                folded_t = fold(folded[block, None], terms[:n, t])
            if t == horizon - 1:
                yield prefix[block], axis, ok, folded_t
                continue
            rows, cols = np.nonzero(ok)
            yield from extend(
                t + 1,
                np.column_stack((prefix[block][rows], axis[cols])),
                y_t[rows, cols],
                None if folded_t is None else folded_t[rows, cols],
            )

    # one empty prefix; -0.0 is exact for + (y_0 is f's rate bit for bit),
    # and every fold starts from 0.0 like np.sum (max terms are >= 0)
    yield from extend(0, np.empty((1, 0)), np.array([-0.0]), np.zeros(1))


def _completions(prefix: np.ndarray, last: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """The feasible rows of a block, in lexicographic order."""
    rows, cols = np.nonzero(ok)
    return np.column_stack((prefix[rows], last[cols]))


def enumerate_feasible(
    params: StorageParams, bounds: Bounds, grid: GridSpec
) -> Iterator[np.ndarray]:
    """Yield every feasible grid point of the power box, ascending
    lexicographically."""
    axes = _grid_axes(params, bounds, grid)
    dyn = build_dynamics(params)
    for prefix, last, ok, _ in _walk(params, bounds, axes, dyn, None):
        yield from _completions(prefix, last, ok)


def brute_force_solve(
    params: StorageParams, bounds: Bounds, cost: CostSpec, grid: GridSpec
) -> OracleResult:
    """Minimum-cost feasible grid point; ties broken lexicographically by u."""
    axes = _grid_axes(params, bounds, grid)
    dyn = build_dynamics(params)
    best_cost = math.inf
    best_u: Optional[np.ndarray] = None
    count = 0
    for prefix, last, ok, folded in _walk(params, bounds, axes, dyn, cost):
        feasible = int(np.count_nonzero(ok))
        if feasible == 0:
            continue
        count += feasible
        if folded is None:
            folded = np.full(ok.shape, math.inf)
            folded[ok] = power_cost_batch(cost, _completions(prefix, last, ok))
        values = np.where(ok, folded, math.inf)
        # row-major order is lexicographic, so argmin is the first minimum
        first = int(np.argmin(values))
        if values.flat[first] < best_cost:
            best_cost = values.flat[first]
            row, col = divmod(first, len(last))
            best_u = np.append(prefix[row], last[col])
    if best_u is None:
        raise NoFeasiblePoint(
            "no grid point was feasible; the set may be empty or the grid too coarse"
        )
    if not power_feasibility_mask(best_u, params, bounds, dyn)[0]:
        raise RuntimeError(
            f"the grid walk kept {best_u.tolist()}, which power_feasibility_mask rejects"
        )
    spacing = max(
        (bounds.u_max[t] + bounds.u_min_mag[t]) / (grid.points_per_axis - 1)
        for t in range(params.horizon)
    )
    lipschitz = cost.lipschitz(-bounds.u_min_mag, bounds.u_max)
    return OracleResult(
        u_best=best_u,
        cost_best=float(power_cost_batch(cost, best_u)[0]),
        feasible_count=count,
        instance_digest=instance_digest(params, bounds, cost),
        discretization_bound=None if lipschitz is None else lipschitz * float(spacing),
    )


def compare(solution, oracle_result: OracleResult) -> GapReport:
    """Gap report between a solver Solution and an oracle run on the same
    instance, at GAP_TOLERANCE; refuses mismatched instances via the digest
    guard."""
    if solution.instance_digest != oracle_result.instance_digest:
        raise InstanceMismatch(
            "solution and oracle result come from different instances: "
            f"{solution.instance_digest} vs {oracle_result.instance_digest}"
        )
    gap = float(solution.objective - oracle_result.cost_best)
    bound, tolerance = oracle_result.discretization_bound, GAP_TOLERANCE
    if not solution.certificate.certified:
        verdict = "no-guarantee"
    elif gap > tolerance or (bound is not None and gap < -(tolerance + bound)):
        verdict = "fail"
    else:
        verdict = "pass"
    return GapReport(
        gap=gap, discretization_bound=bound, tolerance=tolerance, verdict=verdict
    )
