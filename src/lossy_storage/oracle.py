"""Brute-force ground truth on the original power-coordinate formulation.

Searches a uniform grid over the power box for the cheapest profile in the
nonconvex power set.  Deliberately independent of the energy-coordinate
reformulation it is used to validate: it works in power coordinates and the
storage step recursion, never through the polytope.

The grid is walked as a chain, period by period, by runs of levels, on the
pair that `validate_params` passed.  The energy at period t depends on the
first t powers only: a surviving prefix carries its held energy
fl(lam * x_{t-1}), from fl(lam * x0), and level j of period t gives it the
energy x_t = fl(fl(lam * x_{t-1}) + rate_j), in `model.step`'s arithmetic,
so the energy-box test is `power_feasibility_mask`'s, bit for bit.  Each
axis is ascending, and f, delta * and + rate are each monotone under
round-to-nearest, so x_t never decreases along the axis and the levels that
keep a prefix inside its box form one run [lo, hi).  np.searchsorted on the
rates guesses each end, and `_inside`'s own test, applied level by level,
corrects it until it is exact.  The survivors expand by np.repeat, and each
takes the elementwise arithmetic that a (prefix x level) mask would give
it.  A grid point is held as its lexicographic code (its level indices in
mixed radix) and rebuilt as a row only when a row is asked for.

The sum and max families fold their per-period terms along each prefix (the
family's `terms`, by its `fold`, as `power_cost_batch` reduces them).  Their
last period is reduced per prefix, with nothing expanded: fl(F + t) and
max(F, t) never decrease in t, so the least fold over a run is, exactly, the
fold of the run's least term, which a sparse table of the axis's terms gives
in two lookups.  Power smoothing and custom costs are evaluated by
`power_cost_batch` on the expanded completions.  The folded sums match
`power_cost_batch`'s bit for bit up to T = 7, where np.sum adds in order;
from 8 periods on np.sum adds pairwise and the two may differ in the last
bits.  The reported cost is always `power_cost_batch`'s.

Grids include the axis endpoints and the exact zero level (zero power and
bound-saturating profiles are the natural optimum candidates).  The walk
visits the grid in lexicographic order and keeps the first minimum, so ties
are broken lexicographically: the first prefix that reaches a block's least
value, then the first level of its run whose fold equals it.  A NaN cost is
never a minimum.
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
    ObjectiveOutOfRange,
)
from .model import Bounds, Dynamics, StorageParams, _check_count, build_dynamics, validate_params
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
#: Most completions (prefix x level) one expansion of the walk holds.
_BLOCK = 1 << 14


@dataclass(frozen=True)
class GridSpec:
    """points_per_axis must be an integer of at least 3 (every axis also
    gets the exact zero level); horizon_cap, an integer of at least 1,
    limits the enumeration to desk scale."""

    points_per_axis: int
    horizon_cap: int = 3

    def __post_init__(self):
        _check_count(self.points_per_axis, "points_per_axis", 3)
        _check_count(self.horizon_cap, "horizon_cap", 1)


@dataclass(frozen=True, eq=False)
class OracleResult:
    """The best grid point and its cost.  discretization_bound is the
    family's Lipschitz constant over the power box times the widest grid
    spacing; it is None for custom costs and where that product is not a
    finite float, which JSON cannot hold."""

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
    spacing explains), and "pass" in between.  A NaN gap fails.
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


def _check_spans(bounds: Bounds) -> None:
    """Raise GridTooLarge naming the first period whose power box
    [-u_min_mag, u_max] is wider than the float range: no grid over it has
    a finite spacing."""
    for t, (high, low) in enumerate(zip(bounds.u_max.tolist(), bounds.u_min_mag.tolist())):
        if not math.isfinite(high + low):
            raise GridTooLarge(
                f"the power box of period {t}, [-{low!r}, {high!r}], is wider "
                "than the float range"
            )


def _grid_axes(params: StorageParams, bounds: Bounds, grid: GridSpec) -> list[np.ndarray]:
    if params.horizon > grid.horizon_cap:
        raise HorizonTooLarge(
            f"horizon {params.horizon} exceeds grid cap {grid.horizon_cap}"
        )
    if grid.points_per_axis > GRID_SIZE_GUARD:
        raise GridTooLarge(
            f"{grid.points_per_axis} points per axis exceed the {GRID_SIZE_GUARD:.0e} guard"
        )
    _check_spans(bounds)
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


def _periods(
    params: StorageParams, bounds: Bounds, grid: GridSpec, cost: Optional[CostSpec]
) -> tuple[list[np.ndarray], list[np.ndarray], Optional[list[np.ndarray]]]:
    """Per period: the grid levels inside the power box (the test of
    `power_feasibility_mask`), their energy rates delta * f(level) and, for
    a sum or max family, their cost terms (None otherwise)."""
    levels = [
        axis[_inside(axis, -bounds.u_min_mag[t], bounds.u_max[t], MEMBERSHIP_TOL)]
        for t, axis in enumerate(_grid_axes(params, bounds, grid))
    ]
    padded = np.zeros((max(map(len, levels)), params.horizon))
    for t, level in enumerate(levels):
        padded[: len(level), t] = level
    # model.step's arithmetic: f, then delta *
    rates = params.delta * loss_map(padded, params)
    terms = None if cost is None or cost.fold is None else cost.terms(padded)

    def columns(table):
        return [np.ascontiguousarray(table[: len(level), t]) for t, level in enumerate(levels)]

    return levels, columns(rates), None if terms is None else columns(terms)


def _first(passes, energy, j: np.ndarray, n: int) -> np.ndarray:
    """Per row, the least level index in [0, n] whose energy `passes`,
    corrected in place from the guess j.  `passes` must fail, then hold,
    along each row; energy(rows, cols) gives those rows' energies."""
    rows = np.flatnonzero(j < n)
    rows = rows[~passes(energy(rows, j[rows]))]
    while rows.size:  # the guess fails: step up
        j[rows] += 1
        rows = rows[j[rows] < n]
        rows = rows[~passes(energy(rows, j[rows]))]
    rows = np.flatnonzero(j > 0)
    rows = rows[passes(energy(rows, j[rows] - 1))]
    while rows.size:  # the level below passes too: step down
        j[rows] -= 1
        rows = rows[j[rows] > 0]
        rows = rows[passes(energy(rows, j[rows] - 1))]
    return j


def _runs(
    held: np.ndarray, rates: np.ndarray, low: float, high: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per prefix, the run [lo, hi) of levels whose energy fl(held + rate),
    `model.step`'s arithmetic with held = fl(lam * x_{t-1}), is inside [low,
    high] by `_inside`'s test.

    The energy never decreases along the ascending rates, so "on or above
    the lower face" and "above the upper face" each fail, then hold.
    np.searchsorted guesses where each starts to hold; `_first` makes it
    exact.
    """
    tol = MEMBERSHIP_TOL

    def energy(rows, cols):
        return held[rows] + rates[cols]

    lo = np.searchsorted(rates, (low - tol) - held)
    hi = np.searchsorted(rates, (high + tol) - held, side="right")
    lo = _first(lambda x: _inside(x, low, math.inf, tol), energy, lo, len(rates))
    hi = _first(lambda x: ~_inside(x, -math.inf, high, tol), energy, hi, len(rates))
    return lo, np.maximum(lo, hi)


def _chunks(lo: np.ndarray, hi: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The completions of each row's run [lo, hi), in lexicographic order,
    as (rows, cols) chunks of at most _BLOCK completions, or of one row's
    run where that alone is longer."""
    counts = hi - lo
    ends = np.cumsum(counts)
    start = done = 0
    while done < ends[-1]:
        stop = max(int(np.searchsorted(ends, done + _BLOCK, side="right")), start + 1)
        size = counts[start:stop]
        if ends[stop - 1] > done:
            rows = np.repeat(np.arange(start, stop), size)
            offsets = ends[start:stop] - size - lo[start:stop]
            yield rows, np.arange(done, ends[stop - 1]) - np.repeat(offsets, size)
        start, done = stop, ends[stop - 1]


def _rows(codes: np.ndarray, levels: list[np.ndarray]) -> np.ndarray:
    """The grid points whose lexicographic codes (mixed-radix level
    indices, the first period most significant) are `codes`, as rows."""
    rows = np.empty((len(codes), len(levels)))
    for t in range(len(levels) - 1, -1, -1):
        codes, digit = np.divmod(codes, len(levels[t]))
        rows[:, t] = levels[t][digit]
    return rows


def _walk(
    bounds: Bounds,
    dyn: Dynamics,
    rates: list[np.ndarray],
    terms: Optional[list[np.ndarray]],
    fold,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]]:
    """Walk the grid period by period; yield its last-period blocks in
    lexicographic order.

    A block is (codes, lo, hi, folded): m prefixes whose every period is
    inside its energy box, as lexicographic codes, the run [lo, hi) of last
    levels that keeps each inside the last box, and each prefix's folded
    cost when `fold` is set.  Each prefix carries its held energy
    fl(lam * x_{t-1}), and each level steps from it in `model.step`'s
    arithmetic.  Rounding is monotone, so a prefix's energy never decreases
    along the ascending axis, and the levels it keeps are one run, found
    exactly by `_runs`: its completions are the points a (prefix x level)
    mask would keep.  They expand by np.repeat, and each survivor's energy
    and fold take the same elementwise arithmetic as under that mask, bit
    for bit.  No expansion holds more than _BLOCK completions, or one run
    where a run alone is longer, so neither does a block.
    """
    x_min, x_max = bounds.x_min.tolist(), bounds.x_max.tolist()
    last = len(rates) - 1

    def extend(t, codes, held, folded):
        lo, hi = _runs(held, rates[t], x_min[t], x_max[t])
        if t == last:
            yield codes, lo, hi, folded
            return
        for rows, cols in _chunks(lo, hi):
            yield from extend(
                t + 1,
                codes[rows] * len(rates[t]) + cols,
                dyn.lam * (held[rows] + rates[t][cols]),
                None if fold is None else fold(folded[rows], terms[t][cols]),
            )

    # one empty prefix, held at b_0 = fl(lam * x0); every fold starts from
    # 0.0 like np.sum (max terms are >= 0)
    yield from extend(0, np.zeros(1, dtype=np.int64), dyn.b_offset[:1], np.zeros(1))


def _run_minimum(terms: np.ndarray):
    """The function (lo, hi) -> min(terms[lo:hi]) over arrays of nonempty
    runs, by a sparse table: row k holds the least term of each window of
    2**k, and two such windows cover a run of 2**k to 2**(k+1) - 1 terms."""
    n = len(terms)
    rows = [terms]
    while 2 ** len(rows) <= n:
        width = 2 ** (len(rows) - 1)
        rows.append(np.minimum(rows[-1][:-width], rows[-1][width:]))
    table = np.full((len(rows), n), math.inf)
    for k, row in enumerate(rows):
        table[k, : len(row)] = row
    table = table.ravel()
    k = np.array([0] + [length.bit_length() - 1 for length in range(1, n + 1)])
    first, second = k * n, k * n - (1 << k)

    def run_min(lo, hi):
        return np.minimum(table[first[hi - lo] + lo], table[second[hi - lo] + hi])

    return run_min


def _least(values: np.ndarray) -> int:
    """The index of the first least value; NaN is never least."""
    return int(np.argmin(np.where(np.isnan(values), math.inf, values)))


def enumerate_feasible(
    params: StorageParams, bounds: Bounds, grid: GridSpec
) -> Iterator[np.ndarray]:
    """Yield every feasible grid point of the power box, ascending
    lexicographically.  Raises `validate_params`'s errors on invalid input."""
    bounds = validate_params(params, bounds).bounds
    levels, rates, _ = _periods(params, bounds, grid, None)
    dyn = build_dynamics(params)
    for codes, lo, hi, _ in _walk(bounds, dyn, rates, None, None):
        for rows, cols in _chunks(lo, hi):
            yield from _rows(codes[rows] * len(levels[-1]) + cols, levels)


# an infinite term, fold or Lipschitz bound is real: no overflow warning
@np.errstate(over="ignore")
def brute_force_solve(
    params: StorageParams, bounds: Bounds, cost: CostSpec, grid: GridSpec
) -> OracleResult:
    """Minimum-cost feasible grid point; ties broken lexicographically by u.
    A NaN or +inf cost is never a minimum.  Raises `validate_params`'s
    errors on invalid input."""
    bounds = validate_params(params, bounds).bounds
    levels, rates, terms = _periods(params, bounds, grid, cost)
    dyn = build_dynamics(params)
    fold, n = cost.fold, len(levels[-1])
    run_min = None if fold is None else _run_minimum(terms[-1])
    best_cost, best, count = math.inf, None, 0
    for codes, lo, hi, folded in _walk(bounds, dyn, rates, terms, fold):
        count += int(np.sum(hi - lo))
        if fold is None:
            for rows, cols in _chunks(lo, hi):
                flat = codes[rows] * n + cols
                values = power_cost_batch(cost, _rows(flat, levels))
                first = _least(values)
                if values[first] < best_cost:
                    best_cost, best = values[first], flat[first]
            continue
        live = np.flatnonzero(hi > lo)
        if live.size == 0:
            continue
        codes, lo, hi, folded = codes[live], lo[live], hi[live], folded[live]
        # fold(F, t) is nondecreasing in t under rounding, so a run's least
        # fold is the fold of its least term; ties then go to the first
        # level of the first row that reaches the block's least value
        values = fold(folded, run_min(lo, hi))
        row = _least(values)
        if values[row] < best_cost:
            best_cost = values[row]
            run = fold(folded[row], terms[-1][lo[row] : hi[row]])
            best = codes[row] * n + lo[row] + int(np.argmax(run == best_cost))
    if best is None:
        if count:
            raise ObjectiveOutOfRange(
                f"every one of the {count} feasible grid points costs NaN or +inf, "
                "so none is a minimum"
            )
        raise NoFeasiblePoint(
            "no grid point was feasible; the set may be empty or the grid too coarse"
        )
    best_u = _rows(np.array([best]), levels)[0]
    if not power_feasibility_mask(best_u, params, bounds, dyn)[0]:
        raise RuntimeError(
            f"the grid walk kept {best_u.tolist()}, which power_feasibility_mask rejects"
        )
    spacing = max(
        (bounds.u_max[t] + bounds.u_min_mag[t]) / (grid.points_per_axis - 1)
        for t in range(params.horizon)
    )
    lipschitz = cost.lipschitz(-bounds.u_min_mag, bounds.u_max)
    bound = None if lipschitz is None else lipschitz * float(spacing)
    return OracleResult(
        u_best=best_u,
        cost_best=float(power_cost_batch(cost, best_u)[0]),
        feasible_count=count,
        instance_digest=instance_digest(params, bounds, cost),
        discretization_bound=bound if bound is not None and math.isfinite(bound) else None,
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
    elif not gap <= tolerance or (bound is not None and gap < -(tolerance + bound)):
        verdict = "fail"
    else:
        verdict = "pass"
    return GapReport(
        gap=gap, discretization_bound=bound, tolerance=tolerance, verdict=verdict
    )
