import itertools
import tracemalloc

import numpy as np
import pytest

import lossy_storage as ls
from lossy_storage import oracle
from lossy_storage.costs import power_cost_batch
from lossy_storage.errors import (
    GridTooLarge,
    HorizonTooLarge,
    InstanceMismatch,
    NoFeasiblePoint,
)
from lossy_storage.transform import MEMBERSHIP_TOL, power_feasibility_mask

from conftest import tolerance_edge


def lossless_roomy_instance():
    params = ls.StorageParams(eta_c=1.0, eta_d=1.0, lam=1.0, delta=1.0, x0=50.0, horizon=2)
    bounds = ls.Bounds(u_max=[1, 1], u_min_mag=[1, 1], x_max=[100, 100], x_min=[0, 0])
    return params, bounds


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        ls.GridSpec(points_per_axis=4)
    with pytest.raises(ValueError):
        ls.GridSpec(points_per_axis=1)
    with pytest.raises(ValueError):
        ls.GridSpec(points_per_axis=3, horizon_cap=0)
    assert ls.GridSpec(points_per_axis=3).horizon_cap == 3


def test_three_point_enumeration_of_lossy_instance(two_period_params, two_period_bounds):
    # all nine candidates evaluated by the recursion: charging one unit
    # overshoots (x_1 = 1.25), discharging one unit undershoots (x_1 = -1.25),
    # and discharging in period two from 0.75 undershoots as well; only the
    # zero profile survives
    feasible = list(ls.enumerate_feasible(two_period_params, two_period_bounds, ls.GridSpec(3)))
    assert len(feasible) == 1
    assert np.array_equal(feasible[0], [0.0, 0.0])


def test_enumeration_includes_exact_zero_on_asymmetric_box(two_period_params):
    bounds = ls.Bounds(u_max=[2.0, 2.0], u_min_mag=[0.7, 0.7], x_max=[9, 9], x_min=[0, 0])
    feasible = list(ls.enumerate_feasible(two_period_params, bounds, ls.GridSpec(5)))
    assert any(np.array_equal(u, [0.0, 0.0]) for u in feasible)


def test_all_points_feasible_for_roomy_lossless_box():
    params, bounds = lossless_roomy_instance()
    feasible = list(ls.enumerate_feasible(params, bounds, ls.GridSpec(3)))
    assert len(feasible) == 9


def test_yielded_profiles_pass_membership(two_period_params, two_period_bounds):
    for u in ls.enumerate_feasible(two_period_params, two_period_bounds, ls.GridSpec(21)):
        assert ls.in_power_set(u, two_period_params, two_period_bounds, tol=1e-9)


def test_refinement_never_loses_feasible_points(two_period_params, two_period_bounds):
    counts = []
    for points in (3, 5, 9, 17, 33):
        feasible = list(ls.enumerate_feasible(two_period_params, two_period_bounds, ls.GridSpec(points)))
        counts.append(len(feasible))
    assert counts == sorted(counts)


def test_zero_power_box_collapses_to_origin(two_period_params):
    bounds = ls.Bounds(u_max=[0, 0], u_min_mag=[0, 0], x_max=[1, 1], x_min=[0, 0])
    cost = ls.PeakShaving(load=[0.25, 0.5])
    result = ls.brute_force_solve(two_period_params, bounds, cost, ls.GridSpec(5))
    assert np.array_equal(result.u_best, [0.0, 0.0])
    assert result.cost_best == pytest.approx(0.5, abs=1e-15)
    assert result.feasible_count == 1


def test_discharging_shaves_the_peak():
    params, bounds = lossless_roomy_instance()
    cost = ls.PeakShaving(load=[1.0, 1.0])
    result = ls.brute_force_solve(params, bounds, cost, ls.GridSpec(5))
    at_half_discharge = ls.evaluate_power_cost(cost, [-0.5, -0.5])
    assert result.cost_best <= at_half_discharge


def test_lexicographic_tie_break():
    params, bounds = lossless_roomy_instance()
    # zero selling price: every non-charging profile costs zero, so the
    # minimum is tied across a large set and the lexicographically smallest
    # feasible point must win
    cost = ls.EnergyArbitrage(p_buy=[1.0, 1.0], p_sell=[0.0, 0.0])
    result = ls.brute_force_solve(params, bounds, cost, ls.GridSpec(5))
    assert result.cost_best == 0.0
    assert np.array_equal(result.u_best, [-1.0, -1.0])


def test_enumeration_guards(two_period_bounds):
    params4 = ls.StorageParams(eta_c=0.5, eta_d=0.5, lam=1.0, delta=1.0, x0=0.75, horizon=4)
    bounds4 = ls.Bounds(u_max=[1] * 4, u_min_mag=[1] * 4, x_max=[1] * 4, x_min=[0] * 4)
    with pytest.raises(HorizonTooLarge):
        next(ls.enumerate_feasible(params4, bounds4, ls.GridSpec(3)))
    with pytest.raises(GridTooLarge):
        next(
            ls.enumerate_feasible(
                params4, bounds4, ls.GridSpec(10001, horizon_cap=4)
            )
        )


def test_no_feasible_point_detected():
    params = ls.StorageParams(eta_c=0.5, eta_d=0.5, lam=1.0, delta=1.0, x0=10.0, horizon=2)
    bounds = ls.Bounds(u_max=[0.1, 0.1], u_min_mag=[0.1, 0.1], x_max=[1, 1], x_min=[0, 0])
    with pytest.raises(NoFeasiblePoint):
        ls.brute_force_solve(
            params, bounds, ls.EnergyArbitrage(p_buy=[1, 1], p_sell=[1, 1]), ls.GridSpec(11)
        )


def test_compare_pass_and_digest_guard(two_period_problem, two_period_params, two_period_bounds):
    cost = ls.EnergyArbitrage(p_buy=[1, 1], p_sell=[1, 1])
    oracle = ls.brute_force_solve(two_period_params, two_period_bounds, cost, ls.GridSpec(401))
    solution = ls.solve(two_period_problem, cost, ls.SolveOptions(max_iterations=6000))
    report = ls.compare(solution, oracle, tolerance=1e-3)
    assert report.verdict == "pass"
    assert abs(report.gap) <= 1e-3
    assert report.discretization_bound == pytest.approx(2.0 * 2 / 400, abs=1e-12)

    other = ls.brute_force_solve(
        two_period_params, two_period_bounds, ls.EnergyArbitrage(p_buy=[1, 1], p_sell=[0.9, 1]), ls.GridSpec(11)
    )
    with pytest.raises(InstanceMismatch):
        ls.compare(solution, other)


def test_compare_best_effort_has_no_pass_fail(two_period_problem, two_period_params, two_period_bounds):
    cost = ls.PowerSmoothing(renewable=[1.0, 0.5])
    oracle = ls.brute_force_solve(two_period_params, two_period_bounds, cost, ls.GridSpec(101))
    solution = ls.solve(two_period_problem, cost, ls.SolveOptions(max_iterations=2000))
    report = ls.compare(solution, oracle, tolerance=1e-3)
    assert report.verdict == "no-guarantee"


def test_grid_guard_counts_the_appended_zero_level(monkeypatch):
    # linspace(-1, 2, 39) misses zero, so every axis has 40 levels:
    # 40**5 = 1.024e8 grid points, although 39**5 = 9.02e7 is under the guard
    params = ls.StorageParams(eta_c=0.9, eta_d=0.9, lam=1.0, delta=1.0, x0=1.0, horizon=5)
    bounds = ls.Bounds(u_max=[2.0] * 5, u_min_mag=[1.0] * 5, x_max=[9.0] * 5, x_min=[0.0] * 5)
    grid = ls.GridSpec(39, horizon_cap=5)
    assert 39**5 <= oracle.GRID_SIZE_GUARD < 40**5

    def no_enumeration(*args, **kwargs):
        raise AssertionError("the grid was enumerated before the guard fired")

    monkeypatch.setattr(oracle, "build_dynamics", no_enumeration)
    with pytest.raises(GridTooLarge):
        ls.brute_force_solve(params, bounds, ls.PeakShaving(load=[1.0] * 5), grid)
    with pytest.raises(GridTooLarge):
        next(ls.enumerate_feasible(params, bounds, grid))


def test_oracle_memory_at_four_periods():
    # every one of the 51**4 = 6.8e6 grid points is feasible; the walk holds
    # a few blocks of prefixes, not grid rows
    params = ls.StorageParams(eta_c=0.8, eta_d=0.9, lam=0.95, delta=1.0, x0=3.0, horizon=4)
    bounds = ls.Bounds(u_max=[0.5] * 4, u_min_mag=[0.5] * 4, x_max=[10.0] * 4, x_min=[0.0] * 4)
    cost = ls.EnergyArbitrage(p_buy=[1.0, 2.0, 1.5, 1.0], p_sell=[0.5, -0.2, 0.7, 0.3])
    tracemalloc.start()
    try:
        result = ls.brute_force_solve(params, bounds, cost, ls.GridSpec(51, horizon_cap=4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.feasible_count == 51**4
    assert peak < 4e6


# --- the walk against the row-by-row search it replaced -------------------

FAMILIES = (
    "peak_shaving",
    "load_balancing",
    "power_regulation",
    "energy_arbitrage",
    "power_smoothing",
    "custom",
)
REFERENCE_LAMS = (1e-3, 0.5, 1.0)
REFERENCE_ETAS = (1e-3, 0.05, 0.7, 1.0)
#: every (family, T = 1..4, lam) once, then T = 5..7 once per family; numpy
#: sums fewer than 8 terms in order, so the walk's folds are exact up to T = 7
REFERENCE_CASES = [
    (family, horizon, lam)
    for lam in REFERENCE_LAMS
    for horizon in (1, 2, 3, 4)
    for family in FAMILIES
] + [(family, 5 + i % 3, 0.5) for i, family in enumerate(FAMILIES)]


def reference_cost(family, rng, horizon):
    if family == "peak_shaving":
        return ls.PeakShaving(load=rng.uniform(-1.0, 2.0, horizon))
    if family == "load_balancing":
        return ls.LoadBalancing(load=rng.uniform(-1.0, 1.0, horizon))
    if family == "power_regulation":
        return ls.PowerRegulation(signal=rng.uniform(-1.0, 1.0, horizon))
    if family == "energy_arbitrage":
        # every other draw sells at zero: then all discharging levels tie
        p_sell = rng.uniform(-1.0, 1.0, horizon) * rng.integers(0, 2)
        return ls.EnergyArbitrage(p_buy=rng.uniform(0.0, 2.0, horizon), p_sell=p_sell)
    if family == "power_smoothing":
        return ls.PowerSmoothing(renewable=rng.uniform(0.0, 1.0, horizon))
    weights = rng.uniform(0.5, 2.0, horizon)
    return ls.CustomCost(
        evaluator=lambda u: float(np.dot(weights, u * u) + np.max(u)), label="weighted"
    )


def reference_instance(index):
    """Seeded instance.  Power boxes are symmetric (zero on the grid),
    asymmetric (zero appended), charge-only or discharge-only per period;
    energy boxes sit around one simulated schedule, from narrow enough to cut
    prefixes to roomy, and every eighth instance lifts one period's box above
    what full charging reaches, so no point is feasible."""
    family, horizon, lam = REFERENCE_CASES[index]
    rng = np.random.default_rng([4, index])
    eta_c, eta_d = (float(e) for e in rng.choice(REFERENCE_ETAS, 2))
    params = ls.StorageParams(
        eta_c=eta_c,
        eta_d=eta_d,
        lam=lam,
        delta=float(rng.uniform(0.5, 1.5)),
        x0=float(rng.uniform(0.5, 2.0)),
        horizon=horizon,
    )
    u_max = rng.uniform(0.2, 1.5, horizon)
    u_min = rng.uniform(0.2, 1.5, horizon)
    kind = rng.integers(0, 4, horizon)
    u_min = np.where(kind == 0, u_max, u_min)
    u_min[kind == 2] = 0.0
    u_max[kind == 3] = 0.0
    x_ref = ls.simulate(rng.uniform(-u_min, u_max), params)
    x_min = np.maximum(x_ref - rng.choice([0.05, 0.5, 100.0], horizon), 0.0)
    x_max = np.maximum(x_ref, 0.0) + rng.choice([0.05, 0.5, 100.0], horizon)
    points = 3 if horizon > 4 else int(rng.choice([3, 5, 9]))
    if index % 8 == 0:
        t = int(rng.integers(0, horizon))
        x_min[t] = ls.simulate(u_max, params)[t] + 0.5
        x_max[t] = x_min[t] + 1.0
    elif index % 8 == 4:
        # one charging grid point sits exactly on the tolerance edge of its
        # energy box at every period, above or below
        levels = [oracle._axis_levels(-u_min[t], u_max[t], points) for t in range(horizon)]
        u_edge = np.array([rng.choice(axis[axis >= 0.0]) for axis in levels])
        x_edge = ls.power_to_energy(u_edge, params, ls.build_dynamics(params))
        for t in range(horizon):
            if rng.integers(0, 2):
                x_max[t] = tolerance_edge(x_edge[t], +MEMBERSHIP_TOL)
                x_min[t] = max(x_edge[t] - 1.0, 0.0)
            else:
                x_min[t] = tolerance_edge(x_edge[t], -MEMBERSHIP_TOL)
                x_max[t] = x_edge[t] + 1.0
    bounds = ls.Bounds(u_max=u_max, u_min_mag=u_min, x_max=x_max, x_min=x_min)
    cost = reference_cost(family, rng, horizon)
    return params, bounds, cost, ls.GridSpec(points, horizon_cap=horizon)


def row_by_row_reference(params, bounds, cost, grid):
    """The search the walk replaced: every grid row through
    power_feasibility_mask and power_cost_batch, then the first minimum.
    Returns (feasible rows, u_best or None, cost_best or None, pruned), with
    pruned True when some row leaves its energy box before the last period."""
    axes = oracle._grid_axes(params, bounds, grid)
    rows = np.array(list(itertools.product(*axes)), dtype=float)
    dyn = ls.build_dynamics(params)
    mask = power_feasibility_mask(rows, params, bounds, dyn, tol=MEMBERSHIP_TOL)
    x = ls.power_to_energy(rows, params, dyn)[:, :-1]
    tol = MEMBERSHIP_TOL
    pruned = bool(np.any((x < bounds.x_min[:-1] - tol) | (x > bounds.x_max[:-1] + tol)))
    feasible = rows[mask]
    if feasible.shape[0] == 0:
        return feasible, None, None, pruned
    values = power_cost_batch(cost, feasible)
    first = int(np.argmin(values))
    return feasible, feasible[first], values[first], pruned


@pytest.mark.parametrize("index", range(len(REFERENCE_CASES)))
def test_walk_matches_row_by_row_reference(index, monkeypatch):
    params, bounds, cost, grid = reference_instance(index)
    feasible, u_best, cost_best, _ = row_by_row_reference(params, bounds, cost, grid)
    # the default blocks, and blocks of 4 points, which split every period
    # and leave a whole axis to a single prefix
    for block in (oracle._BLOCK, 4):
        monkeypatch.setattr(oracle, "_BLOCK", block)
        walked = list(ls.enumerate_feasible(params, bounds, grid))
        assert len(walked) == feasible.shape[0]
        assert all(w.tobytes() == f.tobytes() for w, f in zip(walked, feasible))

        if u_best is None:
            with pytest.raises(NoFeasiblePoint):
                ls.brute_force_solve(params, bounds, cost, grid)
            continue
        result = ls.brute_force_solve(params, bounds, cost, grid)
        assert result.u_best.tobytes() == u_best.tobytes()
        assert result.feasible_count == feasible.shape[0]
        assert result.cost_best.hex() == float(cost_best).hex()


def test_reference_cases_reach_the_edge_cases():
    zero_on_grid = zero_appended = pruned_any = infeasible = ties = 0
    for index in range(len(REFERENCE_CASES)):
        params, bounds, cost, grid = reference_instance(index)
        for t in range(params.horizon):
            on_grid = 0.0 in np.linspace(-bounds.u_min_mag[t], bounds.u_max[t], grid.points_per_axis)
            zero_on_grid += on_grid
            zero_appended += not on_grid
        feasible, u_best, _, pruned = row_by_row_reference(params, bounds, cost, grid)
        pruned_any += pruned and feasible.shape[0] > 0
        infeasible += u_best is None
        if u_best is not None and feasible.shape[0] > 1:
            values = power_cost_batch(cost, feasible)
            ties += np.count_nonzero(values == values.min()) > 1
    assert min(zero_on_grid, zero_appended, pruned_any, infeasible, ties) >= 3
    assert any(isinstance(reference_instance(i)[2], ls.CustomCost)
               for i in range(len(REFERENCE_CASES)))
