import itertools
import math

import numpy as np
import pytest

import lossy_storage as ls
from lossy_storage.errors import InfeasibleProblem
from lossy_storage.solver import _residual, project_onto_polytope
from lossy_storage.transform import energy_membership_mask

from conftest import make_certified_instance, random_instance


@pytest.fixture
def two_period_polytope(two_period_params, two_period_bounds, two_period_dyn):
    return ls.build_energy_polytope(two_period_params, two_period_bounds, two_period_dyn)


def empty_intersection_instance():
    params = ls.StorageParams(eta_c=0.5, eta_d=0.5, lam=1.0, delta=1.0, x0=10.0, horizon=2)
    bounds = ls.Bounds(u_max=[0.1, 0.1], u_min_mag=[0.1, 0.1], x_max=[1, 1], x_min=[0, 0])
    return params, bounds


def test_options_validation():
    with pytest.raises(ValueError):
        ls.SolveOptions(max_iterations=0)
    for bad in (float("nan"), float("inf"), -1.0, 0.0):
        with pytest.raises(ValueError, match="step_parameter"):
            ls.SolveOptions(step_parameter=bad)
        with pytest.raises(ValueError, match="objective_tolerance"):
            ls.SolveOptions(objective_tolerance=bad)
    assert ls.SolveOptions(step_parameter=None).step_parameter is None
    assert ls.SolveOptions(step_parameter=1e-3).step_parameter == 1e-3


def test_projection_of_member_is_identity(two_period_polytope):
    x = np.array([0.75, 0.75])
    assert np.array_equal(project_onto_polytope(x, two_period_polytope), x)


def test_projection_of_far_corner(two_period_polytope):
    # (1, 1) is a member and the closest point of the enclosing box, hence
    # the exact projection of (2, 2)
    assert np.allclose(project_onto_polytope([2.0, 2.0], two_period_polytope), [1.0, 1.0], atol=1e-9)


def test_projection_matches_grid_oracle(two_period_polytope):
    resolution = 201
    axes = [np.linspace(0.0, 1.0, resolution)] * 2
    grid = np.column_stack(
        [np.repeat(axes[0], resolution), np.tile(axes[1], resolution)]
    )
    members = grid[energy_membership_mask(grid, two_period_polytope)]
    spacing = 1.0 / (resolution - 1)

    rng = np.random.default_rng(61)
    for _ in range(100):
        x = rng.uniform(-1.0, 2.0, 2)
        projected = project_onto_polytope(x, two_period_polytope)
        nearest = members[np.argmin(np.sum((members - x) ** 2, axis=1))]
        assert float(np.linalg.norm(projected - nearest)) <= 2.0 * spacing


def test_projection_idempotent(two_period_polytope):
    rng = np.random.default_rng(67)
    for _ in range(100):
        x = rng.uniform(-2.0, 3.0, 2)
        once = project_onto_polytope(x, two_period_polytope)
        twice = project_onto_polytope(once, two_period_polytope)
        assert float(np.max(np.abs(twice - once))) <= 1e-8


def test_projection_detects_empty_intersection():
    params, bounds = empty_intersection_instance()
    poly = ls.build_energy_polytope(params, bounds, ls.build_dynamics(params))
    with pytest.raises(InfeasibleProblem) as excinfo:
        project_onto_polytope([1.0, 1.0], poly)
    assert excinfo.value.period == 0


def tolerance_gap_instance(gap):
    """Two periods whose second energy floor sits `gap` above the highest
    energy reachable there (0.5 after period 0, plus a 0.9 charge step)."""
    params = ls.StorageParams(eta_c=0.9, eta_d=0.9, lam=1.0, delta=1.0, x0=0.0, horizon=2)
    bounds = ls.Bounds(
        u_max=[1, 1], u_min_mag=[1, 1], x_max=[0.5, 5.0], x_min=[0.0, 1.4 + gap]
    )
    return params, bounds


def test_projection_bridges_a_gap_within_tolerance():
    # the forward sweep bridges period 1 at the midpoint of its gap, and the
    # backward pass then meets a bridged gap in period 0
    params, bounds = tolerance_gap_instance(5e-10)
    poly = ls.build_energy_polytope(params, bounds, ls.build_dynamics(params))
    x = project_onto_polytope([0.2, 3.0], poly)
    assert x == pytest.approx([0.5 + 2.5e-10, 1.4 + 2.5e-10], abs=1e-15)
    assert _residual(x, poly) == pytest.approx(2.5e-10, rel=1e-6)
    solution = ls.solve(
        ls.validate_params(params, bounds), ls.EnergyArbitrage(p_buy=[1, 1], p_sell=[0.5, 0.5])
    )
    assert solution.status == "converged"
    assert solution.feasibility_residual == pytest.approx(2.5e-10, rel=1e-6)


def test_nan_entry_is_never_a_member(two_period_polytope):
    x = np.array([np.nan, 0.5])
    assert math.isnan(_residual(x, two_period_polytope))
    with pytest.raises(ValueError, match="NaN"):
        project_onto_polytope(x, two_period_polytope)


def test_gap_beyond_tolerance_is_infeasible():
    params, bounds = tolerance_gap_instance(5e-9)
    with pytest.raises(InfeasibleProblem) as excinfo:
        ls.solve(
            ls.validate_params(params, bounds),
            ls.EnergyArbitrage(p_buy=[1, 1], p_sell=[0.5, 0.5]),
        )
    assert excinfo.value.period == 1


def active_set_projection(y, params, bounds):
    """Nearest feasible point by enumerating active sets; None when empty.

    In each period x_t sits at its lower bound, its upper bound or is free,
    and so does the step v_t = (x_t - lam x_{t-1}) / delta.  The projection is
    the equality-constrained least-squares point of its own active set, so
    the nearest feasible candidate over all 9**T sets is the projection.
    """
    horizon, lam, delta = params.horizon, params.lam, params.delta
    v_lower = -bounds.u_min_mag / params.eta_d
    v_upper = params.eta_c * bounds.u_max
    previous = lam * params.x0  # lam * x_{-1}, the step's offset in period 0
    best, best_dist = None, np.inf
    for pattern in itertools.product(range(3), repeat=2 * horizon):
        rows, rhs = [], []
        for t in range(horizon):
            x_side, v_side = pattern[2 * t], pattern[2 * t + 1]
            if x_side < 2:
                row = np.zeros(horizon)
                row[t] = 1.0
                rows.append(row)
                rhs.append((bounds.x_min, bounds.x_max)[x_side][t])
            if v_side < 2:
                row = np.zeros(horizon)
                row[t] = 1.0
                if t > 0:
                    row[t - 1] = -lam
                rows.append(row)
                rhs.append(delta * (v_lower, v_upper)[v_side][t] + (previous if t == 0 else 0.0))
        x = y.copy()
        if rows:
            e, f = np.array(rows), np.array(rhs)
            x = y - np.linalg.pinv(e) @ (e @ y - f)
            if np.max(np.abs(e @ x - f)) > 1e-9:
                continue  # contradictory active set
        v = (x - np.concatenate([[previous], lam * x[:-1]])) / delta
        feasible = (
            np.all(x >= bounds.x_min - 1e-10)
            and np.all(x <= bounds.x_max + 1e-10)
            and np.all(v >= v_lower - 1e-10)
            and np.all(v <= v_upper + 1e-10)
        )
        dist = float(np.sum((x - y) ** 2))
        if feasible and dist < best_dist:
            best, best_dist = x, dist
    return best


def test_projection_matches_active_set_reference():
    rng = np.random.default_rng(2403)
    verdicts = set()
    for _ in range(150):
        horizon = int(rng.integers(1, 4))
        params, bounds = random_instance(rng, horizon)
        poly = ls.build_energy_polytope(params, bounds, ls.build_dynamics(params))
        y = rng.uniform(-1.0, bounds.x_max + 1.0)
        expected = active_set_projection(y, params, bounds)
        verdicts.add(expected is None)
        if expected is None:
            with pytest.raises(InfeasibleProblem):
                project_onto_polytope(y, poly)
        else:
            assert np.max(np.abs(project_onto_polytope(y, poly) - expected)) <= 1e-9
    assert verdicts == {True, False}  # the draws cover both verdicts


def test_solve_infeasible_problem_raises():
    params, bounds = empty_intersection_instance()
    problem = ls.validate_params(params, bounds)
    with pytest.raises(InfeasibleProblem):
        ls.solve(problem, ls.EnergyArbitrage(p_buy=[1, 1], p_sell=[1, 1]))


def test_solve_zero_power_storage_forces_offset():
    params = ls.StorageParams(eta_c=0.5, eta_d=0.5, lam=1.0, delta=1.0, x0=0.75, horizon=2)
    bounds = ls.Bounds(u_max=[0, 0], u_min_mag=[0, 0], x_max=[1, 1], x_min=[0, 0])
    problem = ls.validate_params(params, bounds)
    solution = ls.solve(
        problem, ls.PeakShaving(load=[0.3, 0.7]), ls.SolveOptions(max_iterations=200)
    )
    assert np.allclose(solution.x_star, [0.75, 0.75], atol=1e-9)
    assert np.allclose(solution.u_star, [0.0, 0.0], atol=1e-9)
    assert solution.objective == pytest.approx(0.7, abs=1e-12)


def test_solution_invariants_on_arbitrage(two_period_problem, two_period_params, two_period_bounds):
    cost = ls.EnergyArbitrage(p_buy=[1, 1], p_sell=[1, 1])
    solution = ls.solve(two_period_problem, cost, ls.SolveOptions(max_iterations=6000))
    trace = solution.best_objective_trace
    assert np.all(np.diff(trace) <= 0.0)
    assert solution.feasibility_residual <= 1e-6
    assert ls.in_power_set(solution.u_star, two_period_params, two_period_bounds, tol=1e-6)
    poly = ls.build_energy_polytope(two_period_params, two_period_bounds, ls.build_dynamics(two_period_params))
    assert ls.in_energy_polytope(solution.x_star, poly, tol=1e-6)
    assert solution.guarantee_flag == "global-optimum-claimed"
    assert solution.u_star.shape == (2,)


def test_solve_is_deterministic(two_period_problem):
    cost = ls.PeakShaving(load=[0.75, 0.375])
    options = ls.SolveOptions(max_iterations=3000, seed=5)
    first = ls.solve(two_period_problem, cost, options)
    second = ls.solve(two_period_problem, cost, options)
    assert np.array_equal(first.x_star, second.x_star)
    assert first.objective == second.objective
    assert np.array_equal(first.best_objective_trace, second.best_objective_trace)


def test_solve_reports_max_iterations_status(two_period_problem):
    cost = ls.EnergyArbitrage(p_buy=[1, 1], p_sell=[1, 1])
    solution = ls.solve(two_period_problem, cost, ls.SolveOptions(max_iterations=50))
    assert solution.status == "max-iterations"
    assert solution.iterations_used == 50


def test_trace_grows_with_the_solve(two_period_problem):
    # the zero-power start is the minimum: the subgradient is zero there
    solution = ls.solve(
        two_period_problem,
        ls.LoadBalancing(load=[0.0, 0.0]),
        ls.SolveOptions(max_iterations=10**13),
    )
    assert solution.iterations_used == 1
    assert solution.best_objective_trace.tolist() == [0.0, 0.0]


def test_solve_best_effort_flag_for_uncertified_cost(two_period_problem):
    cost = ls.PowerSmoothing(renewable=[0.5, 1.0])
    solution = ls.solve(two_period_problem, cost, ls.SolveOptions(max_iterations=500))
    assert solution.guarantee_flag == "best-effort"
    assert not solution.certificate.certified
    assert solution.feasibility_residual <= 1e-6


def test_solve_lossless_quadratic_matches_oracle():
    params = ls.StorageParams(eta_c=1.0, eta_d=1.0, lam=1.0, delta=1.0, x0=0.5, horizon=2)
    bounds = ls.Bounds(u_max=[1, 1], u_min_mag=[1, 1], x_max=[2, 2], x_min=[0, 0])
    problem = ls.validate_params(params, bounds)
    cost = ls.LoadBalancing(load=[0.25, 0.75])
    oracle = ls.brute_force_solve(params, bounds, cost, ls.GridSpec(401))
    solution = ls.solve(problem, cost, ls.SolveOptions(max_iterations=8000))
    assert abs(solution.objective - oracle.cost_best) <= 1e-3


def test_certified_convergence_against_oracle_random_instances():
    # diminishing steps on random certified instances, desk-scale horizons
    rng = np.random.default_rng(20250810)
    resolutions = {2: 401, 3: 101, 4: 51}
    for trial in range(10):
        horizon = int(rng.integers(2, 5))
        params, bounds, cost, optimum = make_certified_instance(rng, horizon)
        problem = ls.validate_params(params, bounds)
        oracle = ls.brute_force_solve(
            params, bounds, cost, ls.GridSpec(resolutions[horizon], horizon_cap=4)
        )
        assert abs(oracle.cost_best - optimum) <= 5e-4
        solution = ls.solve(
            problem,
            cost,
            ls.SolveOptions(
                max_iterations=30000, step_parameter=0.08, objective_tolerance=1e-7
            ),
        )
        gap = abs(solution.objective - oracle.cost_best)
        assert gap <= 1e-3, (trial, type(cost).__name__, gap)
        assert solution.feasibility_residual <= 1e-6


def test_recover_power_profile_examples(two_period_params, two_period_dyn):
    assert np.allclose(
        ls.recover_power_profile([0.75, 0.75], two_period_params, two_period_dyn), [0.0, 0.0], atol=1e-15
    )
    assert np.allclose(
        ls.recover_power_profile([1.0, 1.0], two_period_params, two_period_dyn), [0.5, 0.0], atol=1e-15
    )
    assert np.allclose(
        ls.recover_power_profile([0.5, 1.0], two_period_params, two_period_dyn), [-0.125, 1.0], atol=1e-15
    )
