import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

import lossy_storage as ls
from lossy_storage import cli
from lossy_storage.errors import InfeasibleProblem, ObjectiveOutOfRange
from lossy_storage.transform import (
    _energy_boxes,
    _largest_violation,
    energy_membership_mask,
    project_onto_polytope,
)

from conftest import (
    empty_intersection_instance,
    make_certified_instance,
    random_instance,
    tolerance_gap_instance,
)


@pytest.fixture
def two_period_polytope(two_period_params, two_period_bounds, two_period_dyn):
    return ls.build_energy_polytope(two_period_params, two_period_bounds, two_period_dyn)


def test_options_validation():
    for bad in (0, -1, 2.5, 3.0, float("nan"), float("inf"), True, False, "10", None):
        with pytest.raises(ValueError, match="max_iterations"):
            ls.SolveOptions(max_iterations=bad)
    assert ls.SolveOptions(max_iterations=np.int64(7)).max_iterations == 7
    assert [field.name for field in dataclasses.fields(ls.SolveOptions)] == ["max_iterations"]


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


def test_projection_never_returns_its_input(two_period_polytope, monkeypatch):
    # the descent keeps its best iterate without a copy, so a projection
    # must be a fresh array on the fast path and on the full pass alike
    passes = []

    def counted(*args, _fn=ls.transform._clip_knots):
        passes.append(1)
        return _fn(*args)

    monkeypatch.setattr(ls.transform, "_clip_knots", counted)
    storage = np.array([0.0, 0.9, 0.0, 0.95, 0.0, -2.0, 0.0, 3.0])
    for target, full_pass in ((storage[1:4:2], False), (storage[5::2], True)):
        passes.clear()
        out = project_onto_polytope(target, two_period_polytope)
        assert bool(passes) == full_pass
        assert out is not target
        assert not np.shares_memory(out, storage)
        out[:] = 7.0
        assert storage.tolist() == [0.0, 0.9, 0.0, 0.95, 0.0, -2.0, 0.0, 3.0]


def test_projection_detects_empty_intersection():
    params, bounds = empty_intersection_instance()
    poly = ls.build_energy_polytope(params, bounds, ls.build_dynamics(params))
    with pytest.raises(InfeasibleProblem) as excinfo:
        project_onto_polytope([1.0, 1.0], poly)
    assert excinfo.value.period == 0


def test_projection_bridges_a_gap_within_tolerance():
    # the forward sweep bridges period 1 at the midpoint of its gap, and the
    # backward pass then meets a bridged gap in period 0
    params, bounds = tolerance_gap_instance(5e-10)
    poly = ls.build_energy_polytope(params, bounds, ls.build_dynamics(params))
    x = project_onto_polytope([0.2, 3.0], poly)
    assert x == pytest.approx([0.5 + 2.5e-10, 1.4 + 2.5e-10], abs=1e-15)
    assert _largest_violation(_energy_boxes(x, poly)) == pytest.approx(2.5e-10, rel=1e-6)
    # both exact passes and the descent's projections bridge it alike
    problem = ls.validate_params(params, bounds)
    arbitrage = ls.solve(problem, ls.EnergyArbitrage(p_buy=[1, 1], p_sell=[0.5, 0.5]))
    balancing = ls.solve(problem, ls.LoadBalancing(load=[0.75, 0.375]))
    descent = ls.solve(problem, ls.PeakShaving(load=[0.75, 0.375]))
    for exact in (arbitrage, balancing):
        assert (exact.status, exact.iterations_used) == ("exact", 0)
    assert descent.status == "converged"
    for solution in (arbitrage, balancing, descent):
        assert solution.x_star == pytest.approx([0.5 + 2.5e-10, 1.4 + 2.5e-10], abs=1e-15)
        assert solution.feasibility_residual == pytest.approx(2.5e-10, rel=1e-6)


def test_nan_entry_is_never_a_member(two_period_polytope):
    x = np.array([np.nan, 0.5])
    assert math.isnan(_largest_violation(_energy_boxes(x, two_period_polytope)))
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


def test_every_projection_onto_an_empty_polytope_raises():
    # the feasibility sweep runs once per polytope, and its verdict holds
    # for every later projection
    params, bounds = tolerance_gap_instance(5e-9)
    poly = ls.build_energy_polytope(params, bounds, ls.build_dynamics(params))
    errors = []
    for x in ([0.2, 3.0], [0.2, 3.0], [5.0, 0.0]):
        with pytest.raises(InfeasibleProblem) as excinfo:
            project_onto_polytope(x, poly)
        errors.append(excinfo.value)
    assert [err.period for err in errors] == [1, 1, 1]
    assert len({str(err) for err in errors}) == 1
    assert len({id(err) for err in errors}) == 3


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


def test_solve_on_a_point_energy_box():
    # every energy box is a point, so the descent's step scale (a tenth of
    # the box diameter) is zero and every projection returns that point;
    # the exact arbitrage pass lands there too
    params = ls.StorageParams(eta_c=0.5, eta_d=0.5, lam=1.0, delta=1.0, x0=0.75, horizon=2)
    bounds = ls.Bounds(u_max=[1, 1], u_min_mag=[1, 1], x_max=[0.75, 0.75], x_min=[0.75, 0.75])
    problem = ls.validate_params(params, bounds)
    for cost, objective, stop in (
        (ls.PeakShaving(load=[0.75, 0.375]), 0.75, ("converged", 1)),
        (ls.EnergyArbitrage(p_buy=[1, 1], p_sell=[1, 1]), 0.0, ("exact", 0)),
    ):
        solution = ls.solve(problem, cost)
        assert solution.x_star.tolist() == [0.75, 0.75]
        assert solution.u_star.tolist() == [0.0, 0.0]
        assert solution.objective == objective
        assert (solution.status, solution.iterations_used) == stop
        assert solution.feasibility_residual <= 0.0


def test_solution_invariants_on_arbitrage(two_period_problem, two_period_params, two_period_bounds):
    cost = ls.EnergyArbitrage(p_buy=[1, 1], p_sell=[1, 1])
    solution = ls.solve(two_period_problem, cost, ls.SolveOptions(max_iterations=6000))
    trace = solution.best_objective_trace
    assert np.all(np.diff(trace) <= 0.0)
    assert solution.feasibility_residual <= 1e-6
    assert ls.in_power_set(solution.u_star, two_period_params, two_period_bounds, tol=1e-6)
    poly = ls.build_energy_polytope(two_period_params, two_period_bounds, ls.build_dynamics(two_period_params))
    assert ls.in_energy_polytope(solution.x_star, poly)
    assert solution.guarantee_flag == "global-optimum-claimed"
    assert solution.u_star.shape == (2,)


def test_solve_is_deterministic(two_period_problem):
    cost = ls.PeakShaving(load=[0.75, 0.375])
    options = ls.SolveOptions(max_iterations=3000)
    first = ls.solve(two_period_problem, cost, options)
    second = ls.solve(two_period_problem, cost, options)
    assert np.array_equal(first.x_star, second.x_star)
    assert first.objective == second.objective
    assert np.array_equal(first.best_objective_trace, second.best_objective_trace)


def test_solve_reports_max_iterations_status(two_period_problem):
    cost = ls.PeakShaving(load=[0.75, 0.375])
    solution = ls.solve(two_period_problem, cost, ls.SolveOptions(max_iterations=50))
    assert solution.status == "max-iterations"
    assert solution.iterations_used == 50


def test_one_cost_pass_per_iterate(two_period_problem, monkeypatch):
    # N iterations take the value and subgradient of each of the N + 1
    # iterates in one pass; only the tail average is evaluated apart
    calls = dict.fromkeys(("subgradient_energy_cost", "evaluate_energy_cost"), 0)
    for name in calls:

        def counted(*args, _name=name, _fn=getattr(ls.solver, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(ls.solver, name, counted)
    cost = ls.PeakShaving(load=[0.75, 0.375])
    solution = ls.solve(two_period_problem, cost, ls.SolveOptions(max_iterations=50))
    assert solution.iterations_used == 50
    assert calls == {"subgradient_energy_cost": 51, "evaluate_energy_cost": 1}


def test_an_overflowing_subgradient_is_taken_again_rescaled():
    # at delta = 1e-10 the chain rule takes prices near the float limit to
    # an infinite subgradient, and a step along it would be NaN; the solve
    # must take that subgradient again, rescaled
    params = ls.StorageParams(eta_c=0.5, eta_d=0.5, lam=1.0, delta=1e-10, x0=1.0, horizon=2)
    bounds = ls.Bounds(u_max=[1, 1], u_min_mag=[1, 1], x_max=[2, 2], x_min=[0, 0])
    cost = ls.EnergyArbitrage(p_buy=[1e299, 1e299], p_sell=[1e300, 1e300])
    problem = ls.validate_params(params, bounds)
    assert not ls.certify_convexity(cost, params).certified
    solution = ls.solve(problem, cost, ls.SolveOptions(max_iterations=50))
    assert (solution.status, solution.iterations_used) == ("converged", 2)
    assert solution.objective == -2.0000001654807422e+300


def test_an_infinite_objective_ends_the_first_stop_window(monkeypatch):
    # renewable output swinging by 2e308 overflows every iterate's variation
    # to inf, so the first window gains inf - inf, which is NaN; it must
    # stop the solve, not the budget.  The flat tail keeps the subgradient
    # changing, so no iterate of that window is a projected fixed point
    calls = []

    def counted(*args, _fn=ls.solver.subgradient_energy_cost, **kwargs):
        calls.append(1)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(ls.solver, "subgradient_energy_cost", counted)
    params = ls.StorageParams(eta_c=0.5, eta_d=0.5, lam=1.0, delta=1.0, x0=5.0, horizon=6)
    bounds = ls.Bounds(u_max=[1] * 6, u_min_mag=[4] * 6, x_max=[10] * 6, x_min=[0] * 6)
    cost = ls.PowerSmoothing(renewable=[1e308, -1e308, 0, 0, 0, 0])
    with pytest.raises(ObjectiveOutOfRange):
        ls.solve(ls.validate_params(params, bounds), cost)
    assert len(calls) == ls.solver.STOP_WINDOW + 1


def test_exact_arbitrage_takes_one_kernel_pass(two_period_problem, monkeypatch):
    # no projection and no subgradient: one evaluation of the exact point
    calls = dict.fromkeys(
        ("project_onto_polytope", "subgradient_energy_cost", "evaluate_energy_cost"), 0
    )
    for name in calls:

        def counted(*args, _name=name, _fn=getattr(ls.solver, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(ls.solver, name, counted)
    cost = ls.EnergyArbitrage(p_buy=[1, 1], p_sell=[1, 1])
    solution = ls.solve(two_period_problem, cost, ls.SolveOptions(max_iterations=50))
    assert (solution.status, solution.iterations_used) == ("exact", 0)
    assert solution.best_objective_trace.tolist() == [solution.objective]
    assert solution.objective == pytest.approx(-0.375, abs=1e-15)
    assert calls == {
        "project_onto_polytope": 0, "subgradient_energy_cost": 0, "evaluate_energy_cost": 1
    }


def test_stop_does_not_depend_on_the_budget(two_period_problem):
    # the stop rule is checked every STOP_WINDOW iterations whatever the
    # budget, so a larger budget only raises the cap
    cost = ls.PeakShaving(load=[0.75, 0.375])
    small, *larger = (
        ls.solve(two_period_problem, cost, ls.SolveOptions(max_iterations=budget))
        for budget in (4000, 200000, 10**13)
    )
    assert small.status == "converged"
    assert small.iterations_used < 4000
    for solution in larger:
        assert solution.iterations_used == small.iterations_used
        assert np.array_equal(solution.x_star, small.x_star)
        assert np.array_equal(solution.best_objective_trace, small.best_objective_trace)


def test_trace_grows_with_the_solve(two_period_problem):
    # the zero-power start is the minimum: the subgradient is zero there
    solution = ls.solve(
        two_period_problem,
        ls.PowerRegulation(signal=[0.0, 0.0]),
        ls.SolveOptions(max_iterations=10**13),
    )
    assert solution.iterations_used == 1
    assert solution.best_objective_trace.tolist() == [0.0, 0.0]


def test_certified_descents_stop_at_a_projected_fixed_point():
    # a step that the projection gives back proves, for a convex cost, that
    # -g is normal to the polytope there: the iterate is optimal
    rng = np.random.default_rng(2406)
    drawn = dict.fromkeys(itertools.product((2, 3, 4), (ls.PeakShaving, ls.PowerRegulation)), 0)
    while min(drawn.values()) < 3:
        horizon = int(rng.integers(2, 5))
        params, bounds, cost, optimum = make_certified_instance(rng, horizon)
        if (horizon, type(cost)) not in drawn:
            continue
        drawn[horizon, type(cost)] += 1
        solution = ls.solve(ls.validate_params(params, bounds), cost)
        assert solution.certificate.certified
        assert solution.status == "converged"
        assert solution.iterations_used < 100
        assert len(solution.best_objective_trace) == solution.iterations_used + 1
        assert cli._solution_exit_code(solution) == cli.EXIT_OK
        assert abs(solution.objective - optimum) <= 1e-12


def peak_shaving_lp_optimum(params, bounds, cost):
    """The peak-shaving optimum by HiGHS in energy coordinates.  With a
    nonnegative load each period's |f_inv(v) + load| is the largest of
    v / eta_c + load, eta_d * v + load and -(eta_d * v + load), so the
    epigraph of the peak is an LP in the energies x and the peak z."""
    n, lam, delta = params.horizon, params.lam, params.delta
    steps = (np.eye(n) - lam * np.eye(n, k=-1)) / delta  # v = steps @ x - first
    first = np.zeros(n)
    first[0] = lam * params.x0 / delta
    minus_z = -np.ones((n, 1))
    rows = np.vstack([
        np.hstack([steps / params.eta_c, minus_z]),
        np.hstack([params.eta_d * steps, minus_z]),
        np.hstack([-params.eta_d * steps, minus_z]),
        np.hstack([steps, 0.0 * minus_z]),
        np.hstack([-steps, 0.0 * minus_z]),
    ])
    limits = np.concatenate([
        first / params.eta_c - cost.load,
        params.eta_d * first - cost.load,
        cost.load - params.eta_d * first,
        params.eta_c * bounds.u_max + first,
        bounds.u_min_mag / params.eta_d - first,
    ])
    res = linprog(
        np.concatenate([np.zeros(n), [1.0]]),
        A_ub=rows, b_ub=limits,
        bounds=list(zip(bounds.x_min, bounds.x_max)) + [(None, None)],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return float(res.fun)


@pytest.mark.parametrize("horizon", [3, 24])
def test_fixed_point_stops_match_highs(horizon):
    # a leaky store that charges to a binding cap ahead of one spike of load;
    # a budget under STOP_WINDOW leaves the fixed point as the only stop
    rng = np.random.default_rng([2406, horizon])
    params = ls.StorageParams(eta_c=0.9, eta_d=0.9, lam=0.999, delta=1.0, x0=0.0, horizon=horizon)
    ones = np.ones(horizon)
    for _ in range(10):
        cap = float(rng.uniform(0.2, 0.8))
        bounds = ls.Bounds(u_max=ones, u_min_mag=ones, x_max=cap * ones, x_min=0.0 * ones)
        load = rng.uniform(0.0, 0.5, horizon)
        load[rng.integers(1, horizon)] += rng.uniform(2.0, 3.0)
        cost = ls.PeakShaving(load=load)
        solution = ls.solve(
            ls.validate_params(params, bounds), cost, ls.SolveOptions(max_iterations=999)
        )
        assert solution.certificate.certified
        assert (solution.status, cli._solution_exit_code(solution)) == ("converged", 0)
        assert np.max(solution.x_star) == pytest.approx(cap, abs=1e-12)  # the cap binds
        reference = peak_shaving_lp_optimum(params, bounds, cost)
        assert abs(solution.objective - reference) <= 1e-9 * abs(reference)


def test_a_day_without_a_fixed_point_spends_its_budget():
    # the evening peak is shaved flat over several hours, where the one-hot
    # subgradient of the max keeps turning, so no step is given back
    rng = np.random.default_rng(2406)
    horizon = 24
    hours = np.arange(horizon, dtype=float)
    load = 2.0 + np.sin(2.0 * np.pi * (hours - 13.0) / 24.0) + rng.uniform(0.0, 0.3, horizon)
    params = ls.StorageParams(eta_c=0.9, eta_d=0.9, lam=0.999, delta=1.0, x0=1.0, horizon=horizon)
    ones = np.ones(horizon)
    bounds = ls.Bounds(u_max=ones, u_min_mag=ones, x_max=2.0 * ones, x_min=0.0 * ones)
    solution = ls.solve(
        ls.validate_params(params, bounds), ls.PeakShaving(load=load), ls.SolveOptions(max_iterations=400)
    )
    assert (solution.status, solution.iterations_used) == ("max-iterations", 400)
    assert len(solution.best_objective_trace) == 401
    # the tail average (2.8341) beats the best iterate (2.8479)
    assert solution.objective < solution.best_objective_trace[-1]


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
            ls.SolveOptions(max_iterations=30000),
        )
        gap = abs(solution.objective - oracle.cost_best)
        assert gap <= 1e-3, (trial, type(cost).__name__, gap)
        assert solution.feasibility_residual <= 1e-6
