"""The chain kernel behind the projection and the exact arbitrage solve."""

import dataclasses

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

import lossy_storage as ls
from lossy_storage.errors import InfeasibleProblem
from lossy_storage.transform import _chain_argmin, project_onto_polytope

from conftest import empty_intersection_instance, random_instance, tolerance_gap_instance


def price_day(rng, horizon):
    """Hourly prices around a daily cycle, some of them negative, that meet
    the price-ratio rule at eta_c = eta_d = 0.9."""
    hours = np.arange(horizon)
    price = 10.0 + 15.0 * np.sin(2.0 * np.pi * (hours - 18) / 24) + rng.normal(0.0, 4.0, horizon)
    return ls.EnergyArbitrage(p_buy=np.maximum(price, 0.81 * price) + 0.5, p_sell=price)


def linprog_optimum(params, bounds, cost):
    """The arbitrage optimum by HiGHS on the power formulation, with power
    split into a charging part u+ and a discharging part u-.  The price-ratio
    rule makes charging and discharging at once never pay, so the split LP
    has the optimum of the original problem."""
    n, lam, delta = params.horizon, params.lam, params.delta
    eye = sparse.identity(n, format="csr")
    a_eq = sparse.hstack(
        [-delta * params.eta_c * eye, (delta / params.eta_d) * eye,
         eye - lam * sparse.eye(n, k=-1, format="csr")],
        format="csr",
    )
    b_eq = np.zeros(n)
    b_eq[0] = lam * params.x0
    res = linprog(
        np.concatenate([cost.p_buy, -cost.p_sell, np.zeros(n)]),
        A_eq=a_eq, b_eq=b_eq,
        bounds=np.column_stack([
            np.concatenate([np.zeros(2 * n), bounds.x_min]),
            np.concatenate([bounds.u_max, bounds.u_min_mag, bounds.x_max]),
        ]),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return ls.evaluate_power_cost(cost, res.x[:n] - res.x[n : 2 * n])


@pytest.mark.parametrize("horizon", [24, 168, 720])
@pytest.mark.parametrize("lam, cap", [(0.999, 2.0), (0.9, 4.0)], ids=["leaky-capped", "lam-0.9"])
def test_exact_arbitrage_matches_highs(horizon, lam, cap):
    rng = np.random.default_rng([horizon, int(1000 * lam)])
    params = ls.StorageParams(eta_c=0.9, eta_d=0.9, lam=lam, delta=1.0, x0=1.0, horizon=horizon)
    ones = np.ones(horizon)
    bounds = ls.Bounds(u_max=ones, u_min_mag=ones, x_max=cap * ones, x_min=0.0 * ones)
    cost = price_day(rng, horizon)
    solution = ls.solve(ls.validate_params(params, bounds), cost)
    assert solution.certificate.certified
    assert (solution.status, solution.iterations_used) == ("exact", 0)
    assert solution.feasibility_residual <= 1e-9
    if lam == 0.999:
        assert np.max(solution.x_star) == pytest.approx(cap, abs=1e-12)  # the cap binds
    reference = linprog_optimum(params, bounds, cost)
    assert abs(solution.objective - reference) <= 1e-9 * max(1.0, abs(reference))


def test_zero_slope_kernel_is_the_projection():
    # bit for bit wherever the projection's clip is not a member; a member
    # clip is the projection, which the kernel finds to rounding
    rng = np.random.default_rng(1709)
    through_kernel = 0
    for _ in range(300):
        horizon = int(rng.integers(1, 12))
        params, bounds = random_instance(rng, horizon)
        poly = ls.build_energy_polytope(params, bounds, ls.build_dynamics(params))
        y = rng.uniform(-1.0, bounds.x_max + 1.0)
        zeros = [0.0] * horizon
        try:
            projected = project_onto_polytope(y, poly)
        except InfeasibleProblem as exc:
            with pytest.raises(InfeasibleProblem) as excinfo:
                _chain_argmin(poly, y.tolist(), zeros, zeros)
            assert (str(excinfo.value), excinfo.value.period) == (str(exc), exc.period)
            continue
        kernel = np.array(_chain_argmin(poly, y.tolist(), zeros, zeros))
        if np.array_equal(projected, np.clip(y, poly.x_lower, poly.x_upper)):
            assert np.max(np.abs(kernel - projected)) <= 1e-12
        else:
            assert kernel.tobytes() == projected.tobytes()
            through_kernel += 1
    assert through_kernel >= 100


def test_projection_keeps_the_sign_of_a_zero_floor():
    # the forward clip returns the crossing itself when it holds, so a
    # floor written as -0.0 comes back as -0.0, as the box clip gives it
    params = ls.StorageParams(eta_c=0.9, eta_d=0.9, lam=1.0, delta=1.0, x0=0.0, horizon=3)
    bounds = ls.Bounds(u_max=[1, 1, 1], u_min_mag=[1, 1, 1], x_max=[1, 1, 1], x_min=[-0.0] * 3)
    poly = ls.build_energy_polytope(params, bounds, ls.build_dynamics(params))
    x = project_onto_polytope([-5.0, -5.0, 3.0], poly)
    assert x.tolist() == [0.0, 0.0, 0.9]
    assert np.signbit(x).tolist() == [True, True, False]


def descent_twin(cost):
    """The arbitrage cost as a custom cost, which the solver descends."""
    return ls.CustomCost(
        evaluator=lambda u: ls.evaluate_power_cost(cost, u),
        subgradient=lambda u: np.where(u < 0.0, cost.p_sell, cost.p_buy),
    )


def test_exact_arbitrage_beats_descent_within_the_grid_bound():
    rng = np.random.default_rng(4242)
    resolutions = {2: 201, 3: 41, 4: 17}
    for trial in range(8):
        horizon = int(rng.integers(2, 5))
        params, bounds = random_instance(rng, horizon)
        # from x0 >= 0 every period can hold the energy it has
        params = dataclasses.replace(params, x0=abs(params.x0))
        p_sell = rng.uniform(-1.0, 2.0, horizon)
        p_buy = np.maximum(rng.uniform(-0.5, 2.5, horizon), params.eta_c * params.eta_d * p_sell)
        cost = ls.EnergyArbitrage(p_buy=p_buy + 1e-3, p_sell=p_sell)
        problem = ls.validate_params(params, bounds)
        exact = ls.solve(problem, cost)
        assert (exact.status, exact.guarantee_flag) == ("exact", "global-optimum-claimed")
        descent = ls.solve(problem, descent_twin(cost), ls.SolveOptions(max_iterations=2000))
        assert descent.status in ("converged", "max-iterations")
        assert exact.objective <= descent.objective + 1e-12 * max(1.0, abs(descent.objective))
        oracle = ls.brute_force_solve(
            params, bounds, cost, ls.GridSpec(resolutions[horizon], horizon_cap=4)
        )
        assert oracle.cost_best - oracle.discretization_bound <= exact.objective, trial
        assert exact.objective <= oracle.cost_best + 1e-7, trial
        assert ls.compare(exact, oracle).verdict == "pass"


@pytest.mark.parametrize(
    "instance, period",
    [(empty_intersection_instance(), 0), (tolerance_gap_instance(5e-9), 1)],
    ids=["empty-at-once", "gap-beyond-tolerance"],
)
def test_infeasible_arbitrage_names_the_same_period(instance, period):
    # the exact pass raises the forward sweep's verdict, as the descent's
    # first projection does
    params, bounds = instance
    problem = ls.validate_params(params, bounds)
    errors = []
    for cost in (
        ls.EnergyArbitrage(p_buy=[1.0, 1.0], p_sell=[0.5, 0.5]),
        ls.PeakShaving(load=[1.0, 1.0]),
    ):
        with pytest.raises(InfeasibleProblem) as excinfo:
            ls.solve(problem, cost)
        errors.append(excinfo.value)
    assert [err.period for err in errors] == [period, period]
    assert str(errors[0]) == str(errors[1])
    assert str(errors[0]).startswith(f"no feasible energy in period {period}: ")
