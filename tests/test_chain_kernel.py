"""The chain passes: the projection's, and the step-cost pass behind the
exact solves of certified arbitrage and load balancing."""

import dataclasses

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import LinearConstraint, NonlinearConstraint, linprog, minimize

import lossy_storage as ls
from lossy_storage import transform
from lossy_storage.errors import InfeasibleProblem
from lossy_storage.transform import (
    _chain_argmin,
    _largest_violation,
    _power_boxes,
    project_onto_polytope,
)

from conftest import (
    dense_dynamics,
    empty_intersection_instance,
    random_instance,
    tolerance_gap_instance,
)


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
@pytest.mark.parametrize(
    "lam, cap, eta",
    [(0.999, 2.0, 0.9), (0.9, 4.0, 0.9), (1.0, None, 1.0), (0.999, 2.0, 1.0)],
    ids=["leaky-capped", "lam-0.9", "lossless-tied", "lossless-tied-leaky"],
)
def test_exact_arbitrage_matches_highs(horizon, lam, cap, eta):
    rng = np.random.default_rng([horizon, int(1000 * lam)])
    params = ls.StorageParams(eta_c=eta, eta_d=eta, lam=lam, delta=1.0, x0=1.0, horizon=horizon)
    ones = np.ones(horizon)
    cap = horizon if cap is None else cap
    bounds = ls.Bounds(u_max=ones, u_min_mag=ones, x_max=cap * ones, x_min=0.0 * ones)
    cost = price_day(rng, horizon)
    if eta == 1.0:  # one price both ways ties the two slopes in every period
        cost = ls.EnergyArbitrage(p_buy=cost.p_sell, p_sell=cost.p_sell)
    solution = ls.solve(ls.validate_params(params, bounds), cost)
    assert solution.certificate.certified
    assert (solution.status, solution.iterations_used) == ("exact", 0)
    assert solution.feasibility_residual <= 1e-9
    if lam == 0.999:
        assert np.max(solution.x_star) == pytest.approx(cap, abs=1e-12)  # the cap binds
    reference = linprog_optimum(params, bounds, cost)
    assert abs(solution.objective - reference) <= 1e-9 * max(1.0, abs(reference))


def test_zero_slope_kernel_raises_as_the_projection():
    # both chain passes raise the forward sweep's verdict on an empty polytope
    rng = np.random.default_rng(1709)
    raised = 0
    for _ in range(300):
        horizon = int(rng.integers(1, 12))
        params, bounds = random_instance(rng, horizon)
        poly = ls.build_energy_polytope(params, bounds, ls.build_dynamics(params))
        y = rng.uniform(-1.0, bounds.x_max + 1.0)
        zeros = [0.0] * horizon
        try:
            project_onto_polytope(y, poly)
        except InfeasibleProblem as exc:
            with pytest.raises(InfeasibleProblem) as excinfo:
                _chain_argmin(poly, zeros, zeros, zeros, zeros)
            assert (str(excinfo.value), excinfo.value.period) == (str(exc), exc.period)
            raised += 1
        else:
            _chain_argmin(poly, zeros, zeros, zeros, zeros)
    assert raised >= 50


def test_projection_keeps_the_sign_of_a_zero_floor():
    # the forward clip returns the crossing itself when it holds, so a
    # floor written as -0.0 comes back as -0.0, as the box clip gives it
    params = ls.StorageParams(eta_c=0.9, eta_d=0.9, lam=1.0, delta=1.0, x0=0.0, horizon=3)
    bounds = ls.Bounds(u_max=[1, 1, 1], u_min_mag=[1, 1, 1], x_max=[1, 1, 1], x_min=[-0.0] * 3)
    poly = ls.build_energy_polytope(params, bounds, ls.build_dynamics(params))
    x = project_onto_polytope([-5.0, -5.0, 3.0], poly)
    assert x.tolist() == [0.0, 0.0, 0.9]
    assert np.signbit(x).tolist() == [True, True, False]


def no_pass(*args):
    raise AssertionError("the projection ran its pass")


def test_a_projection_projected_again_takes_the_fast_path(monkeypatch):
    # the fast path tests each step as the recovery rounds it, so a
    # projection inside the energy box is its own projection, bit for bit,
    # without a pass; `velocity`, which rounds otherwise, can put one of its
    # steps an ulp outside the step box, and a descent whose step leaves
    # that period alone would then run the pass on every iterate
    rng = np.random.default_rng(2213)
    checked = 0
    for _ in range(300):
        horizon = int(rng.integers(1, 30))
        params, bounds = random_instance(rng, horizon)
        poly = ls.build_energy_polytope(params, bounds, ls.build_dynamics(params))
        if poly._reach[2] is not None:
            continue
        x = project_onto_polytope(rng.uniform(-1.0, bounds.x_max + 1.0), poly)
        if np.any(x < poly.x_lower) or np.any(x > poly.x_upper):
            continue
        with monkeypatch.context() as patch:
            patch.setattr(transform, "_clip_knots", no_pass)
            assert project_onto_polytope(x, poly).tobytes() == x.tobytes()
        checked += 1
    assert checked >= 200


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


def load_day(rng, horizon):
    """Hourly loads around a daily cycle, clipped at zero."""
    hours = np.arange(horizon)
    load = 0.8 + 0.6 * np.sin(2.0 * np.pi * (hours - 18) / 24) + rng.normal(0.0, 0.2, horizon)
    return ls.LoadBalancing(load=np.maximum(load, 0.0))


def slsqp_optimum(params, bounds, cost):
    """The load-balancing optimum by SLSQP on the epigraph of max(G1, G2)
    over the velocity v, with the energies A v + b in their box.

    G1 is the charging piece (v / eta_c + load)^2 and G2 the discharging
    piece (eta_d * v + load)^2, each extended past 0 by its tangent there,
    so both are convex and continuously differentiable.  Their max is the
    cost when the load is nonnegative, or when the storage is lossless."""
    n, eta_c, eta_d, load = params.horizon, params.eta_c, params.eta_d, cost.load
    a, _ = dense_dynamics(params)
    b = ls.build_dynamics(params).b_offset

    def pieces(v):
        charge, discharge = np.maximum(v, 0.0), np.minimum(v, 0.0)
        g1 = (charge / eta_c + load) ** 2 + 2.0 * load * discharge / eta_c
        g2 = (eta_d * discharge + load) ** 2 + 2.0 * eta_d * load * charge
        dg1 = np.where(v >= 0.0, 2.0 * (v / eta_c + load) / eta_c, 2.0 * load / eta_c)
        dg2 = np.where(v <= 0.0, 2.0 * eta_d * (eta_d * v + load), 2.0 * eta_d * load)
        return (g1, g2), (dg1, dg2)

    def epigraph(w):
        (g1, g2), _ = pieces(w[:n])
        return np.concatenate([w[n:] - g1, w[n:] - g2])

    def epigraph_jac(w):
        _, (dg1, dg2) = pieces(w[:n])
        eye = np.eye(n)
        return np.block([[-np.diag(dg1), eye], [-np.diag(dg2), eye]])

    v_bounds = np.column_stack([-bounds.u_min_mag / eta_d, eta_c * bounds.u_max])
    start = np.zeros(n)  # x = b, inside the energy box in these instances
    (g1, g2), _ = pieces(start)
    res = minimize(
        lambda w: w[n:].sum(),
        np.concatenate([start, np.maximum(g1, g2) + 1.0]),
        jac=lambda w: np.concatenate([np.zeros(n), np.ones(n)]),
        bounds=np.vstack([v_bounds, np.full((n, 2), [-np.inf, np.inf])]),
        constraints=[
            NonlinearConstraint(epigraph, 0.0, np.inf, jac=epigraph_jac),
            LinearConstraint(
                np.hstack([a, np.zeros((n, n))]), bounds.x_min - b, bounds.x_max - b
            ),
        ],
        method="SLSQP",
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    v = np.clip(res.x[:n], v_bounds[:, 0], v_bounds[:, 1])
    x = a @ v + b
    assert np.all(x >= bounds.x_min - 1e-9) and np.all(x <= bounds.x_max + 1e-9), res.message
    return float(np.sum(np.maximum(*pieces(v)[0])))


@pytest.mark.parametrize("horizon", [24, 96])
@pytest.mark.parametrize(
    "lam, cap, eta",
    [(0.999, 2.0, 0.9), (0.9, 4.0, 0.9), (0.999, 2.0, 1.0)],
    ids=["leaky-capped", "lam-0.9", "lossless-signed-load"],
)
def test_exact_load_balancing_matches_slsqp(horizon, lam, cap, eta):
    rng = np.random.default_rng([horizon, int(1000 * lam), int(10 * eta)])
    params = ls.StorageParams(eta_c=eta, eta_d=eta, lam=lam, delta=1.0, x0=1.0, horizon=horizon)
    ones = np.ones(horizon)
    bounds = ls.Bounds(u_max=ones, u_min_mag=ones, x_max=cap * ones, x_min=0.0 * ones)
    cost = load_day(rng, horizon)
    if eta == 1.0:  # lossless storage is certified whatever the sign of the load
        cost = ls.LoadBalancing(load=cost.load - 0.8)
        assert np.min(cost.load) < 0.0
    solution = ls.solve(ls.validate_params(params, bounds), cost)
    assert solution.certificate.certified
    assert (solution.status, solution.iterations_used) == ("exact", 0)
    assert solution.best_objective_trace.tolist() == [solution.objective]
    assert solution.feasibility_residual <= 1e-9
    if cap == 2.0:
        assert np.max(solution.x_star) == pytest.approx(cap, abs=1e-12)  # the cap binds
    reference = slsqp_optimum(params, bounds, cost)
    assert abs(solution.objective - reference) <= 1e-9 * max(1.0, abs(reference))


def test_lossless_load_balancing_with_a_negative_load():
    # charge 0.25 to the cap against the load -0.5, then cover the load 0.2
    params = ls.StorageParams(eta_c=1.0, eta_d=1.0, lam=1.0, delta=1.0, x0=0.75, horizon=2)
    bounds = ls.Bounds(u_max=[1, 1], u_min_mag=[1, 1], x_max=[1, 1], x_min=[0, 0])
    solution = ls.solve(ls.validate_params(params, bounds), ls.LoadBalancing(load=[-0.5, 0.2]))
    assert (solution.status, solution.certificate.rule) == ("exact", "lossless")
    assert solution.u_star == pytest.approx([0.25, -0.2], abs=1e-15)
    assert solution.objective == pytest.approx(0.0625, abs=1e-15)


@pytest.mark.parametrize("cost", [
    ls.EnergyArbitrage(p_buy=[1, 1], p_sell=[2, 2]),
    ls.LoadBalancing(load=[-0.5, 0.2]),
], ids=["price-ratio-fails", "negative-load"])
def test_uncertified_exact_families_take_the_descent(cost):
    # the step-cost pass needs the certificate: without it the lower slope
    # would be capped at the upper one, which solves another problem
    params = ls.StorageParams(eta_c=0.9, eta_d=0.9, lam=1.0, delta=1.0, x0=0.5, horizon=2)
    bounds = ls.Bounds(u_max=[1, 1], u_min_mag=[1, 1], x_max=[1, 1], x_min=[0, 0])
    problem = ls.validate_params(params, bounds)
    solution = ls.solve(problem, cost, ls.SolveOptions(max_iterations=50))
    assert not solution.certificate.certified
    assert solution.status != "exact"
    assert solution.iterations_used >= 1
    assert solution.guarantee_flag == "best-effort"


@pytest.mark.parametrize("power_bound", [1e6, 1e300, 1e308])
@pytest.mark.parametrize("eta, objective, u_star", [
    # discharge the 0.25 the energy allows, all of it against the top load
    pytest.param(0.5, 0.25**2 + 0.2**2 + 0.1**2, [-0.25, 0.0, 0.0], id="lossy"),
    # discharge 0.5 so that every net draw is 0.1
    pytest.param(1.0, 3 * 0.1**2, [-0.4, -0.1, 0.0], id="lossless"),
])
def test_exact_load_balancing_with_power_bounds_far_beyond_the_energies(
    power_bound, eta, objective, u_star
):
    # a step box far wider than the energies would put the ends of its
    # curved bands far away, where interpolating toward them loses the
    # precision of the energies
    params = ls.StorageParams(eta_c=eta, eta_d=eta, lam=1.0, delta=1.0, x0=0.5, horizon=3)
    bounds = ls.Bounds(
        u_max=[power_bound] * 3, u_min_mag=[power_bound] * 3, x_max=[1, 1, 1], x_min=[0, 0, 0]
    )
    solution = ls.solve(ls.validate_params(params, bounds), ls.LoadBalancing(load=[0.5, 0.2, 0.1]))
    assert solution.status == "exact"
    assert solution.objective == pytest.approx(objective, abs=1e-15)
    assert solution.u_star == pytest.approx(u_star, abs=1e-15)


@pytest.mark.parametrize("power_bound", [1.0, 1e300])
def test_exact_load_balancing_holds_energies_at_the_float_limit(power_bound):
    # a step of one unit of power is far below the spacing of doubles near
    # 5e307, so the best point holds the energy; the recovery must add a
    # step of exactly 0 there, not interpolate to a neighbouring double,
    # which would recover a power near 1e292 and an objective beyond range
    params = ls.StorageParams(eta_c=0.5, eta_d=0.5, lam=1.0, delta=1.0, x0=5e307, horizon=2)
    bounds = ls.Bounds(
        u_max=[power_bound] * 2, u_min_mag=[power_bound] * 2, x_max=[1e308] * 2, x_min=[0, 0]
    )
    solution = ls.solve(ls.validate_params(params, bounds), ls.LoadBalancing(load=[0.75, 0.375]))
    assert solution.status == "exact"
    assert solution.x_star.tolist() == [5e307, 5e307]
    assert solution.u_star.tolist() == [0.0, 0.0]
    assert solution.objective == 0.75**2 + 0.375**2


def test_exact_load_balancing_holds_energies_on_b_when_lam_rounds():
    # every unit step is lost on energies near 3e41, so the best point
    # holds x = b; at lam < 1, x0 * lam**2 rounds away from lam * (lam * x0)
    # here, and a b built that way would make a hold taken from lam * x_{t-1}
    # measure a power near 1e25 in `velocity`, which measures steps against b
    params = ls.StorageParams(eta_c=0.9, eta_d=0.9, lam=0.999, delta=1.0, x0=2.86e41, horizon=3)
    ones = [1.0] * 3
    bounds = ls.Bounds(u_max=ones, u_min_mag=ones, x_max=[1.35e42] * 3, x_min=[0.0] * 3)
    b = ls.build_dynamics(params).b_offset
    assert (np.cumprod(np.full(3, params.lam)) * params.x0)[1] != b[1]
    solution = ls.solve(ls.validate_params(params, bounds), ls.LoadBalancing(load=[0.1, 0.4, 0.5]))
    assert solution.status == "exact"
    assert solution.x_star.tolist() == b.tolist()
    assert solution.u_star.tolist() == [0.0, 0.0, 0.0]
    assert solution.objective == pytest.approx(0.1**2 + 0.4**2 + 0.5**2, rel=1e-15)


def test_exact_load_balancing_holds_the_empty_storage_on_the_floor():
    # the storage empties in period 0 and holds 0 after it; every charging
    # step, below 1e-52, is lost on the way, so each hold is lam * 0 = 0,
    # which measures no step from b and stays on the energy floor
    params = ls.StorageParams(
        eta_c=1.6445580019677365e-230, eta_d=0.12642760059907432, lam=0.999,
        delta=0.015761861764125088, x0=0.004186665746786796, horizon=3,
    )
    bounds = ls.Bounds(
        u_max=[1e180] * 3, u_min_mag=[1e180] * 3,
        x_max=[0.011706192035562968] * 3, x_min=[0.0] * 3,
    )
    cost = ls.LoadBalancing(load=[137.66, 39.48, 27.46])
    solution = ls.solve(ls.validate_params(params, bounds), cost)
    assert solution.status == "exact"
    assert solution.x_star.tolist() == [0.0, 0.0, 0.0]
    assert solution.u_star.tolist()[1:] == [0.0, 0.0]
    assert solution.feasibility_residual == 0.0


def test_both_passes_leave_a_bridged_first_gap_on_the_energy_box():
    # lam * x0 = 2 misses the first energy box by 5e-10, within the
    # tolerance: every pass takes the lowest step from it, so the power
    # stays in its box and the energy misses its cap by the gap
    params = ls.StorageParams(eta_c=0.9, eta_d=0.9, lam=1.0, delta=1.0, x0=2.0, horizon=2)
    bounds = ls.Bounds(
        u_max=[1, 1], u_min_mag=[1, 1], x_max=[2 - 1 / 0.9 - 5e-10, 5], x_min=[0, 0]
    )
    problem = ls.validate_params(params, bounds)
    dyn = ls.build_dynamics(params)
    poly = ls.build_energy_polytope(params, bounds, dyn)
    projected = project_onto_polytope([0.0, 0.0], poly)
    solutions = [
        ls.solve(problem, cost) for cost in (
            ls.PeakShaving(load=[0.75, 0.375]),
            ls.EnergyArbitrage(p_buy=[1, 1], p_sell=[0.5, 0.5]),
            ls.LoadBalancing(load=[0.75, 0.375]),
        )
    ]
    assert [s.status for s in solutions] == ["converged", "exact", "exact"]
    first = {projected[0]} | {s.x_star[0] for s in solutions}
    assert first == {2.0 - 1 / 0.9}
    powers = [ls.energy_to_power(projected, params, dyn)] + [s.u_star for s in solutions]
    for u in powers:
        assert _largest_violation(_power_boxes(u, params, bounds, dyn)[:1]) == 0.0
    for solution in solutions:
        assert solution.feasibility_residual == pytest.approx(5e-10, rel=1e-6)


def test_exact_arbitrage_holds_b_when_lam_rounds():
    # as for load balancing: every unit step is lost on energies near 3e41,
    # so the best point holds x = b, which a cumprod b would round otherwise
    params = ls.StorageParams(eta_c=0.9, eta_d=0.9, lam=0.999, delta=1.0, x0=2.86e41, horizon=3)
    ones = [1.0] * 3
    bounds = ls.Bounds(u_max=ones, u_min_mag=ones, x_max=[1.35e42] * 3, x_min=[0.0] * 3)
    cost = ls.EnergyArbitrage(p_buy=[1.0, 2.0, 3.0], p_sell=[0.5] * 3)
    solution = ls.solve(ls.validate_params(params, bounds), cost)
    assert solution.status == "exact"
    assert solution.u_star.tolist() == [0.0, 0.0, 0.0]
    assert solution.objective == 0.0


def test_exact_load_balancing_holds_the_floor_without_charging_an_ulp():
    # 1 / eta_c is near 1e74, so one ulp of energy charged is a power near
    # 1e61.  The last period holds the empty storage, and p = 0 falls on a
    # knot of its rising band; interpolating to it from the far knot used to
    # leave a charge of one ulp (4.4e-16).  The numbers are those of a
    # random instance that showed it.
    params = ls.StorageParams(
        eta_c=8.813926028426345e-75, eta_d=0.002162193481985991, lam=0.5,
        delta=0.00219454000426472, x0=1.111302718816952, horizon=3,
    )
    bounds = ls.Bounds(
        u_max=[1.4342430303679647e243, 1.6637290726015827e243, 1.528338673827452e243],
        u_min_mag=[1.592464868934246e243, 2.5891681456493568e243, 1.2624271246885393e243],
        x_max=[2.9613050372471834] * 3,
        x_min=[0.0] * 3,
    )
    cost = ls.LoadBalancing(load=[0.26848157688178337, 1.279659702156933, 0.7265068083464629])
    solution = ls.solve(ls.validate_params(params, bounds), cost)
    assert solution.status == "exact"
    assert solution.x_star.tolist()[1:] == [0.0, 0.0]
    assert solution.u_star[2] == 0.0
    assert solution.objective < 1.6118  # a 2 000-iteration descent: 1.61180


@pytest.mark.parametrize("params, power_bound, energy_cap, load, descent", [
    pytest.param(
        dict(eta_c=1e-249, eta_d=0.004, lam=1.0, delta=0.05, x0=87.0, horizon=4),
        5e158, 700.0, [465.0, 464.0, 200.0, 45.0], 467107.7451711364, id="lam-1",
    ),
    pytest.param(
        dict(eta_c=1e-110, eta_d=0.003, lam=0.5, delta=1.25, x0=0.75, horizon=4),
        1e71, 3.0, [16.5, 143.0, 35.5, 12.0], 22125.3713002025, id="lam-0.5",
    ),
])
def test_exact_load_balancing_clips_onto_a_knot(params, power_bound, energy_cap, load, descent):
    # a tiny eta_c puts a charging band of derivatives (near -1e159 in the
    # first case) next to discharging knots (near 1e-249); a clip to the
    # empty storage lands on a knot, whose own value interpolation from the
    # far knot would cancel
    params = ls.StorageParams(**params)
    horizon = params.horizon
    bounds = ls.Bounds(
        u_max=[power_bound] * horizon, u_min_mag=[power_bound] * horizon,
        x_max=[energy_cap] * horizon, x_min=[0.0] * horizon,
    )
    solution = ls.solve(ls.validate_params(params, bounds), ls.LoadBalancing(load=load))
    assert solution.status == "exact"
    # no worse than a 20 000-iteration descent of the custom-cost twin
    assert solution.objective <= descent * (1.0 + 1e-12)


def test_exact_load_balancing_with_an_overflowing_curvature():
    # eta_c * delta underflows to 0, so the charging curvature 2 / (eta_c *
    # delta) is inf on an empty charging step box: its band must end at the
    # kink, not at the NaN of inf * 0, which would spread through the later
    # periods' knots.  Every discharging step, below 4e-22, is lost on the
    # energy 0.75, so the storage holds.
    params = ls.StorageParams(eta_c=1e-300, eta_d=0.5, lam=1.0, delta=1e-30, x0=0.75, horizon=3)
    bounds = ls.Bounds(u_max=[1.0] * 3, u_min_mag=[1e8] * 3, x_max=[1.0] * 3, x_min=[0.0] * 3)
    solution = ls.solve(ls.validate_params(params, bounds), ls.LoadBalancing(load=[0.3, 0.9, 0.5]))
    assert solution.status == "exact"
    assert solution.x_star.tolist() == [0.75] * 3
    assert solution.objective == pytest.approx(0.3**2 + 0.9**2 + 0.5**2, rel=1e-15)


def descent_twin_load_balancing(cost):
    """The load-balancing cost as a custom cost, which the solver descends."""
    return ls.CustomCost(
        evaluator=lambda u: ls.evaluate_power_cost(cost, u),
        subgradient=lambda u: 2.0 * (u + cost.load),
    )


def test_exact_load_balancing_beats_descent_within_the_grid_bound():
    rng = np.random.default_rng(4243)
    resolutions = {2: 201, 3: 41}
    for trial in range(8):
        horizon = int(rng.integers(2, 4))
        params, bounds = random_instance(rng, horizon)
        params = dataclasses.replace(params, x0=abs(params.x0))
        cost = ls.LoadBalancing(load=rng.uniform(0.0, 1.5, horizon))
        problem = ls.validate_params(params, bounds)
        exact = ls.solve(problem, cost)
        assert (exact.status, exact.guarantee_flag) == ("exact", "global-optimum-claimed")
        descent = ls.solve(
            problem, descent_twin_load_balancing(cost), ls.SolveOptions(max_iterations=30000)
        )
        assert exact.objective <= descent.objective + 1e-12 * max(1.0, abs(descent.objective))
        oracle = ls.brute_force_solve(
            params, bounds, cost, ls.GridSpec(resolutions[horizon], horizon_cap=4)
        )
        assert oracle.cost_best - oracle.discretization_bound <= exact.objective, trial
        assert exact.objective <= oracle.cost_best + 1e-12, trial
        assert ls.compare(exact, oracle).verdict == "pass"


def test_exact_load_balancing_takes_one_kernel_pass(two_period_problem, monkeypatch):
    # no projection and no subgradient: one kernel pass and one evaluation
    calls = dict.fromkeys(
        ("_chain_argmin", "project_onto_polytope", "subgradient_energy_cost",
         "evaluate_energy_cost"), 0
    )
    for name in calls:

        def counted(*args, _name=name, _fn=getattr(ls.solver, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(ls.solver, name, counted)
    cost = ls.LoadBalancing(load=[0.5, 0.2])
    solution = ls.solve(two_period_problem, cost, ls.SolveOptions(max_iterations=50))
    assert (solution.status, solution.iterations_used) == ("exact", 0)
    assert solution.best_objective_trace.tolist() == [solution.objective]
    # discharge the 0.375 that the energy allows so that both net draws are 0.1625
    assert solution.objective == pytest.approx(2 * 0.1625**2, abs=1e-15)
    assert calls == {
        "_chain_argmin": 1, "project_onto_polytope": 0, "subgradient_energy_cost": 0,
        "evaluate_energy_cost": 1,
    }
