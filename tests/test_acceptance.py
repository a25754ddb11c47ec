"""Acceptance suite: one test per criterion, spec tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.  Criterion 6 solves nine instances end to end and is the slow
part (a few minutes); everything else is seconds.
"""

import json

import numpy as np
import pytest

import lossy_storage as ls
from lossy_storage import cli
from lossy_storage.transform import energy_membership_mask

from conftest import make_certified_instance, random_instance

TWO_PERIOD_PARAMS = ls.StorageParams(eta_c=0.5, eta_d=0.5, lam=1.0, delta=1.0, x0=0.75, horizon=2)
TWO_PERIOD_BOUNDS = ls.Bounds(u_max=[1.0, 1.0], u_min_mag=[1.0, 1.0], x_max=[1.0, 1.0], x_min=[0.0, 0.0])
LOSSLESS_PARAMS = ls.StorageParams(eta_c=1.0, eta_d=1.0, lam=1.0, delta=1.0, x0=0.75, horizon=2)

# family parameter choices for the canonical two-period instance; all are
# certified, and the first/third/fourth have optima attained on the 401-point
# oracle grid (the quadratic one is second-order in the grid offset)
TWO_PERIOD_COSTS = {
    "peak_shaving": ls.PeakShaving(load=[0.75, 0.375]),
    "load_balancing": ls.LoadBalancing(load=[0.5, 0.25]),
    "power_regulation": ls.PowerRegulation(signal=[-0.5, -0.25]),
    "energy_arbitrage": ls.EnergyArbitrage(p_buy=[1.0, 1.0], p_sell=[1.0, 1.0]),
}

SOLVE_OPTIONS = ls.SolveOptions(max_iterations=30000)


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_bijection_round_trip():
    """10^4 random (params, u) with T <= 20: inverse(map(u)) = u to 1e-9."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        horizon = int(rng.integers(1, 21))
        params, bounds = random_instance(rng, horizon)
        dyn = ls.build_dynamics(params)
        u = rng.uniform(-2.0 * bounds.u_max, 2.0 * bounds.u_max, size=(100, horizon))
        back = ls.energy_to_power(ls.power_to_energy(u, params, dyn), params, dyn)
        worst = max(worst, float(np.max(np.abs(back - u))))
    assert worst <= 1e-9
    report(f"C1 PASS: bijection round-trip, 10^4 pairs, worst error {worst:.2e} <= 1e-9")


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_2_halfspace_equivalence():
    """20 instances x 10^4 samples: definition-level membership == half-space
    membership on every non-boundary sample."""
    rng = np.random.default_rng(202)
    checked = 0
    for _ in range(20):
        horizon = int(rng.integers(1, 8))
        params, bounds = random_instance(rng, horizon)
        dyn = ls.build_dynamics(params)
        poly = ls.build_energy_polytope(params, bounds, dyn)
        span = poly.x_upper - poly.x_lower
        x = rng.uniform(-0.5, 1.5, size=(10_000, horizon)) * span + poly.x_lower
        u = ls.energy_to_power(x, params, dyn)
        v = ls.velocity(x, dyn)

        margin = np.minimum.reduce(
            [
                np.min(np.abs(x - poly.x_lower), axis=1),
                np.min(np.abs(x - poly.x_upper), axis=1),
                np.min(np.abs(u + bounds.u_min_mag), axis=1),
                np.min(np.abs(u - bounds.u_max), axis=1),
                np.min(np.abs(v - poly.v_lower), axis=1),
                np.min(np.abs(v - poly.v_upper), axis=1),
            ]
        )
        keep = margin > 1e-7

        definitional = np.all(x >= poly.x_lower - 1e-9, axis=1)
        definitional &= np.all(x <= poly.x_upper + 1e-9, axis=1)
        definitional &= np.all(u >= -bounds.u_min_mag - 1e-9, axis=1)
        definitional &= np.all(u <= bounds.u_max + 1e-9, axis=1)
        halfspace = energy_membership_mask(x, poly)

        assert np.array_equal(definitional[keep], halfspace[keep])
        checked += int(np.count_nonzero(keep))
    report(f"C2 PASS: half-space equivalence on {checked} non-boundary samples, 20 instances")


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_3a_witness_triple():
    """Canonical witness: (0.5,0) and (-0.125,1) feasible, midpoint not,
    with the second-period energy exactly 1.09375 > 1."""
    assert ls.in_power_set([0.5, 0.0], TWO_PERIOD_PARAMS, TWO_PERIOD_BOUNDS)
    assert ls.in_power_set([-0.125, 1.0], TWO_PERIOD_PARAMS, TWO_PERIOD_BOUNDS)
    midpoint = 0.5 * np.array([0.5, 0.0]) + 0.5 * np.array([-0.125, 1.0])
    assert np.allclose(midpoint, [0.1875, 0.5], atol=1e-15)
    verdict = ls.in_power_set(midpoint, TWO_PERIOD_PARAMS, TWO_PERIOD_BOUNDS)
    assert not verdict

    x = ls.simulate(midpoint, TWO_PERIOD_PARAMS)
    assert abs(x[1] - 1.09375) <= 1e-12
    assert x[1] > 1.0

    found = ls.find_nonconvexity_witness(TWO_PERIOD_PARAMS, TWO_PERIOD_BOUNDS)
    assert found is not None
    report(
        "C3a PASS: witness triple classifies feasible/feasible/infeasible, "
        f"x_2 = {float(x[1])} > 1; search also finds a witness"
    )


def test_criterion_3b_energy_set_midpoint_convexity():
    """Resolution-201 raster of the energy set passes a 10^4-pair midpoint
    probe with zero violations."""
    resolution = 201
    dyn = ls.build_dynamics(TWO_PERIOD_PARAMS)
    poly = ls.build_energy_polytope(TWO_PERIOD_PARAMS, TWO_PERIOD_BOUNDS, dyn)
    axis = np.linspace(0.0, 1.0, resolution)
    grid = np.column_stack([np.repeat(axis, resolution), np.tile(axis, resolution)])
    members = grid[energy_membership_mask(grid, poly)]
    assert len(members) > 0

    rng = np.random.default_rng(303)
    idx = rng.integers(0, len(members), size=(10_000, 2))
    mid = 0.5 * members[idx[:, 0]] + 0.5 * members[idx[:, 1]]
    violations = int(np.count_nonzero(~energy_membership_mask(mid, poly)))
    assert violations == 0
    report(
        f"C3b PASS: energy-set raster ({len(members)} members at 201x201), "
        "10^4 midpoint pairs, 0 violations"
    )


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_4_concavity_and_convexity():
    """10^4 random triples per direction: the power-to-energy map is concave,
    its inverse convex, to 1e-9."""
    rng = np.random.default_rng(404)
    for _ in range(100):
        horizon = int(rng.integers(1, 13))
        params, _ = random_instance(rng, horizon)
        dyn = ls.build_dynamics(params)
        u_a = rng.uniform(-2, 2, size=(100, horizon))
        u_b = rng.uniform(-2, 2, size=(100, horizon))
        theta = rng.uniform(size=(100, 1))
        lhs = ls.power_to_energy(theta * u_a + (1 - theta) * u_b, params, dyn)
        rhs = theta * ls.power_to_energy(u_a, params, dyn) + (1 - theta) * ls.power_to_energy(u_b, params, dyn)
        assert np.all(lhs >= rhs - 1e-9)

        x_a = rng.uniform(-2, 3, size=(100, horizon))
        x_b = rng.uniform(-2, 3, size=(100, horizon))
        lhs_inv = ls.energy_to_power(theta * x_a + (1 - theta) * x_b, params, dyn)
        rhs_inv = theta * ls.energy_to_power(x_a, params, dyn) + (1 - theta) * ls.energy_to_power(
            x_b, params, dyn
        )
        assert np.all(lhs_inv <= rhs_inv + 1e-9)
    report("C4 PASS: concavity/convexity midpoint inequalities, 10^4 triples per direction")


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_5_certifier_soundness():
    """Every certified (family, instance) passes a 10^5-sample probe with zero
    violations; power smoothing never certifies; the weak-rule arbitrage
    instance certifies despite p_buy < p_sell."""
    weak_arbitrage = ls.EnergyArbitrage(p_buy=[1.0, 1.0], p_sell=[1.5, 1.5])
    certified_cases = [
        ("peak_shaving/two_period", TWO_PERIOD_PARAMS, TWO_PERIOD_COSTS["peak_shaving"], "nondecreasing"),
        ("load_balancing/two_period", TWO_PERIOD_PARAMS, TWO_PERIOD_COSTS["load_balancing"], "nondecreasing"),
        ("power_regulation/two_period", TWO_PERIOD_PARAMS, TWO_PERIOD_COSTS["power_regulation"], "nondecreasing"),
        ("energy_arbitrage/two_period", TWO_PERIOD_PARAMS, TWO_PERIOD_COSTS["energy_arbitrage"], "price_ratio"),
        ("weak_arbitrage/two_period", TWO_PERIOD_PARAMS, weak_arbitrage, "price_ratio"),
        ("peak_shaving/lossless", LOSSLESS_PARAMS, ls.PeakShaving(load=[-0.5, 0.5]), "lossless"),
        ("load_balancing/lossless", LOSSLESS_PARAMS, ls.LoadBalancing(load=[0.0, 0.0]), "lossless"),
    ]
    for seed, (name, params, cost, expected_rule) in enumerate(certified_cases):
        certificate = ls.certify_convexity(cost, params)
        assert certificate.certified, name
        assert certificate.rule == expected_rule, name
        probe = ls.midpoint_convexity_probe(cost, params, samples=100_000, seed=500 + seed)
        assert probe.violations == 0, (name, probe.violations)

    # the weak-rule instance is the interesting one: prices are inverted
    assert float(np.min(weak_arbitrage.p_buy - weak_arbitrage.p_sell)) < 0

    for params in (TWO_PERIOD_PARAMS, LOSSLESS_PARAMS):
        cert = ls.certify_convexity(ls.PowerSmoothing(renewable=[1.0, 0.5]), params)
        assert not cert.certified

    smoothing_probe = ls.midpoint_convexity_probe(
        ls.PowerSmoothing(renewable=[1.0, 0.5]), TWO_PERIOD_PARAMS, samples=100_000, seed=599
    )
    report(
        f"C5 PASS: {len(certified_cases)} certified cases x 10^5-sample probes, 0 violations; "
        "power smoothing not certified "
        f"(its probe found {smoothing_probe.violations} violations, "
        f"worst margin {smoothing_probe.worst_margin:.2e})"
    )


# -- criterion 6 (and 7) --------------------------------------------------------


@pytest.fixture(scope="module")
def end_to_end_solves():
    """Solve the canonical instance under families (a)-(d) plus five random
    certified three-period instances; oracle at 401 (T=2) / 101 (T=3)."""
    results = []
    problem = ls.validate_params(TWO_PERIOD_PARAMS, TWO_PERIOD_BOUNDS)
    for name, cost in TWO_PERIOD_COSTS.items():
        oracle_result = ls.brute_force_solve(TWO_PERIOD_PARAMS, TWO_PERIOD_BOUNDS, cost, ls.GridSpec(401))
        solution = ls.solve(problem, cost, SOLVE_OPTIONS)
        results.append((f"two-period/{name}", TWO_PERIOD_PARAMS, TWO_PERIOD_BOUNDS, solution, oracle_result))

    rng = np.random.default_rng(606)
    for k in range(5):
        params, bounds, cost, _ = make_certified_instance(rng, horizon=3)
        problem_k = ls.validate_params(params, bounds)
        oracle_result = ls.brute_force_solve(params, bounds, cost, ls.GridSpec(101))
        solution = ls.solve(problem_k, cost, SOLVE_OPTIONS)
        results.append(
            (f"random-t3/{k}/{type(cost).__name__}", params, bounds, solution, oracle_result)
        )
    return results


def test_criterion_6_solver_matches_oracle(end_to_end_solves):
    """|solver objective - grid-oracle objective| <= 1e-3 on all nine runs."""
    worst = 0.0
    for name, _, _, solution, oracle_result in end_to_end_solves:
        gap_report = ls.compare(solution, oracle_result)
        assert gap_report.verdict == "pass", (name, gap_report.gap)
        worst = max(worst, abs(gap_report.gap))
    assert worst <= 1e-3
    report(
        f"C6 PASS: {len(end_to_end_solves)} solver-vs-oracle runs "
        f"(4 canonical families + 5 random T=3), worst |gap| {worst:.2e} <= 1e-3"
    )


def test_criterion_7_recovered_profiles_feasible(end_to_end_solves):
    """Every recovered power profile is a single signed vector and feasible
    for the original nonconvex set within 1e-6."""
    for name, params, bounds, solution, _ in end_to_end_solves:
        assert solution.u_star.ndim == 1
        assert solution.u_star.shape == (params.horizon,)
        assert ls.in_power_set(solution.u_star, params, bounds, tol=1e-6), name
        assert solution.feasibility_residual <= 1e-6, name
        recovered = ls.energy_to_power(solution.x_star, params, ls.build_dynamics(params))
        assert np.array_equal(recovered, solution.u_star)
    report(
        f"C7 PASS: all {len(end_to_end_solves)} recovered profiles are single signed "
        "vectors, feasible within 1e-6"
    )


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_8_deterministic_artifacts(tmp_path):
    """Identical scenarios produce byte-identical solution JSON."""
    scenario_doc = {
        "storage": {"eta_c": 0.5, "eta_d": 0.5, "lambda": 1.0, "delta": 1.0, "x0": 0.75, "horizon": 2},
        "bounds": {"u_max": [1, 1], "u_min": [1, 1], "x_max": [1, 1], "x_min": [0, 0]},
        "cost": {"family": "energy_arbitrage", "p_buy": [1, 1], "p_sell": [1, 1]},
        "solve": {"max_iterations": 4000},
        "outputs": ["solution", "certificate"],
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_doc), encoding="utf-8")
    for run in ("a", "b"):
        code = cli.main(["solve", "--scenario", str(path), "--out", str(tmp_path / run)])
        assert code == 0
    for artifact in ("solution.json", "trace.csv", "certificate.json"):
        first = (tmp_path / "a" / artifact).read_bytes()
        second = (tmp_path / "b" / artifact).read_bytes()
        assert first == second, artifact
    report("C8 PASS: repeated runs produce byte-identical solution artifacts")
