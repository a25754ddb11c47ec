import numpy as np
import pytest

import lossy_storage as ls
from lossy_storage.costs import power_cost_batch
from lossy_storage.errors import NoSubgradientOracle

from conftest import dense_dynamics, random_instance


def test_peak_shaving_evaluation():
    cost = ls.PeakShaving(load=[0.5, 0.5])
    assert ls.evaluate_power_cost(cost, [0.5, 0.0]) == pytest.approx(1.0, abs=1e-15)


def test_arbitrage_evaluation_nets_out():
    cost = ls.EnergyArbitrage(p_buy=[1, 1], p_sell=[1, 1])
    assert ls.evaluate_power_cost(cost, [0.5, -0.5]) == pytest.approx(0.0, abs=1e-15)


def test_power_smoothing_constant_output_is_free():
    cost = ls.PowerSmoothing(renewable=[1, 1])
    assert ls.evaluate_power_cost(cost, [1.0, 1.0]) == 0.0


def test_regulation_and_balancing_evaluation():
    assert ls.evaluate_power_cost(
        ls.PowerRegulation(signal=[-0.5, 0.5]), [0.5, 0.5]
    ) == pytest.approx(1.0, abs=1e-15)
    assert ls.evaluate_power_cost(
        ls.LoadBalancing(load=[0.5, 0.25]), [-0.25, 0.25]
    ) == pytest.approx(0.0625 + 0.25, abs=1e-15)


def test_energy_cost_at_offset_equals_zero_power_cost(two_period_params, two_period_dyn):
    for cost in (
        ls.PeakShaving(load=[0.3, 0.7]),
        ls.EnergyArbitrage(p_buy=[1, 2], p_sell=[0.5, 0.5]),
        ls.LoadBalancing(load=[0.0, 0.0]),
    ):
        at_b = ls.evaluate_energy_cost(cost, [0.75, 0.75], two_period_params, two_period_dyn)
        assert at_b == pytest.approx(ls.evaluate_power_cost(cost, [0.0, 0.0]), abs=1e-12)


def test_energy_cost_arbitrage_example(two_period_params, two_period_dyn):
    cost = ls.EnergyArbitrage(p_buy=[1, 1], p_sell=[1, 1])
    assert ls.evaluate_energy_cost(cost, [1.0, 1.0], two_period_params, two_period_dyn) == pytest.approx(
        0.5, abs=1e-12
    )


def test_energy_and_power_evaluations_consistent():
    rng = np.random.default_rng(23)
    for _ in range(20):
        horizon = int(rng.integers(1, 8))
        params, bounds = random_instance(rng, horizon)
        dyn = ls.build_dynamics(params)
        u = rng.uniform(-bounds.u_min_mag, bounds.u_max)
        specs = [
            ls.PeakShaving(load=rng.uniform(-1, 1, horizon)),
            ls.LoadBalancing(load=rng.uniform(-1, 1, horizon)),
            ls.PowerRegulation(signal=rng.uniform(-1, 1, horizon)),
            ls.EnergyArbitrage(
                p_buy=rng.uniform(0, 2, horizon), p_sell=rng.uniform(0, 2, horizon)
            ),
            ls.PowerSmoothing(renewable=rng.uniform(-1, 1, horizon)),
        ]
        x = ls.power_to_energy(u, params, dyn)
        for cost in specs:
            direct = ls.evaluate_power_cost(cost, u)
            via_energy = ls.evaluate_energy_cost(cost, x, params, dyn)
            assert abs(direct - via_energy) <= 1e-9


# --- certification -----------------------------------------------------------


def test_certify_peak_shaving_nonnegative_load(two_period_params):
    cert = ls.certify_convexity(ls.PeakShaving(load=[0.5, 0.5]), two_period_params)
    assert cert.certified and cert.rule == "nondecreasing"


def test_certify_arbitrage_weak_rule_despite_inverted_prices(two_period_params):
    # p_buy < p_sell, so the raw cost is not nondecreasing, yet
    # (1/eta_c) p_buy = 2 >= eta_d p_sell = 0.75 certifies the composition
    cert = ls.certify_convexity(
        ls.EnergyArbitrage(p_buy=[1, 1], p_sell=[1.5, 1.5]), two_period_params
    )
    assert cert.certified and cert.rule == "price_ratio"


def test_certify_power_smoothing_never(two_period_params):
    cert = ls.certify_convexity(ls.PowerSmoothing(renewable=[1.0, 0.5]), two_period_params)
    assert not cert.certified
    lossless = ls.StorageParams(eta_c=1, eta_d=1, lam=1, delta=1, x0=0, horizon=2)
    assert not ls.certify_convexity(ls.PowerSmoothing(renewable=[1.0, 0.5]), lossless).certified


def test_certify_reports_failing_coordinates(two_period_params):
    cert = ls.certify_convexity(ls.PeakShaving(load=[0.5, -0.25]), two_period_params)
    assert not cert.certified
    assert cert.failing_indices == (1,)
    cert = ls.certify_convexity(ls.PowerRegulation(signal=[0.5, -0.25]), two_period_params)
    assert cert.failing_indices == (0,)


def test_certify_lossless_bypass():
    lossless = ls.StorageParams(eta_c=1.0, eta_d=1.0, lam=1.0, delta=1.0, x0=0.0, horizon=2)
    cert = ls.certify_convexity(ls.PeakShaving(load=[-0.5, 0.5]), lossless)
    assert cert.certified and cert.rule == "lossless"


def test_certify_lossless_arbitrage_still_needs_price_ratio():
    # with p_sell > p_buy the raw cost itself is nonconvex, so a blanket
    # lossless bypass would be unsound; the price-ratio rule is exactly the
    # convexity condition at eta = 1
    lossless = ls.StorageParams(eta_c=1.0, eta_d=1.0, lam=1.0, delta=1.0, x0=0.0, horizon=2)
    bad = ls.certify_convexity(ls.EnergyArbitrage(p_buy=[1, 1], p_sell=[2, 2]), lossless)
    assert not bad.certified
    good = ls.certify_convexity(ls.EnergyArbitrage(p_buy=[1, 1], p_sell=[1, 1]), lossless)
    assert good.certified and good.rule == "price_ratio"


def test_certify_custom_declaration(two_period_params):
    convex_inc = ls.CustomCost(
        evaluator=lambda u: float(np.sum(np.maximum(u, 0.0) ** 2)),
        nondecreasing_on_nonneg=True,
    )
    assert ls.certify_convexity(convex_inc, two_period_params).certified
    undeclared = ls.CustomCost(evaluator=lambda u: float(np.sum(u**2)))
    cert = ls.certify_convexity(undeclared, two_period_params)
    assert not cert.certified
    partial = ls.CustomCost(
        evaluator=lambda u: float(np.sum(u)), nondecreasing_on_nonneg=[True, False]
    )
    assert ls.certify_convexity(partial, two_period_params).failing_indices == (1,)


def test_certified_families_are_monotone_on_nonnegatives(two_period_params):
    # definition check for the rule (coordinate-wise nondecreasing on [0, inf))
    rng = np.random.default_rng(29)
    specs = [
        ls.PeakShaving(load=[0.5, 0.5]),
        ls.LoadBalancing(load=[0.25, 1.0]),
        ls.PowerRegulation(signal=[-0.5, -0.1]),
    ]
    for cost in specs:
        assert ls.certify_convexity(cost, two_period_params).rule == "nondecreasing"
        u = rng.uniform(0.0, 2.0, size=(10_000, 2))
        bumped = u.copy()
        coords = rng.integers(0, 2, size=10_000)
        bumped[np.arange(10_000), coords] += rng.uniform(0.0, 1.0, size=10_000)
        before = power_cost_batch(cost, u)
        after = power_cost_batch(cost, bumped)
        assert np.all(after >= before - 1e-9)


# --- subgradients ------------------------------------------------------------


def test_subgradient_matches_finite_differences(two_period_params, two_period_dyn):
    rng = np.random.default_rng(31)
    cost = ls.LoadBalancing(load=[0.0, 0.0])
    for _ in range(20):
        x = rng.uniform(0.8, 1.2, 2)  # v strictly positive here
        v = ls.velocity(x, two_period_params, two_period_dyn)
        if np.any(np.abs(v) < 1e-3):
            continue
        g = ls.subgradient_energy_cost(cost, x, two_period_params, two_period_dyn)
        fd = np.empty(2)
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            f_plus = ls.evaluate_energy_cost(cost, x + e, two_period_params, two_period_dyn)
            f_minus = ls.evaluate_energy_cost(cost, x - e, two_period_params, two_period_dyn)
            fd[i] = (f_plus - f_minus) / (2 * h)
        assert np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(fd))) <= 1e-4


def test_subgradient_arbitrage_discharge_region(two_period_params, two_period_dyn):
    cost = ls.EnergyArbitrage(p_buy=[1.0, 1.0], p_sell=[2.0, 3.0])
    x = np.array([0.25, 0.1])  # v = (-0.5, -0.15), strictly negative
    v = ls.velocity(x, two_period_params, two_period_dyn)
    assert np.all(v < 0)
    g = ls.subgradient_energy_cost(cost, x, two_period_params, two_period_dyn)
    a_inv = dense_dynamics(two_period_params)[1]
    expected = a_inv.T @ (two_period_params.eta_d * np.array([2.0, 3.0]))
    assert np.allclose(g, expected, atol=1e-12)


def test_subgradient_kink_uses_charging_branch(two_period_params, two_period_dyn):
    cost = ls.EnergyArbitrage(p_buy=[1.0, 1.0], p_sell=[5.0, 5.0])
    x = two_period_dyn.b_offset.copy()  # v = 0 exactly
    g = ls.subgradient_energy_cost(cost, x, two_period_params, two_period_dyn)
    a_inv = dense_dynamics(two_period_params)[1]
    expected = a_inv.T @ ((1.0 / two_period_params.eta_c) * np.array([1.0, 1.0]))
    assert np.allclose(g, expected, atol=1e-12)


def test_subgradient_validity_inequality():
    # convexity: f(x + t d) - f(x) >= t <g, d> for certified instances
    rng = np.random.default_rng(37)
    params = ls.StorageParams(eta_c=0.6, eta_d=0.8, lam=0.95, delta=1.0, x0=1.0, horizon=3)
    dyn = ls.build_dynamics(params)
    specs = [
        ls.PeakShaving(load=[0.5, 0.2, 0.9]),
        ls.LoadBalancing(load=[0.1, 0.0, 0.3]),
        ls.PowerRegulation(signal=[-0.2, -0.4, 0.0]),
        ls.EnergyArbitrage(p_buy=[1, 1, 1], p_sell=[0.9, 1.2, 0.5]),
    ]
    for cost in specs:
        assert ls.certify_convexity(cost, params).certified
        done = 0
        while done < 25:
            x = rng.uniform(0.2, 2.0, 3)
            if np.min(np.abs(ls.velocity(x, params, dyn))) < 1e-6:
                continue
            done += 1
            g = ls.subgradient_energy_cost(cost, x, params, dyn)
            fx = ls.evaluate_energy_cost(cost, x, params, dyn)
            for _ in range(20):
                d = rng.standard_normal(3)
                step = 1e-6
                f_step = ls.evaluate_energy_cost(cost, x + step * d, params, dyn)
                assert (f_step - fx) / step >= float(g @ d) - 1e-5


def test_custom_cost_without_subgradient_oracle_raises(two_period_params, two_period_dyn):
    cost = ls.CustomCost(evaluator=lambda u: float(np.sum(u**2)))
    with pytest.raises(NoSubgradientOracle):
        ls.subgradient_energy_cost(cost, [0.5, 0.5], two_period_params, two_period_dyn)


def test_custom_cost_subgradient_oracle_used(two_period_params, two_period_dyn):
    cost = ls.CustomCost(
        evaluator=lambda u: float(np.sum(u)),
        subgradient=lambda u: np.ones_like(u),
        nondecreasing_on_nonneg=True,
    )
    g = ls.subgradient_energy_cost(cost, [0.9, 0.9], two_period_params, two_period_dyn)
    v = ls.velocity(np.array([0.9, 0.9]), two_period_params, two_period_dyn)
    scale = np.where(v >= 0, 1 / two_period_params.eta_c, two_period_params.eta_d)
    assert np.allclose(g, dense_dynamics(two_period_params)[1].T @ scale, atol=1e-12)


# --- probes ------------------------------------------------------------------


def test_probe_supports_certified_instances(two_period_params):
    for cost in (
        ls.PeakShaving(load=[0.5, 0.5]),
        ls.EnergyArbitrage(p_buy=[1, 1], p_sell=[1.5, 1.5]),
    ):
        assert ls.certify_convexity(cost, two_period_params).certified
        report = ls.midpoint_convexity_probe(cost, two_period_params, samples=20_000, seed=41)
        assert report.violations == 0


def test_probe_finds_genuinely_nonconvex_composition(two_period_params):
    # inverted prices far beyond the ratio rule: the composition has a
    # concave kink per coordinate, which the probe must detect
    cost = ls.EnergyArbitrage(p_buy=[0.1, 0.1], p_sell=[2.0, 2.0])
    assert not ls.certify_convexity(cost, two_period_params).certified
    report = ls.midpoint_convexity_probe(cost, two_period_params, samples=20_000, seed=43)
    assert report.violations > 0
    assert report.worst_triple is not None
    x_a, x_b, theta = report.worst_triple
    dyn = ls.build_dynamics(two_period_params)
    mid = theta * x_a + (1 - theta) * x_b
    lhs = ls.evaluate_energy_cost(cost, mid, two_period_params, dyn)
    rhs = theta * ls.evaluate_energy_cost(cost, x_a, two_period_params, dyn) + (
        1 - theta
    ) * ls.evaluate_energy_cost(cost, x_b, two_period_params, dyn)
    assert lhs > rhs + 1e-7


def test_probe_lossless_quadratic_clean():
    params = ls.StorageParams(eta_c=1.0, eta_d=1.0, lam=1.0, delta=1.0, x0=0.0, horizon=2)
    report = ls.midpoint_convexity_probe(
        ls.LoadBalancing(load=[0.0, 0.0]), params, samples=20_000, seed=47
    )
    assert report.violations == 0


def test_probe_power_smoothing_outcome_recorded(two_period_params):
    # no assertion on the count: a violation would certify nonconvexity,
    # absence proves nothing; the report itself is the contract
    report = ls.midpoint_convexity_probe(
        ls.PowerSmoothing(renewable=[1.0, 0.5]), two_period_params, samples=20_000, seed=53
    )
    assert report.samples == 20_000
    print(f"power-smoothing probe: {report.violations} violations, worst margin {report.worst_margin:.3e}")


def test_probe_rejects_bad_sample_count(two_period_params):
    with pytest.raises(ValueError):
        ls.midpoint_convexity_probe(ls.PeakShaving(load=[0.5, 0.5]), two_period_params, samples=0, seed=1)


def test_instance_digest_distinguishes(two_period_params, two_period_bounds):
    cost = ls.EnergyArbitrage(p_buy=[1, 1], p_sell=[1, 1])
    base = ls.instance_digest(two_period_params, two_period_bounds, cost)
    assert base == ls.instance_digest(two_period_params, two_period_bounds, cost)
    other_cost = ls.EnergyArbitrage(p_buy=[1, 1], p_sell=[1, 1.5])
    assert base != ls.instance_digest(two_period_params, two_period_bounds, other_cost)
    other_params = ls.StorageParams(eta_c=0.6, eta_d=0.5, lam=1.0, delta=1.0, x0=0.75, horizon=2)
    assert base != ls.instance_digest(other_params, two_period_bounds, cost)
