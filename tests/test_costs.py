import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

import lossy_storage as ls
from lossy_storage import costs
from lossy_storage.costs import FAMILIES, _cost_pass, power_cost_batch
from lossy_storage.errors import LengthMismatch, NoSubgradientOracle, ValidationError
from lossy_storage.transform import energy_to_power, velocity_adjoint

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


@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_family_vectors_must_be_finite(tag):
    cls = FAMILIES[tag]
    names = [field.name for field in dataclasses.fields(cls)]
    for name in names:
        for bad in (np.nan, np.inf, -np.inf):
            kwargs = {other: [1.0, 2.0] for other in names}
            kwargs[name] = [1.0, bad]
            with pytest.raises(ValidationError, match=rf"{name}\[1\] must be finite"):
                cls(**kwargs)
    cost = cls(**{name: [1, 2] for name in names})
    for name in names:
        assert getattr(cost, name).dtype == float


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
    # a numpy bool declares every coordinate, as a bool does
    for flag, failing in ((np.True_, ()), (np.False_, (0, 1))):
        numpy_flag = ls.CustomCost(evaluator=lambda u: float(np.sum(u)), nondecreasing_on_nonneg=flag)
        assert ls.certify_convexity(numpy_flag, two_period_params).failing_indices == failing


def test_certify_rejects_wrong_lengths(two_period_params):
    with pytest.raises(LengthMismatch, match="load"):
        ls.certify_convexity(ls.PeakShaving(load=[0.5, 0.5, 0.5]), two_period_params)
    flags = ls.CustomCost(evaluator=lambda u: float(np.sum(u)), nondecreasing_on_nonneg=[True])
    with pytest.raises(LengthMismatch, match="monotonicity declaration"):
        ls.certify_convexity(flags, two_period_params)


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


@pytest.mark.parametrize("tag", sorted(FAMILIES))
def test_lipschitz_constant_bounds_the_variation(tag):
    # the oracle's discretization bound is this constant times the spacing
    rng = np.random.default_rng(sorted(FAMILIES).index(tag))
    family = FAMILIES[tag]
    for trial in range(600):
        horizon = int(rng.integers(1, 9))
        lo, hi = -(10.0 ** rng.uniform(-3, 1, horizon)), 10.0 ** rng.uniform(-3, 1, horizon)
        cost = family(**{
            field.name: rng.choice([-1.0, 1.0], horizon) * 10.0 ** rng.uniform(-3, 1, horizon)
            for field in dataclasses.fields(family)
        })
        u, w = lo + (hi - lo) * rng.random((2, 16, horizon))
        change = np.abs(power_cost_batch(cost, u) - power_cost_batch(cost, w))
        bound = cost.lipschitz(lo, hi) * np.max(np.abs(u - w), axis=1)
        assert np.all(change <= bound * (1.0 + 1e-9)), trial


def test_custom_cost_has_no_lipschitz_constant():
    cost = ls.CustomCost(evaluator=lambda u: float(np.sum(u)))
    assert cost.lipschitz(-np.ones(2), np.ones(2)) is None


# --- subgradients ------------------------------------------------------------


def test_subgradient_matches_finite_differences(two_period_params, two_period_dyn):
    rng = np.random.default_rng(31)
    cost = ls.LoadBalancing(load=[0.0, 0.0])
    for _ in range(20):
        x = rng.uniform(0.8, 1.2, 2)  # v strictly positive here
        v = ls.velocity(x, two_period_dyn)
        if np.any(np.abs(v) < 1e-3):
            continue
        _, g = ls.subgradient_energy_cost(cost, x, two_period_params, two_period_dyn)
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
    v = ls.velocity(x, two_period_dyn)
    assert np.all(v < 0)
    _, g = ls.subgradient_energy_cost(cost, x, two_period_params, two_period_dyn)
    a_inv = dense_dynamics(two_period_params)[1]
    expected = a_inv.T @ (two_period_params.eta_d * np.array([2.0, 3.0]))
    assert np.allclose(g, expected, atol=1e-12)


def test_subgradient_kink_uses_charging_branch(two_period_params, two_period_dyn):
    cost = ls.EnergyArbitrage(p_buy=[1.0, 1.0], p_sell=[5.0, 5.0])
    x = two_period_dyn.b_offset.copy()  # v = 0 exactly
    _, g = ls.subgradient_energy_cost(cost, x, two_period_params, two_period_dyn)
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
            if np.min(np.abs(ls.velocity(x, dyn))) < 1e-6:
                continue
            done += 1
            fx, g = ls.subgradient_energy_cost(cost, x, params, dyn)
            assert fx == ls.evaluate_energy_cost(cost, x, params, dyn)
            for _ in range(20):
                d = rng.standard_normal(3)
                step = 1e-6
                f_step = ls.evaluate_energy_cost(cost, x + step * d, params, dyn)
                assert (f_step - fx) / step >= float(g @ d) - 1e-5


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@pytest.mark.parametrize("horizon", [1, 2, 3, 8, 9, 24, 168])
def test_cost_pass_matches_its_public_pieces_bit_for_bit(horizon):
    # from 8 periods on np.sum adds pairwise, so the family sums must run
    # over the same layout as the batch map's; the points include v = +-0
    # (x = b, and zeros of alternating sign on b = 0) and subnormal steps,
    # which delta = 2 halves to -0.0 and eta_d = 0.4 rounds to -0.0; the
    # last custom cost sees the sign of a zero power
    rng = np.random.default_rng(horizon)
    series = lambda: rng.uniform(-1.0, 1.0, horizon)  # noqa: E731
    families = [
        ls.PeakShaving(load=series()),
        ls.LoadBalancing(load=series()),
        ls.PowerRegulation(signal=series()),
        ls.EnergyArbitrage(p_buy=rng.uniform(0.5, 2.0, horizon), p_sell=rng.uniform(0.0, 2.0, horizon)),
        ls.PowerSmoothing(renewable=series()),
        ls.CustomCost(
            evaluator=lambda u: float(np.sum(u * u + u)), subgradient=lambda u: 2.0 * u + 1.0
        ),
        ls.CustomCost(
            evaluator=lambda u: float(np.sum(u * u + np.copysign(1.0, u))),
            subgradient=lambda u: 2.0 * u + np.copysign(1.0, u),
        ),
    ]
    signs = np.where(np.arange(horizon) % 2, -0.0, 0.0)
    tiny = 5e-324 * (np.arange(horizon) % 2 == 0)
    for eta_c, eta_d, lam, delta, x0 in (
        (0.6, 0.8, 0.95, 1.0, 1.0),
        (0.9, 0.4, 1.0, 1.0, 0.0),
        (0.9, 0.8, 1.0, 2.0, 0.0),
    ):
        params = ls.StorageParams(eta_c=eta_c, eta_d=eta_d, lam=lam, delta=delta, x0=x0, horizon=horizon)
        dyn = ls.build_dynamics(params)
        b = dyn.b_offset
        points = [
            rng.uniform(0.0, 2.0, horizon),
            b.copy(),
            signs.copy(),
            b - tiny,
            b + 5e-324 * rng.choice([-3.0, -1.0, 0.0, 1.0, 3.0], horizon),
            np.where(rng.random(horizon) < 0.5, b, rng.uniform(0.0, 2.0, horizon)),
        ]
        for cost in families:
            for x in points:
                value, g = ls.subgradient_energy_cost(cost, x, params, dyn)
                assert _same_bits(value, ls.evaluate_energy_cost(cost, x, params, dyn))
                v = ls.velocity(x, dyn)
                family_g = cost.value_and_subgradient(ls.inverse_loss_map(v, params))[1]
                slope = np.where(v >= 0, 1 / params.eta_c, params.eta_d)
                assert _same_bits(g, velocity_adjoint(slope * family_g, dyn))
                # the descent's pass, which takes the velocity
                pass_value, pass_g = _cost_pass(cost, v, params, dyn)
                assert _same_bits(pass_value, value) and _same_bits(pass_g, g)


def test_rescaled_subgradient_keeps_the_direction(two_period_params, two_period_dyn):
    # rescale divides the family subgradient (here the prices) by its
    # largest magnitude, 4, before the chain rule
    cost = ls.EnergyArbitrage(p_buy=[4.0, 2.0], p_sell=[1.0, 1.0])
    x = np.array([0.9, 0.95])
    value, g = ls.subgradient_energy_cost(cost, x, two_period_params, two_period_dyn)
    same, unit = ls.subgradient_energy_cost(
        cost, x, two_period_params, two_period_dyn, rescale=True
    )
    assert same == value
    assert np.allclose(4.0 * unit, g, rtol=1e-15, atol=0.0)


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
    _, g = ls.subgradient_energy_cost(cost, [0.9, 0.9], two_period_params, two_period_dyn)
    v = ls.velocity(np.array([0.9, 0.9]), two_period_dyn)
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
    for samples in (0, 2.5, True, "10", np.float64(10.0)):
        with pytest.raises(ValueError, match="samples must be an integer"):
            ls.midpoint_convexity_probe(
                ls.PeakShaving(load=[0.5, 0.5]), two_period_params, samples, seed=1
            )


def test_probe_accepts_numpy_integer_sample_count(two_period_params):
    cost = ls.PeakShaving(load=[0.5, 0.5])
    report = ls.midpoint_convexity_probe(cost, two_period_params, samples=np.int64(50), seed=1)
    plain = ls.midpoint_convexity_probe(cost, two_period_params, samples=50, seed=1)
    assert report.samples == 50
    assert (report.violations, report.worst_margin) == (plain.violations, plain.worst_margin)


@pytest.mark.parametrize("x0", [1e308, -1e308, float("nan")])
def test_probe_rejects_a_box_beyond_the_float_range(x0):
    # StorageParams itself does not validate, so a NaN x0 reaches the probe
    params = ls.StorageParams(eta_c=0.9, eta_d=0.9, lam=1.0, delta=1.0, x0=x0, horizon=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="probe box"):
            ls.midpoint_convexity_probe(ls.PeakShaving(load=[0.5, 0.5]), params, 10, seed=1)


def _probe_bytes(report):
    triple = report.worst_triple
    return (
        report.violations,
        report.worst_margin.hex(),
        None if triple is None else (triple[0].tobytes(), triple[1].tobytes(), triple[2].hex()),
    )


def test_probe_blocks_do_not_change_the_report(two_period_params, monkeypatch):
    nine_periods = ls.StorageParams(eta_c=0.8, eta_d=0.7, lam=0.95, delta=1.0, x0=0.5, horizon=9)
    cases = [
        # the inverted prices of test_probe_finds_genuinely_nonconvex_composition
        (ls.EnergyArbitrage(p_buy=[0.1, 0.1], p_sell=[2.0, 2.0]), two_period_params),
        (ls.EnergyArbitrage(p_buy=[1, 1], p_sell=[1.5, 1.5]), two_period_params),
        # from 8 periods on a lone row would be summed pairwise
        (ls.EnergyArbitrage(p_buy=np.linspace(1.0, 2.0, 9), p_sell=np.full(9, 0.5)), nine_periods),
    ]
    for cost, params in cases:
        rows = costs._PROBE_BLOCK // params.horizon
        for samples in (10, rows + 2):  # rows + 2 runs one default block and two rows
            default = _probe_bytes(ls.midpoint_convexity_probe(cost, params, samples, seed=7))
            for block in (7, samples * params.horizon + 1):
                monkeypatch.setattr(costs, "_PROBE_BLOCK", block)
                report = ls.midpoint_convexity_probe(cost, params, samples, seed=7)
                assert _probe_bytes(report) == default, (cost, samples, block)
            monkeypatch.undo()
    assert ls.midpoint_convexity_probe(*cases[0], 10, seed=7).violations > 0


def test_probe_memory_is_bounded_by_its_draws():
    params = ls.StorageParams(eta_c=0.9, eta_d=0.8, lam=0.99, delta=1.0, x0=1.0, horizon=4)
    cost = ls.EnergyArbitrage(p_buy=[1.0, 2.0, 3.0, 1.5], p_sell=[0.5, 1.0, 1.5, 0.5])
    ls.midpoint_convexity_probe(cost, params, samples=100_000, seed=3)  # warm-up
    tracemalloc.start()
    try:
        ls.midpoint_convexity_probe(cost, params, samples=100_000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the draws, theta and margin alone take 7.6 MB
    assert peak <= 12e6, f"peak {peak / 1e6:.1f} MB"


def _whole_draw_probe(cost, params, samples, seed):
    """The probe as it read its stream whole: x_a and x_b from one
    (2, samples, T) draw scaled in place, then theta, with the mixture and
    the maps on C-order slices of each block."""
    dyn = ls.build_dynamics(params)
    radius = 1.0 + abs(params.x0)
    lo = dyn.b_offset - radius
    span = (dyn.b_offset + radius) - lo
    rng = np.random.default_rng(seed)
    x_a, x_b = draws = rng.random((2, samples, params.horizon))
    draws *= span
    draws += lo
    theta = rng.random((samples, 1))
    rows = max(2, costs._PROBE_BLOCK // params.horizon)
    cuts = [0, *range(rows, samples - 1, rows), samples]
    margin = np.empty(samples)
    for block in map(slice, cuts, cuts[1:]):
        w = theta[block]
        mid = w * x_a[block] + (1.0 - w) * x_b[block]
        f_a, f_b, f_mid = (
            power_cost_batch(cost, energy_to_power(np.asfortranarray(x), params, dyn))
            for x in (x_a[block], x_b[block], mid)
        )
        margin[block] = f_mid - (w[:, 0] * f_a + (1.0 - w[:, 0]) * f_b)
    violating = margin > costs.PROBE_MARGIN
    worst = int(np.argmax(margin))
    return ls.ProbeReport(
        samples=samples,
        violations=int(np.count_nonzero(violating)),
        worst_margin=float(margin[worst]),
        worst_triple=(x_a[worst].copy(), x_b[worst].copy(), float(theta[worst, 0]))
        if violating.any()
        else None,
    )


@pytest.mark.parametrize("horizon", [1, 2, 9])
def test_probe_reads_the_stream_of_a_whole_draw(horizon):
    params = ls.StorageParams(eta_c=0.8, eta_d=0.7, lam=0.95, delta=1.0, x0=0.5, horizon=horizon)
    inverted = ls.EnergyArbitrage(p_buy=np.full(horizon, 0.1), p_sell=np.full(horizon, 2.0))
    certified = ls.EnergyArbitrage(p_buy=np.linspace(1.0, 2.0, horizon), p_sell=np.full(horizon, 0.5))
    assert ls.certify_convexity(certified, params).certified
    rows = max(2, costs._PROBE_BLOCK // horizon)
    for cost in (inverted, certified):
        for samples in (1, 2, rows - 1, rows, rows + 1, 2 * rows + 1):
            report = ls.midpoint_convexity_probe(cost, params, samples, seed=11)
            assert _probe_bytes(report) == _probe_bytes(
                _whole_draw_probe(cost, params, samples, seed=11)
            ), (cost, samples)
    report = ls.midpoint_convexity_probe(inverted, params, np.int64(rows + 1), seed=11)
    assert report.violations > 0
    assert _probe_bytes(report) == _probe_bytes(_whole_draw_probe(inverted, params, rows + 1, 11))


def test_probe_draws_the_entropy_of_seed_none_once(two_period_params, monkeypatch):
    # with seed=None every part of the stream, and the worst triple rebuilt
    # from it, comes from one default_rng: here one that a fixed seed stands in for
    seeds = []
    default_rng = np.random.default_rng

    def fixed_rng(seed=None):
        seeds.append(seed)
        return default_rng(5 if seed is None else seed)

    monkeypatch.setattr(np.random, "default_rng", fixed_rng)
    cost = ls.EnergyArbitrage(p_buy=[0.1, 0.1], p_sell=[2.0, 2.0])
    report = ls.midpoint_convexity_probe(cost, two_period_params, 1000, seed=None)
    assert seeds == [None]
    assert report.violations > 0
    assert _probe_bytes(report) == _probe_bytes(_whole_draw_probe(cost, two_period_params, 1000, 5))


@pytest.mark.parametrize("seed", [np.random.default_rng(1), np.random.PCG64(1)], ids=type)
def test_probe_refuses_a_seed_that_it_would_use_up(two_period_params, seed):
    with pytest.raises(ValidationError, match="seed must be None, an integer or a SeedSequence"):
        ls.midpoint_convexity_probe(ls.PeakShaving(load=[0.5, 0.5]), two_period_params, 10, seed)


@pytest.mark.parametrize(
    "cost",
    [
        # certified, and every margin was NaN: 0 violations that checked nothing
        ls.LoadBalancing(load=[1e200, 1e200]),
        # certified by the price-ratio rule, and overflowing costs made violations
        ls.EnergyArbitrage(p_buy=[1e308, 1e308], p_sell=[-1e308, -1e308]),
        ls.CustomCost(evaluator=lambda u: float("inf"), nondecreasing_on_nonneg=True),
    ],
    ids=["load-balancing", "arbitrage", "custom"],
)
def test_probe_refuses_a_cost_that_is_not_finite(two_period_params, cost):
    assert ls.certify_convexity(cost, two_period_params).certified
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="the cost is not finite at probe sample"):
            ls.midpoint_convexity_probe(cost, two_period_params, 1000, seed=1)


def test_probe_memory_is_one_block_and_the_margin():
    params = ls.StorageParams(eta_c=0.9, eta_d=0.8, lam=0.99, delta=1.0, x0=1.0, horizon=4)
    cost = ls.EnergyArbitrage(p_buy=[1.0, 2.0, 3.0, 1.5], p_sell=[0.5, 1.0, 1.5, 0.5])

    def peak(samples):
        tracemalloc.start()
        try:
            ls.midpoint_convexity_probe(cost, params, samples=samples, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    ls.midpoint_convexity_probe(cost, params, samples=1000, seed=3)  # warm-up
    small, large = peak(100_000), peak(400_000)
    assert small <= 4e6, f"peak {small / 1e6:.1f} MB"
    # the margin holds 8 bytes per sample; nothing else grows with samples
    assert large - small <= 8 * 300_000 + 1e6, f"peaks {small / 1e6:.1f}, {large / 1e6:.1f} MB"


def _digest_instance(cls):
    """Params, bounds and a cost of family cls whose entries all differ."""
    params = ls.StorageParams(eta_c=0.9, eta_d=0.8, lam=0.99, delta=0.5, x0=0.25, horizon=3)
    bounds = ls.Bounds(u_max=[1.0, 2.0, 3.0], u_min_mag=[4.0, 5.0, 6.0],
                       x_max=[7.0, 8.0, 9.0], x_min=[0.0, 0.5, 0.25])
    cost = cls(**{
        field.name: [0.1 * (3 * k + t + 1) for t in range(3)]
        for k, field in enumerate(dataclasses.fields(cls))
    })
    return params, bounds, cost


def _one_entry_changes(params, bounds, cost):
    """Instances that differ from (params, bounds, cost) in one entry: by an
    ulp, by the sign of a zero, or by swapping two vectors."""
    def up(vec, t):
        vec = np.array(vec, dtype=float)
        vec[t] = np.nextafter(vec[t], np.inf)
        return vec

    for name in ("eta_c", "eta_d", "lam", "delta", "x0"):
        value = float(np.nextafter(getattr(params, name), np.inf))
        yield dataclasses.replace(params, **{name: value}), bounds, cost
    for name in ("u_max", "u_min_mag", "x_max", "x_min"):
        for t in range(params.horizon):
            yield params, dataclasses.replace(bounds, **{name: up(getattr(bounds, name), t)}), cost
    for field in dataclasses.fields(cost):
        for t in range(params.horizon):
            yield params, bounds, dataclasses.replace(
                cost, **{field.name: up(getattr(cost, field.name), t)})
    assert bounds.x_min[0] == 0.0 and not np.signbit(bounds.x_min[0])
    yield params, dataclasses.replace(bounds, x_min=np.copysign(bounds.x_min, -1.0)), cost
    yield params, dataclasses.replace(bounds, u_max=bounds.u_min_mag, u_min_mag=bounds.u_max), cost
    if isinstance(cost, ls.EnergyArbitrage):
        yield params, bounds, ls.EnergyArbitrage(p_buy=cost.p_sell, p_sell=cost.p_buy)


def test_instance_digest_distinguishes(two_period_params, two_period_bounds):
    cost = ls.EnergyArbitrage(p_buy=[1, 1], p_sell=[1, 1])
    base = ls.instance_digest(two_period_params, two_period_bounds, cost)
    assert base == ls.instance_digest(two_period_params, two_period_bounds, cost)
    other_cost = ls.EnergyArbitrage(p_buy=[1, 1], p_sell=[1, 1.5])
    assert base != ls.instance_digest(two_period_params, two_period_bounds, other_cost)
    other_params = ls.StorageParams(eta_c=0.6, eta_d=0.5, lam=1.0, delta=1.0, x0=0.75, horizon=2)
    assert base != ls.instance_digest(other_params, two_period_bounds, cost)

    for cls in FAMILIES.values():
        instance = _digest_instance(cls)
        digests = [ls.instance_digest(*changed) for changed in _one_entry_changes(*instance)]
        assert ls.instance_digest(*instance) not in digests, cls.__name__
        assert len(set(digests)) == len(digests), cls.__name__
    at_zero = dataclasses.replace(two_period_params, x0=0.0)
    at_negative_zero = dataclasses.replace(two_period_params, x0=-0.0)
    assert ls.instance_digest(at_zero, two_period_bounds, cost) != ls.instance_digest(
        at_negative_zero, two_period_bounds, cost)

    # equal values give equal digests, whether lists or arrays, ints or floats
    as_floats = ls.instance_digest(
        ls.StorageParams(eta_c=1.0, eta_d=1.0, lam=1.0, delta=2.0, x0=0.0, horizon=2),
        ls.Bounds(u_max=np.array([1.0, 2.0]), u_min_mag=np.array([3.0, 4.0]),
                  x_max=np.array([5.0, 6.0]), x_min=np.array([0.0, 0.0])),
        ls.EnergyArbitrage(p_buy=np.array([1.0, 2.0]), p_sell=np.array([0.5, 1.0])),
    )
    as_ints_and_lists = ls.instance_digest(
        ls.StorageParams(eta_c=1, eta_d=1, lam=1, delta=2, x0=0, horizon=2),
        ls.Bounds(u_max=[1, 2], u_min_mag=[3, 4], x_max=[5, 6], x_min=[0, 0]),
        ls.EnergyArbitrage(p_buy=[1, 2], p_sell=[0.5, 1]),
    )
    assert as_floats == as_ints_and_lists
