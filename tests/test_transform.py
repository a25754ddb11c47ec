import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lossy_storage as ls
from lossy_storage.transform import (
    MEMBERSHIP_TOL,
    energy_membership_mask,
    power_feasibility_mask,
    velocity_adjoint,
)

from conftest import random_instance, tolerance_edge


def test_loss_map_examples(two_period_params):
    assert np.allclose(ls.loss_map([1.0, -1.0], two_period_params), [0.5, -2.0], atol=1e-15)
    assert np.array_equal(ls.loss_map([0.0, 0.0], two_period_params), [0.0, 0.0])
    assert np.allclose(
        ls.loss_map([0.1875, 0.5], two_period_params), [0.09375, 0.25], atol=1e-15
    )


def test_inverse_loss_map_examples(two_period_params):
    assert np.allclose(ls.inverse_loss_map([0.5, -2.0], two_period_params), [1.0, -1.0], atol=1e-15)
    assert np.array_equal(ls.inverse_loss_map([0.0, 0.0], two_period_params), [0.0, 0.0])
    assert np.allclose(ls.inverse_loss_map([0.25, 0.0], two_period_params), [0.5, 0.0], atol=1e-15)


def test_power_to_energy_examples(two_period_params, two_period_dyn):
    assert np.allclose(ls.power_to_energy([0.0, 0.0], two_period_params, two_period_dyn), [0.75, 0.75], atol=1e-15)
    assert np.allclose(ls.power_to_energy([0.5, 0.0], two_period_params, two_period_dyn), [1.0, 1.0], atol=1e-15)
    assert np.allclose(
        ls.power_to_energy([0.1875, 0.5], two_period_params, two_period_dyn), [0.84375, 1.09375], atol=1e-15
    )


def test_energy_to_power_examples(two_period_params, two_period_dyn):
    assert np.allclose(ls.energy_to_power([0.75, 0.75], two_period_params, two_period_dyn), [0.0, 0.0], atol=1e-15)
    assert np.allclose(ls.energy_to_power([1.0, 1.0], two_period_params, two_period_dyn), [0.5, 0.0], atol=1e-15)
    assert np.allclose(
        ls.energy_to_power([0.5, 1.0], two_period_params, two_period_dyn), [-0.125, 1.0], atol=1e-15
    )


def test_in_power_set_examples(two_period_params, two_period_bounds):
    assert ls.in_power_set([0.5, 0.0], two_period_params, two_period_bounds)

    mid = ls.in_power_set([0.1875, 0.5], two_period_params, two_period_bounds)
    assert not mid
    assert mid.violations[0].constraint == "energy_upper"
    assert mid.violations[0].index == 1
    assert mid.violations[0].amount == pytest.approx(0.09375, abs=1e-12)

    over = ls.in_power_set([2.0, 0.0], two_period_params, two_period_bounds)
    assert not over
    assert any(v.constraint == "power_upper" and v.index == 0 for v in over.violations)


def test_build_energy_polytope_two_period(two_period_params, two_period_bounds, two_period_dyn):
    poly = ls.build_energy_polytope(two_period_params, two_period_bounds, two_period_dyn)
    assert np.allclose(poly.v_lower, [-2.0, -2.0], atol=1e-15)
    assert np.allclose(poly.v_upper, [0.5, 0.5], atol=1e-15)
    assert np.array_equal(poly.x_lower, [0.0, 0.0])
    assert np.array_equal(poly.x_upper, [1.0, 1.0])


def test_build_energy_polytope_lossless_identity():
    params = ls.StorageParams(eta_c=1.0, eta_d=1.0, lam=1.0, delta=1.0, x0=0.0, horizon=2)
    bounds = ls.Bounds(u_max=[1, 1], u_min_mag=[1, 1], x_max=[5, 5], x_min=[0, 0])
    poly = ls.build_energy_polytope(params, bounds, ls.build_dynamics(params))
    assert np.array_equal(poly.v_lower, [-1.0, -1.0])
    assert np.array_equal(poly.v_upper, [1.0, 1.0])


def test_build_energy_polytope_charge_only(two_period_params, two_period_dyn):
    bounds = ls.Bounds(u_max=[1, 1], u_min_mag=[0, 0], x_max=[1, 1], x_min=[0, 0])
    poly = ls.build_energy_polytope(two_period_params, bounds, two_period_dyn)
    assert np.array_equal(poly.v_lower, [0.0, 0.0])


def test_in_energy_polytope_examples(two_period_params, two_period_bounds, two_period_dyn):
    poly = ls.build_energy_polytope(two_period_params, two_period_bounds, two_period_dyn)
    assert ls.in_energy_polytope([1.0, 1.0], poly)
    assert ls.in_energy_polytope([0.75, 0.75], poly)
    verdict = ls.in_energy_polytope([1.2, 0.5], poly)
    assert not verdict
    assert any(v.constraint == "x_upper" and v.index == 0 for v in verdict.violations)


def test_round_trip_property():
    rng = np.random.default_rng(3)
    for _ in range(60):
        horizon = int(rng.integers(1, 21))
        params, bounds = random_instance(rng, horizon)
        dyn = ls.build_dynamics(params)
        u = rng.uniform(-2.0 * bounds.u_max, 2.0 * bounds.u_max, horizon)
        err_u = np.max(np.abs(ls.energy_to_power(ls.power_to_energy(u, params, dyn), params, dyn) - u))
        assert err_u <= 1e-9
        x = rng.uniform(-2.0, 4.0, horizon)
        err_x = np.max(np.abs(ls.power_to_energy(ls.energy_to_power(x, params, dyn), params, dyn) - x))
        assert err_x <= 1e-9


def test_map_concave_and_inverse_convex():
    rng = np.random.default_rng(5)
    for _ in range(40):
        horizon = int(rng.integers(1, 11))
        params, _ = random_instance(rng, horizon)
        dyn = ls.build_dynamics(params)
        u_a = rng.uniform(-2, 2, horizon)
        u_b = rng.uniform(-2, 2, horizon)
        theta = float(rng.uniform())
        mix = theta * u_a + (1 - theta) * u_b
        lhs = ls.power_to_energy(mix, params, dyn)
        rhs = theta * ls.power_to_energy(u_a, params, dyn) + (1 - theta) * ls.power_to_energy(u_b, params, dyn)
        assert np.all(lhs >= rhs - 1e-9)

        x_a = rng.uniform(-2, 3, horizon)
        x_b = rng.uniform(-2, 3, horizon)
        mix_x = theta * x_a + (1 - theta) * x_b
        lhs_x = ls.energy_to_power(mix_x, params, dyn)
        rhs_x = theta * ls.energy_to_power(x_a, params, dyn) + (1 - theta) * ls.energy_to_power(
            x_b, params, dyn
        )
        assert np.all(lhs_x <= rhs_x + 1e-9)


def test_eta_ordering_fact():
    rng = np.random.default_rng(9)
    for _ in range(100):
        params, _ = random_instance(rng, 1)
        assert params.eta_d <= 1.0 / params.eta_c


def test_halfspace_matches_definition_membership():
    # definition-level test (x box plus power box on the recovered profile)
    # against the half-space form, on non-boundary samples
    rng = np.random.default_rng(13)
    for _ in range(8):
        horizon = int(rng.integers(1, 6))
        params, bounds = random_instance(rng, horizon)
        dyn = ls.build_dynamics(params)
        poly = ls.build_energy_polytope(params, bounds, dyn)
        x = rng.uniform(-0.5, 1.5, size=(2000, horizon)) * (
            poly.x_upper - poly.x_lower
        ) + poly.x_lower
        u = ls.energy_to_power(x, params, dyn)
        margins = np.minimum.reduce(
            [
                np.min(np.abs(x - poly.x_lower), axis=1),
                np.min(np.abs(x - poly.x_upper), axis=1),
                np.min(np.abs(u + bounds.u_min_mag), axis=1),
                np.min(np.abs(u - bounds.u_max), axis=1),
            ]
        )
        keep = margins > 1e-7
        definitional = np.all(x >= poly.x_lower - 1e-9, axis=1)
        definitional &= np.all(x <= poly.x_upper + 1e-9, axis=1)
        definitional &= np.all(u >= -bounds.u_min_mag - 1e-9, axis=1)
        definitional &= np.all(u <= bounds.u_max + 1e-9, axis=1)
        halfspace = energy_membership_mask(x, poly)
        assert np.array_equal(definitional[keep], halfspace[keep])


def test_energy_polytope_convex_under_mixtures(two_period_params, two_period_bounds, two_period_dyn):
    poly = ls.build_energy_polytope(two_period_params, two_period_bounds, two_period_dyn)
    rng = np.random.default_rng(17)
    x = rng.uniform(0.0, 1.0, size=(4000, 2))
    members = x[energy_membership_mask(x, poly)]
    idx = rng.integers(0, len(members), size=(2000, 2))
    theta = rng.uniform(size=(2000, 1))
    mix = theta * members[idx[:, 0]] + (1 - theta) * members[idx[:, 1]]
    assert np.all(energy_membership_mask(mix, poly, tol=1e-9))


NON_FINITE_ROWS = [
    [np.nan, 0.5], [0.5, np.nan], [np.inf, 0.5], [0.5, np.inf], [-np.inf, 0.5], [0.5, -np.inf],
]


def edge_bounds(value, upper):
    """The bound that puts value exactly on its tolerance edge, and the
    next float outward, one ulp past which value is outside."""
    bound = tolerance_edge(value, MEMBERSHIP_TOL if upper else -MEMBERSHIP_TOL)
    return bound, float(np.nextafter(bound, -np.inf if upper else np.inf))


def replaced(obj, field, t, value):
    """obj with entry t of its vector field set to value."""
    vector = getattr(obj, field).copy()
    vector[t] = value
    return dataclasses.replace(obj, **{field: vector})


def test_masks_agree_with_scalar_verdicts(two_period_params, two_period_bounds, two_period_dyn):
    params, dyn = two_period_params, two_period_dyn

    def power_flags(bounds, rows):
        mask = power_feasibility_mask(rows, params, bounds, dyn)
        flags = [bool(ls.in_power_set(row, params, bounds, dyn=dyn)) for row in rows]
        assert flags == mask.tolist()
        return flags

    def energy_flags(poly, rows):
        mask = energy_membership_mask(rows, poly)
        flags = [bool(ls.in_energy_polytope(row, poly)) for row in rows]
        assert flags == mask.tolist()
        return flags

    rng = np.random.default_rng(19)
    rows = np.vstack([rng.uniform(-1.5, 1.5, size=(200, 2)), NON_FINITE_ROWS])
    poly = ls.build_energy_polytope(params, two_period_bounds, dyn)
    assert not any(power_flags(two_period_bounds, rows)[-len(NON_FINITE_ROWS):])
    assert not any(energy_flags(poly, rows)[-len(NON_FINITE_ROWS):])

    # Every face of both sets in turn sits at the row's value there: the
    # row is inside at the tolerance edge and outside one ulp past it.
    roomy = dataclasses.replace(two_period_bounds, x_max=[3.0, 3.0], x_min=[-3.0, -3.0])
    u = np.array([0.3, -0.3])
    x = ls.power_to_energy(u, params, dyn)  # about [0.9, 0.3]
    v = ls.velocity(x, params, dyn)  # about [0.15, -0.6]
    for field, t, value, upper in [
        ("u_max", 0, u[0], True),
        ("u_min_mag", 1, u[1], False),
        ("x_max", 0, x[0], True),
        ("x_min", 1, x[1], False),
    ]:
        sign = -1.0 if field == "u_min_mag" else 1.0  # a magnitude
        flags = [
            power_flags(replaced(roomy, field, t, sign * bound), [u])[0]
            for bound in edge_bounds(value, upper)
        ]
        assert flags == [True, False], field
    poly = ls.build_energy_polytope(params, roomy, dyn)
    for field, t, value, upper in [
        ("x_upper", 0, x[0], True),
        ("x_lower", 1, x[1], False),
        ("v_upper", 0, v[0], True),
        ("v_lower", 1, v[1], False),
    ]:
        flags = [
            energy_flags(replaced(poly, field, t, bound), [x])[0]
            for bound in edge_bounds(value, upper)
        ]
        assert flags == [True, False], field


def test_witness_found_on_lossy_instance(two_period_params, two_period_bounds):
    witness = ls.find_nonconvexity_witness(two_period_params, two_period_bounds, attempts=2000)
    assert witness is not None
    assert ls.in_power_set(witness.u_a, two_period_params, two_period_bounds)
    assert ls.in_power_set(witness.u_b, two_period_params, two_period_bounds)
    mid = witness.theta * witness.u_a + (1 - witness.theta) * witness.u_b
    verdict = ls.in_power_set(mid, two_period_params, two_period_bounds)
    assert not verdict
    assert witness.violation.constraint == "energy_upper"


def test_witness_documented_pattern_is_valid(two_period_params, two_period_bounds):
    # the canonical triple: charge-to-cap vs discharge-then-charge
    assert ls.in_power_set([0.5, 0.0], two_period_params, two_period_bounds)
    assert ls.in_power_set([-0.125, 1.0], two_period_params, two_period_bounds)
    assert not ls.in_power_set([0.1875, 0.5], two_period_params, two_period_bounds)


def test_witness_deterministic_fallback_without_random_budget(two_period_params, two_period_bounds):
    # one random attempt is nearly certain to miss; the scaled pattern still fires
    witness = ls.find_nonconvexity_witness(two_period_params, two_period_bounds, attempts=1)
    assert witness is not None


def test_no_witness_for_lossless_instance():
    params = ls.StorageParams(eta_c=1.0, eta_d=1.0, lam=1.0, delta=1.0, x0=0.75, horizon=2)
    bounds = ls.Bounds(u_max=[1, 1], u_min_mag=[1, 1], x_max=[1, 1], x_min=[0, 0])
    assert ls.find_nonconvexity_witness(params, bounds, attempts=500) is None


def test_no_witness_for_charge_only_instance(two_period_params):
    bounds = ls.Bounds(u_max=[1, 1], u_min_mag=[0, 0], x_max=[1, 1], x_min=[0, 0])
    assert ls.find_nonconvexity_witness(two_period_params, bounds, attempts=500) is None


def test_witness_rejects_nonpositive_attempts(two_period_params, two_period_bounds):
    with pytest.raises(ValueError):
        ls.find_nonconvexity_witness(two_period_params, two_period_bounds, attempts=0)


EPS = np.finfo(float).eps


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    horizon=st.sampled_from([1, 2, 24, 8760]) | st.integers(1, 8760),
    eta_c=st.sampled_from([1e-3, 0.05, 0.5, 1.0]) | st.floats(1e-3, 1.0),
    eta_d=st.sampled_from([1e-3, 0.05, 0.5, 1.0]) | st.floats(1e-3, 1.0),
    lam=st.sampled_from([1e-3, 0.5, 0.999, 1.0]),
    delta=st.sampled_from([0.25, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_chain_operators_at_extreme_parameters(horizon, eta_c, eta_d, lam, delta, seed):
    rng = np.random.default_rng(seed)
    params = ls.StorageParams(
        eta_c=eta_c, eta_d=eta_d, lam=lam, delta=delta,
        x0=float(rng.uniform(0.0, 10.0)), horizon=horizon,
    )
    dyn = ls.build_dynamics(params)
    u = rng.uniform(-1.0, 1.0, (2, horizon))

    # the recurrence against the step-by-step simulation, singly and batched;
    # each step rounds by a few eps of the energy scale, and errors add up
    # over at most T steps
    x = ls.power_to_energy(u[0], params, dyn)
    batch = ls.power_to_energy(u, params, dyn)
    scale = 1.0 + float(np.max(np.abs(batch)))
    for row, x_row in zip(u, batch):
        assert np.max(np.abs(x_row - ls.simulate(row, params))) <= 4 * horizon * EPS * scale
    assert np.array_equal(batch[0], x)

    # round trip: the difference of rounded energies carries a few eps of the
    # energy scale, divided by delta and then by eta_c on charging periods
    back = ls.energy_to_power(x, params, dyn)
    assert np.max(np.abs(back - u[0])) <= 8 * EPS * scale / (delta * eta_c)

    # adjoint identity <A^{-1} d, w> = <d, A^{-T} w>, on a zero offset so
    # that velocity applies A^{-1} itself
    linear = dataclasses.replace(dyn, b_offset=np.zeros(horizon))
    d, w = rng.standard_normal((2, horizon))
    lhs = float(ls.velocity(d, params, linear) @ w)
    rhs = float(d @ velocity_adjoint(w, linear))
    bound = horizon * EPS * (1.0 + lam) / delta * float(np.linalg.norm(d) * np.linalg.norm(w))
    assert abs(lhs - rhs) <= 4 * bound


def test_chain_operators_memory_at_a_year_of_hours():
    # the operators are O(T): a year of hourly periods stays far below the
    # 2 * 8 * T^2 bytes (1.2 GB) that a dense A and A^{-1} would take
    horizon = 8760
    rng = np.random.default_rng(29)
    params = ls.StorageParams(eta_c=0.9, eta_d=0.8, lam=0.999, delta=1.0, x0=1.0, horizon=horizon)
    bounds = ls.Bounds(
        u_max=np.ones(horizon),
        u_min_mag=np.ones(horizon),
        x_max=np.full(horizon, 100.0),
        x_min=np.zeros(horizon),
    )
    cost = ls.EnergyArbitrage(p_buy=rng.uniform(1.0, 2.0, horizon), p_sell=rng.uniform(0.0, 0.5, horizon))
    u = rng.uniform(-1.0, 1.0, horizon)
    tracemalloc.start()
    try:
        dyn = ls.build_dynamics(params)
        x = ls.power_to_energy(u, params, dyn)
        ls.velocity(x, params, dyn)
        ls.subgradient_energy_cost(cost, x, params, dyn)
        poly = ls.build_energy_polytope(params, bounds, dyn)
        energy_membership_mask(np.stack([x, dyn.b_offset]), poly)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6
