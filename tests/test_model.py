import dataclasses

import numpy as np
import pytest

import lossy_storage as ls
from lossy_storage.transform import velocity_adjoint
from lossy_storage.errors import (
    InvalidBound,
    InvalidEfficiency,
    InvalidHorizon,
    LengthMismatch,
    ValidationError,
)

from conftest import dense_dynamics, random_instance


def test_validate_accepts_canonical_instance(two_period_params, two_period_bounds):
    problem = ls.validate_params(two_period_params, two_period_bounds)
    assert problem.params == two_period_params
    assert np.array_equal(problem.bounds.u_max, [1.0, 1.0])


def test_validate_rejects_zero_efficiency(two_period_bounds):
    bad = ls.StorageParams(eta_c=0.0, eta_d=0.5, lam=1.0, delta=1.0, x0=0.75, horizon=2)
    with pytest.raises(InvalidEfficiency):
        ls.validate_params(bad, two_period_bounds)


def test_validate_rejects_a_charge_efficiency_without_a_finite_reciprocal(two_period_bounds):
    # 1 / eta overflows below about 5.6e-309, for either efficiency
    bad = ls.StorageParams(eta_c=1e-310, eta_d=0.5, lam=1.0, delta=1.0, x0=0.75, horizon=2)
    with pytest.raises(InvalidEfficiency, match="eta_c"):
        ls.validate_params(bad, two_period_bounds)
    tiny_d = ls.StorageParams(eta_c=0.5, eta_d=1e-310, lam=1.0, delta=1.0, x0=0.75, horizon=2)
    with pytest.raises(InvalidEfficiency, match="eta_d"):
        ls.validate_params(tiny_d, two_period_bounds)
    tiny_c = ls.StorageParams(eta_c=1e-300, eta_d=0.5, lam=1.0, delta=1.0, x0=0.75, horizon=2)
    ls.validate_params(tiny_c, two_period_bounds)


@pytest.mark.parametrize("field,value", [("eta_d", 1.5), ("lam", 0.0), ("lam", 1.2)])
def test_validate_rejects_out_of_range_factors(two_period_params, two_period_bounds, field, value):
    kwargs = {
        "eta_c": two_period_params.eta_c,
        "eta_d": two_period_params.eta_d,
        "lam": two_period_params.lam,
        "delta": two_period_params.delta,
        "x0": two_period_params.x0,
        "horizon": two_period_params.horizon,
    }
    kwargs[field] = value
    with pytest.raises(InvalidEfficiency):
        ls.validate_params(ls.StorageParams(**kwargs), two_period_bounds)


def test_validate_rejects_crossed_energy_bounds(two_period_params):
    bounds = ls.Bounds(u_max=[1, 1], u_min_mag=[1, 1], x_max=[1, 1], x_min=[2, 2])
    with pytest.raises(InvalidBound):
        ls.validate_params(two_period_params, bounds)


def test_validate_rejects_negative_power_bound(two_period_params):
    bounds = ls.Bounds(u_max=[1, -1], u_min_mag=[1, 1], x_max=[1, 1], x_min=[0, 0])
    with pytest.raises(InvalidBound):
        ls.validate_params(two_period_params, bounds)


def test_validate_rejects_bad_horizon(two_period_bounds):
    bad = ls.StorageParams(eta_c=0.5, eta_d=0.5, lam=1.0, delta=1.0, x0=0.75, horizon=0)
    with pytest.raises(InvalidHorizon):
        ls.validate_params(bad, two_period_bounds)
    # a bool is an int, but True as a horizon would hash apart from 1
    one_period = ls.Bounds(u_max=[1.0], u_min_mag=[1.0], x_max=[1.0], x_min=[0.0])
    with pytest.raises(InvalidHorizon):
        ls.validate_params(dataclasses.replace(bad, horizon=True), one_period)


def test_validate_rejects_nonpositive_delta(two_period_bounds):
    bad = ls.StorageParams(eta_c=0.5, eta_d=0.5, lam=1.0, delta=0.0, x0=0.75, horizon=2)
    with pytest.raises(ValidationError):
        ls.validate_params(bad, two_period_bounds)


def test_validate_rejects_length_mismatch(two_period_params):
    bounds = ls.Bounds(u_max=[1, 1, 1], u_min_mag=[1, 1], x_max=[1, 1], x_min=[0, 0])
    with pytest.raises(LengthMismatch):
        ls.validate_params(two_period_params, bounds)
    matrix = dataclasses.replace(bounds, u_max=[[1, 1]])
    with pytest.raises(LengthMismatch, match="u_max must be a 1-d vector"):
        ls.validate_params(two_period_params, matrix)


def test_validate_broadcasts_a_scalar_bound(two_period_params):
    bounds = ls.Bounds(u_max=1.0, u_min_mag=[1, 1], x_max=[1, 1], x_min=0)
    problem = ls.validate_params(two_period_params, bounds)
    assert np.array_equal(problem.bounds.u_max, [1.0, 1.0])
    assert np.array_equal(problem.bounds.x_min, [0.0, 0.0])


def test_dynamics_cumulative_sum_case(two_period_params, two_period_dyn):
    # lam = delta = 1: A is a cumulative sum, A^{-1} a first difference
    assert np.array_equal(two_period_dyn.b_offset, [0.75, 0.75])
    assert np.array_equal(
        ls.power_to_energy([1.0, 1.0], two_period_params, two_period_dyn), [1.25, 1.75]
    )
    assert np.array_equal(ls.velocity([1.0, 1.5], two_period_dyn), [0.25, 0.5])
    assert np.array_equal(velocity_adjoint([1.0, 1.0], two_period_dyn), [0.0, 1.0])


def test_dynamics_decay_entry():
    # a unit pulse at period 0 reaches period 2 as delta * lam**2
    params = ls.StorageParams(eta_c=1.0, eta_d=1.0, lam=0.9, delta=0.5, x0=0.0, horizon=3)
    x = ls.power_to_energy([1.0, 0.0, 0.0], params, ls.build_dynamics(params))
    assert x[2] == pytest.approx(0.5 * 0.9**2, abs=1e-15)
    assert x[2] == pytest.approx(0.405, abs=1e-15)


def test_dynamics_matrix_identity_random():
    # the recurrences agree with the dense A f + b, A^{-1}(x - b) and A^{-T} w
    rng = np.random.default_rng(42)
    for _ in range(25):
        horizon = int(rng.integers(1, 21))
        params, bounds = random_instance(rng, horizon)
        dyn = ls.build_dynamics(params)
        a, a_inv = dense_dynamics(params)
        assert np.max(np.abs(a @ a_inv - np.eye(horizon))) <= 1e-12
        u = rng.uniform(-bounds.u_min_mag, bounds.u_max)
        x = rng.uniform(-1.0, 3.0, horizon)
        w = rng.standard_normal(horizon)
        f = ls.loss_map(u, params)
        assert np.max(np.abs(ls.power_to_energy(u, params, dyn) - (a @ f + dyn.b_offset))) <= 1e-12
        assert np.max(np.abs(ls.velocity(x, dyn) - a_inv @ (x - dyn.b_offset))) <= 1e-12
        assert np.max(np.abs(velocity_adjoint(w, dyn) - a_inv.T @ w)) <= 1e-12
        batch = rng.uniform(-bounds.u_min_mag, bounds.u_max, (3, horizon))
        expected = ls.loss_map(batch, params) @ a.T + dyn.b_offset
        assert np.max(np.abs(ls.power_to_energy(batch, params, dyn) - expected)) <= 1e-12


def test_dynamics_triangularity():
    # causality: changing u_t leaves x_s unchanged for s < t and moves every later x_s
    rng = np.random.default_rng(7)
    params, bounds = random_instance(rng, 8)
    dyn = ls.build_dynamics(params)
    u = rng.uniform(-bounds.u_min_mag, bounds.u_max)
    x = ls.power_to_energy(u, params, dyn)
    for t in range(8):
        bumped = u.copy()
        bumped[t] += 0.5
        x_bumped = ls.power_to_energy(bumped, params, dyn)
        assert np.array_equal(x_bumped[:t], x[:t])
        assert np.all(x_bumped[t:] > x[t:])


def test_step_examples(two_period_params):
    assert ls.step(0.75, 1.0, two_period_params) == pytest.approx(1.25, abs=1e-15)
    assert ls.step(0.75, 0.0, two_period_params) == 0.75
    assert ls.step(0.75, -0.375, two_period_params) == pytest.approx(0.0, abs=1e-15)


def test_simulate_examples(two_period_params):
    assert np.allclose(ls.simulate([0.0, 0.0], two_period_params), [0.75, 0.75], atol=1e-15)
    assert np.allclose(ls.simulate([0.5, 0.0], two_period_params), [1.0, 1.0], atol=1e-15)
    assert np.allclose(ls.simulate([-0.125, 1.0], two_period_params), [0.5, 1.0], atol=1e-15)


def test_simulate_rejects_wrong_length(two_period_params):
    with pytest.raises(LengthMismatch):
        ls.simulate([0.0, 0.0, 0.0], two_period_params)


def test_simulate_agrees_with_matrix_form():
    rng = np.random.default_rng(11)
    for _ in range(50):
        horizon = int(rng.integers(1, 21))
        params, bounds = random_instance(rng, horizon)
        dyn = ls.build_dynamics(params)
        u = rng.uniform(-bounds.u_min_mag, bounds.u_max)
        gap = np.max(np.abs(ls.simulate(u, params) - ls.power_to_energy(u, params, dyn)))
        assert gap <= 1e-9


def test_b_is_the_zero_power_trajectory_bit_for_bit():
    # b is rounded as the recursion rounds, so `simulate` of the zero-power
    # profile gives it bit for bit; lam**(t+1) * x0 differs in most draws
    rng = np.random.default_rng(2212)
    for _ in range(200):
        horizon = int(rng.integers(2, 50))
        params = ls.StorageParams(
            eta_c=0.9, eta_d=0.9, lam=rng.uniform(0.5, 1.0), delta=1.0,
            x0=rng.uniform(0.0, 10.0), horizon=horizon,
        )
        b = ls.build_dynamics(params).b_offset
        assert ls.simulate(np.zeros(horizon), params).tobytes() == b.tobytes()
