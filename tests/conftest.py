"""Shared fixtures: the canonical two-period instance and random generators,
and the one Hypothesis profile of every property test."""

import numpy as np
import pytest
from hypothesis import settings

import lossy_storage as ls

# every property test draws the same 100 examples on every run, with no
# per-example deadline (some examples run year-long horizons)
settings.register_profile("tier-1", max_examples=100, deadline=None, derandomize=True)
settings.load_profile("tier-1")


@pytest.fixture
def two_period_params():
    # two-period lossy instance: eta_c = eta_d = 0.5, delta = 1, x0 = 0.75, lam = 1
    return ls.StorageParams(eta_c=0.5, eta_d=0.5, lam=1.0, delta=1.0, x0=0.75, horizon=2)


@pytest.fixture
def two_period_bounds():
    return ls.Bounds(u_max=[1.0, 1.0], u_min_mag=[1.0, 1.0], x_max=[1.0, 1.0], x_min=[0.0, 0.0])


@pytest.fixture
def two_period_problem(two_period_params, two_period_bounds):
    return ls.validate_params(two_period_params, two_period_bounds)


@pytest.fixture
def two_period_dyn(two_period_params):
    return ls.build_dynamics(two_period_params)


def empty_intersection_instance():
    """Two periods whose initial energy lies beyond every reachable energy
    box: the power and energy sets are empty."""
    params = ls.StorageParams(eta_c=0.5, eta_d=0.5, lam=1.0, delta=1.0, x0=10.0, horizon=2)
    bounds = ls.Bounds(u_max=[0.1, 0.1], u_min_mag=[0.1, 0.1], x_max=[1, 1], x_min=[0, 0])
    return params, bounds


def tolerance_gap_instance(gap):
    """Two periods whose second energy floor sits `gap` above the highest
    energy reachable there (0.5 after period 0, plus a 0.9 charge step)."""
    params = ls.StorageParams(eta_c=0.9, eta_d=0.9, lam=1.0, delta=1.0, x0=0.0, horizon=2)
    bounds = ls.Bounds(
        u_max=[1, 1], u_min_mag=[1, 1], x_max=[0.5, 5.0], x_min=[0.0, 1.4 + gap]
    )
    return params, bounds


def dense_dynamics(params: ls.StorageParams):
    """Dense A and A^{-1} of the storage recursion, built from their
    definition: A[i, j] = delta * lam**(i-j) for j <= i, else 0, and
    A^{-1} = (I - lam * L) / delta with L the lower shift.  A test-only
    reference; the package applies both as recurrences."""
    t = params.horizon
    i, j = np.indices((t, t))
    a = np.where(j <= i, params.delta * params.lam ** np.maximum(i - j, 0), 0.0)
    a_inv = (np.eye(t) - params.lam * np.eye(t, k=-1)) / params.delta
    return a, a_inv


def tolerance_edge(value, tol):
    """The bound b nearest value - tol with b + tol <= value (tol > 0, an
    upper bound) or b + tol >= value (tol < 0, a lower bound), in floats."""
    bound = value - tol
    while (bound + tol > value) if tol > 0 else (bound + tol < value):
        bound = np.nextafter(bound, -tol * np.inf)
    while True:
        step = np.nextafter(bound, tol * np.inf)
        if (step + tol > value) if tol > 0 else (step + tol < value):
            return float(bound)
        bound = step


def random_params(rng: np.random.Generator, horizon: int) -> ls.StorageParams:
    """Valid storage parameters drawn uniformly from the documented domains."""
    return ls.StorageParams(
        eta_c=float(rng.uniform(0.05, 1.0)),
        eta_d=float(rng.uniform(0.05, 1.0)),
        lam=float(rng.uniform(0.5, 1.0)),
        delta=float(rng.uniform(0.25, 2.0)),
        x0=float(rng.uniform(-1.0, 2.0)),
        horizon=horizon,
    )


def random_instance(rng: np.random.Generator, horizon: int):
    """Valid (params, bounds) pair with a roomy but nontrivial feasible set."""
    params = random_params(rng, horizon)
    u_max = rng.uniform(0.1, 1.0, horizon)
    u_min = rng.uniform(0.1, 1.0, horizon)
    x_min = np.zeros(horizon)
    x_max = rng.uniform(0.5, 3.0, horizon) + max(params.x0, 0.0)
    bounds = ls.Bounds(u_max=u_max, u_min_mag=u_min, x_max=x_max, x_min=x_min)
    return params, bounds


def make_certified_instance(rng: np.random.Generator, horizon: int = 3):
    """Random certified instance whose exact optimum is known analytically.

    Energy bounds are given enough headroom that the optimum of the cost over
    the plain power box stays feasible; each family's box optimum then sits
    at per-period vertices or zero (or, for the quadratic family, at the
    clamped load), so a grid containing endpoints and zero attains it and the
    analytic value doubles as a ground truth for both solver and oracle.
    Returns (params, bounds, cost, optimal_value).
    """
    eta_c = float(rng.uniform(0.4, 1.0))
    eta_d = float(rng.uniform(0.4, 1.0))
    lam = float(rng.uniform(0.9, 1.0))
    delta = float(rng.uniform(0.5, 1.5))
    u_max = rng.uniform(0.1, 0.5, horizon)
    u_min = rng.uniform(0.1, 0.5, horizon)
    x0 = delta * (1.0 / eta_d) * float(u_min.sum()) + 1.0
    x_max = np.full(horizon, x0 + delta * eta_c * float(u_max.sum()) + 1.0)
    x_min = np.zeros(horizon)
    params = ls.StorageParams(
        eta_c=eta_c, eta_d=eta_d, lam=lam, delta=delta, x0=x0, horizon=horizon
    )
    bounds = ls.Bounds(u_max=u_max, u_min_mag=u_min, x_max=x_max, x_min=x_min)

    family = int(rng.integers(0, 4))
    if family == 0:
        load = rng.uniform(0.0, 2.0, horizon)
        peak = int(np.argmax(load - u_min))
        if load[peak] - u_min[peak] < 0.05:
            load[peak] = u_min[peak] + float(rng.uniform(0.05, 1.0))
        cost = ls.PeakShaving(load=load)
        optimum = float(np.max(np.maximum(load - u_min, 0.0)))
    elif family == 1:
        load = rng.uniform(0.0, 0.8, horizon)
        cost = ls.LoadBalancing(load=load)
        u_star = -np.minimum(load, u_min)
        optimum = float(np.sum((u_star + load) ** 2))
    elif family == 2:
        signal = -u_min - rng.uniform(0.05, 1.0, horizon)
        cost = ls.PowerRegulation(signal=signal)
        optimum = float(np.sum(-u_min - signal))
    else:
        p_sell = rng.uniform(-1.0, 1.0, horizon)
        p_sell[np.abs(p_sell) < 0.05] = 0.5
        p_buy = np.maximum(rng.uniform(0.5, 2.0, horizon), eta_c * eta_d * p_sell + 0.1)
        cost = ls.EnergyArbitrage(p_buy=p_buy, p_sell=p_sell)
        optimum = float(np.sum(np.where(p_sell > 0.0, -u_min * p_sell, 0.0)))
    return params, bounds, cost, optimum
