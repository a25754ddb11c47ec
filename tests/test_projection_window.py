"""The projection's window: a target that breaks a few steps is projected
over the periods those steps reach, and the window widens, up to the whole
horizon, until the pass there is the projection of the whole problem."""

import dataclasses

import numpy as np
import pytest

import lossy_storage as ls
from lossy_storage import transform
from lossy_storage.transform import _pull_pass, project_onto_polytope

from conftest import random_instance


def polytope_of(params, bounds):
    return ls.build_energy_polytope(params, bounds, ls.build_dynamics(params))


def whole_horizon(y, poly):
    """The chain pass over every period, from b_0."""
    y = np.asarray(y, dtype=float)
    start = float(poly.dynamics.b_offset[0])
    return np.array(_pull_pass(poly, y.tolist(), 0, len(y) - 1, start))


@pytest.fixture
def windows(monkeypatch):
    """(lo, hi, energies) of every chain pass the projections run."""
    seen = []

    def recorded(poly, y, lo, hi, start, _pass=_pull_pass):
        seen.append((lo, hi, _pass(poly, y, lo, hi, start)))
        return seen[-1][2]

    monkeypatch.setattr(transform, "_pull_pass", recorded)
    return seen


def assert_whole_horizon(out, y, poly):
    reference = whole_horizon(y, poly)
    assert np.max(np.abs(out - reference)) <= 1e-15 * np.max(np.abs(reference))


def lossless(horizon, x0=50.0, x_max=100.0):
    """Unit steps of lossless storage (lam = 1, eta = 1, delta = 1) in the
    energy box [0, x_max]: each step x_t - x_{t-1} lies in [-1, 1]."""
    params = ls.StorageParams(eta_c=1.0, eta_d=1.0, lam=1.0, delta=1.0, x0=x0, horizon=horizon)
    bounds = ls.Bounds(
        u_max=np.ones(horizon), u_min_mag=np.ones(horizon),
        x_max=np.full(horizon, x_max), x_min=np.zeros(horizon),
    )
    return params, bounds


def test_periods_no_binding_step_reaches_come_back_as_the_clip():
    # a member whose steps all sit inside their box, nudged at one period:
    # only the periods next to the steps that bind move, and every other
    # period is the clip's bit for bit (a whole-horizon pass rounds them
    # anew, and moves many by an ulp)
    rng = np.random.default_rng(2707)
    horizon, period = 120, 60
    for _ in range(20):
        params = ls.StorageParams(
            eta_c=float(rng.uniform(0.8, 1.0)), eta_d=float(rng.uniform(0.8, 1.0)),
            lam=float(rng.uniform(0.9, 1.0)), delta=1.0, x0=float(rng.uniform(5.0, 15.0)),
            horizon=horizon,
        )
        dyn = ls.build_dynamics(params)
        u_max, u_min = rng.uniform(0.5, 1.0, horizon), rng.uniform(0.5, 1.0, horizon)
        member = ls.power_to_energy(0.5 * rng.uniform(-u_min, u_max), params, dyn)
        bounds = ls.Bounds(
            u_max=u_max, u_min_mag=u_min,
            x_max=np.full(horizon, member.max() + 5.0), x_min=np.full(horizon, member.min() - 5.0),
        )
        poly = ls.build_energy_polytope(params, bounds, dyn)
        y = member.copy()
        y[period] += rng.choice([-1.0, 1.0]) * rng.uniform(1.5, 3.0)
        clipped = y.clip(poly.x_lower, poly.x_upper)
        out = project_onto_polytope(y, poly)
        moved = np.flatnonzero(np.abs(out - clipped) > 1e-12)
        assert 1 <= len(moved) <= 4 and np.ptp(moved) < 4
        far = np.abs(np.arange(horizon) - period) > 8
        assert out[far].tobytes() == clipped[far].tobytes()
        assert_whole_horizon(out, y, poly)


def test_a_binding_entry_step_widens_the_window(windows):
    # a spike of 30 on a flat profile: the projection is a tent of unit
    # steps to 50 + 60/11 and five periods down each side, past the first
    # window's pad, whose entry step then binds
    poly = polytope_of(*lossless(40))
    y = np.full(40, 50.0)
    y[20] = 80.0
    out = project_onto_polytope(y, poly)
    assert [window[:2] for window in windows] == [(18, 23), (14, 27)]
    assert np.flatnonzero(out != 50.0).tolist() == list(range(15, 26))
    assert_whole_horizon(out, y, poly)


def test_a_window_out_of_reach_of_its_entry_widens(windows):
    # period 20 must hold exactly 60, ten unit steps above the flat target:
    # from the clip's 50 at the entry no window shorter than ten periods
    # reaches it, and its pass bridges to a point below the energy box
    horizon = 40
    params, bounds = lossless(horizon)
    bounds = dataclasses.replace(
        bounds,
        x_min=np.where(np.arange(horizon) == 20, 60.0, 0.0),
        x_max=np.where(np.arange(horizon) == 20, 60.0, 100.0),
    )
    poly = polytope_of(params, bounds)
    y = np.full(horizon, 50.0)
    out = project_onto_polytope(y, poly)
    # the first windows miss 60 at period 20 and are not taken
    assert len(windows) >= 2
    for lo, _, window in windows[:-1]:
        assert window[20 - lo] < 60.0
    assert out[20] == 60.0
    assert np.all(out >= poly.x_lower) and np.all(out <= poly.x_upper)
    assert_whole_horizon(out, y, poly)


def test_a_window_widens_to_the_whole_horizon(windows):
    # a spike of 400 on twelve flat periods reaches both ends
    poly = polytope_of(*lossless(12, x_max=1000.0))
    y = np.full(12, 50.0)
    y[6] = 450.0
    out = project_onto_polytope(y, poly)
    assert windows[0][:2] != (0, 11) and windows[-1][:2] == (0, 11)
    assert np.all(out > 50.0)
    assert out.tobytes() == whole_horizon(y, poly).tobytes()


def test_windowed_projections_match_the_whole_horizon_pass(windows):
    # uniform targets and polytope members nudged at one period, T 1-39,
    # lam = 1 for 30 %
    rng = np.random.default_rng(2717)
    projections, passes, widened = 0, 0, 0
    while projections < 5000:
        horizon = int(rng.integers(1, 40))
        params, bounds = random_instance(rng, horizon)
        if rng.random() < 0.3:
            params = dataclasses.replace(params, lam=1.0)
        poly = polytope_of(params, bounds)
        if poly._reach[2] is not None:
            continue
        y = rng.uniform(-1.0, bounds.x_max + 1.0)
        if rng.random() < 0.7:
            y = project_onto_polytope(y, poly)
            y[rng.integers(horizon)] += rng.uniform(-1.0, 1.0)
        windows.clear()
        out = project_onto_polytope(y, poly)
        projections += 1
        if windows:
            passes += 1
            widened += len(windows) > 1
            assert_whole_horizon(out, y, poly)
    assert passes >= 2000 and widened >= 100
