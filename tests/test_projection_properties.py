"""Property tests of the exact projection at extreme parameters.

Instances are energy boxes around one simulated power schedule, clipped at
zero energy.  Some draws then lift the box of one period above the highest
energy that full charging could reach there, by a margin from 1e-8 to 1.
"""

import numpy as np
from hypothesis import event, given
from hypothesis import strategies as st

import lossy_storage as ls
from lossy_storage.errors import InfeasibleProblem
from lossy_storage.transform import MEMBERSHIP_TOL, energy_membership_mask, project_onto_polytope

efficiencies = st.sampled_from([1e-3, 0.05, 0.5, 1.0]) | st.floats(1e-3, 1.0)


def first_empty_period(params, bounds):
    """Forward interval sweep: the first period whose reachable energies miss
    the energy box by more than MEMBERSHIP_TOL, or None."""
    v_lower = -bounds.u_min_mag / params.eta_d
    v_upper = params.eta_c * bounds.u_max
    low = high = params.x0
    for t in range(params.horizon):
        low = params.lam * low + params.delta * v_lower[t]
        high = params.lam * high + params.delta * v_upper[t]
        low, high = max(low, bounds.x_min[t]), min(high, bounds.x_max[t])
        if low > high + MEMBERSHIP_TOL:
            return t
        if low > high:
            low = high = 0.5 * (low + high)
    return None


@given(
    horizon=st.integers(1, 2000),
    eta_c=efficiencies,
    eta_d=efficiencies,
    lam=st.sampled_from([1e-3, 0.5, 0.999, 1.0]),
    delta=st.sampled_from([0.25, 1.0]),
    zero_power=st.sampled_from(["none", "charge", "discharge", "both"]),
    degenerate=st.booleans(),
    cut=st.sampled_from([None, None, None, 1e-8, 1e-6, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_projection_properties(
    horizon, eta_c, eta_d, lam, delta, zero_power, degenerate, cut, seed
):
    rng = np.random.default_rng(seed)
    u_max = rng.uniform(0.0, 1.0, horizon) * (zero_power not in ("charge", "both"))
    u_min = rng.uniform(0.0, 1.0, horizon) * (zero_power not in ("discharge", "both"))
    params = ls.StorageParams(
        eta_c=eta_c, eta_d=eta_d, lam=lam, delta=delta,
        x0=float(rng.uniform(0.0, 2.0)), horizon=horizon,
    )
    schedule = ls.simulate(rng.uniform(-u_min, u_max), params)
    slack = np.zeros((2, horizon)) if degenerate else rng.uniform(0.0, 1.0, (2, horizon))
    x_min = np.maximum(schedule - slack[0], 0.0)
    x_max = np.maximum(schedule + slack[1], x_min)
    if cut is not None:
        period = int(rng.integers(horizon))
        full_charge = ls.simulate(u_max, params)[period]
        x_min[period], x_max[period] = full_charge + cut, full_charge + cut + 1.0
    bounds = ls.Bounds(u_max=u_max, u_min_mag=u_min, x_max=x_max, x_min=x_min)
    poly = ls.build_energy_polytope(params, bounds, ls.build_dynamics(params))
    y = schedule + rng.normal(0.0, float(rng.choice([1e-6, 0.1, 10.0])), horizon)

    empty = first_empty_period(params, bounds)
    event("infeasible" if empty is not None else "feasible")
    if empty is not None:
        try:
            project_onto_polytope(y, poly)
        except InfeasibleProblem as exc:
            assert exc.period == empty
        else:
            raise AssertionError(f"period {empty} is unreachable, yet a projection came back")
        return

    projected = project_onto_polytope(y, poly)
    assert energy_membership_mask(projected, poly)[0]
    again = project_onto_polytope(projected, poly)
    assert np.max(np.abs(again - projected)) <= 1e-9
    if energy_membership_mask(schedule, poly)[0]:
        # nearest-point inequality against one known member
        scale = 1.0 + float(np.linalg.norm(y - projected) * np.linalg.norm(schedule - projected))
        assert float((y - projected) @ (schedule - projected)) <= 1e-9 * scale
