"""Power/energy change of variables and the two feasible sets.

The per-period loss map f(u) = eta_c * u+ + (1/eta_d) * u- converts signed
power into an effective energy rate; it is concave, strictly increasing and
invertible because 0 < eta_c <= 1/eta_d.  Composing with the dynamics gives
the bijection

    power_to_energy(u) = A f(u) + b             (concave per component)
    energy_to_power(x) = f_inv(A^{-1} (x - b))  (convex per component)

A is never formed: this module alone applies A, A^{-1} and A^{-T} as O(T)
recurrences (`power_to_energy`, `velocity`, `velocity_adjoint`).

The set of feasible power profiles

    U = { u in the power box : x_min <= power_to_energy(u) <= x_max }

is generally nonconvex for lossy storage, while its image under the map is
the convex polytope

    X = { x : x_min <= x <= x_max,
              -(1/eta_d) u_min_mag <= A^{-1}(x - b) <= eta_c u_max }.

`find_nonconvexity_witness` searches for a certificate of the former fact:
two members of U whose mixture leaves U.

Each set is two boxes, listed once (`_power_boxes`, `_energy_boxes`), and
its verdict and mask share one membership rule: every value lies within
MEMBERSHIP_TOL of each face, lower - tol <= value <= upper + tol, and NaN
is never inside.

All maps accept a single profile (shape (T,)) or a batch of profiles stacked
as rows (shape (n, T)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

import numpy as np

from .errors import LengthMismatch
from .model import Bounds, Dynamics, StorageParams, build_dynamics

__all__ = [
    "Violation",
    "MembershipVerdict",
    "EnergyPolytope",
    "Witness",
    "loss_map",
    "inverse_loss_map",
    "power_to_energy",
    "energy_to_power",
    "velocity",
    "velocity_adjoint",
    "in_power_set",
    "power_feasibility_mask",
    "build_energy_polytope",
    "in_energy_polytope",
    "energy_membership_mask",
    "find_nonconvexity_witness",
]

#: Absolute per-constraint tolerance for membership tests.
MEMBERSHIP_TOL = 1e-9

#: Seed of the randomized witness search.
WITNESS_SEED = 1234

#: Least amount by which a witness's midpoint leaves the power set.
WITNESS_MARGIN = 1e-7


@dataclass(frozen=True)
class Violation:
    """One violated box constraint: which face, which period, by how much."""

    constraint: str  # power_lower | power_upper | energy_lower | energy_upper | x_* | v_*
    index: int
    amount: float


@dataclass(frozen=True)
class MembershipVerdict:
    is_member: bool
    violations: tuple[Violation, ...] = ()

    def __bool__(self) -> bool:
        return self.is_member


@dataclass(frozen=True, eq=False)
class EnergyPolytope:
    """Half-space form of the feasible energy set: two boxes, one of them in
    the velocity coordinate v = A^{-1}(x - b)."""

    v_lower: np.ndarray
    v_upper: np.ndarray
    x_lower: np.ndarray
    x_upper: np.ndarray
    dynamics: Dynamics


@dataclass(frozen=True, eq=False)
class Witness:
    """Nonconvexity certificate: u_a, u_b feasible, their mixture is not."""

    u_a: np.ndarray
    u_b: np.ndarray
    theta: float
    midpoint: np.ndarray
    violation: Violation


def _check_length(vec: np.ndarray, horizon: int, name: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if vec.shape[-1] != horizon:
        raise LengthMismatch(
            f"{name} has trailing dimension {vec.shape[-1]}, expected horizon {horizon}"
        )
    return vec


def loss_map(u, params: StorageParams) -> np.ndarray:
    """Effective energy rate eta_c * u+ + (1/eta_d) * u-, elementwise."""
    u = _check_length(u, params.horizon, "u")
    return params.eta_c * np.maximum(u, 0.0) + (1.0 / params.eta_d) * np.minimum(u, 0.0)


def inverse_loss_map(v, params: StorageParams) -> np.ndarray:
    """Exact inverse of `loss_map`: (1/eta_c) * v+ + eta_d * v-."""
    v = _check_length(v, params.horizon, "v")
    return (1.0 / params.eta_c) * np.maximum(v, 0.0) + params.eta_d * np.minimum(v, 0.0)


def power_to_energy(u, params: StorageParams, dyn: Dynamics) -> np.ndarray:
    """Energy profile induced by a power profile: A f(u) + b, with A applied
    as the recurrence y_t = lam * y_{t-1} + delta * f(u_t) from y_{-1} = 0."""
    rates = params.delta * loss_map(u, params)
    # one profile steps through Python floats (numpy scalars are several
    # times slower); a batch takes one vector step per period, across rows
    periods = rates.tolist() if rates.ndim == 1 else rates.T
    y = accumulate(periods, lambda y_prev, rate: dyn.lam * y_prev + rate)
    return np.array(list(y)).T + dyn.b_offset


def velocity(x, params: Optional[StorageParams], dyn: Dynamics) -> np.ndarray:
    """The intermediate v = A^{-1}(x - b), the natural coordinate of the
    polytope's second box: the first difference (d_t - lam * d_{t-1}) / delta
    of d = x - b, so x = b gives v = 0 exactly.  params is unused (callers
    holding only a polytope pass None)."""
    x = _check_length(x, dyn.b_offset.shape[0], "x")
    d = x - dyn.b_offset
    d[..., 1:] -= dyn.lam * d[..., :-1]
    return d / dyn.delta


def velocity_adjoint(w, dyn: Dynamics) -> np.ndarray:
    """A^{-T} w, the transpose of `velocity`'s linear part: the reversed
    first difference (w_t - lam * w_{t+1}) / delta."""
    r = np.array(w, dtype=float)
    r[..., :-1] -= dyn.lam * r[..., 1:]
    return r / dyn.delta


def energy_to_power(x, params: StorageParams, dyn: Dynamics) -> np.ndarray:
    """Power profile recovering a given energy profile: f_inv(A^{-1}(x - b))."""
    return inverse_loss_map(velocity(x, params, dyn), params)


@np.errstate(invalid="ignore")  # infinities that cancel give NaN, which is outside
def _power_boxes(u, params: StorageParams, bounds: Bounds, dyn: Dynamics) -> tuple:
    """The power set's boxes, as (name, values, lower, upper): u and its energies."""
    return (
        ("power", u, -bounds.u_min_mag, bounds.u_max),
        ("energy", power_to_energy(u, params, dyn), bounds.x_min, bounds.x_max),
    )


@np.errstate(invalid="ignore")  # infinities that cancel give NaN, which is outside
def _energy_boxes(x, polytope: EnergyPolytope) -> tuple:
    """The polytope's boxes, as (name, values, lower, upper): x and its velocity."""
    return (
        ("x", x, polytope.x_lower, polytope.x_upper),
        ("v", velocity(x, None, polytope.dynamics), polytope.v_lower, polytope.v_upper),
    )


def _inside(values, lower, upper, tol: float) -> np.ndarray:
    """The membership rule, elementwise: within tol of the box; NaN is never inside."""
    return (values >= lower - tol) & (values <= upper + tol)


def _verdict(boxes, tol: float) -> MembershipVerdict:
    violations = []
    for name, values, lower, upper in boxes:
        for i in (~_inside(values, lower, upper, tol)).nonzero()[0]:
            above = values[i] > upper[i] + tol  # False below the box, and for NaN
            amount = values[i] - upper[i] if above else lower[i] - values[i]
            face = "upper" if above else "lower"
            violations.append(Violation(f"{name}_{face}", int(i), float(amount)))
    return MembershipVerdict(is_member=not violations, violations=tuple(violations))


def _mask(boxes, tol: float) -> np.ndarray:
    """`_verdict` row by row over (n, T) values, as bools."""
    return np.logical_and.reduce(
        [_inside(values, lower, upper, tol).all(axis=1) for _, values, lower, upper in boxes]
    )


def _largest_violation(boxes) -> float:
    """The largest gap of a value past its box, with no tolerance: 0.0 when
    there is none, NaN when a value is NaN."""
    worst = 0.0
    for _, values, lower, upper in boxes:
        gap = float(np.maximum(lower - values, values - upper).max())
        if gap > worst or math.isnan(gap):
            worst = gap
    return worst


def in_power_set(
    u,
    params: StorageParams,
    bounds: Bounds,
    tol: float = MEMBERSHIP_TOL,
    dyn: Optional[Dynamics] = None,
) -> MembershipVerdict:
    """Membership of u in the (generally nonconvex) feasible power set."""
    u = _check_length(u, params.horizon, "u")
    if dyn is None:
        dyn = build_dynamics(params)
    return _verdict(_power_boxes(u, params, bounds, dyn), tol)


def power_feasibility_mask(
    profiles: np.ndarray,
    params: StorageParams,
    bounds: Bounds,
    dyn: Dynamics,
    tol: float = MEMBERSHIP_TOL,
) -> np.ndarray:
    """Vectorized `in_power_set` over rows of an (n, T) array; returns bools."""
    profiles = np.atleast_2d(np.asarray(profiles, dtype=float))
    return _mask(_power_boxes(profiles, params, bounds, dyn), tol)


def build_energy_polytope(
    params: StorageParams, bounds: Bounds, dyn: Dynamics
) -> EnergyPolytope:
    """Assemble the half-space form of the feasible energy set.

    Emptiness is not checked here; the solver detects it when projecting.
    """
    return EnergyPolytope(
        v_lower=-(1.0 / params.eta_d) * bounds.u_min_mag,
        v_upper=params.eta_c * bounds.u_max,
        x_lower=bounds.x_min.copy(),
        x_upper=bounds.x_max.copy(),
        dynamics=dyn,
    )


def in_energy_polytope(
    x, polytope: EnergyPolytope, tol: float = MEMBERSHIP_TOL
) -> MembershipVerdict:
    """Membership of x in the energy polytope (both boxes, within tol)."""
    x = np.asarray(x, dtype=float)
    return _verdict(_energy_boxes(x, polytope), tol)


def energy_membership_mask(
    profiles: np.ndarray, polytope: EnergyPolytope, tol: float = MEMBERSHIP_TOL
) -> np.ndarray:
    """Vectorized `in_energy_polytope` over rows of an (n, T) array."""
    profiles = np.atleast_2d(np.asarray(profiles, dtype=float))
    return _mask(_energy_boxes(profiles, polytope), tol)


def _scaled_pattern_candidates(params: StorageParams, polytope: EnergyPolytope) -> np.ndarray:
    """Charge-early vs discharge-then-charge pairs, scaled to the instance.

    Constructed in velocity coordinates on the first two periods: u_a
    saturates the period-1 energy cap, u_b discharges first and then charges
    up to the period-2 cap.  Mirrors the canonical two-period picture of a
    lossy feasible set.  Returns the pairs as one (2, k, T) array of their
    u_a rows and their u_b rows; k is 0 when the instance admits none.
    """
    t = params.horizon
    delta, lam, b = params.delta, params.lam, polytope.dynamics.b_offset
    v_up, v_lo, x_up = polytope.v_upper, polytope.v_lower, polytope.x_upper

    v = np.zeros((2, 6, t))  # (end, pair, period): at most six pairs
    k = 0
    v0a = min(v_up[0], (x_up[0] - b[0]) / delta)
    for frac in (1.0, 0.5, 0.25) if t >= 2 and v0a > 0.0 else ():
        for d in (-frac * v0a, frac * v_lo[0]):
            if not (v_lo[0] <= d < 0.0):
                continue
            v1b = min(v_up[1], (x_up[1] - b[1] - delta * lam * d) / delta)
            if v1b <= 0.0:
                continue
            v[0, k, 0] = v0a
            v[1, k, :2] = d, v1b
            k += 1
    return inverse_loss_map(v[:, :k], params)


def _first_witness(
    u_a: np.ndarray, u_b: np.ndarray, params: StorageParams, bounds: Bounds, dyn: Dynamics
) -> Optional[Witness]:
    """The first row pair of two (n, T) candidate arrays whose ends are
    members of the power set and whose midpoint leaves it by more than
    WITNESS_MARGIN, as a Witness; None when no row qualifies."""
    mid = 0.5 * u_a + 0.5 * u_b
    hits = (
        power_feasibility_mask(u_a, params, bounds, dyn)
        & power_feasibility_mask(u_b, params, bounds, dyn)
        & ~power_feasibility_mask(mid, params, bounds, dyn, tol=WITNESS_MARGIN)
    ).nonzero()[0]
    if len(hits) == 0:
        return None
    i = hits[0]
    verdict = in_power_set(mid[i], params, bounds, dyn=dyn)
    return Witness(
        u_a=u_a[i],
        u_b=u_b[i],
        theta=0.5,
        midpoint=mid[i],
        violation=max(verdict.violations, key=lambda viol: viol.amount),
    )


def find_nonconvexity_witness(
    params: StorageParams,
    bounds: Bounds,
    attempts: int = 2000,
) -> Optional[Witness]:
    """Search for two feasible power profiles whose midpoint is infeasible.

    Random pairs from the power box are decided first, 256 at a time, by
    the batched membership test; if the budget runs out, a deterministic
    list of scaled charge/discharge patterns is decided the same way.  A
    pair whose powers share their sign in every period is never a witness:
    the loss map is linear between them, so their midpoint maps to the
    average of two members.  Returns None when nothing is found, which is
    the correct outcome for lossless or sign-restricted instances (there
    the feasible power set is a polytope).
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    dyn = build_dynamics(params)
    rng = np.random.default_rng(WITNESS_SEED)
    lo, hi = -bounds.u_min_mag, bounds.u_max
    for start in range(0, attempts, 256):
        size = (min(256, attempts - start), params.horizon)
        pair_a = rng.uniform(lo, hi, size=size)
        pair_b = rng.uniform(lo, hi, size=size)
        found = _first_witness(pair_a, pair_b, params, bounds, dyn)
        if found is not None:
            return found
    polytope = build_energy_polytope(params, bounds, dyn)
    u_a, u_b = _scaled_pattern_candidates(params, polytope)
    return _first_witness(u_a, u_b, params, bounds, dyn)
