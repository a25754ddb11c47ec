"""Storage model: parameters, bounds and the state-of-charge recursion.

The storage is described by charging/discharging efficiencies eta_c, eta_d in
(0, 1], a per-period self-discharge retention factor lam in (0, 1], a period
length delta in hours, an initial state-of-charge x0 and a horizon of T
periods.  The state-of-charge recursion

    x[t+1] = lam * x[t] + delta * (eta_c * max(u[t], 0) + (1/eta_d) * min(u[t], 0))

is a chain: each period's energy depends on the previous one only.  The
paper writes it as x = A f(u) + b, with A[i, j] = delta * lam**(i-j) below
the diagonal and the zero-power trajectory b[t] = lam * b[t-1] from b[-1] =
x0, rounded as `simulate` rounds it.  A is never formed: `Dynamics` keeps b,
lam and delta, and `transform` applies A, A^{-1} and A^{-T} as O(T)
recurrences.  Every energy map, like the oracle's grid walk, rounds the
recursion as `step` does, each x[t] from fl(lam * x[t-1]), the first from
b[0] = fl(lam * x0).  Decision vectors are stored 0-based as (x_1 .. x_T);
x0 is data, not a decision variable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidBound,
    InvalidEfficiency,
    InvalidHorizon,
    LengthMismatch,
    ValidationError,
)

__all__ = [
    "StorageParams",
    "Bounds",
    "ValidatedProblem",
    "Dynamics",
    "validate_params",
    "build_dynamics",
    "step",
    "simulate",
]


@dataclass(frozen=True)
class StorageParams:
    """Physical storage description.

    eta_c, eta_d: charging / discharging efficiencies in (0, 1]; 1/eta_c
                  and 1/eta_d must be finite.
    lam:          per-period self-discharge retention factor in (0, 1]
                  (1 means no leakage).
    delta:        period duration in hours.
    x0:           initial state-of-charge (energy units).
    horizon:      number of periods T.
    """

    eta_c: float
    eta_d: float
    lam: float
    delta: float
    x0: float
    horizon: int


def _vector(values, horizon: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        arr = np.full(horizon, float(arr))
    if arr.ndim != 1:
        raise LengthMismatch(f"{name} must be a 1-d vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class Bounds:
    """Per-period box bounds.

    u_max:     maximum charging power per period (>= 0).
    u_min_mag: maximum discharging power magnitude per period (>= 0); the
               admissible power interval is [-u_min_mag, u_max].
    x_max:     energy upper bound per period.
    x_min:     energy lower bound per period (>= 0).
    """

    u_max: np.ndarray
    u_min_mag: np.ndarray
    x_max: np.ndarray
    x_min: np.ndarray

    def __post_init__(self):
        for name in ("u_max", "u_min_mag", "x_max", "x_min"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))


@dataclass(frozen=True)
class ValidatedProblem:
    """Parameter/bound pair that passed `validate_params`."""

    params: StorageParams
    bounds: Bounds


@dataclass(frozen=True, eq=False)
class Dynamics:
    """The state-of-charge recursion x[t] = lam * x[t-1] + delta * v[t].

    b_offset: the zero-power trajectory, b[t] = lam * b[t-1] from b[-1] = x0.
    lam:      the retention factor.
    delta:    the period length.
    """

    b_offset: np.ndarray
    lam: float
    delta: float


def _check_count(value, name: str, minimum: int, error: type = ValueError) -> None:
    """Raise error unless value is an integer (not a bool) of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")


def validate_params(raw: StorageParams, bounds: Bounds) -> ValidatedProblem:
    """Check every parameter/bound invariant; return the validated pair.

    Raises InvalidEfficiency, InvalidHorizon, InvalidBound or LengthMismatch
    naming the violated invariant.  x0 is deliberately not checked against the
    energy bounds: the energy box constrains periods 1..T only.
    """
    for name, value in (("eta_c", raw.eta_c), ("eta_d", raw.eta_d), ("lam", raw.lam)):
        if not (0.0 < value <= 1.0):
            raise InvalidEfficiency(f"{name} must lie in (0, 1], got {value!r}")
    # f and its inverse divide by each efficiency, which a subnormal one overflows
    for name, value in (("eta_c", raw.eta_c), ("eta_d", raw.eta_d)):
        if not np.isfinite(1.0 / float(value)):
            raise InvalidEfficiency(f"{name} must have a finite reciprocal, got {value!r}")
    if not (raw.delta > 0.0 and np.isfinite(raw.delta)):
        raise ValidationError(f"delta must be a positive duration, got {raw.delta!r}")
    if not np.isfinite(raw.x0):
        raise ValidationError(f"x0 must be finite, got {raw.x0!r}")
    _check_count(raw.horizon, "horizon", 1, InvalidHorizon)

    t = int(raw.horizon)
    checked = {}
    for name in ("u_max", "u_min_mag", "x_max", "x_min"):
        vec = _vector(getattr(bounds, name), t, name)
        if vec.shape[0] != t:
            raise LengthMismatch(f"{name} has length {vec.shape[0]}, expected horizon {t}")
        if not np.all(np.isfinite(vec)):
            raise InvalidBound(f"{name} must be finite")
        checked[name] = vec
    for name in ("u_max", "u_min_mag", "x_min"):
        if np.any(checked[name] < 0.0):
            raise InvalidBound(f"{name} must be nonnegative everywhere")
    if np.any(checked["x_min"] > checked["x_max"]):
        bad = int(np.argmax(checked["x_min"] > checked["x_max"]))
        raise InvalidBound(
            f"x_min exceeds x_max at period {bad}: "
            f"{checked['x_min'][bad]} > {checked['x_max'][bad]}"
        )
    return ValidatedProblem(params=raw, bounds=Bounds(**checked))


def build_dynamics(params: StorageParams) -> Dynamics:
    """The chain form of the dynamics for validated parameters, in O(T).

    b is rounded as the recursion rounds, b[t] = fl(lam * b[t-1]) by a
    sequential product, so it is bit for bit `simulate` of the zero-power
    profile and a hold from b stays on b; lam**(t+1) * x0 rounds otherwise.
    """
    lam = float(params.lam)
    factors = np.full(int(params.horizon), lam)
    factors[0] *= params.x0
    b = np.cumprod(factors)
    return Dynamics(b_offset=b, lam=lam, delta=float(params.delta))


def step(x_t: float, u_t: float, params: StorageParams) -> float:
    """One period of the state-of-charge recursion.

    Defined for all real inputs, feasible or not.  Its caller is `simulate`,
    the reference recursion that perfbench/casecheck.py re-runs on every
    solved power profile, so trajectories that leave the feasible set must
    still evaluate.
    """
    gain = params.eta_c * max(u_t, 0.0) + (1.0 / params.eta_d) * min(u_t, 0.0)
    return params.lam * x_t + params.delta * gain


def simulate(u, params: StorageParams) -> np.ndarray:
    """Iterate `step` from x0; returns the energy profile (x_1 .. x_T)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (params.horizon,):
        raise LengthMismatch(
            f"power profile has shape {u.shape}, expected ({params.horizon},)"
        )
    x = np.empty(params.horizon)
    state = float(params.x0)
    for t in range(params.horizon):
        state = step(state, float(u[t]), params)
        x[t] = state
    return x
