"""Cost families, their subgradients, and convexity certification.

Five built-in cost families plus a custom hook.  Each family evaluates in
power coordinates; the energy-coordinate objective is the composition with
`energy_to_power`.  Certification is sound but not complete: a Certified verdict
guarantees the composed objective is convex, NotCertified guarantees nothing
either way.

Certification rules, checked in order:

  lossless       eta_c = eta_d = 1: the inverse map is affine, so composing
                 any convex family with it stays convex.  Not used for
                 energy arbitrage, whose raw cost need not be convex; there
                 the price-ratio rule below is exactly the right condition.
  nondecreasing  the family is convex and coordinate-wise nondecreasing on
                 [0, inf): peak shaving / load balancing with nonnegative
                 load, power regulation with nonpositive signal, custom
                 costs declared nondecreasing per coordinate.
  price_ratio    energy arbitrage with (1/eta_c) p_buy >= eta_d p_sell per
                 period; strictly weaker than requiring the raw cost to be
                 nondecreasing (it admits p_buy < p_sell).

Power smoothing is never certified.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import LengthMismatch, NoSubgradientOracle
from .model import Bounds, Dynamics, StorageParams, build_dynamics
from .transform import energy_to_power, inverse_loss_map, velocity, velocity_adjoint

__all__ = [
    "PeakShaving",
    "LoadBalancing",
    "PowerRegulation",
    "EnergyArbitrage",
    "PowerSmoothing",
    "CustomCost",
    "CostSpec",
    "ConvexityCertificate",
    "ProbeReport",
    "evaluate_power_cost",
    "power_cost_batch",
    "evaluate_energy_cost",
    "energy_cost_batch",
    "subgradient_energy_cost",
    "certify_convexity",
    "midpoint_convexity_probe",
    "instance_digest",
]

#: Slack added to the midpoint inequality before calling something a violation.
PROBE_MARGIN = 1e-7


@dataclass(frozen=True, eq=False)
class PeakShaving:
    """max_t |u_t + load_t|: worst absolute net draw against a fixed load."""

    load: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "load", np.asarray(self.load, dtype=float))


@dataclass(frozen=True, eq=False)
class LoadBalancing:
    """sum_t (u_t + load_t)^2: quadratic penalty on net draw."""

    load: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "load", np.asarray(self.load, dtype=float))


@dataclass(frozen=True, eq=False)
class PowerRegulation:
    """sum_t |u_t - signal_t|: tracking error against a regulation signal."""

    signal: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "signal", np.asarray(self.signal, dtype=float))


@dataclass(frozen=True, eq=False)
class EnergyArbitrage:
    """sum_t p_buy_t u_t+ + p_sell_t u_t-: buy when charging, sell when not."""

    p_buy: np.ndarray
    p_sell: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p_buy", np.asarray(self.p_buy, dtype=float))
        object.__setattr__(self, "p_sell", np.asarray(self.p_sell, dtype=float))


@dataclass(frozen=True, eq=False)
class PowerSmoothing:
    """sum_{t>=1} |(s_t - u_t) - (s_{t-1} - u_{t-1})|: net-output variation."""

    renewable: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "renewable", np.asarray(self.renewable, dtype=float))


@dataclass(frozen=True)
class CustomCost:
    """Black-box convex cost of the power profile.

    The evaluator must be convex (that is the caller's contract).  To be
    certifiable it must additionally be declared coordinate-wise
    nondecreasing on [0, inf), either globally (bool) or per coordinate;
    monotonicity is never inferred from samples, because sampling can only
    falsify.  A subgradient oracle is required for solving, not for
    evaluation.
    """

    evaluator: Callable[[np.ndarray], float]
    subgradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    nondecreasing_on_nonneg: Union[bool, Sequence[bool]] = False
    label: str = "custom"


CostSpec = Union[
    PeakShaving, LoadBalancing, PowerRegulation, EnergyArbitrage, PowerSmoothing, CustomCost
]

FAMILY_TAGS = {
    PeakShaving: "peak_shaving",
    LoadBalancing: "load_balancing",
    PowerRegulation: "power_regulation",
    EnergyArbitrage: "energy_arbitrage",
    PowerSmoothing: "power_smoothing",
}


@dataclass(frozen=True)
class ConvexityCertificate:
    """Verdict on convexity of the energy-coordinate objective.

    certified=True is sound: the composition really is convex.  False means
    no sufficient condition fired; it does not imply nonconvexity.
    """

    certified: bool
    rule: Optional[str] = None  # lossless | nondecreasing | price_ratio
    failing_indices: tuple[int, ...] = ()

    @property
    def verdict(self) -> str:
        return "certified" if self.certified else "not-certified"


@dataclass(frozen=True, eq=False)
class ProbeReport:
    """Outcome of a randomized midpoint-convexity probe.

    A positive violation count certifies nonconvexity of the probed
    instance; zero violations prove nothing but corroborate a certificate.
    """

    samples: int
    violations: int
    worst_margin: float
    worst_triple: Optional[tuple[np.ndarray, np.ndarray, float]] = None


def _family_vectors(cost: CostSpec) -> dict[str, np.ndarray]:
    if isinstance(cost, (PeakShaving, LoadBalancing)):
        return {"load": cost.load}
    if isinstance(cost, PowerRegulation):
        return {"signal": cost.signal}
    if isinstance(cost, EnergyArbitrage):
        return {"p_buy": cost.p_buy, "p_sell": cost.p_sell}
    if isinstance(cost, PowerSmoothing):
        return {"renewable": cost.renewable}
    return {}


def _check_cost_length(cost: CostSpec, horizon: int) -> None:
    for name, vec in _family_vectors(cost).items():
        if vec.shape != (horizon,):
            raise LengthMismatch(
                f"{name} has shape {vec.shape}, expected ({horizon},)"
            )


def power_cost_batch(cost: CostSpec, profiles: np.ndarray) -> np.ndarray:
    """Cost of each row of an (n, T) array of power profiles."""
    u = np.atleast_2d(np.asarray(profiles, dtype=float))
    if isinstance(cost, PeakShaving):
        return np.max(np.abs(u + cost.load), axis=-1)
    if isinstance(cost, LoadBalancing):
        return np.sum((u + cost.load) ** 2, axis=-1)
    if isinstance(cost, PowerRegulation):
        return np.sum(np.abs(u - cost.signal), axis=-1)
    if isinstance(cost, EnergyArbitrage):
        return np.sum(
            cost.p_buy * np.maximum(u, 0.0) + cost.p_sell * np.minimum(u, 0.0), axis=-1
        )
    if isinstance(cost, PowerSmoothing):
        return np.sum(np.abs(np.diff(cost.renewable - u, axis=-1)), axis=-1)
    if isinstance(cost, CustomCost):
        return np.array([float(cost.evaluator(row)) for row in u])
    raise TypeError(f"unknown cost spec {type(cost).__name__}")


def evaluate_power_cost(cost: CostSpec, u) -> float:
    """Cost of a single power profile, exactly as the family formula reads."""
    u = np.asarray(u, dtype=float)
    _check_cost_length(cost, u.shape[-1])
    return float(power_cost_batch(cost, u)[0])


def evaluate_energy_cost(
    cost: CostSpec, x, params: StorageParams, dyn: Dynamics
) -> float:
    """Cost of an energy profile: the power cost of energy_to_power(x)."""
    return evaluate_power_cost(cost, energy_to_power(x, params, dyn))


def energy_cost_batch(
    cost: CostSpec, profiles: np.ndarray, params: StorageParams, dyn: Dynamics
) -> np.ndarray:
    """Vectorized `evaluate_energy_cost` over rows of an (n, T) array."""
    return power_cost_batch(cost, energy_to_power(profiles, params, dyn))


def _power_subgradient(cost: CostSpec, u: np.ndarray) -> np.ndarray:
    """A subgradient of the family at u (deterministic kink choices)."""
    t = u.shape[0]
    if isinstance(cost, PeakShaving):
        residual = u + cost.load
        peak = int(np.argmax(np.abs(residual)))
        g = np.zeros(t)
        if abs(residual[peak]) > 0.0:
            g[peak] = 1.0 if residual[peak] > 0.0 else -1.0
        return g
    if isinstance(cost, LoadBalancing):
        return 2.0 * (u + cost.load)
    if isinstance(cost, PowerRegulation):
        return np.sign(u - cost.signal)
    if isinstance(cost, EnergyArbitrage):
        # charging-branch price at the kink, mirroring the v = 0 tie-break
        return np.where(u < 0.0, cost.p_sell, cost.p_buy)
    if isinstance(cost, PowerSmoothing):
        sigma = np.sign(np.diff(cost.renewable - u))
        g = np.zeros(t)
        g[1:] -= sigma
        g[:-1] += sigma
        return g
    if isinstance(cost, CustomCost):
        if cost.subgradient is None:
            raise NoSubgradientOracle(
                f"custom cost {cost.label!r} declared no subgradient oracle"
            )
        return np.asarray(cost.subgradient(u), dtype=float)
    raise TypeError(f"unknown cost spec {type(cost).__name__}")


def subgradient_energy_cost(
    cost: CostSpec, x, params: StorageParams, dyn: Dynamics
) -> np.ndarray:
    """Chain-rule subgradient of the energy-coordinate objective at x.

    With v = A^{-1}(x - b) the velocity and u the recovered power profile,
    returns A^{-T} D(v) g: g is a subgradient of the family at u, D is
    diagonal with 1/eta_c on charging coordinates (v_i >= 0, the kink
    included) and eta_d on discharging ones, and A^{-T} is the reversed
    first difference of the recursion (`velocity_adjoint`).  Valid
    subgradient of the composition whenever the certificate holds.
    """
    x = np.asarray(x, dtype=float)
    _check_cost_length(cost, params.horizon)
    v = velocity(x, params, dyn)
    u = inverse_loss_map(v, params)
    scale = np.where(v >= 0.0, 1.0 / params.eta_c, params.eta_d)
    return velocity_adjoint(scale * _power_subgradient(cost, u), dyn)


def _normalized_monotone_flags(cost: CustomCost, horizon: int) -> np.ndarray:
    flags = cost.nondecreasing_on_nonneg
    if isinstance(flags, bool):
        return np.full(horizon, flags)
    arr = np.asarray(flags, dtype=bool)
    if arr.shape != (horizon,):
        raise LengthMismatch(
            f"monotonicity declaration has shape {arr.shape}, expected ({horizon},)"
        )
    return arr


def certify_convexity(cost: CostSpec, params: StorageParams) -> ConvexityCertificate:
    """Sound convexity certificate for the energy-coordinate objective."""
    _check_cost_length(cost, params.horizon)
    lossless = params.eta_c == 1.0 and params.eta_d == 1.0

    if isinstance(cost, EnergyArbitrage):
        gap = (1.0 / params.eta_c) * cost.p_buy - params.eta_d * cost.p_sell
        failing = np.nonzero(gap < 0.0)[0]
        if failing.size == 0:
            return ConvexityCertificate(certified=True, rule="price_ratio")
        return ConvexityCertificate(
            certified=False, failing_indices=tuple(int(i) for i in failing)
        )

    if isinstance(cost, PowerSmoothing):
        # never certified; variation costs decrease when charging ramps down
        return ConvexityCertificate(certified=False)

    if lossless:
        return ConvexityCertificate(certified=True, rule="lossless")

    if isinstance(cost, (PeakShaving, LoadBalancing)):
        failing = np.nonzero(cost.load < 0.0)[0]
    elif isinstance(cost, PowerRegulation):
        failing = np.nonzero(cost.signal > 0.0)[0]
    elif isinstance(cost, CustomCost):
        failing = np.nonzero(~_normalized_monotone_flags(cost, params.horizon))[0]
    else:
        raise TypeError(f"unknown cost spec {type(cost).__name__}")

    if failing.size == 0:
        return ConvexityCertificate(certified=True, rule="nondecreasing")
    return ConvexityCertificate(
        certified=False, failing_indices=tuple(int(i) for i in failing)
    )


def midpoint_convexity_probe(
    cost: CostSpec,
    params: StorageParams,
    samples: int,
    seed: int,
    radius: Optional[float] = None,
) -> ProbeReport:
    """Randomized search for midpoint-convexity violations of the composition.

    Draws pairs x_a, x_b uniformly from a box of the given half-width around
    the zero-power offset b, mixes them with a uniform theta and flags any
    triple where the convexity inequality fails by more than PROBE_MARGIN.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    _check_cost_length(cost, params.horizon)
    dyn = build_dynamics(params)
    if radius is None:
        radius = 1.0 + abs(params.x0)
    rng = np.random.default_rng(seed)
    lo = dyn.b_offset - radius
    hi = dyn.b_offset + radius

    x_a = rng.uniform(lo, hi, size=(samples, params.horizon))
    x_b = rng.uniform(lo, hi, size=(samples, params.horizon))
    theta = rng.uniform(size=(samples, 1))
    mid = theta * x_a + (1.0 - theta) * x_b

    f_a = energy_cost_batch(cost, x_a, params, dyn)
    f_b = energy_cost_batch(cost, x_b, params, dyn)
    f_mid = energy_cost_batch(cost, mid, params, dyn)

    margin = f_mid - (theta[:, 0] * f_a + (1.0 - theta[:, 0]) * f_b)
    violating = margin > PROBE_MARGIN
    worst = int(np.argmax(margin))
    return ProbeReport(
        samples=samples,
        violations=int(np.count_nonzero(violating)),
        worst_margin=float(margin[worst]),
        worst_triple=(x_a[worst], x_b[worst], float(theta[worst, 0]))
        if violating.any()
        else None,
    )


def instance_digest(params: StorageParams, bounds: Bounds, cost: CostSpec) -> str:
    """Short stable hash of (params, bounds, cost family + vectors).

    Used to refuse apples-to-oranges comparisons between a solver run and an
    oracle run.  Custom costs hash by label and declaration only.
    """
    parts = [
        f"{params.eta_c:.17g}",
        f"{params.eta_d:.17g}",
        f"{params.lam:.17g}",
        f"{params.delta:.17g}",
        f"{params.x0:.17g}",
        str(params.horizon),
    ]
    for name in ("u_max", "u_min_mag", "x_max", "x_min"):
        parts.append(name)
        parts.extend(f"{v:.17g}" for v in getattr(bounds, name))
    if isinstance(cost, CustomCost):
        parts.append(f"custom:{cost.label}:{cost.nondecreasing_on_nonneg!r}")
    else:
        parts.append(FAMILY_TAGS[type(cost)])
        for name, vec in _family_vectors(cost).items():
            parts.append(name)
            parts.extend(f"{v:.17g}" for v in vec)
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]
