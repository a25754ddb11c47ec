"""Cost families, their subgradients, and convexity certification.

Five built-in cost families plus a custom hook.  Each family evaluates in
power coordinates; the energy-coordinate objective is the composition with
`energy_to_power`.  Each family class declares its terms (or batch map),
value and subgradient at one profile (`value_and_subgradient`), Lipschitz
constant, certificate rule and, if the chain's step-cost pass solves it
exactly, step terms; `_Family` holds the defaults.
Certification is sound but not complete: a Certified verdict guarantees the
composed objective is convex, NotCertified guarantees nothing either way.

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

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import LengthMismatch, NoSubgradientOracle, ValidationError
from .model import Bounds, Dynamics, StorageParams, _check_count, build_dynamics
from .transform import _adjoint_in_place, energy_to_power, velocity

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
    "subgradient_energy_cost",
    "certify_convexity",
    "midpoint_convexity_probe",
    "instance_digest",
]

#: Slack added to the midpoint inequality before calling something a violation.
PROBE_MARGIN = 1e-7
#: Most float64 values (rows x periods) one block of the probe's maps holds.
_PROBE_BLOCK = 1 << 15


class _Family:
    """The defaults of every cost family.  A sum or max over periods sets
    `fold` (np.add or np.maximum) and `terms`; any other overrides `batch`.
    Each family declares `value_and_subgradient(u)`: at the power profile
    u, the cost (bit for bit `batch`'s) and a subgradient (deterministic kink
    choices), from one residual.  Unless it overrides `certify`, each also
    declares `decreasing(params)`: where it may decrease on [0, inf)."""

    fold = None

    def batch(self, u: np.ndarray) -> np.ndarray:
        """Cost of each row of an (n, T) array of power profiles."""
        return self.fold.reduce(self.terms(u), axis=-1)

    def lipschitz(self, lo: np.ndarray, hi: np.ndarray) -> Optional[float]:
        """Lipschitz constant w.r.t. the max norm over the power box [lo, hi];
        None when unknown."""
        return None

    def certify(self, params: StorageParams) -> ConvexityCertificate:
        """The lossless rule, then the nondecreasing rule, which the periods
        of `decreasing(params)` fail."""
        if params.eta_c == 1.0 and params.eta_d == 1.0:
            return ConvexityCertificate(certified=True, rule="lossless")
        return _verdict("nondecreasing", self.decreasing(params))

    def step_terms(self, params: StorageParams) -> Optional[tuple[list, ...]]:
        """The terms (below, above, below_curve, above_curve) of the cost in
        the energy steps, for a certified family the chain's step-cost pass
        solves exactly; None otherwise."""
        return None


class _VectorFamily(_Family):
    """Shared constructor of the built-in families: each field becomes a
    float array, and every entry must be finite."""

    def __post_init__(self):
        for field in dataclasses.fields(self):
            vec = np.asarray(getattr(self, field.name), dtype=float)
            bad = np.flatnonzero(~np.isfinite(vec))
            if bad.size:
                i = int(bad[0])
                raise ValidationError(
                    f"{field.name}[{i}] must be finite, got {float(vec.flat[i])}"
                )
            object.__setattr__(self, field.name, vec)


@dataclass(frozen=True, eq=False)
class PeakShaving(_VectorFamily):
    """max_t |u_t + load_t|: worst absolute net draw against a fixed load."""

    load: np.ndarray

    fold = np.maximum

    def terms(self, u):
        return np.abs(u + self.load)

    def value_and_subgradient(self, u):
        residual = u + self.load
        size = np.abs(residual)
        peak = int(size.argmax())
        g = np.zeros(u.shape[0])
        if size[peak] > 0.0:
            g[peak] = 1.0 if residual[peak] > 0.0 else -1.0
        return float(size[peak]), g

    def lipschitz(self, lo, hi):
        return 1.0

    def decreasing(self, params):
        return self.load < 0.0


@dataclass(frozen=True, eq=False)
class LoadBalancing(_VectorFamily):
    """sum_t (u_t + load_t)^2: quadratic penalty on net draw."""

    load: np.ndarray

    fold = np.add

    def terms(self, u):
        return (u + self.load) ** 2

    def value_and_subgradient(self, u):
        residual = u + self.load
        return float(np.add.reduce(residual**2)), 2.0 * residual

    def lipschitz(self, lo, hi):
        return float(np.sum(2.0 * np.maximum(np.abs(lo + self.load), np.abs(hi + self.load))))

    def decreasing(self, params):
        return self.load < 0.0

    def step_terms(self, params):
        """The terms of each period's load-balancing cost in the energy step
        s_t = x_t - lam * x_{t-1} = delta * v_t, as lists: (below, above,
        below_curve, above_curve), the slopes and the curvatures below and
        above its kink at 0.

        The cost (f_inv(s / delta) + load)^2 is (s / (eta_c * delta) + load)^2
        for s >= 0 and (eta_d * s / delta + load)^2 below.  Less its value at
        0 and multiplied by eta_c * delta, as `EnergyArbitrage.step_terms`
        does, that is 2 * load * s + s^2 / (eta_c * delta) above and 2 *
        eta_c * eta_d * load * s + eta_c * eta_d^2 * s^2 / delta below.  The
        kink is convex (below <= above) when the load is nonnegative or the
        storage lossless; the lower slope is capped at the upper one, which
        it can pass only by rounding."""
        eta_c, eta_d, delta = params.eta_c, params.eta_d, params.delta
        above = 2.0 * self.load
        below = np.minimum((eta_c * eta_d) * above, above)
        below_curve = [2.0 * eta_c * eta_d * eta_d / delta] * params.horizon
        above_curve = [2.0 / eta_c / delta] * params.horizon
        return below.tolist(), above.tolist(), below_curve, above_curve


@dataclass(frozen=True, eq=False)
class PowerRegulation(_VectorFamily):
    """sum_t |u_t - signal_t|: tracking error against a regulation signal."""

    signal: np.ndarray

    fold = np.add

    def terms(self, u):
        return np.abs(u - self.signal)

    def value_and_subgradient(self, u):
        residual = u - self.signal
        return float(np.add.reduce(np.abs(residual))), np.sign(residual)

    def lipschitz(self, lo, hi):
        return float(lo.shape[0])

    def decreasing(self, params):
        return self.signal > 0.0


@dataclass(frozen=True, eq=False)
class EnergyArbitrage(_VectorFamily):
    """sum_t p_buy_t u_t+ + p_sell_t u_t-: buy when charging, sell when not."""

    p_buy: np.ndarray
    p_sell: np.ndarray

    fold = np.add

    def terms(self, u):
        return self.p_buy * np.maximum(u, 0.0) + self.p_sell * np.minimum(u, 0.0)

    def value_and_subgradient(self, u):
        # charging-branch price at the kink, mirroring the v = 0 tie-break
        return float(np.add.reduce(self.terms(u))), np.where(u < 0.0, self.p_sell, self.p_buy)

    def lipschitz(self, lo, hi):
        return float(np.sum(np.maximum(np.abs(self.p_buy), np.abs(self.p_sell))))

    def certify(self, params):
        """The price-ratio rule alone."""
        # a price near the float limit may overflow the first term to +-inf,
        # which is then right about the sign: eta_d * p_sell cannot overflow
        with np.errstate(over="ignore"):
            gap = (1.0 / params.eta_c) * self.p_buy - params.eta_d * self.p_sell
        return _verdict("price_ratio", gap < 0.0)

    def step_terms(self, params):
        """The terms of each period's arbitrage cost in the energy step
        s_t = x_t - lam * x_{t-1} = delta * v_t, as lists: (below, above,
        below_curve, above_curve), the slopes and the curvatures (all 0) below
        and above its kink at 0.

        The slopes are eta_d * p_sell / delta and p_buy / (eta_c * delta), both
        multiplied by the positive constant eta_c * delta, which moves no
        minimizer and keeps them finite: eta_c * eta_d * p_sell and p_buy.  The
        price-ratio rule is "below <= above"; the lower slope is capped at the
        upper one, which it can pass only by rounding."""
        above = self.p_buy
        below = np.minimum((params.eta_c * params.eta_d) * self.p_sell, above)
        flat = [0.0] * params.horizon
        return below.tolist(), above.tolist(), flat, flat


@dataclass(frozen=True, eq=False)
class PowerSmoothing(_VectorFamily):
    """sum_{t>=1} |(s_t - u_t) - (s_{t-1} - u_{t-1})|: net-output variation."""

    renewable: np.ndarray

    def batch(self, u):
        return np.sum(np.abs(np.diff(self.renewable - u, axis=-1)), axis=-1)

    def value_and_subgradient(self, u):
        net = self.renewable - u
        steps = net[1:] - net[:-1]
        sigma = np.zeros(u.shape[0] + 1)  # each step's sign, 0 beyond both ends
        np.sign(steps, out=sigma[1:-1])
        return float(np.sum(np.abs(steps))), sigma[1:] - sigma[:-1]

    def lipschitz(self, lo, hi):
        return 2.0 * (lo.shape[0] - 1)

    def certify(self, params):
        """Never certified."""
        # variation costs decrease when charging ramps down
        return ConvexityCertificate(certified=False)


@dataclass(frozen=True)
class CustomCost(_Family):
    """Black-box convex cost of the power profile.

    The evaluator must be convex (that is the caller's contract).  To be
    certifiable it must additionally be declared coordinate-wise
    nondecreasing on [0, inf), either globally (a bool or numpy bool) or
    per coordinate; monotonicity is never inferred from samples, because
    sampling can only falsify.  A subgradient oracle is required for
    solving, not for evaluation.
    """

    evaluator: Callable[[np.ndarray], float]
    subgradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    nondecreasing_on_nonneg: Union[bool, Sequence[bool]] = False
    label: str = "custom"

    def batch(self, u):
        return np.array([float(self.evaluator(row)) for row in u])

    def value_and_subgradient(self, u):
        value = float(self.evaluator(u))
        if self.subgradient is None:
            raise NoSubgradientOracle(f"custom cost {self.label!r} declared no subgradient oracle")
        return value, np.asarray(self.subgradient(u), dtype=float)

    def decreasing(self, params):
        flags = self.nondecreasing_on_nonneg
        if isinstance(flags, (bool, np.bool_)):
            return np.full(params.horizon, not flags)
        arr = np.asarray(flags, dtype=bool)
        if arr.shape != (params.horizon,):
            raise LengthMismatch(
                f"monotonicity declaration has shape {arr.shape}, expected ({params.horizon},)"
            )
        return ~arr


CostSpec = Union[
    PeakShaving, LoadBalancing, PowerRegulation, EnergyArbitrage, PowerSmoothing, CustomCost
]

#: The built-in families by scenario tag; their dataclass fields are the
#: scenario's cost fields.
FAMILIES = {
    "peak_shaving": PeakShaving,
    "load_balancing": LoadBalancing,
    "power_regulation": PowerRegulation,
    "energy_arbitrage": EnergyArbitrage,
    "power_smoothing": PowerSmoothing,
}
FAMILY_TAGS = {cls: tag for tag, cls in FAMILIES.items()}
# looked up once here: every cost pass of the descent checks their lengths
_FAMILY_FIELDS = {
    cls: tuple(field.name for field in dataclasses.fields(cls)) for cls in FAMILIES.values()
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


def _verdict(rule: str, failing: np.ndarray) -> ConvexityCertificate:
    """Certified by `rule` when no period fails it, else the failing periods."""
    if not failing.any():
        return ConvexityCertificate(certified=True, rule=rule)
    failing_indices = tuple(np.flatnonzero(failing).tolist())
    return ConvexityCertificate(certified=False, failing_indices=failing_indices)


def _check_cost_length(cost: CostSpec, horizon: int) -> None:
    for name in _FAMILY_FIELDS.get(type(cost), ()):
        shape = getattr(cost, name).shape
        if shape != (horizon,):
            raise LengthMismatch(f"{name} has shape {shape}, expected ({horizon},)")


def power_cost_batch(cost: CostSpec, profiles: np.ndarray) -> np.ndarray:
    """Cost of each row of an (n, T) array of power profiles."""
    return cost.batch(np.atleast_2d(np.asarray(profiles, dtype=float)))


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


def subgradient_energy_cost(
    cost: CostSpec, x, params: StorageParams, dyn: Dynamics, rescale: bool = False
) -> tuple[float, np.ndarray]:
    """The energy-coordinate objective at x and a chain-rule subgradient
    there, as (value, subgradient), from one `value_and_subgradient` call.

    The value is `evaluate_energy_cost`'s, bit for bit.  With v =
    A^{-1}(x - b) the velocity and u the recovered power profile, the
    subgradient is A^{-T} D(v) g: g is a subgradient of the family at u, D
    is diagonal with 1/eta_c on charging coordinates (v_i >= 0, the kink
    included) and eta_d on discharging ones, and A^{-T} is the reversed
    first difference of the recursion (`velocity_adjoint`).  D's diagonal
    gives u = D v + 0.0 (`inverse_loss_map(v)` bit for bit, since the + 0.0
    turns -0.0 into +0.0) and, in place, D g.  Valid
    subgradient of the composition whenever the certificate holds.  With
    rescale, g is first divided by its largest magnitude, which keeps the
    direction and keeps the product finite for costs near the float limit.
    """
    _check_cost_length(cost, params.horizon)
    return _cost_pass(cost, velocity(x, dyn), params, dyn, rescale)


def _cost_pass(cost: CostSpec, v: np.ndarray, params, dyn, rescale=False) -> tuple:
    """`subgradient_energy_cost` at the profile of velocity v, unchecked."""
    slope = np.where(v >= 0.0, 1.0 / params.eta_c, params.eta_d)
    u = slope * v
    u += 0.0  # -0.0 becomes +0.0, as in inverse_loss_map's sum of a max and a min
    value, g = cost.value_and_subgradient(u)
    if rescale:
        g = g / np.max(np.abs(g))
    slope *= g
    return value, _adjoint_in_place(slope, dyn)


def certify_convexity(cost: CostSpec, params: StorageParams) -> ConvexityCertificate:
    """Sound convexity certificate for the energy-coordinate objective."""
    _check_cost_length(cost, params.horizon)
    return cost.certify(params)


def midpoint_convexity_probe(
    cost: CostSpec,
    params: StorageParams,
    samples: int,
    seed: Optional[int],
) -> ProbeReport:
    """Randomized search for midpoint-convexity violations of the composition.

    Draws pairs x_a, x_b uniformly from a box of half-width 1 + |x0| around
    the zero-power offset b, mixes them with a uniform theta and flags any
    triple where the convexity inequality fails by more than PROBE_MARGIN.
    The stream is `default_rng(seed)`'s doubles: x_a is the first
    samples * T of them, row by row, x_b the next samples * T and theta the
    samples after those.  Each part is read from its own copy of the
    stream, advanced to the part's first double, in blocks of rows small
    enough to stay in cache, so the probe holds one block and the margin
    (8 bytes per sample), never the whole draw; the blocks change no bit of
    the report.  seed=None draws fresh entropy once, for all three
    parts; a Generator or BitGenerator, whose stream the probe would use
    up, raises ValidationError.  samples must be an integer of at least 1;
    a box beyond the float range, or a cost that is not finite at a sampled
    profile, raises ValidationError.
    """
    _check_count(samples, "samples", 1)
    _check_cost_length(cost, params.horizon)
    if isinstance(seed, (np.random.Generator, np.random.BitGenerator)):
        raise ValidationError(
            f"seed must be None, an integer or a SeedSequence, not a {type(seed).__name__}"
        )
    dyn = build_dynamics(params)
    radius = 1.0 + abs(params.x0)
    with np.errstate(over="ignore", invalid="ignore"):
        lo = dyn.b_offset - radius
        span = (dyn.b_offset + radius) - lo
    if not np.all(np.isfinite(span)):
        raise ValidationError(
            f"the probe box b +- (1 + |x0|) is not finite for x0 = {params.x0!r}"
        )

    samples = int(samples)  # PCG64.advance overflows on a numpy integer
    n = samples * params.horizon
    origin = np.random.default_rng(seed).bit_generator.state

    def stream(offset: int) -> np.random.Generator:
        """The probe's stream from its offset-th double on."""
        bits = np.random.PCG64()
        bits.state = origin
        return np.random.Generator(bits.advance(offset))

    def box(draws: np.ndarray) -> np.ndarray:
        # uniform(lo, hi) draws lo + (hi - lo) * random(), bit for bit
        draws *= span
        draws += lo
        return draws

    # on a period-major (Fortran-order) block, the scaling, the mixture and
    # every map step along rows of profiles, and the sum over the periods
    # folds whole columns in period order.  A lone row is contiguous, which
    # np.sum adds pairwise from 8 periods on, so no block is one row unless
    # samples is.
    rows = max(2, _PROBE_BLOCK // params.horizon)
    cuts = [0, *range(rows, samples - 1, rows), samples]
    parts = stream(0), stream(n), stream(2 * n)
    margin = np.empty(samples)
    # a cost that overflows or is NaN is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop in zip(cuts, cuts[1:]):
            x_a, x_b = (
                box(np.asfortranarray(part.random((stop - start, params.horizon))))
                for part in parts[:2]
            )
            w = parts[2].random((stop - start, 1))
            mid = w * x_a + (1.0 - w) * x_b
            f_a, f_b, f_mid = (
                power_cost_batch(cost, energy_to_power(x, params, dyn)) for x in (x_a, x_b, mid)
            )
            finite = np.isfinite(f_a) & np.isfinite(f_b) & np.isfinite(f_mid)
            if not finite.all():
                i = int(np.argmin(finite))
                values = ", ".join(str(float(f[i])) for f in (f_a, f_b, f_mid))
                raise ValidationError(
                    f"the cost is not finite at probe sample {start + i}: "
                    f"f(x_a), f(x_b), f(mid) = {values}"
                )
            margin[start:stop] = f_mid - (w[:, 0] * f_a + (1.0 - w[:, 0]) * f_b)

    violating = margin > PROBE_MARGIN
    worst = int(np.argmax(margin))
    return ProbeReport(
        samples=samples,
        violations=int(np.count_nonzero(violating)),
        worst_margin=float(margin[worst]),
        worst_triple=(
            box(stream(worst * params.horizon).random(params.horizon)),
            box(stream(n + worst * params.horizon).random(params.horizon)),
            stream(2 * n + worst).random(),
        )
        if violating.any()
        else None,
    )


def instance_digest(params: StorageParams, bounds: Bounds, cost: CostSpec) -> str:
    """Short stable hash of (params, bounds, cost family + vectors).

    Used to refuse apples-to-oranges comparisons between a solver run and an
    oracle run.  SHA-256 of, in order: eta_c, eta_d, lam, delta and x0, the
    horizon, each bound's name and entries, then the family tag and each
    field's name and entries, with "|" before each name, tag and the horizon;
    every float goes in as its little-endian float64 bytes, so -0.0 and 0.0
    differ and an int hashes as the float it equals.  Custom costs hash by
    label and declaration only.  Digests differ from those of versions that
    hashed 17-digit text.
    """
    digest = hashlib.sha256()

    def add(text: str, values=()) -> None:
        digest.update(text.encode() + np.asarray(values, "<f8").tobytes())

    add("", [params.eta_c, params.eta_d, params.lam, params.delta, params.x0])
    add(f"|{params.horizon}")
    for name in ("u_max", "u_min_mag", "x_max", "x_min"):
        add(f"|{name}|", getattr(bounds, name))
    if isinstance(cost, CustomCost):
        add(f"|custom:{cost.label}:{cost.nondecreasing_on_nonneg!r}")
    else:
        add(f"|{FAMILY_TAGS[type(cost)]}")
        for name in _FAMILY_FIELDS[type(cost)]:
            add(f"|{name}|", getattr(cost, name))
    return digest.hexdigest()[:16]
