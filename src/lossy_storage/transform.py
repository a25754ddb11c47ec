"""Power/energy change of variables and the two feasible sets.

The per-period loss map f(u) = eta_c * u+ + (1/eta_d) * u- converts signed
power into an effective energy rate; it is concave, strictly increasing and
invertible because 0 < eta_c <= 1/eta_d.  Composing with the dynamics gives
the bijection

    power_to_energy(u) = A f(u) + b             (concave per component)
    energy_to_power(x) = f_inv(A^{-1} (x - b))  (convex per component)

A is never formed: this module alone applies A, A^{-1} and A^{-T} as O(T)
recurrences (`power_to_energy`, `velocity`, `velocity_adjoint`).  A and
A^{-1} round by one rule, `model.step`'s: x_t = fl(fl(lam * x_{t-1}) +
delta * f(u_t)), the first period stepping from the held energy b_0 =
fl(lam * x0).  `power_to_energy` takes those steps, so it is `simulate` bit
for bit; `velocity` undoes each, (x_t - fl(lam * x_{t-1})) / delta, so b has
velocity exactly 0; and the chain passes below step the same way.

The set of feasible power profiles

    U = { u in the power box : x_min <= power_to_energy(u) <= x_max }

is generally nonconvex for lossy storage, while its image under the map is
the convex polytope

    X = { x : x_min <= x <= x_max,
              -(1/eta_d) u_min_mag <= A^{-1}(x - b) <= eta_c u_max }.

`find_nonconvexity_witness` builds a certificate of the former fact: two
members of U, both on one energy cap, whose mixture rises above that cap.

X is a chain: each x_t lies in the energy box, and each step
x_t - lam * x_{t-1} in delta times the velocity box (x_{-1} the initial
energy).  One forward sweep of reachable energy intervals per polytope
decides emptiness, naming the first empty period, and bounds the witness
pairs.  Dynamic programs over the periods minimize over X exactly, each in
one backward and one forward pass: `project_onto_polytope` a quadratic pull
toward a target, with free steps, over the window its broken steps reach,
and `_chain_argmin` a convex cost of each step with one kink at 0, linear
or quadratic on each side, which is the solver's exact pass for arbitrage
(linear step costs) and load balancing (quadratic ones).

Each set is two boxes, listed once (`_power_boxes`, `_energy_boxes`), and
its verdict and mask share one membership rule: every value lies within
MEMBERSHIP_TOL of each face, lower - tol <= value <= upper + tol, and NaN
is never inside.

All maps accept a single profile (shape (T,)) or a batch of profiles stacked
as rows (shape (n, T)).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterator, Optional

import numpy as np

from .errors import InfeasibleProblem, LengthMismatch
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
    "project_onto_polytope",
    "in_energy_polytope",
    "energy_membership_mask",
    "find_nonconvexity_witness",
]

#: Absolute per-constraint tolerance for membership tests.
MEMBERSHIP_TOL = 1e-9

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
    the velocity coordinate v = A^{-1}(x - b).

    What the chain sweeps need beyond the arrays, the step box, the boxes as
    float lists and the forward sweep of reachable energies, is computed the
    first time it is read and kept for the life of the polytope."""

    v_lower: np.ndarray
    v_upper: np.ndarray
    x_lower: np.ndarray
    x_upper: np.ndarray
    dynamics: Dynamics

    @cached_property
    def steps(self) -> tuple[np.ndarray, np.ndarray]:
        """(step_lower, step_upper): the box of each step x_t - lam * x_{t-1},
        which is delta times the velocity box."""
        return self.dynamics.delta * self.v_lower, self.dynamics.delta * self.v_upper

    @cached_property
    def chain(self) -> tuple[list, list, list, list]:
        """(x_lower, x_upper, step_lower, step_upper) as float lists: the
        energy box and the step box."""
        step_lower, step_upper = self.steps
        return self.x_lower.tolist(), self.x_upper.tolist(), step_lower.tolist(), step_upper.tolist()

    @cached_property
    def _reach(self) -> tuple[list, list, Optional[tuple[str, int]]]:
        """The forward sweep of reachable energy intervals: per period, up to
        the first that misses its energy box by more than MEMBERSHIP_TOL,
        the lowest and highest reachable energy in the box; and (message,
        period) for that period, or None.  Closer misses are bridged at the
        midpoint of the gap, and leave that period's low above its high."""
        x_lower, x_upper, step_lower, step_upper = self.chain
        lam = self.dynamics.lam
        lows, highs = [], []
        low = high = float(self.dynamics.b_offset[0])  # lam * x0
        for t in range(len(x_lower)):
            reach_low, reach_high = low + step_lower[t], high + step_upper[t]
            low, high = max(reach_low, x_lower[t]), min(reach_high, x_upper[t])
            lows.append(low)
            highs.append(high)
            if low - high > MEMBERSHIP_TOL:
                return lows, highs, (
                    f"no feasible energy in period {t}: the reachable energies "
                    f"[{reach_low:.9g}, {reach_high:.9g}] miss the energy box "
                    f"[{x_lower[t]:.9g}, {x_upper[t]:.9g}] by {low - high:.3g}",
                    t,
                )
            if low > high:
                low = high = 0.5 * (low + high)
            low, high = lam * low, lam * high
        return lows, highs, None


def _clip_knots(xs: list, ds: list, lower: float, upper: float) -> tuple:
    """The backward head of both chain passes: the cost-to-go's derivative,
    linear between its knots (xs, ds), restricted to where its range meets
    the energy box [lower, upper].  Returns the knots and that range (low,
    high).  A miss, which the forward sweep bridged, is bridged at its
    midpoint by one knot.  An end on a knot keeps that knot's value, which
    interpolating from a far steeper neighbour can cancel."""
    low, high = max(xs[0], lower), min(xs[-1], upper)
    if low > high:
        low = high = 0.5 * (low + high)
        return [low], [0.0], low, high
    if low > xs[0]:
        i = bisect_left(xs, low)  # xs[i - 1] < low <= xs[i]
        if xs[i] == low:
            xs, ds = xs[i:], ds[i:]
        else:
            d = ds[i - 1] + (ds[i] - ds[i - 1]) * (low - xs[i - 1]) / (xs[i] - xs[i - 1])
            xs, ds = [low] + xs[i:], [d] + ds[i:]
    if high < xs[-1]:
        j = bisect_right(xs, high)  # xs[j - 1] <= high < xs[j]
        if xs[j - 1] == high:
            xs, ds = xs[:j], ds[:j]
        else:
            d = ds[j - 1] + (ds[j] - ds[j - 1]) * (high - xs[j - 1]) / (xs[j] - xs[j - 1])
            xs, ds = xs[:j] + [high], ds[:j] + [d]
    return xs, ds, low, high


def _crossing(xs: list, ds: list, k: int, level: float) -> float:
    """Where the piecewise-linear function through (xs, ds) reaches `level`,
    given k = bisect_left(ds, level): an end when it stays on one side.  A
    level on a knot's value takes that knot's abscissa, which interpolating
    from a far knot can miss by its rounding."""
    if k == len(xs):
        return xs[-1]
    if k == 0 or ds[k] == level:
        return xs[k]
    return xs[k - 1] + (level - ds[k - 1]) * (xs[k] - xs[k - 1]) / (ds[k] - ds[k - 1])


def _recovered(
    target: float, previous: float, low: float, high: float, a: float, c: float
) -> float:
    """The recovery rule of both chain passes: the target energy clipped into
    the period's energy range [low, high], then into the step box [previous
    + a, previous + c] reachable from previous = lam * x_{t-1}.  So the step
    box wins, and a gap the forward sweep bridged is left on the energy box."""
    return min(max(min(max(target, low), high), previous + a), previous + c)


def _band_step(band: tuple, p: float) -> float:
    """The step that a period's (p, step) map gives p, held at its ends."""
    ps, steps = band
    return _crossing(steps, ps, bisect_left(ps, p), p)


def _curved_step(
    xs: list, ds: list, up: float, down: float, qb: float, qa: float, a: float, c: float,
    lam: float,
) -> tuple:
    """One backward step of `_chain_argmin` through a curved step cost: slope
    -up and curvature qa above its kink, -down and qb below, step box [a, c].

    Seen from the previous period, p = lam * x_{t-1} reaches x_t by the
    step s(d) with phi_t'(s) = -d, d the derivative at x_t: the highest step
    c below the level up - qa * c, the lowest step a above down - qb * a, no
    step between up and down, and a step linear in d in the two bands left.
    So each knot moves to p = x - s(d), and four more mark the levels.  With
    no curvature the bands are empty, and when up == down they meet in one
    knot on a single flat, of which only the two ends are kept.  Returns
    the map from p to its step, both bands and the flat between them, for
    the recovery, and the knots of the derivative over x_{t-1} = p / lam.
    """
    # A band whose step box is empty ends at its kink level, since its
    # curvature can overflow to inf and inf * 0 is NaN; a band end beyond
    # the float range takes the derivative's own end, so that no knot
    # carries an infinite derivative.
    first = up - qa * c if c else up
    last = down - qb * a if a else down
    levels = (
        first if first > -math.inf else min(ds[0], up),
        up,
        down,
        last if last < math.inf else max(ds[-1], down),
    )
    cuts, ends = [0], []
    for level in levels:
        cuts.append(bisect_left(ds, level, cuts[-1]))
        ends.append(_crossing(xs, ds, cuts[-1], level))
    _, k1, k2, k3, k4 = cuts
    e1, e2, e3, e4 = ends
    rising = [(up - d) / qa for d in ds[k1:k2]]  # steps in (0, c]
    falling = [(down - d) / qb for d in ds[k3:k4]]  # steps in (a, 0]
    band_up = [e1 - c] + [z - s for z, s in zip(xs[k1:k2], rising)] + [e2]
    band_down = [e3] + [z - s for z, s in zip(xs[k3:k4], falling)] + [e4 - a]
    middle = band_up + xs[k2:k3] + band_down
    middle_ds = [levels[0]] + ds[k1:k2] + [up] + ds[k2:k3] + [down] + ds[k3:k4] + [levels[3]]
    if up == down and not (qa or qb):
        del middle[1:3], middle_ds[1:3]
    xs = (
        [(z - c) / lam for z in xs[:k1]]
        + [p / lam for p in middle]
        + [(z - a) / lam for z in xs[k4:]]
    )
    ds = ds[:k1] + middle_ds + ds[k4:]
    # both bands' steps, whose ends c + 0.0 and a + 0.0 round as their sum
    steps = [c + 0.0] + rising + [0.0, 0.0] + falling + [a + 0.0]
    return (band_up + band_down, steps), xs, ds


def _chain_argmin(
    polytope: EnergyPolytope, below: list, above: list, below_curve: list, above_curve: list
) -> list:
    """The member of the polytope that minimizes

        sum_t phi_t(x_t - lam * x_{t-1}),

    as a list, phi_t the convex cost of the step s, piecewise quadratic
    with its kink at 0:

        phi_t(s) = above[t] * s + above_curve[t] * s^2 / 2   for s >= 0,
                   below[t] * s + below_curve[t] * s^2 / 2   for s < 0,

    with below[t] <= above[t] and both curvatures >= 0 (0 for a linear side).

    A dynamic program over the periods, as for the fused lasso (Johnson,
    JCGS 2013): a backward pass over the piecewise-linear derivative of each
    cost-to-go, then a forward recovery.  Each backward step is an infimal
    convolution with phi_t (Rockafellar, Convex Analysis, section 5) which,
    as for piecewise-quadratic costs (Hochbaum & Lu, SIAM J. Optim. 2017),
    moves each knot (x, d) to (x - s(d), d), where s(d) is the step with
    phi_t'(s) = -d, clipped to the step box; a linear side leaves a flat.
    The recovery adds the step that a period's step map gives p = lam *
    x_{t-1} to p, and clips it into the period's energy range, then into
    the step box reachable from p, which wins.  O(T * k) time, k the
    number of knots alive in the cost-to-go.

    Raises InfeasibleProblem naming the first period that no energy
    reachable from the earlier periods can meet (the forward sweep's
    verdict, taken once per polytope).  A closer miss is left on the
    energy box, by at most the gap.
    """
    empty = polytope._reach[2]
    if empty is not None:  # a fresh error on every call
        raise InfeasibleProblem(*empty)

    lam = polytope.dynamics.lam
    x_lower, x_upper, step_lower, step_upper = polytope.chain
    horizon = len(x_lower)

    # Backward pass over the cost-to-go of each period.  (xs, ds) are the
    # knots of its derivative, linear between knots, with a repeated
    # abscissa for a jump; xs[0] and xs[-1] bound the energies from which
    # the later periods stay feasible.  Running backward lets the recovery
    # below multiply by lam; recovering backward would divide by it and
    # amplify rounding by 1/lam per binding step.  Each period leaves its
    # plan for the recovery: its step map and its energy range.
    plan = [None] * horizon
    start = float(polytope.dynamics.b_offset[0])  # lam * x0
    xs, ds = [x_lower[-1], x_upper[-1]], [0.0, 0.0]
    for t in range(horizon - 1, -1, -1):
        xs, ds, low, high = _clip_knots(xs, ds, x_lower[t], x_upper[t])
        # Only steps from lam times the previous energy box matter, and a
        # band end far beyond them would cost every interpolation on its
        # segment its precision, so the step box is capped there.
        p_low, p_high = (lam * x_lower[t - 1], lam * x_upper[t - 1]) if t else (start, start)
        a = max(step_lower[t], min(0.0, xs[0] - p_high))
        c = min(step_upper[t], max(0.0, xs[-1] - p_low))
        band, xs, ds = _curved_step(
            xs, ds, -above[t], -below[t], below_curve[t], above_curve[t], a, c, lam
        )
        plan[t] = band, low, high
        ds = [lam * d for d in ds]

    # Recovery: each period takes the step its map gives p = lam *
    # x_{t-1}; b is built by the same product, so a hold from b stays on b.
    out, previous = [0.0] * horizon, start
    for t in range(horizon):
        band, low, high = plan[t]
        step = _band_step(band, previous)
        out[t] = _recovered(previous + step, previous, low, high, step_lower[t], step_upper[t])
        previous = lam * out[t]
    return out


def _pull_pass(polytope: EnergyPolytope, y: list, lo: int, hi: int, start: float) -> list:
    """The projection's chain pass: as a list, the energies x_lo..x_hi that
    minimize sum_t (x_t - y_t)^2 / 2 from the held energy start = lam *
    x_{lo-1}, with a free end at hi."""
    # Backward pass as in `_chain_argmin`, with the pull's derivative
    # x - y_t added to each cost-to-go and no step cost.  Seen from period
    # t - 1, knots left of the crossing are reached by the highest step and
    # those right of it by the lowest, with a flat at 0 between.
    lam = polytope.dynamics.lam
    x_lower, x_upper, step_lower, step_upper = polytope.chain
    plan = [None] * (hi + 1 - lo)
    xs = [x_lower[hi], x_upper[hi]]
    ds = [xs[0] - y[hi], xs[1] - y[hi]]
    for t in range(hi, lo - 1, -1):
        xs, ds, low, high = _clip_knots(xs, ds, x_lower[t], x_upper[t])
        k = bisect_left(ds, 0.0)
        zero = _crossing(xs, ds, k, 0.0)
        plan[t - lo] = zero, low, high
        if t > lo:
            a, c, y_prev = step_lower[t], step_upper[t], y[t - 1]
            xs = (
                [(z - c) / lam for z in xs[:k]]
                + [(zero - c) / lam, (zero - a) / lam]
                + [(z - a) / lam for z in xs[k:]]
            )
            ds = [lam * d + z - y_prev for z, d in zip(xs, ds[:k] + [0.0, 0.0] + ds[k:])]

    # Recovery: each period moves toward its crossing.
    out, previous = [0.0] * len(plan), start
    for t, (zero, low, high) in enumerate(plan, lo):
        out[t - lo] = _recovered(zero, previous, low, high, step_lower[t], step_upper[t])
        previous = lam * out[t - lo]
    return out


def _clip_held(x: np.ndarray, polytope: EnergyPolytope) -> tuple:
    """The fast path of `project_onto_polytope`: x clipped onto the energy
    box, the clip's held energies (`_held`) and which of its steps fit."""
    clipped = np.minimum(np.maximum(x, polytope.x_lower), polytope.x_upper)
    held = _held(clipped, polytope.dynamics)
    step_lower, step_upper = polytope.steps
    return clipped, held, (held + step_lower <= clipped) & (clipped <= held + step_upper)


def project_onto_polytope(x, polytope: EnergyPolytope) -> np.ndarray:
    """Exact Euclidean projection of x onto the feasible energy polytope.

    x clipped onto the energy box comes back when it is a member, that is
    when each step x_t - lam * x_{t-1}, rounded as the recovery rounds it,
    is in the step box: it is then the nearest point of a superset.  So
    members, and projections inside the energy box, come back unchanged.
    Otherwise `_pull_pass` projects over a window [lo, hi], first the clip's
    broken steps padded by 2 periods, entered from lam * clip(x)_{lo-1}
    (b_0 when lo = 0).  Copied into the clip, it is the projection when
    each step lo..hi+1 passes the test above, each window energy is in its
    box, and step lo is strictly inside its box or lo = 0: the window's KKT
    multipliers, extended by 0, then satisfy the full problem's, since a
    slack entry step has multiplier 0, the exit step hi+1 is not in the
    window's problem and needs only be feasible, and outside the window
    clip(x)_t is optimal for its own term.  Else the pad doubles, and the
    window [0, T-1] comes back unchecked.

    Raises InfeasibleProblem naming the first period that no energy
    reachable from the earlier periods can meet, when it misses the energy
    box by more than MEMBERSHIP_TOL; a closer miss is left on the energy
    box, by at most the gap.  The forward sweep that decides this runs once
    per polytope; every projection onto an empty polytope raises.  Raises
    ValueError when x has a NaN entry.
    """
    x = np.asarray(x, dtype=float)
    clipped, previous, fits = _clip_held(x, polytope)
    if np.logical_and.reduce(fits):
        return clipped
    if math.isnan(np.vdot(x, x)):  # squares are >= 0, so only a NaN entry gives NaN
        raise ValueError("cannot project a profile with a NaN entry")
    empty = polytope._reach[2]
    if empty is not None:  # a fresh error on every call
        raise InfeasibleProblem(*empty)

    y, last, broken = x.tolist(), len(x) - 1, (~fits).nonzero()[0]
    lo, hi, pad = int(broken[0]), int(broken[-1]), 2
    while True:  # each window reaches past the last, so previous[lo] is the clip's
        lo, hi, pad = max(lo - pad, 0), min(hi + pad, last), 2 * pad
        window = _pull_pass(polytope, y, lo, hi, float(previous[lo]))
        if hi - lo == last:
            return np.array(window)
        clipped[lo : hi + 1] = window
        previous = _held(clipped, polytope.dynamics)
        floor, ceiling = (previous + step for step in polytope.steps)
        fits = (floor <= clipped) & (clipped <= ceiling)
        fits &= _inside(clipped, polytope.x_lower, polytope.x_upper, 0.0)
        if fits.all() and (lo == 0 or floor[lo] < clipped[lo] < ceiling[lo]):
            return clipped


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
    u = np.maximum(v, 0.0)
    u *= 1.0 / params.eta_c
    discharge = np.minimum(v, 0.0)
    discharge *= params.eta_d
    u += discharge
    return u


def power_to_energy(u, params: StorageParams, dyn: Dynamics) -> np.ndarray:
    """Energy profile induced by a power profile, A f(u) + b, in
    `model.step`'s arithmetic: x_t = fl(fl(lam * x_{t-1}) + delta * f(u_t))
    from the held energy b_0 = fl(lam * x0), so a profile's energies are
    `simulate`'s bit for bit."""
    rates = params.delta * loss_map(u, params)
    # one profile steps through Python floats (numpy scalars are several
    # times slower); a batch takes one vector step per period, across rows
    periods = rates.tolist() if rates.ndim == 1 else rates.T
    first = float(dyn.b_offset[0]) + periods[0]
    x = accumulate(periods[1:], lambda x_prev, rate: dyn.lam * x_prev + rate, initial=first)
    return np.array(list(x)).T


def _held(x: np.ndarray, dyn: Dynamics) -> np.ndarray:
    """The energy fl(lam * x_{t-1}) that each x_t steps from, b_0 = fl(lam *
    x0) first, in x's shape and memory order."""
    held = np.empty_like(x)
    np.multiply(dyn.lam, x[..., :-1], out=held[..., 1:])
    held[..., 0] = dyn.b_offset[0]
    return held


def velocity(x, dyn: Dynamics) -> np.ndarray:
    """The intermediate v = A^{-1}(x - b), the natural coordinate of the
    polytope's second box: each step of `model.step`'s recursion undone,
    (x_t - fl(lam * x_{t-1})) / delta, so x = b gives v = 0 exactly.  The
    dynamics alone fix it."""
    x = _check_length(x, dyn.b_offset.shape[0], "x")
    return _velocity_over(x, _held(x, dyn), dyn)


def _velocity_over(x: np.ndarray, held: np.ndarray, dyn: Dynamics) -> np.ndarray:
    """`velocity` of x from its held energies `_held(x, dyn)`, over them."""
    np.subtract(x, held, out=held)
    held /= dyn.delta
    return held


def velocity_adjoint(w, dyn: Dynamics) -> np.ndarray:
    """A^{-T} w, the transpose of `velocity`'s linear part: the reversed
    first difference (w_t - lam * w_{t+1}) / delta."""
    return _adjoint_in_place(np.array(w, dtype=float), dyn)


def _adjoint_in_place(r: np.ndarray, dyn: Dynamics) -> np.ndarray:
    """`velocity_adjoint` of the float array r, written over r."""
    r[..., :-1] -= dyn.lam * r[..., 1:]
    r /= dyn.delta
    return r


def energy_to_power(x, params: StorageParams, dyn: Dynamics) -> np.ndarray:
    """Power profile recovering a given energy profile: f_inv(A^{-1}(x - b))."""
    return inverse_loss_map(velocity(x, dyn), params)


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
        ("v", velocity(x, polytope.dynamics), polytope.v_lower, polytope.v_upper),
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
    u, params: StorageParams, bounds: Bounds, tol: float = MEMBERSHIP_TOL
) -> MembershipVerdict:
    """Membership of u in the (generally nonconvex) feasible power set."""
    u = _check_length(u, params.horizon, "u")
    return _verdict(_power_boxes(u, params, bounds, build_dynamics(params)), tol)


def power_feasibility_mask(
    profiles: np.ndarray,
    params: StorageParams,
    bounds: Bounds,
    dyn: Dynamics,
) -> np.ndarray:
    """Vectorized `in_power_set` over rows of an (n, T) array, within
    MEMBERSHIP_TOL; returns bools."""
    profiles = np.atleast_2d(np.asarray(profiles, dtype=float))
    return _mask(_power_boxes(profiles, params, bounds, dyn), MEMBERSHIP_TOL)


def build_energy_polytope(
    params: StorageParams, bounds: Bounds, dyn: Dynamics
) -> EnergyPolytope:
    """Assemble the half-space form of the feasible energy set.

    Emptiness is not checked here; the first projection decides it.
    """
    return EnergyPolytope(
        v_lower=-(1.0 / params.eta_d) * bounds.u_min_mag,
        v_upper=params.eta_c * bounds.u_max,
        x_lower=bounds.x_min.copy(),
        x_upper=bounds.x_max.copy(),
        dynamics=dyn,
    )


def in_energy_polytope(x, polytope: EnergyPolytope) -> MembershipVerdict:
    """Membership of x in the energy polytope (both boxes, within MEMBERSHIP_TOL)."""
    x = np.asarray(x, dtype=float)
    return _verdict(_energy_boxes(x, polytope), MEMBERSHIP_TOL)


def energy_membership_mask(profiles: np.ndarray, polytope: EnergyPolytope) -> np.ndarray:
    """Vectorized `in_energy_polytope` over rows of an (n, T) array."""
    profiles = np.atleast_2d(np.asarray(profiles, dtype=float))
    return _mask(_energy_boxes(profiles, polytope), MEMBERSHIP_TOL)


def _cap_faces(x_min, x_max, step, lam: float, faces: np.ndarray) -> Iterator[tuple]:
    """For s from T down to 1 (index 0 is x0), yield (s, lo, hi): per face t
    in `faces`, the lowest and highest x_s from which x_t = x_max_t and every
    later box can be met (no face yet while t < s); lo is NaN when none can."""
    lo, hi = np.full(len(faces), -np.inf), np.full(len(faces), np.inf)
    for s in range(len(x_max) - 1, 0, -1):
        lo = np.maximum(lo, np.where(faces == s, x_max[s], x_min[s]))
        hi = np.minimum(hi, x_max[s])
        lo[lo > hi] = np.nan  # NaN stays NaN and fails every comparison
        yield s, lo, hi
        lo, hi = (lo - step[0, s]) / lam, (hi - step[1, s]) / lam


def _cap_face_pair(params: StorageParams, poly: EnergyPolytope) -> Optional[np.ndarray]:
    """The candidate witness, a pair of energy profiles in the polytope as a
    (2, T) array, or None; O(T^2) time and O(T) memory.

    Both ends sit on one cap x_t = x_max_t.  At a period s <= t end a takes
    the largest step x_s - lam * x_{s-1} on that face (the lowest energies
    it can before s, the highest from s on) and end b the smallest (the
    reverse).  f is concave, so at t the midpoint's energy exceeds the cap
    by one nonnegative term per period; the term of s is at least
    lam^(t-s) (1 - eta_c eta_d) / 2 min(-smallest, largest / (eta_c eta_d)).
    The pair is built for the latest s, and then the earliest t, where that
    exceeds WITNESS_MARGIN.  No pair is built when a period's energy box is
    out of reach, even by a gap the feasibility sweep bridges.
    """
    lam, horizon, x0 = params.lam, params.horizon, params.x0
    x_min, x_max = np.append(x0, poly.x_lower), np.append(x0, poly.x_upper)
    # the largest and the smallest step x_s - lam * x_{s-1}
    step = np.pad(np.array(poly.steps[::-1]), ((0, 0), (1, 0)))
    lows, highs, _ = poly._reach
    if any(low > high for low, high in zip(lows, highs)):
        return None  # the power set is empty
    reach = np.array([[x0] + highs, [x0] + lows])  # the highest and lowest x_s reachable
    gain = (1.0 - params.eta_c * params.eta_d) / 2.0 * lam ** np.arange(horizon)
    for s, lo, hi in _cap_faces(x_min, x_max, step, lam, np.arange(horizon + 1)):
        largest = np.minimum(step[0, s], hi[s:] - lam * reach[1, s - 1])
        smallest = np.maximum(step[1, s], lo[s:] - lam * reach[0, s - 1])
        overshoot = gain[: horizon + 1 - s] * np.minimum(
            -smallest, largest / (params.eta_c * params.eta_d)
        )
        hits = np.flatnonzero(overshoot > WITNESS_MARGIN)
        if hits.size == 0:
            continue
        t = s + hits[0]
        face = np.empty((2, horizon + 1))
        for k, face_lo, face_hi in _cap_faces(x_min, x_max, step, lam, np.array([t])):
            face[:, k] = face_lo[0], face_hi[0]
        x = reach.copy()  # end a steps to s from the highest x_{s-1}, b from the lowest
        for k in range(s, horizon + 1):
            x[:, k] = np.clip(lam * x[:, k - 1] + step[:, k], face[0, k], face[1, k])
        for k in range(s - 1, 0, -1):
            x[:, k] = np.clip((x[:, k + 1] - step[:, k + 1]) / lam, reach[1, k], reach[0, k])
        return x[:, 1:]
    return None


def find_nonconvexity_witness(params: StorageParams, bounds: Bounds) -> Optional[Witness]:
    """Two feasible power profiles whose midpoint is infeasible, or None.

    Decides the one pair of `_cap_face_pair` by the membership test: it is
    a witness when both ends are members and the midpoint is not, by more
    than WITNESS_MARGIN.  Lossless storage and storage whose power has one
    sign give no pair (there the power set is a polytope), so None without
    a membership test.  Elsewhere None is not a proof of convexity: on
    grids at T = 2 and 3, every pair of feasible points with an infeasible
    midpoint came with a witness from this search, but that agreement is
    measured, not proven.
    """
    dyn = build_dynamics(params)
    x = _cap_face_pair(params, build_energy_polytope(params, bounds, dyn))
    if x is None:
        return None
    # the ends are built on the power box, but energy_to_power amplifies the
    # rounding of their energies by 1 / (eta_c * delta) and can land one
    # outside; the clip puts it back, and in_power_set still decides the pair
    u_a, u_b = np.clip(energy_to_power(x, params, dyn), -bounds.u_min_mag, bounds.u_max)
    mid = 0.5 * u_a + 0.5 * u_b
    verdict = in_power_set(mid, params, bounds, tol=WITNESS_MARGIN)
    if verdict or not all(in_power_set(u, params, bounds) for u in (u_a, u_b)):
        return None
    worst = max(verdict.violations, key=lambda viol: viol.amount)
    return Witness(u_a=u_a, u_b=u_b, theta=0.5, midpoint=mid, violation=worst)
