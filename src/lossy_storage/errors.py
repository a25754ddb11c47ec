"""Exception hierarchy shared across the package."""


class LossyStorageError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(LossyStorageError, ValueError):
    """A storage parameter or bound violates its documented invariant."""


class InvalidEfficiency(ValidationError):
    """Efficiency-like factor (eta_c, eta_d or the self-discharge rate) outside (0, 1]."""


class InvalidBound(ValidationError):
    """Negative power/energy bound, or an energy lower bound above its upper bound."""


class InvalidHorizon(ValidationError):
    """Horizon is not a positive integer."""


class LengthMismatch(ValidationError):
    """A time-series vector does not have one entry per period."""


class ObjectiveOutOfRange(ValidationError):
    """The scenario's objective is beyond the float range: at the solution,
    so no solution can be written, or at every feasible oracle grid point,
    so the grid has no minimum."""


class NoSubgradientOracle(LossyStorageError):
    """A custom cost was asked for a subgradient but declared no oracle for it."""


class InfeasibleProblem(LossyStorageError, RuntimeError):
    """The feasible energy set is empty; `period` is the first period
    (0-based) whose energy box no energy reachable before it can meet."""

    def __init__(self, message: str, period: int):
        super().__init__(message)
        self.period = period


class HorizonTooLarge(LossyStorageError, ValueError):
    """Brute-force enumeration refused: horizon exceeds the grid cap."""


class GridTooLarge(LossyStorageError, ValueError):
    """Grid refused: its total size exceeds the guard, or a power box is
    wider than the float range."""


class NoFeasiblePoint(LossyStorageError, RuntimeError):
    """No grid point was feasible; either the set is empty or the grid is too coarse."""


class InstanceMismatch(LossyStorageError, ValueError):
    """Refused to compare results computed on different problem instances."""


class ParseError(LossyStorageError, ValueError):
    """Scenario file is not well-formed JSON."""


class SchemaError(LossyStorageError, ValueError):
    """Scenario file is valid JSON but does not match the scenario schema."""


class HorizonNot2(LossyStorageError, ValueError):
    """Feasible-set sampling is only defined for two-period instances."""
