"""Exception hierarchy shared across the solver.

The CLI maps these onto exit codes: config errors -> 1, numeric errors -> 2,
convergence failures -> 3, I/O problems (plain OSError) -> 4.  Exit 5 is no
exception: `excyl verify` returns it when the audit of the mode files differs
from the audit of a fresh solve.
"""


class ExcylError(Exception):
    """Base class for solver errors."""


class ConfigError(ExcylError):
    """Invalid configuration or data violating a solvability hypothesis."""


class NumericError(ExcylError):
    """Numerical failure: domain violations, singular systems, bad tails."""


class DomainError(NumericError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ConvergenceError(ExcylError):
    """Fixed-point iteration diverged or failed to converge."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state
