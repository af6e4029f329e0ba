"""Exception types shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific type that applies rather than a bare ValueError.
"""

from __future__ import annotations


class KrallopsError(Exception):
    """Base class for all library-specific errors."""


class DegeneracyError(KrallopsError):
    """A parameter combination makes a defining formula collapse.

    Raised when a denominator or Pochhammer factor that a closed form
    divides by evaluates to zero (for example the Hahn three-term
    recurrence at 2n + alpha + c - N - 1 = 0).
    """


class HypothesisError(KrallopsError):
    """A construction hypothesis fails at a specific index.

    Typically gamma_n = 0 for some n in the range a construction needs;
    ``index`` records the offending n.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class ConstructionError(KrallopsError):
    """The requested construction does not apply to the given inputs."""


class NoOrthogonalPolynomialsError(KrallopsError):
    """A moment functional admits no orthogonal polynomial at some degree.

    Raised when a Hankel determinant vanishes; ``level`` is the degree at
    which existence fails.
    """

    def __init__(self, message: str, level: int | None = None):
        super().__init__(message)
        self.level = level


class OperatorError(KrallopsError):
    """Operation undefined for this operator (e.g. genre of the zero op)."""


def check_at_least(name: str, value: int, least: int) -> None:
    """Reject a bound below ``least``, so that no check passes over an empty range."""
    if value < least:
        raise ValueError(f"{name} must be >= {least}; got {value}")
