"""Exception types shared across the package."""

__all__ = [
    "DomainError",
    "PadError",
    "CoverageError",
    "ConsistencyError",
    "InfiniteMassiveness",
    "BoundUnavailable",
    "ReplicationError",
]


class DomainError(Exception):
    """The base of every domain exception, on which every command exits 1."""


class PadError(DomainError, ValueError):
    """Increment padding does not cover the kernel support.

    Carries ``required_pad``, the smallest number of extra increments per
    side that would make the convolution unbiased at the grid edges.
    """

    def __init__(self, message: str, required_pad: int):
        super().__init__(message)
        self.required_pad = required_pad


class CoverageError(DomainError, ValueError):
    """A sampled path does not span the time range an estimator needs.

    Carries ``required_span`` as a ``(t_lo, t_hi)`` tuple.
    """

    def __init__(self, message: str, required_span: tuple):
        super().__init__(message)
        self.required_span = required_span


class ConsistencyError(DomainError, RuntimeError):
    """A numerical self-check failed (imaginary residue, asymmetry,
    negative variance beyond rounding slack). Indicates quadrature
    failure rather than bad user input."""


class InfiniteMassiveness(DomainError, RuntimeError):
    """The covering radius collapsed to zero: the distance profile exceeds
    the requested epsilon arbitrarily close to zero separation."""


class BoundUnavailable(DomainError, RuntimeError):
    """A tail bound could not be formed (for instance, the entropy
    integral it needs diverges)."""


class ReplicationError(DomainError, RuntimeError):
    """A Monte Carlo replication failed; the message names its index."""
