"""Exception types shared across the package."""

__all__ = ["ConventionViolationError", "TruncationError"]


class TruncationError(RuntimeError):
    """A sampled wavefunction has not decayed at the grid edges.

    Raised when the finite window would silently corrupt a transform
    (Wigner quadrature, momentum transform, or free propagation).
    """


class ConventionViolationError(RuntimeError):
    """A marginal that must be non-negative, or match |phibar(p)|^2, does not.

    This signals a kernel-sign or normalization bug, or an undersampled x grid.
    """
