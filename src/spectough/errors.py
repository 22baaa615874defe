"""Shared exception types."""


class Graph6Error(ValueError):
    """Malformed or unsupported graph6 input."""


class EigenConvergenceError(RuntimeError):
    """Jacobi sweeps did not reach the off-diagonal threshold."""
