"""Shared exception types."""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget."""


class ConfigError(ValueError):
    """An experiment configuration violates an admissibility condition."""
