"""Shared exception types."""


class ConfigError(ValueError):
    """An experiment configuration violates an admissibility condition."""
