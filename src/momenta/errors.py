"""Exception taxonomy shared across the package.

Input/config problems are distinguished from numerical failures so the CLI can
map them to distinct exit codes.
"""

from __future__ import annotations

__all__ = [
    "MomentaError",
    "InputError",
    "ConfigError",
    "NumericalError",
]


class MomentaError(Exception):
    """Base class for every error raised deliberately by this package."""


class InputError(MomentaError, ValueError):
    """An argument violates a documented precondition."""


class ConfigError(MomentaError, ValueError):
    """A scenario configuration is malformed; names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class NumericalError(MomentaError, RuntimeError):
    """An adaptive numerical routine failed to reach its tolerance."""
