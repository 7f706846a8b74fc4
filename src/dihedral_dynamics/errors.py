"""Shared exception types."""

from __future__ import annotations


class NonStabilizationError(RuntimeError):
    """A limit/thread computation did not settle within the allowed depth."""

    def __init__(self, message: str, level: int):
        super().__init__(message)
        self.level = level


class VerificationError(RuntimeError):
    """An exact verification that should have passed did not."""
