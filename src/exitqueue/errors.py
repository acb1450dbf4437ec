"""Exception types shared across the exit queue package."""

from __future__ import annotations

__all__ = [
    "ExitQueueError",
    "ConfigError",
    "LengthMismatch",
    "NegativeProcessed",
    "UnknownRequest",
    "InfeasibleProcessing",
    "InvalidAlpha",
    "NonConvergence",
    "ModelMismatch",
    "InstanceTooLarge",
    "NoWithdrawals",
    "FeasibilityViolation",
]


class ExitQueueError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ExitQueueError):
    """A configuration value or file is malformed or inconsistent."""


class LengthMismatch(ExitQueueError):
    """Trace arrays disagree on the simulated horizon."""


class NegativeProcessed(ExitQueueError):
    """A per-period processed total is negative."""


class UnknownRequest(ExitQueueError):
    """A processed request is not present in the waiting list."""


class InfeasibleProcessing(ExitQueueError):
    """A processed set exceeds the sliding-window slack."""


class InvalidAlpha(ExitQueueError):
    """Alpha scale factor outside (0, 1]."""


class NonConvergence(ExitQueueError):
    """Value iteration hit its sweep limit before meeting tolerance."""


class ModelMismatch(ExitQueueError):
    """Live queue or file contents do not fit the solved decision model."""


class InstanceTooLarge(ExitQueueError):
    """Brute-force schedule enumeration would exceed its node budget."""


class NoWithdrawals(ConfigError):
    """No processed or leftover withdrawals to average after burn-in: the
    configured arrivals and burn_in leave the steady-state metric undefined."""


class FeasibilityViolation(ExitQueueError):
    """A simulated trace failed the sliding-window audit."""
