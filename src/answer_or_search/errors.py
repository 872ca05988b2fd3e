"""Exception taxonomy shared across the toolkit.

Each class carries the CLI exit code it maps to as ``exit_code``, and
``cli.main`` returns it, so that callers and shell scripts can tell
configuration mistakes, bad data, network trouble, and endpoint capability
gaps apart. A subclass inherits its parent's code. Exit code 1 (the base
class, or an exception outside this taxonomy) means a bug.
"""

from __future__ import annotations


class AnswerOrSearchError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ConfigError(AnswerOrSearchError):
    """Invalid or unresolvable configuration (bad paths, odd k, lambda < 1)."""

    exit_code = 2


class DataError(AnswerOrSearchError):
    """Malformed or inconsistent data: parse failures, duplicate ids,
    domain violations of numeric inputs."""

    exit_code = 3


class PairingError(DataError):
    """Two sequences that must be aligned by record id are not."""


class BalanceError(DataError):
    """A few-shot pool cannot supply the requested balanced composition."""

    def __init__(self, side: str, needed: int, available: int) -> None:
        self.side = side
        self.needed = needed
        self.available = available
        super().__init__(
            f"few-shot pool has too few {side} examples: need {needed}, have {available}"
        )


class TemplateError(ConfigError):
    """A prompt template does not contain exactly one question placeholder."""


class CalibrationError(DataError):
    """Threshold calibration received unusable input."""


class TransportError(AnswerOrSearchError):
    """The generation endpoint could not be reached or kept failing."""

    exit_code = 4


class CapabilityError(AnswerOrSearchError):
    """The endpoint answered but lacks a required capability
    (most commonly: per-token log-probabilities are disabled)."""

    exit_code = 5


class RunAbortedError(AnswerOrSearchError):
    """A corpus run stopped early; carries the ids that did complete."""

    def __init__(self, failed_id: str, cause: Exception, completed_ids: list[str]) -> None:
        self.failed_id = failed_id
        self.cause = cause
        self.completed_ids = completed_ids
        super().__init__(
            f"run aborted at record {failed_id}: {cause} "
            f"({len(completed_ids)} records completed)"
        )

    @property
    def exit_code(self) -> int:
        """The cause's code; a cause outside the taxonomy (an ``OSError``) is bad data."""
        if isinstance(self.cause, AnswerOrSearchError):
            return self.cause.exit_code
        return DataError.exit_code


#: Exit codes by name, for callers and tests; each error class owns its own.
EXIT_OK = 0
EXIT_CONFIG = ConfigError.exit_code
EXIT_DATA = DataError.exit_code
EXIT_TRANSPORT = TransportError.exit_code
EXIT_CAPABILITY = CapabilityError.exit_code
