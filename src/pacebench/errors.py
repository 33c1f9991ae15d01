"""Exception taxonomy.

Every error carries a stable ``code`` slug used for the machine-readable
line the CLI prints on stderr, and the ``exit_code`` of its family:
ConfigError 2, EncoderRunError 3, every other error 1.
"""

from __future__ import annotations


class PacebenchError(Exception):
    code = "error"
    exit_code = 1


class ConfigError(PacebenchError):
    """Bad configuration, manifest, or CLI input."""

    code = "config"
    exit_code = 2


class ManifestError(ConfigError):
    code = "manifest"


class TemplateError(ConfigError):
    code = "template"


class ComputationError(PacebenchError):
    """Data or computation failure on otherwise valid configuration."""

    code = "computation"


class InvalidGeometryError(ComputationError):
    code = "invalid-geometry"


class Y4mParseError(ComputationError):
    code = "y4m-parse"


class TruncationError(ComputationError):
    code = "truncated-stream"

    def __init__(self, message: str, frames_read: int = 0):
        super().__init__(message)
        self.frames_read = frames_read


class InvalidRateError(ComputationError):
    code = "invalid-rate"


class InvalidInputError(ComputationError):
    code = "invalid-input"


class DeliveryAbortedError(ComputationError):
    """The consumer went away before every frame was delivered.

    Carries whatever was measured up to the abort: the partial pacing
    report, and (when raised by the encoder harness) a partial run record.
    """

    code = "delivery-aborted"

    def __init__(self, message: str, pacing_report=None, run_record=None):
        super().__init__(message)
        self.pacing_report = pacing_report
        self.run_record = run_record


class MetricSchemaError(ComputationError):
    code = "metric-schema"


class ScoreRangeError(ComputationError):
    code = "score-range"


class DuplicatePointError(ComputationError):
    code = "duplicate-point"


class InsufficientDataError(ComputationError):
    code = "insufficient-data"


class DegenerateCurveError(ComputationError):
    code = "degenerate-curve"


class NoOverlapError(ComputationError):
    code = "no-overlap"


class ExtrapolationError(ComputationError):
    code = "extrapolation-refused"


class EmptyGroupError(ComputationError):
    code = "empty-group"


class RankingUnavailableError(ComputationError):
    code = "ranking-unavailable"


class EncoderRunError(PacebenchError):
    """An external encoder (or metric tool) failed to spawn or run."""

    code = "encoder-run"
    exit_code = 3

    def __init__(self, message: str, stderr_tail: str = "", exit_status: int | None = None):
        super().__init__(message)
        self.stderr_tail = stderr_tail
        self.exit_status = exit_status

    def __str__(self) -> str:
        base = super().__str__()
        if self.stderr_tail:
            return f"{base}\n--- captured stderr ---\n{self.stderr_tail.rstrip()}"
        return base


class PruningWarning(UserWarning):
    """Non-monotone rate-quality points were dropped before BD computation."""


class RankTieWarning(UserWarning):
    """Two profiles had equal group averages; ranking fell back to name order."""
