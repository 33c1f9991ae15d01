"""Frame rates written as text, "N" or "N/D".

Standard library only: the mock encoder imports it in every child it starts.
"""

from __future__ import annotations

from .errors import ConfigError


def parse_fps(text: str) -> tuple[int, int]:
    """Parse "N" or "N/D" into (num, den); both parts must be positive integers."""
    num, _, den = text.partition("/")
    try:
        rate = int(num), int(den or "1")
    except ValueError:
        raise ConfigError(f"cannot parse frame rate {text!r} (expected N or N/D)") from None
    if min(rate) <= 0:
        raise ConfigError(f"frame rate {text!r} must have positive parts")
    return rate
