"""Decision results shared by every solver and the CLI."""

from __future__ import annotations

from typing import NamedTuple

from .semantics import Execution

POSITIVE = "positive"
NEGATIVE = "negative"
UNKNOWN = "unknown"


class Verdict(NamedTuple):
    answer: str
    algorithm: str
    witness: Execution | None
    stats: dict
