"""Decision results shared by every solver and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

from .semantics import Execution

POSITIVE = "positive"
NEGATIVE = "negative"
UNKNOWN = "unknown"


@dataclass
class Verdict:
    answer: str
    algorithm: str
    witness: Execution | None = None
    stats: dict = field(default_factory=dict)
