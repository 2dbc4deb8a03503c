"""Exception types of the toolkit; ``Incompatible`` is a route's refusal."""


class RegverifyError(Exception):
    """Base class for all toolkit errors."""


class ProtocolSyntaxError(RegverifyError):
    """Raised by the protocol parser on malformed input, citing its line
    unless it is about the whole file."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(
            message if line is None else f"line {line}: {message}")
        self.line = line


class ProtocolSemanticError(RegverifyError):
    """Raised when a protocol source references undeclared entities."""


class ConstraintSyntaxError(RegverifyError):
    """Raised by the constraint parser on malformed input."""


class NotEnabled(RegverifyError):
    """A move is not enabled at the current configuration."""

    def __init__(self, reason: str, step_index: int | None = None):
        self.reason = reason
        self.step_index = step_index
        where = f" at step {step_index}" if step_index is not None else ""
        super().__init__(f"move not enabled{where}: {reason}")


class ReplayFailure(RegverifyError):
    """An execution failed to replay."""


class EmptySupport(RegverifyError):
    """Initial configuration requested with an empty support."""


class NotInitialState(RegverifyError):
    """Initial configuration requested with a non-initial state."""


class Incompatible(RegverifyError):
    """Outside what this route decides: its flavor, problem, input or caps."""


class NotDNF(Incompatible):
    """``dnf_clauses`` passed ``MAX_DNF_CLAUSES`` distinct clauses."""


class NotUninitialized(Incompatible):
    """Operation requires a protocol that never reads the initial symbol."""


class WrongRegisterCount(Incompatible):
    """Operation requires a specific register count."""


class CapExceeded(Incompatible):
    """Exhaustive exploration would exceed the configured cap."""


class CyclicCircuit(RegverifyError):
    """Circuit description is cyclic, uses undefined wires or is malformed."""
