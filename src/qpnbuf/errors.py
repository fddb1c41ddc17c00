"""Exception types shared across the package."""


class QpnError(Exception):
    """Base class for all domain errors raised by this package."""


class ConstructionError(QpnError):
    """A value (state, circuit, register) cannot be built as requested."""


class GateError(QpnError):
    """A gate operation is malformed or invalid for its target state."""


class CircuitError(QpnError):
    """A circuit cannot be executed against the given initial state."""


class QasmError(QpnError):
    """QASM text cannot be parsed or a circuit cannot be emitted."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ModelError(QpnError):
    """A net or marking is internally inconsistent."""


class NotEnabledError(QpnError):
    """A transition was asked to fire while not enabled."""

    def __init__(self, message: str, step: int | None = None):
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)
        self.step = step


class ReversalError(QpnError):
    """A firing event does not match the marking it is being unwound from."""


class ExplosionError(QpnError):
    """State-space enumeration exceeded its firing budget.

    ``fired``, ``states`` and ``depth`` say how far it got: the firings
    explored, the distinct finished states (final, or with every enabled
    firing explored), and the depth of the depth-first stack when the
    bound was reached.
    """

    def __init__(self, step_bound: int, fired: int, states: int, depth: int):
        super().__init__(
            f"enumeration exceeded the step bound of {step_bound} firings "
            f"({fired} firings explored, {states} distinct states finished, "
            f"stack depth {depth})"
        )
        self.fired = fired
        self.states = states
        self.depth = depth


class SpecError(QpnError):
    """A buffer specification violates its parameter constraints."""


class ScenarioError(QpnError):
    """A scenario or trace document is syntactically or semantically invalid."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        if field is not None:
            message = f"{message} (field: {field})"
        super().__init__(message)
        self.line = line
        self.field = field
