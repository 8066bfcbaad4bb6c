"""Exception types shared across the toolkit.

The split mirrors how callers should react: ``DomainError`` means the numeric
inputs themselves are invalid, ``ConfigError`` means a hyper-parameter or
experiment setting is out of range, ``StateError`` means an operation was
called before its prerequisites were established (e.g. a step without
gradients), and the persistence/run errors belong to the benchmark harness.
"""


class DomainError(ValueError):
    """Invalid numeric input (shape mismatch, empty matrix, negative radius)."""


class UnsupportedShapeError(DomainError):
    """Tensor rank that has no canonical 2-D projection view."""


class ConfigError(ValueError):
    """Invalid hyper-parameter or experiment configuration value.

    ``field``, when given, names the setting at fault and leads the message;
    ``reason`` is the message without it, so a caller that built the raiser
    from settings of its own can name its own setting instead.
    """

    def __init__(self, reason: str, field: str | None = None):
        super().__init__(f"{field}: {reason}" if field else reason)
        self.reason, self.field = reason, field


class StateError(RuntimeError):
    """Operation invoked before its required state exists."""


class PersistenceError(RuntimeError):
    """Corrupt, truncated, or version-incompatible checkpoint file."""


class RunError(RuntimeError):
    """Experiment run failed (e.g. training loss diverged)."""
