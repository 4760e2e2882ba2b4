"""Exception hierarchy shared across the package."""


class TopologyError(ValueError):
    """Factor shapes or rank tables inconsistent with a network topology."""


class NumericError(ArithmeticError):
    """Non-finite values encountered where finite numerics are required."""


class BudgetError(RuntimeError):
    """A storage budget cannot be met even with the smallest topology."""

    def __init__(self, message, min_params):
        super().__init__(message)
        self.min_params = min_params


class FormatError(RuntimeError):
    """Model file has a bad magic number, version, or structure."""


class CorruptionError(FormatError):
    """Model file is truncated or payload sizes disagree with the manifest."""


class ConfigError(RuntimeError):
    """A run configuration is missing a key or carries an unknown one."""


class TrainingError(RuntimeError):
    """Training diverged; carries the step at which the loss or a weight
    became non-finite."""

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step
