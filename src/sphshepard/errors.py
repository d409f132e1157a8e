"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A parameter combination is invalid (e.g. gamma outside (0,1))."""


class DataError(ValueError):
    """Input data could not be parsed or is structurally invalid."""

    def __init__(self, message, line=None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class SolveError(ArithmeticError):
    """A local saddle-point solve failed or did not meet tolerances."""

    def __init__(self, message, node_index=None):
        if node_index is not None:
            message = f"neighborhood of node {node_index}: {message}"
        super().__init__(message)
        self.node_index = node_index
