"""Exception types shared across the package."""


class GenoseqError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GenoseqError):
    """A configuration value is out of its legal range."""


class ParseError(GenoseqError):
    """An input file is malformed. The message names the offending location when known."""

    def __init__(self, message, row=None, col=None):
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", column {col})" if col is not None else ")")
        super().__init__(message + loc)


class DataError(GenoseqError):
    """An input does not fit: incompatible shapes, or a dataset that violates a precondition."""


class DivergenceError(GenoseqError):
    """Optimization produced non-finite values; names the epoch and carries the curve when known."""

    def __init__(self, message, epoch=None, curve=None):
        if epoch is not None:
            message = f"{message} (epoch {epoch})"
        super().__init__(message)
        self.curve = curve
