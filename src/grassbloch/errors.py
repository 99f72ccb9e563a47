"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: usage problems exit 2,
data/format problems exit 3, degenerate input (and running out of memory)
exits 4.
"""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition or lies outside the
    supported range (e.g. a point count with no closed form)."""


class DegenerateInputError(InvalidInputError):
    """Numerically degenerate input (e.g. an all-zero received signal)."""


class FormatError(ValueError):
    """A file could not be parsed or fails validation. Carries file context."""

    def __init__(self, message, path=None, line=None):
        ctx = ""
        if path is not None:
            ctx += f"{path}"
        if line is not None:
            ctx += f":{line}"
        super().__init__(f"{ctx}: {message}" if ctx else message)
        self.path = path
        self.line = line
